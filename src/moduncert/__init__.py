"""Entropy uncertainty bounds over finite-fiber commutative C*-algebra modules.

The algebra C(X) with |X| = d is realized as d-tuples under pointwise
operations; modules over it are n x d arrays with a fiberwise inner
product.  On top of that sit Parseval frames, a modular Shannon entropy,
the Deutsch and Maassen-Uffink style lower bounds on entropy sums, a
Monte Carlo verifier, and a projected gradient search that hunts for
bound violations.
"""

from .algebra import (
    POSITIVITY_TOL,
    AlgebraElement,
    identity,
    involution,
    is_positive,
    norm,
    order_geq,
    zero,
)
from .entropy_bounds import (
    ZERO_TOL,
    BuzanoResult,
    EntropyValue,
    buzano_check,
    coherence,
    cross_inner_norms,
    deutsch_bound,
    entropy,
    mu_bound,
)
from .errors import DimensionMismatch, PreconditionError
from .frames import (
    PARSEVAL_TOL,
    Frame,
    gen_fourier_pair,
    gen_onb,
    gen_random_parseval,
    has_unit_inner_products,
    is_parseval,
    reconstruct,
    restrict_to_fiber,
)
from .module_space import (
    ModuleVector,
    inner,
    is_unit_inner,
    module_norm,
    random_unit_vector,
    scale,
    unit_vector_stream,
)
from .verify_search import (
    SEARCH_GAP_TOL,
    VERIFY_GAP_TOL,
    SearchResult,
    VerificationReport,
    campaign,
    frames_digest,
    is_counterexample_candidate,
    minimize_entropy_sum,
    proof_chain_check,
    recompute_gap,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BuzanoResult",
    "DimensionMismatch",
    "EntropyValue",
    "Frame",
    "ModuleVector",
    "PARSEVAL_TOL",
    "POSITIVITY_TOL",
    "PreconditionError",
    "SEARCH_GAP_TOL",
    "SearchResult",
    "VERIFY_GAP_TOL",
    "VerificationReport",
    "ZERO_TOL",
    "buzano_check",
    "campaign",
    "coherence",
    "cross_inner_norms",
    "deutsch_bound",
    "entropy",
    "frames_digest",
    "gen_fourier_pair",
    "gen_onb",
    "gen_random_parseval",
    "has_unit_inner_products",
    "identity",
    "inner",
    "involution",
    "is_counterexample_candidate",
    "is_parseval",
    "is_positive",
    "is_unit_inner",
    "minimize_entropy_sum",
    "module_norm",
    "mu_bound",
    "norm",
    "order_geq",
    "proof_chain_check",
    "random_unit_vector",
    "reconstruct",
    "recompute_gap",
    "restrict_to_fiber",
    "scale",
    "unit_vector_stream",
    "verify",
    "zero",
]
