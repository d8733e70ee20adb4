"""Monte Carlo verification of the uncertainty bounds and minimization of the
entropy sum against the sharper Maassen-Uffink bound.

Verification samples unit vectors, evaluates the entropy sum against the
chosen bound fiberwise in the C(X)-order, and records gaps; the one number
encoding ``NumberTexts`` turns its per-trial columns into the texts that
both the JSON report and the per-trial CSV are laid out from.  Its trials
are cut into contiguous spans, which run on up to W worker threads when
the process may use W > 1 CPUs, so at most W spans are in flight, sized
so that together they hold no more than one serial span; NumPy releases
the GIL on a span's arrays, and the calling thread hashes the frames
meanwhile.

The search minimizes the pointwise-minimum-over-fibers of the entropy sum
over unit-inner-product vectors; that decouples into one problem per fiber
on the unit sphere of C^n, and all d*restarts starts descend as one batch.
How a start steps, and why starts where a weight vanishes need no path of
their own, is in the docstring of ``_descend``.

Tolerances are module constants, read at call time from the module that
defines them: ``VERIFY_GAP_TOL``, ``SEARCH_GAP_TOL`` and ``GRAD_TOL`` here,
``ZERO_TOL`` and ``INEQUALITY_TOL`` in ``entropy_bounds``.

Determinism contract: every unit of work with user seed S draws the same
vector under any execution schedule, and any single unit can be replayed
in isolation.  Verify trial i is unit i of the counter-based stream
``Philox(key=S)`` (``unit_vector_stream``: a fixed block of counters per
trial), so distinct seeds give independent samples.  A search start
(fiber*restarts + restart) is still seeded S XOR unit-index, and its
arithmetic does not depend on which starts share its batch: the descent
uses only elementwise operations, per-start matrix products and linear
solves, and per-start reductions over a fixed axis.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import entropy_bounds
from .entropy_bounds import (
    BuzanoResult,
    buzano_sides,
    coherence,
    deutsch_bound,
    entropy,
    entropy_gradient,
    entropy_hessian,
    entropy_terms,
    mu_bound,
    project_tangent,
)
from .errors import PreconditionError, check_count
from .frames import PARSEVAL_TOL, Frame, check_pair_shape, check_vector_shape
from .frames import gen_random_parseval, synthesis
from .frames import to_json as frame_to_json
from .module_space import (
    ModuleVector,
    is_unit_inner,
    random_unit_vector,
    unit_vector_stream,
)
from .module_space import to_json as vector_to_json

BOUND_KINDS = ("deutsch", "maassen_uffink")

VERIFY_GAP_TOL = 1e-9      # gap below -tol counts as a violation
SEARCH_GAP_TOL = 1e-6      # gap below -tol counts as a counterexample candidate
GRAD_TOL = 1e-8            # tangent gradient norm stopping threshold
NEWTON_TOL = 0.1           # tangent gradient norm at or below which Newton steps are tried
# JSON's spellings of the non-finite floats, and repr's, which the CSV uses
_CSV_SPELLING = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}

# Verify cuts its trials into contiguous spans of at most _VERIFY_CHUNK trials;
# the spans in flight, one serially or one per thread when T > 1 threads run
# them, hold at most _VERIFY_CHUNK_COEFFS coefficients per frame between them,
# so that verify's temporaries stay a few MB on large frames whatever T is.
# The budget is small because each worker thread's malloc arena keeps what
# its spans freed, on top of what the calling thread's arena holds.  None of
# the three constants has an effect on results.
_VERIFY_CHUNK = 2048
_VERIFY_CHUNK_COEFFS = 1 << 16
_VERIFY_MIN_SPAN = 256


@dataclass(frozen=True)
class VerificationReport:
    """Per-trial gap record for one bound check.

    ``violations`` holds exactly the (trial, fiber, gap) entries with
    gap < -``VERIFY_GAP_TOL``; ``boundary_graze_trials`` lists violating
    trials whose vector had a weight at or below ``ZERO_TOL`` (outside
    the strict entropy domain, so not counterexample evidence).
    """

    trials: int
    bound_kind: str
    bound_value: float
    mu: float
    min_gap: float
    violations: tuple[tuple[int, int, float], ...]
    boundary_graze_trials: tuple[int, ...]
    seed: int
    frames_digest: str
    trial_gaps: np.ndarray
    trial_worst_fiber: np.ndarray


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one entropy-sum minimization.

    ``best_gap`` is recomputed from scratch at report time from the
    assembled ``best_x``; ``boundary_grazing`` marks minima with a
    weight at or below ``ZERO_TOL``.  ``iterations_per_start``
    holds the iterations of each (fiber, restart) run at index
    fiber*restarts + restart, and ``iterations_used`` is their sum.
    ``newton_steps`` counts the accepted Newton steps and
    ``line_search_backtracks`` the Armijo step halvings, each summed over
    every (fiber, restart) run.
    """

    best_x: ModuleVector
    best_gap: float
    bound_kind: str
    bound_value: float
    mu: float
    restarts: int
    max_iters: int
    iterations_used: int
    iterations_per_start: tuple[int, ...]
    runs_at_max_iters: int
    newton_steps: int
    line_search_backtracks: int
    converged: bool
    boundary_grazing: bool
    seed: int
    frames_digest: str


def canonical_json(obj) -> bytes:
    """Stable byte encoding used for content digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


class NumberTexts(list):
    """The JSON number texts of a flat list of ints and floats, from one call
    of the C encoder; no number text holds its ", " separators.
    ``cli.render_report`` lays them out as it lays out the list itself."""

    def __init__(self, values):
        super().__init__(json.dumps(values)[1:-1].split(", ") if values else ())


def frames_digest(frame_a: Frame, frame_b: Frame) -> str:
    """Content hash of the pair of frames, independent of file layout."""
    h = hashlib.sha256()
    h.update(canonical_json(frame_to_json(frame_a)))
    h.update(canonical_json(frame_to_json(frame_b)))
    return "sha256:" + h.hexdigest()


def bound_value_for(bound_kind: str, mu: float) -> float:
    """Resolve a bound kind and coherence to the bound in nats.

    Parseval frames keep mu <= 1 mathematically; floating-point overshoot
    up to 1e-9 is clamped before the closed forms reject it.
    """
    if bound_kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {bound_kind!r}; expected one of {BOUND_KINDS}")
    if 1.0 < mu <= 1.0 + 1e-9:
        mu = 1.0
    return deutsch_bound(mu) if bound_kind == "deutsch" else mu_bound(mu)


def _check_pair(frame_a: Frame, frame_b: Frame) -> None:
    check_pair_shape(frame_a, frame_b)
    for name, fr in (("first", frame_a), ("second", frame_b)):
        if not fr.parseval:
            raise PreconditionError(f"{name} frame is not Parseval at tol={PARSEVAL_TOL:g}")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _entropies(frame: Frame, xs: np.ndarray):
    """Entropies (batch, d) of a (batch, d, n) batch of rows and the number
    of vanished weights per vector; the weights are dropped on return."""
    _c, w, _log_w, s = entropy_terms(frame.analysis, xs)
    return s, np.count_nonzero(w <= entropy_bounds.ZERO_TOL, axis=(1, 2))


def verify(frame_a: Frame, frame_b: Frame, bound_kind: str, trials: int,
           seed: int) -> VerificationReport:
    """Sample unit vectors and check the entropy sum against the bound fiberwise.

    Trial i draws its vector from ``unit_vector_stream(n, d, seed, i, 1)``,
    unit i of the Philox stream keyed by seed, so any trial is replayable
    in isolation.  ``seed`` must be an integer in [0, 2**64).

    The trials run in contiguous spans of at most ``_VERIFY_CHUNK`` trials.
    When the process may use W > 1 CPUs and there are at least
    2 * ``_VERIFY_MIN_SPAN`` trials, T = min(W, trials // ``_VERIFY_MIN_SPAN``)
    worker threads run at least T spans, at most T in flight, while this
    thread computes the frames digest; the T spans in flight together hold
    at most ``_VERIFY_CHUNK_COEFFS`` coefficients per frame, as one span
    does in a serial run.  The spans' violations and graze trials are
    merged in span order, so the report does not depend on the layout; an
    error in a span is raised here once every thread has stopped.  With
    W = 1, or too few trials for two spans, no thread is started.
    """
    _check_pair(frame_a, frame_b)
    check_count("trials", trials, 1)
    trials = int(trials)        # a NumPy integer would wrap in the span arithmetic and not render
    mu = coherence(frame_a, frame_b)
    bound = bound_value_for(bound_kind, mu)
    n, d = frame_a.n, frame_a.d

    trial_gaps = np.empty(trials)
    trial_worst = np.empty(trials, dtype=np.int64)

    def span(start, stop):
        """Trials [start, stop): their gaps into the report's columns, and
        their violations and graze trials returned."""
        xs = np.swapaxes(unit_vector_stream(n, d, seed, start, stop - start), 1, 2)
        sa, za = _entropies(frame_a, xs)
        sb, zb = _entropies(frame_b, xs)
        gaps = (sa + sb) - bound                       # (stop - start, d)
        trial_gaps[start:stop] = gaps.min(axis=1)
        trial_worst[start:stop] = gaps.argmin(axis=1)
        bad_trial, bad_fiber = np.nonzero(gaps < -VERIFY_GAP_TOL)
        violations = [(start + int(s), int(t), float(gaps[s, t]))
                      for s, t in zip(bad_trial, bad_fiber)]
        zeros = za + zb
        return violations, [start + int(s) for s in np.unique(bad_trial) if zeros[s] > 0]

    threads = max(1, min(_usable_cpus(), trials // _VERIFY_MIN_SPAN))
    coeffs = threads * max(frame_a.m, frame_b.m) * d        # per trial, over the spans in flight
    chunk = max(1, min(_VERIFY_CHUNK, _VERIFY_CHUNK_COEFFS // coeffs))
    count = max((trials + chunk - 1) // chunk, threads)
    spans = [(trials * k // count, trials * (k + 1) // count) for k in range(count)]
    if threads == 1:
        results = [span(*bounds) for bounds in spans]
        digest = frames_digest(frame_a, frame_b)
    else:
        from concurrent.futures import ThreadPoolExecutor    # 4-5 ms to import: not at load
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(span, *bounds) for bounds in spans]
            digest = frames_digest(frame_a, frame_b)        # holds the GIL; the spans mostly do not
            results = [future.result() for future in futures]
    violations = [v for span_violations, _ in results for v in span_violations]
    graze = [t for _, span_graze in results for t in span_graze]

    return VerificationReport(
        trials=trials,
        bound_kind=bound_kind,
        bound_value=float(bound),
        mu=mu,
        min_gap=float(trial_gaps.min()),
        violations=tuple(violations),
        boundary_graze_trials=tuple(graze),
        seed=int(seed),
        frames_digest=digest,
        trial_gaps=trial_gaps,
        trial_worst_fiber=trial_worst,
    )


def recompute_gap(frame_a: Frame, frame_b: Frame, x: ModuleVector,
                  bound_kind: str) -> tuple[float, bool]:
    """Gap of the entropy sum at x against the bound, from scratch.

    Returns (gap, boundary_grazing).  This is the replay path: it goes
    through the public entropy evaluation, not the optimizer internals.
    """
    ea = entropy(frame_a, x)
    eb = entropy(frame_b, x)
    total = ea.value + eb.value
    mu = coherence(frame_a, frame_b)
    bound = bound_value_for(bound_kind, mu)
    gap = float(np.min(total.values.real)) - bound
    return gap, (ea.zero_coefficient_count + eb.zero_coefficient_count) > 0


def _re_inner(a, b):
    """Re<a, b> per row of two (batch, n) arrays, as one fixed-order row sum."""
    return np.add.reduce(a.real * b.real + a.imag * b.imag, axis=-1)


def _normalize(v):
    return v / np.sqrt(_re_inner(v, v))[:, np.newaxis]


def _newton(mats, v, g, gt, terms):
    """Riemannian Newton directions (batch, n) at the unit rows v, from the
    gradients g, tangent gradients gt and kernel terms there.  The entropy sum
    is constant along i*v, so the Newton equation (H - Re<v, g> I) eta = -gt
    is solved on the horizontal space orthogonal to v and i*v, as the bordered
    system [[H - Re<v, g> I, X], [X^T, 0]] [eta; mu] = [-gt; 0] (Nocedal &
    Wright, Numerical Optimization, 2006, sec. 16.1) with X = [v, iv] in
    [Re, Im] coordinates.  H is the Hessian of the sum, that of the start's
    stacked matrix.  A start whose system is exactly singular gets NaN."""
    b, n = v.shape
    k = 2 * n
    system = np.zeros((b, k + 2, k + 2))
    system[:, :k, :k] = entropy_hessian(mats, *terms)
    system.reshape(b, -1)[:, :k * (k + 3):k + 3] -= _re_inner(v, g)[:, np.newaxis]
    # the border X = [x, ix]: x = [Re v, Im v] and ix = [-Im v, Re v]
    system[:, :n, k] = system[:, n:k, k + 1] = system[:, k, :n] = system[:, k + 1, n:k] = v.real
    system[:, n:k, k] = system[:, k, n:k] = v.imag
    system[:, :n, k + 1] = system[:, k + 1, :n] = -v.imag
    rhs = np.concatenate([-gt.real, -gt.imag, np.zeros((b, 2))], axis=1)[:, :, np.newaxis]
    try:
        eta = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:       # solve start by start, so the others keep theirs
        eta = np.full_like(rhs, np.nan)
        for j in range(b):
            with contextlib.suppress(np.linalg.LinAlgError):
                eta[j] = np.linalg.solve(system[j], rhs[j])
    return eta[:, :n, 0] + 1j * eta[:, n:k, 0]


def _descend(pair, fiber, v, max_iters):
    """Riemannian descent on the unit sphere of C^n from every row of v at
    once; start b runs on fiber ``fiber[b]`` of the (d, m_a + m_b, n) ``pair``,
    each fiber's two analysis matrices stacked, whose entropy is the sum.
    Each start takes a Barzilai-Borwein trial step along its tangent
    gradient, backtracked by Armijo; once that gradient is at most
    ``NEWTON_TOL`` it tries the Riemannian Newton direction of ``_newton``
    (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
    2008, ch. 6) instead, from step 1, where it passes the angle test.
    Returns, per start, (v, f, iterations, converged, Newton steps, Armijo
    halvings); converged means a stop other than running out of iterations
    (a tangent gradient norm at most ``GRAD_TOL``, no descent found, or
    eight steps in a row without progress at floating resolution).  Each start keeps its kernel
    terms at its current point: the gradient and the Hessian come from them,
    and an accepted Armijo trial hands over its own.

    The state of the active starts is held compacted: a start leaves the
    active arrays once, at the top of the iteration after it stops, and its
    results go to its original index then.  Rounds run on whole arrays; only
    partial Newton tails and the Armijo rounds after the first gather rows.
    A flat start (tangent gradient at most ``GRAD_TOL``) stops as a refused
    step: it tries no Newton direction, its Armijo test passes with no
    halvings, and it stays where it was.

    Starts at or near the boundary, where a weight w_j = |c_j|^2 vanishes,
    take the same steps as every other start.  The gradient
    -2 A^H((ln w + 1) c) stays continuous as c_j -> 0, since c_j ln w_j -> 0;
    the Hessian's ln term grows like |ln w_j|, so the sum is strongly curved
    toward the face, not flat; and weights at or below ``ZERO_TOL`` drop out
    of the value, the gradient and the Hessian."""
    out_v, out_f = np.empty_like(v), np.empty(len(v))
    out_iters, out_conv = np.empty(len(v), dtype=np.int64), np.empty(len(v), dtype=bool)
    out_counts = np.empty((len(v), 3), dtype=np.int64)

    def leave(rows, iterations, stopped):
        gone = orig[rows]
        out_v[gone], out_f[gone], out_counts[gone] = v[rows], f[rows], counts[rows]
        out_iters[gone], out_conv[gone] = iterations, stopped

    orig, mats, v = np.arange(len(v)), pair[fiber], _normalize(v)
    *terms, f = entropy_terms(mats, v)
    g = entropy_gradient(mats, *terms)
    counts = np.zeros((len(v), 3), dtype=np.int64)
    stall, newton, backs = counts.T
    done = np.zeros(len(v), dtype=bool)
    prev_v = prev_gt = v        # no last step: s = 0, so the first trial step is 1
    for it in range(max_iters):
        if np.logical_or.reduce(done):      # the starts that stopped in iteration `it` leave
            leave(done, it, True)
            orig, mats, v, f, g, counts, prev_v, prev_gt, done, *terms = (
                a[~done] for a in (orig, mats, v, f, g, counts, prev_v, prev_gt, done, *terms))
            stall, newton, backs = counts.T
            if not orig.size:
                break
        gt = project_tangent(g, v)
        s, y = v - prev_v, gt - prev_gt
        gsq, ss, sy = _re_inner(np.array([gt, s, s]), np.array([gt, s, y]))
        gnorm = np.sqrt(gsq)
        flat = gnorm <= GRAD_TOL        # converged: its step is refused below
        # Barzilai-Borwein trial step <s,s>/Re<s,y>, or 1 with no usable last step
        alpha = np.minimum(np.maximum(
            np.divide(ss, sy, out=np.ones(ss.shape), where=sy > 0), 1e-8), 1e8)
        prev_v, prev_gt = v, gt
        # direction d and slope Re<gt, d>: the gradient's, or in the quadratic
        # tail the Newton direction's where it passes the angle test, from step 1
        d, slope = -gt, -gsq
        use_newton = ~flat & (gnorm <= NEWTON_TOL)
        if np.logical_or.reduce(use_newton):
            t = slice(None) if np.logical_and.reduce(use_newton) else use_newton.nonzero()[0]
            eta = _newton(mats[t], v[t], g[t], gt[t], [x[t] for x in terms])
            eg, ee = _re_inner(np.array([gt[t], eta]), np.array([eta, eta]))
            use_newton[t] = ok = eg <= -1e-6 * np.sqrt(gsq[t] * ee)
            d[use_newton], slope[use_newton], alpha[use_newton] = eta[ok], eg[ok], 1.0
        # Armijo backtracking per start: the first trial on every row at once,
        # then halvings on the rows still pending; a flat start passes with none
        u = _normalize(v + alpha[:, np.newaxis] * d)
        *new, fu = entropy_terms(mats, u)
        ok = (fu <= f + 1e-4 * alpha * slope) | flat
        if not np.logical_and.reduce(ok):
            pending, halvings = (~ok).nonzero()[0], np.where(ok, 0, 59)
            pv, pd, pa, pf, ps, pm = (a[pending] for a in (v, d, alpha, f, slope, mats))
            for halved in range(1, 60):
                pa = pa * 0.5
                up = _normalize(pv + pa[:, np.newaxis] * pd)
                *newp, fp = entropy_terms(pm, up)
                okp = fp <= pf + 1e-4 * pa * ps
                if np.logical_or.reduce(okp):
                    acc = pending[okp]
                    u[acc], fu[acc], ok[acc], halvings[acc] = up[okp], fp[okp], True, halved
                    for store, x in zip(new, newp):
                        store[acc] = x[okp]
                    if np.logical_and.reduce(okp):
                        break
                    pending, pv, pd, pa, pf, ps, pm = (
                        a[~okp] for a in (pending, pv, pd, pa, pf, ps, pm))
            backs += halvings
        done = flat | ~ok       # a refused step, or no descent: these stop where they are
        u[done], fu[done] = v[done], f[done]
        slow = f - fu <= 1e-13 * np.maximum(1.0, np.abs(fu))
        v, f, terms, g = u, fu, new, entropy_gradient(mats, *new)
        newton += use_newton & ~done
        stall[:] = np.where(slow, stall + 1, 0)
        done |= stall >= 8
    leave(slice(None), max_iters, done)
    return out_v, out_f, out_iters, out_conv, *out_counts.T[1:]


def minimize_entropy_sum(frame_a: Frame, frame_b: Frame, bound_kind: str,
                         restarts: int = 32, max_iters: int = 2000,
                         seed: int = 0) -> SearchResult:
    """Minimize the pointwise-minimum-over-fibers entropy sum over unit x.

    The problem decouples into one sphere minimization per fiber;
    ``best_x`` assembles every fiber's minimizer, so the reported gap is
    attained at the worst fiber.  With restarts a power of two, the run
    on fiber t reproduces exactly the d=1 run seeded seed ^ (t*restarts)
    on the restricted frame (the unit indices coincide bitwise).
    """
    _check_pair(frame_a, frame_b)
    check_count("restarts", restarts, 1)
    check_count("max_iters", max_iters, 1)
    check_count("seed", seed, 0)
    mu = coherence(frame_a, frame_b)
    bound = bound_value_for(bound_kind, mu)
    n, d = frame_a.n, frame_a.d

    # start t*restarts + r runs on fiber t from the vector seeded seed ^ that index
    starts = np.stack([random_unit_vector(n, 1, seed ^ unit).entries[:, 0]
                       for unit in range(d * restarts)])
    pair = np.concatenate([frame_a.analysis, frame_b.analysis], axis=1)     # (d, m_a + m_b, n)
    v, f, iters, conv, newton, backtracks = _descend(
        pair, np.repeat(np.arange(d), restarts), starts, max_iters)
    best = np.arange(d) * restarts + np.argmin(f.reshape(d, restarts), axis=1)
    best_x = ModuleVector(np.ascontiguousarray(v[best].T))
    best_gap, grazing = recompute_gap(frame_a, frame_b, best_x, bound_kind)

    return SearchResult(
        best_x=best_x,
        best_gap=best_gap,
        bound_kind=bound_kind,
        bound_value=float(bound),
        mu=mu,
        restarts=int(restarts),     # a NumPy integer would not render
        max_iters=int(max_iters),
        iterations_used=int(iters.sum()),
        iterations_per_start=tuple(iters.tolist()),
        runs_at_max_iters=int(np.count_nonzero(~conv)),
        newton_steps=int(newton.sum()),
        line_search_backtracks=int(backtracks.sum()),
        converged=bool(conv[best].all()),
        boundary_grazing=grazing,
        seed=int(seed),
        frames_digest=frames_digest(frame_a, frame_b),
    )


def is_counterexample_candidate(result: SearchResult) -> bool:
    """A candidate needs a gap below -``SEARCH_GAP_TOL`` away from the boundary;
    boundary-grazing minima live outside the strict entropy domain."""
    return result.best_gap < -SEARCH_GAP_TOL and not result.boundary_grazing


def campaign(pairs: int, restarts: int, max_iters: int, seed: int,
             n_max: int, m_max: int, d_max: int):
    """Search random Parseval frame pairs against the Maassen-Uffink bound.

    Pair k draws, from ``default_rng(seed)`` and in this order, n in
    [2, n_max], m in [n, m_max], d in [1, d_max], the seeds of its two
    frames and the seed of its search.  Returns an iterator that yields,
    pair by pair, ``(spec, frame_a, frame_b, result)``, where spec holds
    the pair index and those draws and result is the
    ``minimize_entropy_sum`` outcome.  Bad arguments raise ValueError
    here, before any pair is drawn.
    """
    for name, value, low in (("pairs", pairs, 1), ("restarts", restarts, 1),
                             ("max_iters", max_iters, 1), ("seed", seed, 0),
                             ("n_max", n_max, 2), ("d_max", d_max, 1), ("m_max", m_max, 1)):
        check_count(name, value, low)
    if m_max < n_max:
        raise ValueError(f"m_max must be >= n_max, got m_max={m_max}, n_max={n_max}")
    return _campaign_pairs(pairs, restarts, max_iters, seed, n_max, m_max, d_max)


def _campaign_pairs(pairs, restarts, max_iters, seed, n_max, m_max, d_max):
    rng = np.random.default_rng(seed)
    for k in range(pairs):
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(n, m_max + 1))
        d = int(rng.integers(1, d_max + 1))
        spec = {"pair": k, "n": n, "m": m, "d": d,
                "seed_a": int(rng.integers(0, 2 ** 31)),
                "seed_b": int(rng.integers(0, 2 ** 31)),
                "search_seed": int(rng.integers(0, 2 ** 31))}
        frame_a = gen_random_parseval(n, m, d, spec["seed_a"])
        frame_b = gen_random_parseval(n, m, d, spec["seed_b"])
        result = minimize_entropy_sum(frame_a, frame_b, "maassen_uffink", restarts=restarts,
                                      max_iters=max_iters, seed=spec["search_seed"])
        yield spec, frame_a, frame_b, result


def report_to_dict(report: VerificationReport) -> dict:
    """Full JSON body of a verification report (fixed key order)."""
    return {
        "kind": "verification",
        "trials": report.trials,
        "bound_kind": report.bound_kind,
        "mu": report.mu,
        "bound_value": report.bound_value,
        "gap_tol": VERIFY_GAP_TOL,
        "seed": report.seed,
        "frames_digest": report.frames_digest,
        "min_gap": report.min_gap,
        "violations": [[t, f, g] for (t, f, g) in report.violations],
        "boundary_graze_trials": list(report.boundary_graze_trials),
        "trial_gaps": report.trial_gaps.tolist(),
        "trial_worst_fiber": report.trial_worst_fiber.tolist(),
    }


def trials_to_csv(gaps: NumberTexts, worst_fibers: NumberTexts) -> str:
    """Per-trial CSV text: a header, then trial index, min fiber gap and worst
    fiber index, one row per trial, with the CRLF line ends of ``csv.writer``
    and the gaps as ``repr`` spells them."""
    rows = zip(map(str, range(len(gaps))), map(_CSV_SPELLING.get, gaps, gaps), worst_fibers)
    return "\r\n".join(["trial,min_gap,worst_fiber", *map(",".join, rows), ""])


def search_result_to_dict(result: SearchResult) -> dict:
    """Full JSON body of a search result; carries everything replay needs."""
    return {
        "kind": "search",
        "bound_kind": result.bound_kind,
        "mu": result.mu,
        "bound_value": result.bound_value,
        "seed": result.seed,
        "frames_digest": result.frames_digest,
        "zero_tol": entropy_bounds.ZERO_TOL,
        "restarts": result.restarts,
        "max_iters": result.max_iters,
        "iterations_used": result.iterations_used,
        "iterations_per_start": list(result.iterations_per_start),
        "runs_at_max_iters": result.runs_at_max_iters,
        "newton_steps": result.newton_steps,
        "line_search_backtracks": result.line_search_backtracks,
        "converged": result.converged,
        "boundary_grazing": result.boundary_grazing,
        "best_gap": result.best_gap,
        "best_x": vector_to_json(result.best_x),
    }


def proof_chain_check(frame_a: Frame, frame_b: Frame, x: ModuleVector) -> BuzanoResult:
    """Check the pairwise product bound the uncertainty proof passes through
    the monotone logarithm:

        ||<tau_j, x><x, omega_k>|| <= (||tau_j|| ||omega_k|| + ||<tau_j, omega_k>||)/2

    for every (j, k), with x of unit inner product.  Each pair is Buzano's
    inequality, which ``buzano_sides`` evaluates for all pairs at once as
    ``buzano_check(tau_j, omega_k, x)`` does for one; the result is that of
    the first pair, j-major, with the largest lhs - rhs, which holds exactly
    when every pair holds.
    """
    if not is_unit_inner(x):
        raise PreconditionError("proof_chain_check needs a unit inner product x")
    check_vector_shape(frame_a, x)
    check_pair_shape(frame_a, frame_b)
    lhs, rhs, holds = buzano_sides(synthesis(frame_a)[:, np.newaxis], synthesis(frame_b),
                                   x.entries)                   # (m_a, m_b) each
    first = np.argmax(lhs - rhs)
    return BuzanoResult(*(a.flat[first].item() for a in (lhs, rhs, holds)))
