"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
moduncert module that binds it, so calls made through ``from x import f``
aliases are counted too.  A wrapper keeps a stack of open spans: a
span's self time is its duration minus the time of the traced spans it
directly contains.  Only counts and summed times are kept, never
per-call records, to keep the overhead of fine-grained layers low.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs whose per-layer metrics the benchmark reports.
TRACED = (
    ("cli", "main"),
    ("frames", "from_json"),
    ("module_space", "random_unit_vector"),
    ("entropy_bounds", "batch_entropy_values"),
    ("entropy_bounds", "fiber_entropy_sum"),
    ("entropy_bounds", "fiber_entropy_sum_grad"),
    ("verify_search", "verify"),
    ("verify_search", "minimize_entropy_sum"),
    ("verify_search", "frames_digest"),
    ("verify_search", "report_to_dict"),
    ("verify_search", "search_result_to_dict"),
)

KERNEL = "entropy_bounds.batch_entropy_values"

# Functions whose call count varies with the work done; the others run once per op.
COUNTED = {"frames.from_json", "module_space.random_unit_vector", KERNEL,
           "entropy_bounds.fiber_entropy_sum", "entropy_bounds.fiber_entropy_sum_grad",
           "verify_search.frames_digest"}


def kernel_cost(analysis, xs) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of one batch_entropy_values call.

    Per (trial, frame vector, fiber): n complex multiply-adds (8 flops
    each), then |c|^2, c ln c and the sum (7 flops counting the log as
    one).  Bytes are the arrays read and written once: the analysis
    cache, the batch of vectors, and the values and zero counts.
    """
    d, m, n = analysis.shape
    batch = xs.shape[0]
    flops = batch * d * m * (8 * n + 7)
    nbytes = 16 * d * m * n + 16 * batch * n * d + 8 * batch * d + 8 * batch
    return float(flops), float(nbytes)


class Tracer:
    """Call counts, self times and computed kernel cost per traced function."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.flops = 0.0
        self.bytes = 0.0
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.flops = self.bytes = 0.0

    def _wrap(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == KERNEL and len(args) >= 2:
                flops, nbytes = kernel_cost(args[0], args[1])
                self.flops += flops
                self.bytes += nbytes
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and key.startswith("moduncert.")]
        for short, fname in TRACED:
            owner = sys.modules.get(f"moduncert.{short}")
            original = getattr(owner, fname, None)
            if original is None:  # a layer that no longer exists reads as zero
                continue
            wrapper = self._wrap(f"{short}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
