"""Plant one-line defects in the program and check that the test suite kills each.

Each mutant replaces one exact text of a program file in a temporary copy
of the tree (``src``, ``scripts``, ``tests`` and ``pyproject.toml``) and runs
``python -m pytest -x tests`` there, leaving out ``tests/test_mutants.py``,
with the copy's ``src`` as ``PYTHONPATH``.  A mutant is killed when pytest
fails.  The unmutated copy runs first and must pass, so that a broken suite
cannot count as a kill.

    python3 mutants/run.py                    # every mutant
    python3 mutants/run.py argmax flat-steps  # the named ones

Exits 0 when every mutant run was killed, 1 otherwise, and 2 on an unknown
mutant name.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "scripts", "tests", "pyproject.toml")
SEARCH = "src/moduncert/verify_search.py"
BOUNDS = "src/moduncert/entropy_bounds.py"

# name: (file, the exact text to replace, its replacement)
MUTANTS = {
    # the search keeps each fiber's worst restart
    "argmax": (SEARCH, "np.argmin(f.reshape(d, restarts), axis=1)",
               "np.argmax(f.reshape(d, restarts), axis=1)"),
    # the descent stops after 20 (or 5) iterations, whatever max_iters says
    "cap-20": (SEARCH, "    for it in range(max_iters):\n",
               "    for it in range(min(max_iters, 20)):\n"),
    "cap-5": (SEARCH, "    for it in range(max_iters):\n",
              "    for it in range(min(max_iters, 5)):\n"),
    # Newton steps are never tried
    "no-newton": (SEARCH, "use_newton = ~flat & (gnorm <= NEWTON_TOL)\n",
                  "use_newton = np.zeros(gnorm.shape, dtype=bool)\n"),
    # a flat start (tangent gradient at most GRAD_TOL) takes its step and runs on
    "flat-steps": (SEARCH, "done = flat | ~ok", "done = ~ok"),
    # frames with a Parseval defect up to 1e-2 pass as Parseval
    "parseval-tol": ("src/moduncert/frames.py", "PARSEVAL_TOL = 1e-9\n",
                     "PARSEVAL_TOL = 1e-2\n"),
    # verify flags only gaps below -1e-3
    "verify-threshold": (SEARCH, "np.nonzero(gaps < -VERIFY_GAP_TOL)",
                         "np.nonzero(gaps < -1e-3)"),
    # the right side of Buzano's inequality, and so of the proof chain, is 1.2 times too large
    "buzano-rhs": (BOUNDS, "    rhs = 0.5 * (", "    rhs = 1.2 * 0.5 * ("),
    # verify keeps the violations of its first span of trials only
    "verify-first-span": (SEARCH, "for span_violations, _ in results for",
                          "for span_violations, _ in results[:1] for"),
    # every span of trials but the first writes its gaps one slot early
    "verify-gaps-shifted": (SEARCH, "        trial_gaps[start:stop] = gaps.min(axis=1)\n",
                            "        trial_gaps[start - (start > 0):stop - (start > 0)]"
                            " = gaps.min(axis=1)\n"),
    # a child made by fork keeps its parent's span workers, whose threads it does not have
    "verify-fork-reset": (SEARCH, "    os.register_at_fork(after_in_child=_forget_workers)\n",
                          "    pass\n"),
    # verify hands its spans to W runners, one per usable CPU, instead of T
    "verify-w-runners": (SEARCH, "_workers.run(runner, threads)",
                         "_workers.run(runner, workers)"),
    # verify looks at fiber 0 only
    "verify-fiber-0": (SEARCH, "gaps = (sa + sb) - bound", "gaps = ((sa + sb) - bound)[:, :1]"),
    # the coherence is a mean over fibers, or 1 % too large
    "coherence-mean": (BOUNDS, "return np.max(np.abs(gram), axis=0)",
                       "return np.mean(np.abs(gram), axis=0)"),
    "coherence-1pct": (BOUNDS, "return float(np.max(cross_inner_norms(frame_a, frame_b)))",
                       "return 1.01 * float(np.max(cross_inner_norms(frame_a, frame_b)))"),
    # weights up to 1e-4 count as zero
    "zero-tol": (BOUNDS, "ZERO_TOL = 1e-12\n", "ZERO_TOL = 1e-4\n"),
    # the Deutsch bound loosened by 5 %, the Maassen-Uffink bound by 1e-4 or 1 %
    "deutsch-5pct": (BOUNDS, "return -2.0 * math.log((1.0 + mu) / 2.0)",
                     "return 0.95 * -2.0 * math.log((1.0 + mu) / 2.0)"),
    "mu-1e-4": (BOUNDS, "return -2.0 * math.log(mu)\n", "return -2.0 * math.log(mu) - 1e-4\n"),
    "mu-1pct": (BOUNDS, "return -2.0 * math.log(mu)\n", "return 0.99 * -2.0 * math.log(mu)\n"),
    # the descent stops at a tangent gradient norm of 1e-2
    "grad-tol": (SEARCH, "GRAD_TOL = 1e-8 ", "GRAD_TOL = 1e-2 "),
    # the replayed gap is taken at the best fiber instead of the worst
    "replay-best-fiber": (SEARCH, "np.min(total.values.real)", "np.max(total.values.real)"),
    # the search stacks the first frame twice, so it minimizes 2 S_A instead of S_A + S_B
    "pair-a-twice": (SEARCH, "[frame_a.analysis, frame_b.analysis]",
                     "[frame_a.analysis, frame_a.analysis]"),
}
# The test of this file's texts reads the unmutated tree; on a mutated copy it
# would fail on every mutant, so the copies do not run it.
OWN_TEST = "tests/test_mutants.py"


def run_suite(mutant: str | None) -> tuple[int, str, float]:
    """Run pytest on a copy of the tree with `mutant` planted (None: unmutated).
    Returns pytest's exit code, its first failing test (or its last line) and
    the wall time in seconds."""
    with tempfile.TemporaryDirectory(prefix="moduncert-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)
        if mutant is not None:
            path, old, new = MUTANTS[mutant]
            text = (tree / path).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{mutant}: {old!r} occurs {text.count(old)} times in {path}; "
                                 "update the mutant")
            (tree / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               f"--ignore={OWN_TEST}", "tests"],
                              cwd=tree, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    failed = [ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, (failed[0] if failed else (lines[-1] if lines else "")), elapsed


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants {unknown}; known: {', '.join(MUTANTS)}", file=sys.stderr)
        return 2
    code, line, elapsed = run_suite(None)
    print(f"{'unmutated':19} {'pass' if code == 0 else 'FAIL'} {elapsed:5.1f}s  {line}", flush=True)
    if code != 0:
        print("the suite fails on the unmutated tree; no mutant can be judged", file=sys.stderr)
        return 1
    survivors = []
    for name in argv or MUTANTS:
        code, line, elapsed = run_suite(name)
        if code == 0:
            survivors.append(name)
        print(f"{name:19} {'killed' if code else 'SURVIVED'} {elapsed:5.1f}s  {line}", flush=True)
    print(f"{len(argv or MUTANTS) - len(survivors)} killed, {len(survivors)} survived"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
