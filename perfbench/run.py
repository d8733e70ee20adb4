"""moduncert benchmark: drives the real CLI in-process as a closed loop.

One client sends one op at a time (``moduncert.cli.main(argv)`` with the
default ``--threads 1``), checks its output, then sends the next, in
passes over a fixed list of ops until ``--seconds`` have passed.  Inputs
are generated from ``--seed``.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds of a fixed list of
ops and reports per-layer counts and self times per op.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5        # set-up runs per benchmark run; setup_s takes their median


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "verify" or "search"
    n: int
    m: int
    d: int
    trials: int = 0       # verify: trials per op
    restarts: int = 0     # search: restarts per fiber per op
    pairs: int = 1        # frame pairs generated; op k uses pair k mod pairs
    fourier: bool = False # the mutually unbiased pair instead of random frames
    round_ops: int = 4    # ops per pass (end to end) and per traced round

    @property
    def units(self) -> int:
        """Work units per op: trials, or (fiber, restart) starts."""
        return self.trials if self.command == "verify" else self.d * self.restarts

    @property
    def seeded(self) -> bool:
        """Whether frames and op seeds follow the workload seed.

        A verify op costs the same whatever the frames' values and its
        seed; a search op's cost depends on both, so search workloads
        keep one fixed set of inputs (README.md, Inputs).
        """
        return self.command == "verify"

    @property
    def stride(self) -> int:
        """Op seed spacing: the next power of two above the op's work units."""
        return 1 << self.units.bit_length()


# Why each workload is there: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("verify-small", "verify", n=6, m=10, d=4, trials=1024, round_ops=4),
    Workload("verify-large", "verify", n=32, m=64, d=32, trials=1024, round_ops=2),
    Workload("search-interior", "search", n=6, m=10, d=4, restarts=1, pairs=8, round_ops=8),
    Workload("search-boundary", "search", n=3, m=3, d=4, restarts=2, fourier=True, round_ops=8),
)}


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older NumPy has no dict form
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "numpy": np.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    if not (SRC / "moduncert" / "cli.py").is_file():
        print(f"error: no moduncert sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401  (part of import time, as for any user)
    import moduncert.cli  # noqa: F401
    import_s = time.perf_counter() - start
    import bench as bench_mod

    workdir = HERE / "_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = bench_mod.Bench(wl, args.seed, list(WORKLOADS).index(wl.name), workdir)
        setup_times, failures = [], []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            bench.setup()
            _, errors, _ = bench.op(rep)        # warm-up op, checked like any other
            setup_times.append(time.perf_counter() - start)
            failures.append(errors)
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            metrics, info, measured = bench_mod.per_layer(bench, SETUP_REPS, args.seconds)
        else:
            metrics, info, measured = bench_mod.end_to_end(bench, SETUP_REPS, args.seconds, setup_s)
        failures += measured
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    failed = [e for e in failures if e]
    info.update(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                failed_frac=len(failed) / len(failures), op_seed_stride=wl.stride, units_per_op=wl.units, import_s=import_s,
                setup_reps_s=setup_times, env=environment(),
                failures=[e for errs in failed[:5] for e in errs])
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:16s} {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other; prints their tables."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[1:-1]) if proc.returncode == 0 else proc.stderr, flush=True)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
