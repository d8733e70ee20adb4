"""Ops, their checks, and the two measurement loops (end to end and traced)."""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
from moduncert import cli
from moduncert import frames as frames_mod

import checks
import inputs
import tracing

MAX_OPS = 1 << 20     # op indices per workload seed; keeps op seeds disjoint
TAIL_PCT = 75         # op_tail_s percentile; the run records how many ops lie beyond it
CORPUS_SEED = 1 << 32 # input seed of a workload whose inputs do not follow the workload seed


class Bench:
    """Inputs, op dispatch and checks for one workload and seed."""

    def __init__(self, wl, seed: int, stream: int, workdir: Path):
        self.wl, self.seed, self.stream, self.workdir = wl, seed, stream, workdir
        self.input_seed = seed if wl.seeded else CORPUS_SEED
        self.report = workdir / "report.json"
        self.csv = workdir / "trials.csv"
        self.pairs = []
        self.frames = []

    def setup(self) -> None:
        """Generate and write the inputs and their reference values."""
        wl = self.wl
        indir = self.workdir / "inputs"
        shutil.rmtree(indir, ignore_errors=True)
        indir.mkdir(parents=True)
        rng = np.random.default_rng([self.input_seed, self.stream])
        bound = "deutsch" if wl.command == "verify" else "maassen-uffink"
        self.pairs, self.frames = [], []
        for p in range(wl.pairs):
            if wl.fourier:
                mats = inputs.fourier_pair(wl.n, wl.d)
            else:
                mats = tuple(inputs.random_parseval(rng, wl.n, wl.m, wl.d) for _ in "ab")
            pair = inputs.write_pair(*mats, indir, f"pair{p}", bound)
            self.pairs.append(pair)
            if wl.command == "search":
                self.frames.append(tuple(
                    frames_mod.from_json(inputs.frame_doc(half)) for half in mats))

    def op_seed(self, k: int) -> int:
        if not 0 <= k < MAX_OPS - 1:
            raise ValueError(f"op index {k} out of range")
        return (self.input_seed * MAX_OPS + k + 1) * self.wl.stride

    def argv(self, k: int) -> list[str]:
        wl, pair = self.wl, self.pairs[k % len(self.pairs)]
        common = [str(pair.path_a), str(pair.path_b), "--seed", str(self.op_seed(k)),
                  "--out", str(self.report)]
        if wl.command == "verify":
            return ["verify", *common, "--bound", "deutsch", "--trials", str(wl.trials),
                    "--csv", str(self.csv)]
        return ["search", *common, "--bound", "maassen-uffink", "--restarts", str(wl.restarts)]

    def op(self, k: int, tracer=None) -> tuple[float, list[str], float | None]:
        """Run op k; returns (latency in s, failure reasons, reported gap)."""
        argv = self.argv(k)
        for path in (self.report, self.csv):
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:  # a crash fails this op; the loop goes on
                    rc = -1
                    traceback.print_exc()
                latency = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        report_text = self.report.read_text() if self.report.exists() else None
        pair = self.pairs[k % len(self.pairs)]
        if self.wl.command == "verify":
            csv_text = self.csv.read_text() if self.csv.exists() else None
            errors = checks.check_verify(rc, report_text, csv_text, trials=self.wl.trials,
                                         digest=pair.digest, bound_value=pair.bound_value)
            gap_key = "min_gap"
        else:
            fa, fb = self.frames[k % len(self.frames)]
            errors = checks.check_search(rc, report_text, frame_a=fa, frame_b=fb,
                                         digest=pair.digest, bound_value=pair.bound_value,
                                         known_gap_zero=self.wl.fourier)
            gap_key = "best_gap"
        gap = json.loads(report_text)[gap_key] if not errors else None
        if errors:
            errors = [f"op {k} ({' '.join(argv)}): {e}; output: {sink.getvalue().strip()}"
                      for e in errors]
        return latency, errors, gap


def percentile(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(bench: Bench, first_op: int, seconds: float, setup_s: float):
    """Passes over a fixed list of ops until the time is up.

    An op's latency is its fastest pass.  A shared host can run the same
    code at speeds up to 2.7x apart, each for a fraction of a second to
    several minutes; passes a second or more apart usually include a
    fast stretch, so the fastest of them reads the program's cost more
    steadily than a median over single ops.  The workload seed sets the
    order of the ops in a pass.
    """
    wl = bench.wl
    ops = first_op + np.random.default_rng(bench.seed).permutation(wl.round_ops)
    best = dict.fromkeys(ops.tolist(), math.inf)
    failures, gaps, passed = [], [], set(best)
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gaps = []
        for k in best:
            latency, errors, gap = bench.op(k)
            best[k] = min(best[k], latency)
            failures.append(errors)
            if errors:
                passed.discard(k)
            elif gap is not None:
                gaps.append(gap)
        passes += 1
    lat = sorted(best.values())
    tail, beyond = percentile(lat, TAIL_PCT)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "units_per_s": (wl.units * len(passed) / sum(lat), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "ops": len(lat),
        "passes": passes,
        "unit": "trial" if wl.command == "verify" else "start",
        "tail_percentile": TAIL_PCT,
        "ops_beyond_tail": beyond,
        "best_gap_mean" if wl.command == "search" else "min_gap_mean":
            statistics.fmean(gaps) if gaps else None,
    }
    return metrics, info, failures


def per_layer(bench: Bench, first_op: int, seconds: float):
    """Alternate untraced and traced rounds of the same ops until time is up."""
    wl = bench.wl
    ops = range(first_op, first_op + wl.round_ops)
    tracer = tracing.Tracer()
    plain, traced, rounds, failures, gaps = [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        round_s = 0.0
        for k in ops:
            latency, errors, _ = bench.op(k)
            round_s += latency
            failures.append(errors)
        plain.append(round_s)
        tracer.reset()
        round_s = 0.0
        round_gaps = []
        for k in ops:
            latency, errors, gap = bench.op(k, tracer)
            round_s += latency
            failures.append(errors)
            round_gaps.append(gap)
        traced.append(round_s)
        rounds.append((dict(tracer.calls), dict(tracer.self_s), tracer.flops, tracer.bytes))
        gaps = round_gaps

    per_op = 1.0 / wl.round_ops
    calls = rounds[0][0]
    metrics = {}
    for short, fname in tracing.TRACED:
        name = f"{short}.{fname}"
        if name in tracing.COUNTED:
            metrics[f"{name}.calls"] = (calls.get(name, 0) * per_op, "count/op")
        metrics[f"{name}.self_s"] = (
            statistics.median(r[1].get(name, 0.0) for r in rounds) * per_op, "s/op")
    metrics[f"{tracing.KERNEL}.gflop"] = (rounds[0][2] * per_op / 1e9, "GFLOP/op")
    metrics[f"{tracing.KERNEL}.gbyte"] = (rounds[0][3] * per_op / 1e9, "GB/op")
    values = calls.get("entropy_bounds.fiber_entropy_sum", 0)
    grads = calls.get("entropy_bounds.fiber_entropy_sum_grad", 0)
    starts = wl.d * wl.restarts * wl.round_ops
    metrics["entropy_bounds.evals_per_start"] = ((values + grads) / starts if starts else 0.0,
                                                 "count")
    metrics["entropy_bounds.value_evals_per_grad"] = (values / grads if grads else 0.0, "count")
    valid = [g for g in gaps if g is not None]
    metrics["verify_search.best_gap_mean"] = (statistics.fmean(valid) if valid else 0.0, "nats")
    metrics["trace_overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "1")
    info = {
        "round_ops": wl.round_ops,
        "rounds": len(rounds),
        "counts_repeat": all(r[0] == calls for r in rounds),
        "plain_round_s": plain,
        "traced_round_s": traced,
    }
    return metrics, info, failures
