"""Tests of the benchmark's own checks: each must pass a real op's output and
fail a tampered copy of it.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from moduncert import cli  # noqa: E402
from moduncert import frames as frames_mod  # noqa: E402

TRIALS = 200


def _pair(tmp_path, mats, bound):
    pair = inputs.write_pair(*mats, tmp_path, "p", bound)
    frames = tuple(frames_mod.from_json(inputs.frame_doc(m)) for m in mats)
    return pair, frames


@pytest.fixture
def random_mats():
    rng = np.random.default_rng(5)
    return tuple(inputs.random_parseval(rng, 3, 5, 2) for _ in "ab")


@pytest.fixture
def verify_op(tmp_path, random_mats):
    pair, _ = _pair(tmp_path, random_mats, "deutsch")
    out, csv_out = tmp_path / "r.json", tmp_path / "t.csv"
    rc = cli.main(["verify", str(pair.path_a), str(pair.path_b), "--trials", str(TRIALS),
                   "--seed", "64", "--out", str(out), "--csv", str(csv_out)])
    return pair, rc, json.loads(out.read_text()), csv_out.read_text()


def _check_verify(pair, rc, report, csv_text):
    return checks.check_verify(rc, json.dumps(report), csv_text, trials=TRIALS,
                               digest=pair.digest, bound_value=pair.bound_value)


def test_verify_op_passes(verify_op):
    assert _check_verify(*verify_op) == []


@pytest.mark.parametrize("tamper", [
    "shift_bound", "drop_csv_row", "add_violation", "other_digest", "fewer_trials"])
def test_tampered_verify_report_fails(verify_op, tamper):
    pair, rc, report, csv_text = verify_op
    if tamper == "shift_bound":
        report["bound_value"] += 1e-9
    elif tamper == "drop_csv_row":
        csv_text = "\n".join(csv_text.splitlines()[:-1]) + "\n"
    elif tamper == "add_violation":
        report["violations"] = [[0, 0, -1e-3]]
    elif tamper == "other_digest":
        report["frames_digest"] = "sha256:" + "0" * 64
    else:
        report["trials"] = TRIALS - 1
    assert len(_check_verify(pair, rc, report, csv_text)) == 1


def test_failed_exit_or_unparsable_report_fails(verify_op):
    pair, _, report, csv_text = verify_op
    assert _check_verify(pair, 2, report, csv_text)
    assert checks.check_verify(0, "{", csv_text, trials=TRIALS, digest=pair.digest,
                               bound_value=pair.bound_value)


def _search(tmp_path, mats, restarts=2):
    pair, (fa, fb) = _pair(tmp_path, mats, "maassen-uffink")
    out = tmp_path / "s.json"
    rc = cli.main(["search", str(pair.path_a), str(pair.path_b), "--restarts", str(restarts),
                   "--seed", "16", "--out", str(out)])
    return pair, fa, fb, rc, json.loads(out.read_text())


def _check_search(pair, fa, fb, rc, report, known_gap_zero=False):
    return checks.check_search(rc, json.dumps(report), frame_a=fa, frame_b=fb,
                               digest=pair.digest, bound_value=pair.bound_value,
                               known_gap_zero=known_gap_zero)


def test_search_op_passes_and_perturbed_best_x_fails(tmp_path, random_mats):
    pair, fa, fb, rc, report = _search(tmp_path, random_mats)
    assert _check_search(pair, fa, fb, rc, report) == []
    entries = report["best_x"]["entries"]
    x = np.array([[complex(*z) for z in row] for row in entries])
    x[0] += 1e-3                                     # every fiber moves, then back to unit
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    report["best_x"]["entries"] = [[[z.real, z.imag] for z in row] for row in x]
    errors = _check_search(pair, fa, fb, rc, report)
    assert len(errors) == 1 and "replays" in errors[0]


def test_shifted_search_bound_fails(tmp_path, random_mats):
    pair, fa, fb, rc, report = _search(tmp_path, random_mats)
    report["bound_value"] -= 1e-9
    assert len(_check_search(pair, fa, fb, rc, report)) == 1


def test_known_gap_is_required_where_the_bound_is_attained(tmp_path, random_mats):
    pair, fa, fb, rc, report = _search(tmp_path, inputs.fourier_pair(3, 2), restarts=4)
    assert _check_search(pair, fa, fb, rc, report, known_gap_zero=True) == []
    # a random pair's minimum sits well above its coherence bound
    pair, fa, fb, rc, report = _search(tmp_path, random_mats)
    errors = _check_search(pair, fa, fb, rc, report, known_gap_zero=True)
    assert len(errors) == 1 and "attained" in errors[0]


@pytest.mark.parametrize("name", [name for name, wl in run.WORKLOADS.items() if wl.seeded])
def test_op_seeds_of_adjacent_workload_seeds_share_no_stream(tmp_path, name):
    wl = run.WORKLOADS[name]
    assert wl.stride > wl.units and wl.stride & (wl.stride - 1) == 0
    streams = []
    for seed in (2, 3):
        b = bench.Bench(wl, seed, 0, tmp_path)
        streams.append({b.op_seed(k) ^ u for k in range(3) for u in range(wl.units)})
    assert len(streams[0]) == len(streams[1]) == 3 * wl.units
    assert not streams[0] & streams[1]


def test_tracer_counts_calls_and_restores_the_program(verify_op, tmp_path):
    pair = verify_op[0]
    main = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.main(["verify", str(pair.path_a), str(pair.path_b), "--trials", str(TRIALS),
                  "--out", str(tmp_path / "r2.json")])
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert tracer.calls["module_space.random_unit_vector"] == TRIALS
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["verify_search.frames_digest"] == 1
    assert tracer.self_s["cli.main"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_exactly_the_declared_metrics(capsys, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert run.main(["--workload", "search-boundary", "--seed", "1", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
