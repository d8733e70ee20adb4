import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from moduncert import (
    campaign,
    cli,
    gen_fourier_pair,
    gen_random_parseval,
    is_counterexample_candidate,
    is_parseval,
    minimize_entropy_sum,
    verify,
)
from moduncert import frames as frames_mod
from moduncert import verify_search
from moduncert.cli import main, render_report
from moduncert.verify_search import (
    NumberTexts,
    report_to_dict,
    search_result_to_dict,
    trials_to_csv,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


@pytest.fixture
def pair(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen", "--kind", "fourier-pair", "--n", "2",
                         "--d", "1", "--out", str(tmp_path / "pair"))
    assert code == 0
    return tmp_path / "pair" / "a.json", tmp_path / "pair" / "b.json"


def test_gen_then_coherence(pair, capsys):
    a, b = pair
    code, out, _ = run_cli(capsys, "coherence", str(a), str(b))
    assert code == 0
    assert out.strip() == "0.707107"


def test_gen_written_frames_round_trip(pair):
    a, _ = pair
    doc = json.loads(a.read_text())
    assert set(doc) == {"header", "n", "m", "d", "vectors"}
    assert set(doc["header"]) == {"timestamp", "tool", "version", "command"}
    body = {k: v for k, v in doc.items() if k != "header"}
    frame = frames_mod.from_json(doc)
    assert is_parseval(frame)
    assert json.dumps(frames_mod.to_json(frame)) == json.dumps(body)


def test_entropy_command(tmp_path, pair, capsys):
    a, _ = pair
    code, _, _ = run_cli(capsys, "gen", "--kind", "unit-vector", "--n", "2",
                         "--d", "1", "--seed", "7", "--out", str(tmp_path / "v.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "entropy", str(a), str(tmp_path / "v.json"),
                           "--out", str(tmp_path / "e.json"))
    assert code == 0
    assert out.startswith("entropy: min=")
    doc = json.loads((tmp_path / "e.json").read_text())
    assert doc["kind"] == "entropy"
    assert doc["in_domain"] is True


def test_entropy_strict_needs_unit_frame_vectors(tmp_path, capsys):
    v = tmp_path / "v.json"
    assert run_cli(capsys, "gen", "--kind", "unit-vector", "--n", "2", "--seed", "7",
                   "--out", str(v))[0] == 0
    for kind, m, expect in (("random-parseval", "3", 1), ("onb", None, 0)):
        frame = tmp_path / f"{kind}.json"
        assert run_cli(capsys, "gen", "--kind", kind, "--n", "2", *(["--m", m] if m else []),
                       "--out", str(frame))[0] == 0
        assert run_cli(capsys, "entropy", str(frame), str(v))[0] == 0
        code, out, err = run_cli(capsys, "entropy", str(frame), str(v), "--strict")
        assert code == expect
        if expect:
            assert out == ""
            assert err == "error: strict mode: frame vectors must all have unit inner product\n"
        else:
            assert out.startswith("entropy: min=")


def test_verify_writes_report_and_csv(tmp_path, pair, capsys):
    a, b = pair
    rep, csv_path = tmp_path / "rep.json", tmp_path / "rep.csv"
    code, out, _ = run_cli(capsys, "verify", str(a), str(b), "--bound", "deutsch",
                           "--trials", "10000", "--seed", "7",
                           "--out", str(rep), "--csv", str(csv_path))
    assert code == 0
    assert "-> OK" in out
    doc = json.loads(rep.read_text())
    assert doc["kind"] == "verification"
    assert doc["bound_value"] == pytest.approx(0.31669436764074993, abs=1e-12)
    assert doc["violations"] == []
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,min_gap,worst_fiber"
    assert len(lines) == 10001


def test_verify_reports_deterministic_modulo_timestamp(tmp_path, pair, capsys):
    a, b = pair
    texts = []
    for name in ("r1.json", "r2.json"):
        code, _, _ = run_cli(capsys, "verify", str(a), str(b), "--trials", "50",
                             "--seed", "3", "--out", str(tmp_path / name))
        assert code == 0
        texts.append((tmp_path / name).read_text())
    assert strip_timestamp(texts[0]) == strip_timestamp(texts[1])


def test_search_command(tmp_path, pair, capsys):
    a, b = pair
    code, out, _ = run_cli(capsys, "search", str(a), str(b),
                           "--bound", "maassen-uffink", "--restarts", "4",
                           "--max-iters", "200", "--seed", "5",
                           "--out", str(tmp_path / "s.json"))
    assert code == 0
    assert "best_gap" in out
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["kind"] == "search"
    assert abs(doc["best_gap"]) < 1e-3
    assert doc["boundary_grazing"] is True


def _plant_violation(monkeypatch):
    """Raise the Maassen-Uffink bound by 0.1 nats: a violation of 0.1 everywhere."""
    mu_bound = verify_search.mu_bound
    monkeypatch.setattr(verify_search, "mu_bound", lambda mu: mu_bound(mu) + 0.1)


def test_search_exits_2_on_a_planted_violation_at_a_grazing_minimum(tmp_path, pair, capsys,
                                                                     monkeypatch):
    a, b = pair
    _plant_violation(monkeypatch)
    code, out, _ = run_cli(capsys, "search", str(a), str(b),
                           "--bound", "maassen-uffink", "--restarts", "4",
                           "--max-iters", "200", "--seed", "5",
                           "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert out.rstrip().endswith("-> CANDIDATE")
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["boundary_grazing"] is True and doc["best_gap"] < -0.09


def test_buzano_and_chain_commands(tmp_path, pair, capsys):
    a, b = pair
    for seed, name in ((1, "x"), (2, "y"), (3, "z")):
        run_cli(capsys, "gen", "--kind", "unit-vector", "--n", "2", "--d", "1",
                "--seed", str(seed), "--out", str(tmp_path / f"{name}.json"))
    code, out, _ = run_cli(capsys, "buzano", str(tmp_path / "x.json"),
                           str(tmp_path / "y.json"), str(tmp_path / "z.json"))
    assert code == 0
    assert "holds=true" in out
    code, out, _ = run_cli(capsys, "chain", str(a), str(b), str(tmp_path / "x.json"))
    assert code == 0
    assert out.strip() == "chain: holds=true"
    # neither command writes a report, so neither takes --out
    x = str(tmp_path / "x.json")
    for argv in (("buzano", x, x, x), ("chain", str(a), str(b), x)):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "r.json"))
        assert code == 1 and "--out" in err
    assert not (tmp_path / "r.json").exists()


def test_verify_accepts_seed_zero(tmp_path, pair, capsys):
    a, b = pair
    code, _, _ = run_cli(capsys, "verify", str(a), str(b), "--trials", "64",
                         "--seed", "0", "--out", str(tmp_path / "r.json"))
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    del doc["header"]
    fa, fb = (frames_mod.from_json(json.loads(p.read_text())) for p in pair)
    assert doc == report_to_dict(verify(fa, fb, "deutsch", trials=64, seed=0))


def test_malformed_json_exits_1(tmp_path, pair, capsys):
    a, _ = pair
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "coherence", str(bad), str(a))
    assert code == 1
    assert "malformed JSON" in err
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "coherence", str(missing), str(a))
    assert code == 1
    assert "cannot read" in err


def test_field_diagnostics_exit_1(tmp_path, pair, capsys):
    a, _ = pair
    for pair_json in ([1.0], [10 ** 400, 0]):   # a short pair, an integer beyond float range
        doc = json.loads(a.read_text())
        doc["vectors"][0]["entries"][0][0] = pair_json
        bad = tmp_path / "badfield.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "coherence", str(bad), str(a))
        assert code == 1
        assert err.startswith("error: ") and "badfield.json: vector 0: row 0, fiber 0" in err


@pytest.mark.parametrize("command", ["buzano", "chain", "coherence"])
def test_non_finite_entries_exit_1(tmp_path, pair, capsys, command):
    # Python's json reads NaN and Infinity; a vector or frame holding one is refused
    a, b = pair
    run_cli(capsys, "gen", "--kind", "unit-vector", "--n", "2", "--d", "1",
            "--out", str(tmp_path / "x.json"))
    x = tmp_path / "x.json"
    doc = json.loads(x.read_text())
    doc["entries"][1][0] = [0.5, math.nan]
    nan_x = tmp_path / "nan_x.json"
    nan_x.write_text(json.dumps(doc))
    doc = json.loads(a.read_text())
    doc["vectors"][1]["entries"][0][0] = [math.inf, 0.0]
    inf_a = tmp_path / "inf_a.json"
    inf_a.write_text(json.dumps(doc))
    argv, where = {"buzano": ((nan_x, x, x), "nan_x.json: row 1, fiber 0"),
                   "chain": ((inf_a, b, x), "inf_a.json: vector 1: row 0, fiber 0"),
                   "coherence": ((inf_a, b), "inf_a.json: vector 1: row 0, fiber 0")}[command]
    code, out, err = run_cli(capsys, command, *map(str, argv))
    assert code == 1 and not out
    assert err.startswith("error: ") and f"{where} is not finite" in err


def test_non_parseval_exits_1(tmp_path, pair, capsys):
    a, b = pair
    doc = json.loads(a.read_text())
    doc["vectors"][0]["entries"][0][0] = [5.0, 0.0]
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(corrupt), str(b), "--trials", "5")
    assert code == 1
    assert "not Parseval" in err
    # entropy leaves the check to the library's entropy(), as verify and search do
    v = tmp_path / "v.json"
    assert run_cli(capsys, "gen", "--kind", "unit-vector", "--n", "2", "--out", str(v))[0] == 0
    code, out, err = run_cli(capsys, "entropy", str(corrupt), str(v))
    assert code == 1 and out == ""
    assert "Parseval" in err


def test_a_parseval_defect_of_1e_6_exits_1(tmp_path, pair, capsys):
    a, b = pair
    doc = json.loads(a.read_text())
    for vec in doc["vectors"]:
        vec["entries"] = [[[(1 + 5e-7) * part for part in z] for z in row]
                          for row in vec["entries"]]
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    # (1 + 5e-7)^2 - 1 is about 1e-6, far above PARSEVAL_TOL
    assert is_parseval(frames_mod.from_json(doc), 2e-6)
    v = tmp_path / "v.json"
    assert run_cli(capsys, "gen", "--kind", "unit-vector", "--n", "2", "--out", str(v))[0] == 0
    for argv in (("verify", str(scaled), str(b), "--trials", "5"),
                 ("search", str(b), str(scaled), "--restarts", "1"),
                 ("entropy", str(scaled), str(v))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv[0]
        assert err.startswith("error: ") and "Parseval" in err, argv[0]


def test_shape_mismatch_exits_1(tmp_path, pair, capsys):
    a, _ = pair
    code, _, _ = run_cli(capsys, "gen", "--kind", "onb", "--n", "3", "--d", "1",
                         "--out", str(tmp_path / "f3.json"))
    assert code == 0
    code, _, err = run_cli(capsys, "verify", str(a), str(tmp_path / "f3.json"),
                           "--trials", "5")
    assert code == 1
    assert "mismatch" in err


def test_usage_error_exits_1(pair, capsys):
    assert run_cli(capsys, "verify")[0] == 1
    assert run_cli(capsys, "gen", "--kind", "nope", "--n", "2", "--out", "x")[0] == 1
    # count and seed ranges are the library's checks, with its messages
    a, b = (str(p) for p in pair)
    for flags, message in ((("--trials", "0"), "trials must be >= 1, got 0"),
                           (("--seed", "-1"), "seed must be an integer in [0, 2**64), got -1"),
                           (("--seed", str(2 ** 64)),
                            f"seed must be an integer in [0, 2**64), got {2 ** 64}")):
        code, out, err = run_cli(capsys, "verify", a, b, *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")
    # each bound has one spelling on the command line
    for command in ("verify", "search"):
        assert run_cli(capsys, command, a, b, "--bound", "maassen_uffink")[0] == 1


def test_gen_rejects_flags_that_do_not_apply(tmp_path, capsys):
    out = tmp_path / "g"
    for argv, flag in ((("--kind", "onb", "--n", "2", "--m", "5"), "--m"),
                       (("--kind", "unit-vector", "--n", "2", "--m", "3"), "--m"),
                       (("--kind", "fourier-pair", "--n", "2", "--seed", "9"), "--seed")):
        code, _, err = run_cli(capsys, "gen", *argv, "--out", str(out))
        assert code == 1 and err.startswith("error: ") and flag in err
        assert not out.exists()
    # where the seed applies it still defaults to 1
    for kind in ("onb", "unit-vector"):
        bodies = []
        for seed in ((), ("--seed", "1")):
            code, _, _ = run_cli(capsys, "gen", "--kind", kind, "--n", "3", "--d", "2",
                                 *seed, "--out", str(out / f"{len(seed)}.json"))
            assert code == 0
            bodies.append(strip_timestamp((out / f"{len(seed)}.json").read_text()))
        assert bodies[0] == bodies[1]


def test_gen_onb_is_the_square_random_parseval_frame(tmp_path, capsys):
    bodies = []
    for kind in ("onb", "random-parseval"):
        path = tmp_path / f"{kind}.json"
        code, _, _ = run_cli(capsys, "gen", "--kind", kind, "--n", "3", "--d", "2",
                             "--seed", "5", "--out", str(path))
        assert code == 0
        bodies.append(strip_timestamp(path.read_text()))
    assert bodies[0] == bodies[1]


def test_out_dir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODUNCERT_OUT_DIR", str(tmp_path / "outputs"))
    code, _, _ = run_cli(capsys, "gen", "--kind", "onb", "--n", "2", "--d", "1",
                         "--out", "sub/frame.json")
    assert code == 0
    assert (tmp_path / "outputs" / "sub" / "frame.json").exists()
    code, _, _ = run_cli(capsys, "campaign", "--pairs", "1", "--restarts", "1",
                         "--out", "sub/campaign.json")
    assert code == 0
    doc = json.loads((tmp_path / "outputs" / "sub" / "campaign.json").read_text())
    assert doc["kind"] == "campaign" and doc["pairs"] == 1


CAMPAIGN_FLAGS = ("--pairs", "2", "--restarts", "2", "--seed", "1")


def test_campaign_records_match_the_library(tmp_path, capsys):
    out = tmp_path / "campaign.json"
    code, stdout, _ = run_cli(capsys, "campaign", *CAMPAIGN_FLAGS, "--out", str(out))
    assert code == 0
    assert stdout.startswith("campaign: pairs=2 worst_gap=") and "candidates=0" in stdout
    expected = []
    for spec, _fa, _fb, result in campaign(2, 2, 2000, 1, 6, 10, 4):
        expected.append({**spec, "mu": result.mu, "bound_value": result.bound_value,
                         "best_gap": result.best_gap,
                         "boundary_grazing": result.boundary_grazing,
                         "converged": result.converged,
                         "iterations_per_start": list(result.iterations_per_start),
                         "runs_at_max_iters": result.runs_at_max_iters,
                         "newton_steps": result.newton_steps,
                         "line_search_backtracks": result.line_search_backtracks,
                         "candidate": is_counterexample_candidate(result)})
    doc = json.loads(out.read_text())
    assert doc["header"]["command"] == "campaign"
    assert doc["records"] == expected


def test_campaign_exits_2_on_planted_violations_at_grazing_minima(tmp_path, capsys,
                                                                  monkeypatch):
    # every pair is the n=2 Fourier pair, whose minima graze, under the raised bound
    fourier, drawn = gen_fourier_pair(2, 1), []

    def fourier_frame(n, m, d, seed):
        drawn.append(seed)
        return fourier[len(drawn) % 2]

    monkeypatch.setattr(verify_search, "gen_random_parseval", fourier_frame)
    _plant_violation(monkeypatch)
    out = tmp_path / "campaign.json"
    code, stdout, err = run_cli(capsys, "campaign", *CAMPAIGN_FLAGS, "--n-max", "2",
                                "--m-max", "2", "--d-max", "1", "--out", str(out))
    assert code == 2 and len(drawn) == 4
    assert "candidates=2" in stdout
    assert err.strip() == "counterexample candidates at pairs [0, 1]"
    doc = json.loads(out.read_text())
    assert all(r["boundary_grazing"] and r["best_gap"] < -0.09 for r in doc["records"])


def test_campaign_candidate_exits_2_with_a_witness(tmp_path, capsys, monkeypatch):
    seen = []

    def pair_1_is_a_candidate(result):
        seen.append(result)
        return len(seen) == 2

    monkeypatch.setattr(cli, "is_counterexample_candidate", pair_1_is_a_candidate)
    out = tmp_path / "campaign.json"
    code, stdout, err = run_cli(capsys, "campaign", *CAMPAIGN_FLAGS, "--out", str(out))
    assert code == 2
    assert "candidates=1" in stdout
    assert err.strip() == "counterexample candidates at pairs [1]"
    doc = json.loads(out.read_text())
    assert doc["candidate_pairs"] == [1]
    assert [r["candidate"] for r in doc["records"]] == [False, True]
    assert "witness" not in doc["records"][0]
    witness = json.loads(json.dumps(search_result_to_dict(seen[1])))
    assert doc["records"][1]["witness"] == witness


def test_campaign_rejects_bad_arguments(tmp_path, capsys):
    out = tmp_path / "campaign.json"
    errors = {}
    for flag, value in (("--pairs", "0"), ("--pairs", "-3"), ("--n-max", "1"),
                        ("--d-max", "0"), ("--m-max", "2"), ("--seed", "-1"),
                        ("--restarts", "0"), ("--max-iters", "0")):
        code, stdout, err = run_cli(capsys, "campaign", flag, value, "--out", str(out))
        assert code == 1 and stdout == ""
        assert "error: " in err and "Traceback" not in err
        errors[flag] = err
    # argparse sees one flag at a time, so m_max < n_max is the library's check
    assert errors["--m-max"] == "error: m_max must be >= n_max, got m_max=2, n_max=6\n"
    assert not out.exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "moduncert", "gen", "--kind", "fourier-pair",
         "--n", "2", "--d", "1", "--out", str(tmp_path / "p")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "moduncert", "coherence",
         str(tmp_path / "p" / "a.json"), str(tmp_path / "p" / "b.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.707107"


def json_dumps_report(text, body):
    """What ``render_report`` must equal: ``json.dumps`` of the whole document,
    with the header (and so the timestamp) that the rendered text carries."""
    header = json.loads(text)["header"]
    return json.dumps({"header": header, **body}, indent=2) + "\n"


def first_difference(got: str, want: str) -> str:
    i = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    lo = max(i - 20, 0)
    return f"first difference at offset {i}: {got[lo:i + 20]!r} != {want[lo:i + 20]!r}"


EDGE_BODY = {
    "kind": "edge",
    "empty": [],
    "one": [7],
    "ints": [0, -1, 2 ** 70],
    "bools": [True, False],
    "int_and_bool": [1, True],
    "mixed": [1, 2.5, -3, 0.1, 1e-300],
    "nonfinite": [math.nan, math.inf, -math.inf, -0.0],
    "numpy_floats": [np.float64(0.5), np.float64(-1e-17)],
    "nested": [[1, 2], [3.5], []],
    "flat_in_dict": {"gaps": [1.0, 2.0], "empty": {}},
    "strings": ["a, b", "c\nd"],
    "text": 'line\nbreak, "quoted", \u00fc \u2603',
    "cl\u00e9\n": None,
    "scalar": 1.5,
    "empty_dict": {},
}


def test_render_report_matches_json_dumps():
    fra, frb = gen_random_parseval(6, 10, 4, 3), gen_random_parseval(6, 10, 4, 4)
    rep = verify(fra, frb, "deutsch", trials=1024, seed=5)
    flagged = replace(rep, violations=((0, 1, -0.5), (3, 0, -1e-9)),
                      boundary_graze_trials=(3,))
    res = minimize_entropy_sum(fra, frb, "maassen_uffink", restarts=1, max_iters=50, seed=2)
    bodies = {"verify": report_to_dict(rep), "flagged": report_to_dict(flagged),
              "search": search_result_to_dict(res), "edge": EDGE_BODY,
              "one_key": {"kind": "x"}}
    for command, body in bodies.items():
        text = render_report(command, body)
        want = json_dumps_report(text, body)
        same = text == want
        assert same, f"{command}: {first_difference(text, want)}"


def test_cli_reports_match_json_dumps(tmp_path, pair, capsys):
    a, b = pair
    runs = {
        "campaign": ("campaign", *CAMPAIGN_FLAGS),
        "entropy": ("entropy", str(a), str(tmp_path / "v.json")),
        "coherence": ("coherence", str(a), str(b)),
        "verify": ("verify", str(a), str(b), "--trials", "300", "--seed", "4"),
        "search": ("search", str(a), str(b), "--restarts", "2", "--max-iters", "50"),
    }
    code, _, _ = run_cli(capsys, "gen", "--kind", "unit-vector", "--n", "2",
                         "--seed", "7", "--out", str(tmp_path / "v.json"))
    assert code == 0
    paths = [a, b, tmp_path / "v.json"]
    for name, argv in runs.items():
        paths.append(tmp_path / f"{name}.json")
        code, _, _ = run_cli(capsys, *argv, "--out", str(paths[-1]))
        assert code == 0, name
    for path in paths:
        text = path.read_text()
        want = json.dumps(json.loads(text), indent=2) + "\n"
        same = text == want
        assert same, f"{path.name}: {first_difference(text, want)}"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, pair, capsys):
    assert cli.build_parser() is cli.build_parser()
    a, b = pair
    csv_path, r1, r2 = tmp_path / "t.csv", tmp_path / "r1.json", tmp_path / "r2.json"
    code, _, _ = run_cli(capsys, "verify", str(a), str(b), "--csv", str(csv_path),
                         "--trials", "5", "--out", str(r1))
    assert code == 0
    assert len(csv_path.read_text().splitlines()) == 6
    csv_path.unlink()
    code, _, _ = run_cli(capsys, "verify", str(a), str(b), "--out", str(r2))
    assert code == 0
    assert not csv_path.exists()
    assert json.loads(r2.read_text())["trials"] == 1000

    restarts = []
    for extra in (("--restarts", "3"), ()):
        code, _, _ = run_cli(capsys, "search", str(a), str(b), "--max-iters", "50",
                             *extra, "--out", str(r1))
        assert code == 0
        restarts.append(json.loads(r1.read_text())["restarts"])
    assert restarts == [3, 32]


def test_reports_from_numpy_integer_arguments_render_as_from_ints():
    fra, frb = gen_random_parseval(3, 5, 2, 1), gen_random_parseval(3, 5, 2, 2)
    for run, ints, numpy_ints in (
            (verify, ("deutsch", 4, 3), ("deutsch", 4, np.uint64(3))),
            (verify, ("deutsch", 4, 3), ("deutsch", np.int64(4), 3)),
            (verify, ("deutsch", 4, 3), ("deutsch", np.uint64(4), 3)),
            (verify, ("deutsch", 600, 3), ("deutsch", np.uint64(600), np.uint64(3))),
            (minimize_entropy_sum, ("maassen_uffink", 2, 50, 3),
             ("maassen_uffink", 2, 50, np.int64(3))),
            (minimize_entropy_sum, ("maassen_uffink", 2, 50, 3),
             ("maassen_uffink", np.int64(2), np.int64(50), 3))):
        to_dict = report_to_dict if run is verify else search_result_to_dict
        want, got = (strip_timestamp(render_report("r", to_dict(run(fra, frb, *args))))
                     for args in (ints, numpy_ints))
        assert got == want, (run.__name__, numpy_ints)


def _csv_writer_text(report):
    """The per-trial CSV as ``csv.writer`` writes it, one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("trial", "min_gap", "worst_fiber"))
    writer.writerows((i, repr(float(report.trial_gaps[i])), int(report.trial_worst_fiber[i]))
                     for i in range(report.trials))
    return buf.getvalue()


@pytest.mark.parametrize("trials", [1, 1024])
def test_report_to_csv_matches_csv_writer(trials):
    fra, frb = gen_random_parseval(6, 10, 4, 3), gen_random_parseval(6, 10, 4, 4)
    rep = verify(fra, frb, "deutsch", trials=trials, seed=5)
    odd = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, -2.5e-17, 0.1, 123456789.0])
    for report in (rep, replace(rep, trials=odd.size, trial_gaps=odd,
                                trial_worst_fiber=np.arange(odd.size) % 4)):
        got = trials_to_csv(NumberTexts(report.trial_gaps.tolist()),
                            NumberTexts(report.trial_worst_fiber.tolist()))
        want = _csv_writer_text(report)
        # a bool, so that a failure names the first difference instead of diffing every row
        same = got == want
        assert same, first_difference(got, want)


def test_verify_report_and_csv_share_one_encoding(tmp_path, pair, capsys, monkeypatch):
    """The CLI encodes the trial columns once for both writers; the report must
    still read as ``json.dumps`` writes it, and the CSV as ``csv.writer`` does."""
    odd = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1])
    reports = []

    def odd_verify(*args):
        reports.append(replace(verify(*args), trials=odd.size, trial_gaps=odd,
                               trial_worst_fiber=np.arange(odd.size) % 4))
        return reports[-1]

    monkeypatch.setattr(cli, "verify", odd_verify)
    a, b = pair
    r, c = tmp_path / "r.json", tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "verify", str(a), str(b), "--trials", "8",
                         "--out", str(r), "--csv", str(c))
    assert code == 0 and len(reports) == 1
    text = r.read_text()
    want = json_dumps_report(text, report_to_dict(reports[0]))
    same = text == want
    assert same, first_difference(text, want)
    got, want = c.read_bytes().decode(), _csv_writer_text(reports[0])
    same = got == want
    assert same, first_difference(got, want)
