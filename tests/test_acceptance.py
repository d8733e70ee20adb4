"""Acceptance gate: nine numbered criteria covering the full pipeline.

Each test prints one line, ``[criterion k] <name>: PASS|FAIL (...)``, and
pins the tolerances it is allowed to use; run with ``-rA`` (the default
here) or ``-s`` to see the lines.  Criteria 3-7 render their reports
with ``cli.render_report``, the function every CLI report goes through;
criterion 9 reruns them with identical seeds and demands byte-identical
output aside from the timestamp header.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from moduncert import (
    AlgebraElement,
    ModuleVector,
    buzano_check,
    campaign,
    gen_fourier_pair,
    gen_onb,
    gen_random_parseval,
    inner,
    involution,
    is_counterexample_candidate,
    is_positive,
    minimize_entropy_sum,
    module_norm,
    norm,
    random_unit_vector,
    recompute_gap,
    scale,
    verify,
)
from moduncert.cli import render_report
from moduncert.entropy_bounds import entropy_gradient, entropy_terms, project_tangent
from moduncert.module_space import from_json as vector_from_json
from moduncert.verify_search import report_to_dict, search_result_to_dict

FIXTURE = Path(__file__).parent / "fixtures" / "bloch_grid_oracle.json"
# Criteria 3-5 fail on any trial gap below -GAP_TOL, pinned here so that a
# change to the library's VERIFY_GAP_TOL cannot loosen them.
GAP_TOL = 1e-9

_RUNS: dict[str, dict[str, str]] = {}
_INFO: dict[str, dict] = {}


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def _cached(name: str, fn):
    if name not in _RUNS:
        t0 = time.perf_counter()
        artifacts, info = fn()
        info["elapsed"] = time.perf_counter() - t0
        _RUNS[name] = artifacts
        _INFO[name] = info
    return _RUNS[name], _INFO[name]


def _report_line(k: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {k}] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_c1_module_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    tol = 1e-10
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        x = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        y = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        z = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        a = AlgebraElement(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        a = AlgebraElement(a.values / max(1.0, norm(a)))
        # (i) positivity of <x,x>
        ok &= is_positive(inner(x, x), tol)
        # (ii) additivity in the first slot
        lhs = inner(ModuleVector(x.entries + y.entries), z).values
        ok &= float(np.max(np.abs(lhs - (inner(x, z) + inner(y, z)).values))) <= tol
        # (iii) A-linearity <a x, y> = a <x, y>
        ok &= float(np.max(np.abs(inner(scale(a, x), y).values
                                  - (a * inner(x, y)).values))) <= tol
        # (iv) involution symmetry <x,y> = <y,x>*
        ok &= float(np.max(np.abs(inner(x, y).values
                                  - involution(inner(y, x)).values))) <= tol
        # (v) norm consistency ||x||^2 = ||<x,x>||
        ok &= abs(module_norm(x) ** 2 - norm(inner(x, x))) <= tol
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report_line(1, "module inner-product axioms (i)-(v)", ok,
                 f"1000 cases, d<=8, n<=16, tol 1e-10, {elapsed:.1f}s")
    assert ok


def test_c2_buzano_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    min_slack = math.inf
    for _ in range(10 ** 4):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        x = ModuleVector(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        y = ModuleVector(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        z = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        res = buzano_check(x, y, z)
        min_slack = min(min_slack, res.rhs - res.lhs)
    # saturation 1: x = y = z
    z = random_unit_vector(4, 3, 77)
    sat1 = buzano_check(z, z, z)
    eq1 = abs(sat1.lhs - 1.0) <= 1e-12 and abs(sat1.rhs - 1.0) <= 1e-12
    # saturation 2: orthogonal x, y and z their normalized midpoint
    x = ModuleVector(np.array([[1], [0]], dtype=complex))
    y = ModuleVector(np.array([[0], [1]], dtype=complex))
    mid = ModuleVector((x.entries + y.entries) / math.sqrt(2))
    sat2 = buzano_check(x, y, mid)
    eq2 = abs(sat2.lhs - 0.5) <= 1e-12 and abs(sat2.rhs - 0.5) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = min_slack >= -1e-10 and eq1 and eq2 and elapsed < 10.0
    _report_line(2, "Buzano inequality sweep + saturation", ok,
                 f"10^4 triples, min slack {min_slack:.2e}, "
                 f"equalities to 1e-12, {elapsed:.1f}s")
    assert ok


def _tally(info: dict, rep) -> None:
    info["violations"] += len(rep.violations)
    info["min_gap"] = min(info["min_gap"], rep.min_gap)


def _no_violations(info: dict) -> bool:
    return info["violations"] == 0 and info["min_gap"] >= -GAP_TOL


def _run_c3():
    artifacts, info = {}, {"violations": 0, "min_gap": math.inf, "trials": 10 ** 4}
    for n in (2, 3, 4, 8):
        fa = gen_onb(n, 1, 300 + n)
        fb = gen_onb(n, 1, 400 + n)
        rep = verify(fa, fb, "deutsch", trials=10 ** 4, seed=3000 + n)
        _tally(info, rep)
        artifacts[f"onb_n{n}.json"] = render_report("verify", report_to_dict(rep))
    fra, frb = gen_fourier_pair(2, 1)
    rep = verify(fra, frb, "deutsch", trials=10 ** 4, seed=3999)
    _tally(info, rep)
    info["fourier_bound"] = rep.bound_value
    artifacts["fourier_n2.json"] = render_report("verify", report_to_dict(rep))
    return artifacts, info


def test_c3_classical_deutsch():
    _, info = _cached("c3", _run_c3)
    # closed form evaluated independently here, not copied from elsewhere
    expected = -2.0 * math.log((1.0 + 2.0 ** -0.5) / 2.0)
    bound_ok = abs(info["fourier_bound"] - expected) <= 1e-6
    ok = _no_violations(info) and bound_ok and info["elapsed"] < 30.0
    _report_line(3, "classical two-basis bound, d=1", ok,
                 f"n in 2,3,4,8 + Fourier pair, 10^4 trials each, "
                 f"{info['violations']} violations, min gap {info['min_gap']:.2e}, "
                 f"bound {info['fourier_bound']:.9f} "
                 f"vs closed form {expected:.9f}, {info['elapsed']:.1f}s")
    assert ok


def _run_c4():
    rng = np.random.default_rng(4004)
    artifacts, info = {}, {"violations": 0, "min_gap": math.inf, "pairs": 20}
    for k in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 17))
        d = int(rng.integers(1, 9))
        fa = gen_random_parseval(n, m, d, int(rng.integers(0, 2 ** 31)))
        fb = gen_random_parseval(n, m, d, int(rng.integers(0, 2 ** 31)))
        rep = verify(fa, fb, "deutsch", trials=10 ** 4, seed=int(rng.integers(0, 2 ** 31)))
        _tally(info, rep)
        artifacts[f"pair_{k:02d}.json"] = render_report("verify", report_to_dict(rep))
    return artifacts, info


def test_c4_modular_deutsch():
    _, info = _cached("c4", _run_c4)
    ok = _no_violations(info) and info["elapsed"] < 120.0
    _report_line(4, "modular two-frame bound over C(X)", ok,
                 f"20 random pairs, d<=8, n<=8, m<=16, 10^4 trials each, "
                 f"{info['violations']} violations, min gap {info['min_gap']:.2e}, "
                 f"{info['elapsed']:.1f}s")
    assert ok


def _run_c5():
    rng = np.random.default_rng(5005)
    artifacts, info = {}, {"violations": 0, "min_gap": math.inf, "pairs": 5}
    for k in range(5):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 10))    # strictly redundant, never a basis
        fa = gen_random_parseval(n, m, 1, int(rng.integers(0, 2 ** 31)))
        fb = gen_random_parseval(n, m, 1, int(rng.integers(0, 2 ** 31)))
        rep = verify(fa, fb, "maassen_uffink", trials=10 ** 4,
                     seed=int(rng.integers(0, 2 ** 31)))
        _tally(info, rep)
        artifacts[f"redundant_{k}.json"] = render_report("verify", report_to_dict(rep))
    return artifacts, info


def test_c5_redundant_frame_bound():
    _, info = _cached("c5", _run_c5)
    ok = _no_violations(info) and info["elapsed"] < 30.0
    _report_line(5, "redundant-frame coherence bound, d=1, m>n", ok,
                 f"5 random pairs, 10^4 trials each, "
                 f"{info['violations']} violations, min gap {info['min_gap']:.2e}, "
                 f"{info['elapsed']:.1f}s")
    assert ok


def _run_c6():
    fra, frb = gen_fourier_pair(2, 1)
    mu_res = minimize_entropy_sum(fra, frb, "maassen_uffink", restarts=32,
                                  max_iters=2000, seed=6006)
    de_res = minimize_entropy_sum(fra, frb, "deutsch", restarts=32,
                                  max_iters=2000, seed=6006)
    artifacts = {
        "search_mu.json": render_report("search", search_result_to_dict(mu_res)),
        "search_deutsch.json": render_report("search", search_result_to_dict(de_res)),
    }
    return artifacts, {"mu_gap": mu_res.best_gap, "deutsch_gap": de_res.best_gap}


def test_c6_tightness_probe():
    _, info = _cached("c6", _run_c6)
    oracle = json.loads(FIXTURE.read_text())
    assert oracle["grid_points"] == 10 ** 6
    mu_ok = abs(info["mu_gap"]) <= 1e-3
    de_ok = abs(info["deutsch_gap"] - oracle["deutsch_gap"]) <= 1e-3
    ok = mu_ok and de_ok and info["elapsed"] < 60.0
    _report_line(6, "tightness probe on the n=2 Fourier pair", ok,
                 f"coherence-bound gap {info['mu_gap']:.2e} (<=1e-3 of attained), "
                 f"two-basis-bound gap {info['deutsch_gap']:.9f} vs grid oracle "
                 f"{oracle['deutsch_gap']:.9f} +/-1e-3, {info['elapsed']:.1f}s")
    assert ok


def _run_c7():
    artifacts = {}
    info = {"pairs": 50, "worst_gap": math.inf, "candidates": [], "replay_ok": True}
    for spec, fa, fb, res in campaign(50, 32, 2000, 7007, n_max=6, m_max=10, d_max=4):
        k = spec["pair"]
        info["worst_gap"] = min(info["worst_gap"], res.best_gap)
        doc = search_result_to_dict(res)
        artifacts[f"search_{k:02d}.json"] = render_report("search", doc)
        if is_counterexample_candidate(res):
            info["candidates"].append(k)
            # witness must replay from its serialized form to 1e-9
            x = vector_from_json(json.loads(json.dumps(doc["best_x"])))
            gap, _ = recompute_gap(fa, fb, x, "maassen_uffink")
            info["replay_ok"] &= abs(gap - doc["best_gap"]) <= 1e-9
    return artifacts, info


def test_c7_conjecture_campaign():
    _, info = _cached("c7", _run_c7)
    no_candidates = not info["candidates"]
    ok = (no_candidates or info["replay_ok"]) and info["elapsed"] < 600.0
    detail = (f"50 pairs, 32 restarts, worst gap {info['worst_gap']:.3e}, "
              f"candidates {info['candidates'] or 'none'}, {info['elapsed']:.1f}s")
    _report_line(7, "coherence-bound counterexample campaign", no_candidates and ok, detail)
    assert ok
    # the bound is a theorem, so a verified candidate is a bug; surface it loudly
    assert no_candidates, f"replayable counterexample candidates found: {info['candidates']}"


def test_c8_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8008)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 9))
        fa = gen_random_parseval(n, m, 1, int(rng.integers(0, 2 ** 31)))
        fb = gen_random_parseval(n, m, 1, int(rng.integers(0, 2 ** 31)))
        mats = [fa.analysis[0], fb.analysis[0]]
        v = random_unit_vector(n, 1, int(rng.integers(0, 2 ** 31))).entries[:, 0]   # (n,) row
        terms = [entropy_terms(a, v) for a in mats]
        if min(float(w.min()) for _c, w, _l, _s in terms) < 1e-3:
            continue
        g = sum(entropy_gradient(a, c, w, log_w) for a, (c, w, log_w, _s) in zip(mats, terms))
        gt = project_tangent(g, v)
        h = 1e-5
        fd = np.zeros(n, dtype=complex)
        for i in range(n):
            e = np.zeros(n, dtype=complex)
            e[i] = 1.0

            def fs(delta):
                u = v + delta
                u = u / np.linalg.norm(u)
                return sum(float(entropy_terms(a, u)[3]) for a in mats)

            fd[i] = ((fs(h * e) - fs(-h * e))
                     + 1j * (fs(1j * h * e) - fs(-1j * h * e))) / (2 * h)
        rel = float(np.max(np.abs(gt - fd)) / max(1.0, np.max(np.abs(fd))))
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _report_line(8, "entropy tangent gradient vs central differences", ok,
                 f"100 interior points, step 1e-5, worst rel err {worst:.2e}, "
                 f"{elapsed:.1f}s")
    assert ok


def test_c9_determinism():
    t0 = time.perf_counter()
    runs = (("c3", _run_c3), ("c4", _run_c4), ("c5", _run_c5),
            ("c6", _run_c6), ("c7", _run_c7))
    mismatches = []
    for name, fn in runs:
        first, _ = _cached(name, fn)
        second, _ = fn()
        if set(first) != set(second):
            mismatches.append(f"{name}: artifact sets differ")
            continue
        for key in first:
            if _strip_timestamp(first[key]) != _strip_timestamp(second[key]):
                mismatches.append(f"{name}/{key}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _report_line(9, "byte-identical reports on rerun (timestamp aside)", ok,
                 f"criteria 3-7 repeated with identical seeds, "
                 f"{sum(len(_RUNS[n]) for n, _ in runs)} reports compared, {elapsed:.1f}s")
    assert ok, mismatches


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-rA"]))
