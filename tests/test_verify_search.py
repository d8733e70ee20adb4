import json
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from moduncert import (
    DimensionMismatch,
    Frame,
    ModuleVector,
    PreconditionError,
    campaign,
    frames_digest,
    gen_fourier_pair,
    gen_onb,
    gen_random_parseval,
    is_counterexample_candidate,
    is_unit_inner,
    minimize_entropy_sum,
    proof_chain_check,
    random_unit_vector,
    recompute_gap,
    restrict_to_fiber,
    unit_vector_stream,
    verify,
)
from moduncert import entropy_bounds, verify_search
from moduncert.algebra import norm
from moduncert.entropy_bounds import (
    ZERO_TOL,
    buzano_check,
    buzano_sides,
    entropy_gradient,
    entropy_hessian,
    entropy_terms,
    project_tangent,
)
from moduncert.frames import synthesis
from moduncert.module_space import inner, module_norm
from moduncert.verify_search import (
    VERIFY_GAP_TOL,
    NumberTexts,
    bound_value_for,
    canonical_json,
    report_to_dict,
    search_result_to_dict,
    trials_to_csv,
)


def test_bound_value_for():
    assert bound_value_for("deutsch", 1.0) == 0.0
    assert bound_value_for("maassen_uffink", 1.0) == 0.0
    # tiny floating overshoot of mu is clamped, beyond that rejected
    assert bound_value_for("deutsch", 1.0 + 1e-12) == 0.0
    with pytest.raises(ValueError):
        bound_value_for("deutsch", 1.01)
    with pytest.raises(ValueError):
        bound_value_for("unknown", 0.5)


def test_verify_identical_frames():
    fr = gen_onb(3, 2, 1)
    rep = verify(fr, fr, "deutsch", trials=200, seed=5)
    assert rep.mu == pytest.approx(1.0, abs=1e-12)
    assert rep.bound_value == pytest.approx(0.0, abs=1e-12)
    assert rep.min_gap >= -1e-9
    assert not rep.violations


def test_verify_fourier_pair_deutsch():
    fra, frb = gen_fourier_pair(2, 1)
    rep = verify(fra, frb, "deutsch", trials=500, seed=7)
    assert rep.bound_value == pytest.approx(0.31669436764074993, abs=1e-12)
    assert not rep.violations
    assert rep.min_gap > 0


def test_verify_random_modular_pair():
    fa = gen_random_parseval(4, 6, 3, 31)
    fb = gen_random_parseval(4, 6, 3, 32)
    rep = verify(fa, fb, "deutsch", trials=500, seed=8)
    assert not rep.violations
    assert rep.min_gap >= -1e-9


def test_verify_report_bookkeeping(monkeypatch):
    fra, frb = gen_fourier_pair(2, 1)
    rep = verify(fra, frb, "deutsch", trials=300, seed=11)
    assert rep.min_gap == pytest.approx(float(np.min(rep.trial_gaps)), abs=0)
    assert rep.trial_gaps.shape == (300,)
    assert np.all(rep.trial_worst_fiber == 0)
    # an extreme zero threshold drops every weight from the sum, driving the
    # entropy sum to zero below the bound: the violation and
    # boundary-graze bookkeeping must track exactly
    monkeypatch.setattr(entropy_bounds, "ZERO_TOL", 0.95)
    bad = verify(fra, frb, "deutsch", trials=50, seed=11)
    assert bad.violations
    flagged = {t for (t, f, g) in bad.violations}
    expect = {i for i in range(50) if bad.trial_gaps[i] < -VERIFY_GAP_TOL}
    assert flagged == expect
    for (t, f, g) in bad.violations:
        assert g < -VERIFY_GAP_TOL
        assert g == pytest.approx(bad.trial_gaps[t], abs=0)
    assert set(bad.boundary_graze_trials) == flagged


def test_verify_reports_a_gap_just_below_the_threshold(monkeypatch):
    # raising the bound by min_gap + 1e-6 puts the arg-min trial's worst fiber
    # at a gap of -1e-6, a violation however little it misses the bound by
    fa, fb = gen_random_parseval(6, 10, 4, 3), gen_random_parseval(6, 10, 4, 4)
    base = verify(fa, fb, "deutsch", trials=256, seed=5)
    worst = int(np.argmin(base.trial_gaps))
    at = (worst, int(base.trial_worst_fiber[worst]))
    raise_by = base.min_gap + 1e-6
    bound_value_for = verify_search.bound_value_for
    monkeypatch.setattr(verify_search, "bound_value_for",
                        lambda kind, mu: bound_value_for(kind, mu) + raise_by)
    rep = verify(fa, fb, "deutsch", trials=256, seed=5)
    gaps = [g for (t, f, g) in rep.violations if (t, f) == at]
    assert len(gaps) == 1
    assert abs(gaps[0] + 1e-6) <= 1e-9


def test_verify_trial_replay():
    fa = gen_random_parseval(3, 5, 2, 41)
    fb = gen_random_parseval(3, 5, 2, 42)
    rep = verify(fa, fb, "maassen_uffink", trials=64, seed=99)
    for i in (0, 17, 63):
        x = ModuleVector(unit_vector_stream(3, 2, 99, i, 1)[0])
        gap, _ = recompute_gap(fa, fb, x, "maassen_uffink")
        assert gap == pytest.approx(float(rep.trial_gaps[i]), abs=1e-12)


def test_verify_determinism_and_digest():
    fa = gen_random_parseval(2, 4, 2, 51)
    fb = gen_random_parseval(2, 4, 2, 52)
    r1 = verify(fa, fb, "deutsch", trials=100, seed=3)
    r2 = verify(fa, fb, "deutsch", trials=100, seed=3)
    assert report_to_dict(r1) == report_to_dict(r2)
    assert r1.frames_digest.startswith("sha256:")
    assert r1.frames_digest == frames_digest(fa, fb)
    assert frames_digest(fa, fb) != frames_digest(fb, fa)


def test_verify_adjacent_seeds_draw_different_samples():
    # with per-trial seeds seed ^ i, seeds 2 and 3 drew the same vectors
    # in a different order
    fa = gen_random_parseval(3, 5, 2, 61)
    fb = gen_random_parseval(3, 5, 2, 62)
    r2 = verify(fa, fb, "deutsch", trials=256, seed=2)
    r3 = verify(fa, fb, "deutsch", trials=256, seed=3)
    # disjoint values, so the multisets of trial gaps differ too
    assert not set(r2.trial_gaps.tolist()) & set(r3.trial_gaps.tolist())


def test_verify_chunking_does_not_change_results(monkeypatch):
    fa = gen_random_parseval(3, 5, 2, 63)
    fb = gen_random_parseval(3, 5, 2, 64)
    whole = verify(fa, fb, "deutsch", trials=3000, seed=17)
    monkeypatch.setattr(verify_search, "_VERIFY_CHUNK", 7)
    chunked = verify(fa, fb, "deutsch", trials=3000, seed=17)
    assert np.array_equal(whole.trial_gaps, chunked.trial_gaps)
    assert np.array_equal(whole.trial_worst_fiber, chunked.trial_worst_fiber)
    assert report_to_dict(whole) == report_to_dict(chunked)
    # a coefficient budget below one trial still runs one trial per batch
    monkeypatch.setattr(verify_search, "_VERIFY_CHUNK_COEFFS", 1)
    single = verify(fa, fb, "deutsch", trials=3000, seed=17)
    assert report_to_dict(whole) == report_to_dict(single)


def _grazing_pair():
    # a zero frame vector keeps a frame Parseval and gives every trial a zero weight
    fa = gen_random_parseval(3, 5, 2, 65)
    fb = gen_random_parseval(3, 5, 2, 66)
    return fa, Frame(np.concatenate([fb.analysis, np.zeros((2, 1, 3))], axis=1))


@pytest.mark.parametrize("trials", [1, 1001, 3000])
def test_verify_span_layout_does_not_change_results(monkeypatch, trials):
    fa, fb = _grazing_pair()
    monkeypatch.setattr(verify_search, "VERIFY_GAP_TOL", -np.inf)    # every gap violates
    monkeypatch.setattr(verify_search, "_VERIFY_MIN_SPAN", 7)
    reports, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)     # threads switch as often as they can
        # spans of at most 97 trials: more spans than threads
        for workers, chunk in ((1, 2048), (2, 2048), (3, 2048), (8, 2048), (2, 97), (3, 97)):
            monkeypatch.setattr(verify_search, "_usable_cpus", lambda: workers)
            monkeypatch.setattr(verify_search, "_VERIFY_CHUNK", chunk)
            reports.append(verify(fa, fb, "deutsch", trials=trials, seed=19))
    finally:
        sys.setswitchinterval(interval)
    want = report_to_dict(reports[0])
    for rep in reports:
        assert report_to_dict(rep) == want
        assert [(t, f) for (t, f, g) in rep.violations] == [
            (t, f) for t in range(trials) for f in range(2)]
        assert rep.boundary_graze_trials == tuple(range(trials))
    # and each trial's gap is its own: trial i replays alone
    for i in {0, trials // 2, trials - 1}:
        gap, grazing = recompute_gap(fa, fb, ModuleVector(unit_vector_stream(3, 2, 19, i, 1)[0]),
                                     "deutsch")
        assert reports[2].trial_gaps[i] == pytest.approx(gap, abs=1e-12) and grazing


@pytest.fixture
def fresh_workers(monkeypatch):
    """A pool of verify workers of its own, whose threads are stopped afterwards."""
    workers, before = verify_search._Workers(), set(threading.enumerate())
    monkeypatch.setattr(verify_search, "_workers", workers)
    yield workers
    started = set(threading.enumerate()) - before
    for _ in range(workers.threads):
        workers.jobs.put(None)
    for thread in started:
        thread.join(timeout=10)
        assert not thread.is_alive()


def _no_thread(*args, **kwargs):
    raise AssertionError("verify started a thread")


def test_verify_keeps_its_workers_and_raises_span_errors(monkeypatch, fresh_workers):
    fa, fb = gen_random_parseval(3, 5, 2, 67), gen_random_parseval(3, 5, 2, 68)
    monkeypatch.setattr(verify_search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify_search, "_VERIFY_MIN_SPAN", 7)
    before = set(threading.enumerate())
    want = report_to_dict(verify(fa, fb, "deutsch", trials=1001, seed=3))
    # the first threaded call starts the pool's workers, daemon threads that stay
    workers = set(threading.enumerate()) - before
    assert len(workers) == fresh_workers.threads == 2
    assert all(w.daemon and w.name.startswith("moduncert-verify-") for w in workers)
    # later calls start none and leave the same threads alive, also when a span raises
    monkeypatch.setattr(threading, "Thread", _no_thread)
    assert report_to_dict(verify(fa, fb, "deutsch", trials=1001, seed=3)) == want

    class SpanError(Exception):
        pass

    error, entropies = SpanError("span of 501 trials"), verify_search._entropies

    def failing(frame, xs):             # the spans are trials [0, 500) and [500, 1001)
        if len(xs) == 501:
            raise error
        return entropies(frame, xs)

    monkeypatch.setattr(verify_search, "_entropies", failing)
    with pytest.raises(SpanError) as info:
        verify(fa, fb, "deutsch", trials=1001, seed=3)
    assert info.value is error
    assert set(threading.enumerate()) == before | workers
    # and the call after the error gets its report from the same workers
    monkeypatch.setattr(verify_search, "_entropies", entropies)
    assert report_to_dict(verify(fa, fb, "deutsch", trials=1001, seed=3)) == want
    assert set(threading.enumerate()) == before | workers


def test_verify_runs_at_most_t_spans_at_once(monkeypatch, fresh_workers):
    fa, fb = gen_random_parseval(3, 5, 2, 73), gen_random_parseval(3, 5, 2, 74)
    want = report_to_dict(verify(fa, fb, "deutsch", trials=60, seed=5))
    monkeypatch.setattr(verify_search, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(verify_search, "_VERIFY_MIN_SPAN", 20)
    verify(fa, fb, "deutsch", trials=160, seed=5)       # T = 8: the pool gets 8 workers
    assert fresh_workers.threads == 8
    lock, entropies, running, peak = threading.Lock(), verify_search._entropies, [0], [0]

    def counting(frame, xs):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.005)               # spans in flight overlap here
        try:
            return entropies(frame, xs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(verify_search, "_entropies", counting)
    monkeypatch.setattr(verify_search, "_VERIFY_CHUNK", 4)
    # T = min(8, 60 // 20) = 3 of the 8 workers run the 15 spans
    assert report_to_dict(verify(fa, fb, "deutsch", trials=60, seed=5)) == want
    assert 2 <= peak[0] <= 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_verify_in_a_forked_child_starts_its_own_workers(monkeypatch, fresh_workers):
    fa, fb = gen_random_parseval(3, 5, 2, 75), gen_random_parseval(3, 5, 2, 76)
    monkeypatch.setattr(verify_search, "_usable_cpus", lambda: 2)
    want = report_to_dict(verify(fa, fb, "deutsch", trials=1024, seed=9))
    assert fresh_workers.threads == 2
    pid = os.fork()
    if pid == 0:    # the child exits 0 only with the parent's report, from two threads of its own
        code = 1
        try:
            before = threading.active_count()
            same = report_to_dict(verify(fa, fb, "deutsch", trials=1024, seed=9)) == want
            code = 0 if same and threading.active_count() == before + 2 else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20
    while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("verify in the forked child did not return within 20 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(waited[1]) == 0


def test_verify_from_two_threads_at_once(monkeypatch):
    fa, fb = gen_random_parseval(3, 5, 2, 77), gen_random_parseval(3, 5, 2, 78)
    monkeypatch.setattr(verify_search, "_VERIFY_CHUNK", 97)
    monkeypatch.setattr(verify_search, "_usable_cpus", lambda: 1)
    want = [report_to_dict(verify(fa, fb, "deutsch", trials=1500, seed=s)) for s in (1, 2)]
    monkeypatch.setattr(verify_search, "_usable_cpus", lambda: 2)
    got, interval = [None, None], sys.getswitchinterval()

    def call(i):
        got[i] = report_to_dict(verify(fa, fb, "deutsch", trials=1500, seed=i + 1))

    callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    try:
        sys.setswitchinterval(1e-6)     # threads switch as often as they can
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_verify_spans_in_flight_share_one_coefficient_budget(monkeypatch):
    fa, fb = gen_random_parseval(3, 5, 2, 71), gen_random_parseval(3, 4, 2, 72)
    want = report_to_dict(verify(fa, fb, "deutsch", trials=3000, seed=6))
    budget, entropies, sizes = 1 << 12, verify_search._entropies, []

    def recording(frame, xs):
        sizes.append(len(xs))
        return entropies(frame, xs)

    monkeypatch.setattr(verify_search, "_VERIFY_CHUNK_COEFFS", budget)
    monkeypatch.setattr(verify_search, "_entropies", recording)
    for workers in (1, 2, 4, 64):
        monkeypatch.setattr(verify_search, "_usable_cpus", lambda: workers)
        sizes.clear()
        assert report_to_dict(verify(fa, fb, "deutsch", trials=3000, seed=6)) == want
        threads = min(workers, 3000 // verify_search._VERIFY_MIN_SPAN)
        assert sum(sizes) == 2 * 3000
        assert threads * max(sizes) * 5 * 2 <= budget


def test_verify_on_one_cpu_starts_no_thread(monkeypatch):
    fa, fb = gen_random_parseval(3, 5, 2, 69), gen_random_parseval(3, 5, 2, 70)
    want = report_to_dict(verify(fa, fb, "deutsch", trials=5000, seed=4))
    monkeypatch.setattr(threading, "Thread", _no_thread)
    monkeypatch.setattr(verify_search, "_usable_cpus", lambda: 1)
    assert report_to_dict(verify(fa, fb, "deutsch", trials=5000, seed=4)) == want
    # too few trials for two spans of _VERIFY_MIN_SPAN: no thread either
    monkeypatch.setattr(verify_search, "_usable_cpus", lambda: 2)
    verify(fa, fb, "deutsch", trials=2 * verify_search._VERIFY_MIN_SPAN - 1, seed=4)
    # and the patch does stop a threaded run on a pool with no worker yet
    monkeypatch.setattr(verify_search, "_workers", verify_search._Workers())
    with pytest.raises(AssertionError, match="started a thread"):
        verify(fa, fb, "deutsch", trials=2 * verify_search._VERIFY_MIN_SPAN, seed=4)


def test_verify_rejects_seeds_outside_the_stream_key_range():
    fa = gen_onb(2, 1, 1)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            verify(fa, fa, "deutsch", trials=10, seed=seed)
    assert verify(fa, fa, "deutsch", trials=10, seed=2 ** 64 - 1).trials == 10


def test_verify_preconditions():
    fa = gen_onb(2, 1, 1)
    scaled = Frame(0.9 * fa.analysis)
    with pytest.raises(PreconditionError, match="Parseval"):
        verify(scaled, fa, "deutsch", trials=10, seed=0)
    with pytest.raises(DimensionMismatch):
        verify(fa, gen_onb(3, 1, 1), "deutsch", trials=10, seed=0)
    with pytest.raises(ValueError):
        verify(fa, fa, "deutsch", trials=0, seed=0)


def test_campaign_rejects_bad_arguments():
    good = dict(pairs=1, restarts=1, max_iters=1, seed=0, n_max=2, m_max=2, d_max=1)
    for name, bad, message in (("pairs", 0, "pairs must be >= 1, got 0"),
                               ("pairs", -3, "pairs must be >= 1, got -3"),
                               ("restarts", 0, "restarts must be >= 1, got 0"),
                               ("max_iters", 0, "max_iters must be >= 1, got 0"),
                               ("seed", -1, "seed must be >= 0, got -1"),
                               ("n_max", 1, "n_max must be >= 2, got 1"),
                               ("m_max", 1, "m_max must be >= n_max, got m_max=1, n_max=2"),
                               ("d_max", 0, "d_max must be >= 1, got 0")):
        # the call itself raises, so no pair is drawn
        with pytest.raises(ValueError, match=message):
            campaign(**{**good, name: bad})


@pytest.mark.parametrize("entry, name, bad", [
    ("search", "seed", -1), ("search", "seed", 1.5), ("search", "restarts", 1.5),
    ("search", "restarts", True), ("search", "max_iters", 2.5),
    ("verify", "trials", 2.5), ("campaign", "pairs", 1.5)])
def test_entry_points_reject_bad_numbers_with_value_error(entry, name, bad):
    fa = gen_onb(2, 1, 1)
    calls = {
        "search": lambda **kw: minimize_entropy_sum(
            fa, fa, "deutsch", **{"restarts": 1, "max_iters": 5, "seed": 0, **kw}),
        "verify": lambda **kw: verify(fa, fa, "deutsch", **{"trials": 10, "seed": 0, **kw}),
        "campaign": lambda **kw: campaign(**{"pairs": 1, "restarts": 1, "max_iters": 1,
                                             "seed": 0, "n_max": 2, "m_max": 2, "d_max": 1,
                                             **kw}),
    }
    with pytest.raises(ValueError, match=f"^{name} must be"):
        calls[entry](**{name: bad})


def test_search_identical_frames():
    fr = gen_onb(3, 1, 61)
    res = minimize_entropy_sum(fr, fr, "deutsch", restarts=8, max_iters=300, seed=2)
    assert res.bound_value == 0.0
    assert abs(res.best_gap) <= 1e-6
    assert is_unit_inner(res.best_x, 1e-10)


def test_search_fourier_pair_maassen_uffink():
    fra, frb = gen_fourier_pair(2, 1)
    res = minimize_entropy_sum(fra, frb, "maassen_uffink", restarts=8,
                               max_iters=500, seed=3)
    assert abs(res.best_gap) <= 1e-3
    # the minimum sits at a basis vector, outside the strict domain
    assert res.boundary_grazing
    assert not is_counterexample_candidate(res)


def test_search_gap_recomputation_matches():
    fa = gen_random_parseval(3, 5, 2, 71)
    fb = gen_random_parseval(3, 5, 2, 72)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=4,
                               max_iters=300, seed=9)
    gap, grazing = recompute_gap(fa, fb, res.best_x, "maassen_uffink")
    assert gap == pytest.approx(res.best_gap, abs=1e-12)
    assert grazing == res.boundary_grazing
    assert is_unit_inner(res.best_x, 1e-10)


def test_search_decoupling_across_fibers():
    fa = gen_random_parseval(3, 5, 3, 81)
    fb = gen_random_parseval(3, 5, 3, 82)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=8,
                               max_iters=300, seed=6)
    # restricted runs subtract their own fiber's bound (coherence is a sup
    # over fibers), so compare entropy minima, not gaps, across the split
    worst_entropy = np.inf
    for t in range(3):
        sub = minimize_entropy_sum(restrict_to_fiber(fa, t), restrict_to_fiber(fb, t),
                                   "maassen_uffink", restarts=8, max_iters=300,
                                   seed=6 ^ (t * 8))
        assert np.array_equal(sub.best_x.entries[:, 0], res.best_x.entries[:, t])
        worst_entropy = min(worst_entropy, sub.best_gap + sub.bound_value)
    assert res.best_gap == pytest.approx(worst_entropy - res.bound_value, abs=1e-6)
    assert res.newton_steps > 0


def test_iterations_per_start_sum_and_decouple_across_fibers():
    fa, fb = gen_random_parseval(3, 5, 3, 81), gen_random_parseval(3, 5, 3, 82)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=4, max_iters=300, seed=6)
    assert len(res.iterations_per_start) == 3 * 4
    assert sum(res.iterations_per_start) == res.iterations_used
    doc = search_result_to_dict(res)
    keys = list(doc)
    assert keys[keys.index("iterations_used") + 1] == "iterations_per_start"
    assert doc["iterations_per_start"] == list(res.iterations_per_start)
    # with restarts a power of two, fiber t's runs are those of the d=1 run
    # on the restricted frames seeded seed ^ (t*restarts)
    for t in range(3):
        sub = minimize_entropy_sum(restrict_to_fiber(fa, t), restrict_to_fiber(fb, t),
                                   "maassen_uffink", restarts=4, max_iters=300, seed=6 ^ (t * 4))
        assert res.iterations_per_start[4 * t:4 * t + 4] == sub.iterations_per_start
    assert len(set(res.iterations_per_start)) > 1


def test_descent_start_is_independent_of_its_batch():
    fa, fb = gen_random_parseval(3, 5, 2, 121), gen_random_parseval(3, 5, 2, 122)
    pair = np.concatenate([fa.analysis, fb.analysis], axis=1)     # (d, m_a + m_b, n)
    fiber = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    v = unit_vector_stream(3, 1, 123, 0, 8)[:, :, 0]
    for b in (0, 3, 6):      # a vanished weight of the first frame: these starts are stiff
        row = pair[fiber[b], 0]
        v[b] -= (row @ v[b]) * np.conj(row) / np.vdot(row, row).real
    *terms, f0 = entropy_terms(pair[fiber], verify_search._normalize(v))
    assert np.all(np.min(terms[1][[0, 3, 6]], axis=1) <= 1e-6)
    batch = verify_search._descend(pair, fiber, v, 2000)
    f, _iters, conv, newton = batch[1:5]
    # the stiff starts descend and converge like the others, ending in Newton steps
    assert np.all(f < f0) and conv.all() and newton.all()
    for b in range(8):
        alone = verify_search._descend(pair, fiber[b:b + 1], v[b:b + 1], 2000)
        for got, want in zip(alone, batch):     # v, f, iterations, converged, and the counters
            assert np.array_equal(got[0], want[b])


@pytest.mark.parametrize("max_iters", [2000, 12])
def test_descent_results_leave_at_each_start_s_own_index(max_iters):
    # the starts leave the compacted active set at different iterations: start 0 is
    # already flat (a converged start fed back in), 1, 4 and 7 start stiff, others end
    # in Newton steps, and with max_iters=12 some run out of iterations
    fa, fb = gen_random_parseval(3, 5, 2, 121), gen_random_parseval(3, 5, 2, 122)
    pair = np.concatenate([fa.analysis, fb.analysis], axis=1)     # (d, m_a + m_b, n)
    fiber = np.arange(10) % 2
    v = unit_vector_stream(3, 1, 141, 0, 10)[:, :, 0]
    for b in (1, 4, 7):      # a vanished weight of the first frame: these starts are stiff
        row = pair[fiber[b], 0]
        v[b] -= (row @ v[b]) * np.conj(row) / np.vdot(row, row).real
    v[0] = verify_search._descend(pair, fiber[:1], v[:1], 2000)[0][0]
    *terms, f0 = entropy_terms(pair[fiber], verify_search._normalize(v))
    assert np.all(np.min(terms[1][[1, 4, 7]], axis=1) <= 1e-6)
    batch = verify_search._descend(pair, fiber, v, max_iters)
    f, iters, conv, newton = batch[1:5]
    assert iters[0] == 1 and conv[0]
    assert np.all(f[[1, 4, 7]] < f0[[1, 4, 7]]) and newton.any() and len(set(iters)) >= 3
    if max_iters == 12:
        assert not conv.all() and conv[iters == 12].any()    # capped, and stopped at the cap
    else:
        assert conv.all()
    for b in range(10):
        alone = verify_search._descend(pair, fiber[b:b + 1], v[b:b + 1], max_iters)
        assert len(alone) == len(batch) == 6
        for got, want in zip(alone, batch):     # v, f, iterations, converged, and the counters
            assert np.array_equal(got[0], want[b])


def test_descent_of_a_batch_in_which_every_start_is_flat():
    # converged starts fed back in: each stops in its first round where it was,
    # with no Newton step and no halving
    fa, fb = gen_random_parseval(3, 5, 2, 121), gen_random_parseval(3, 5, 2, 122)
    pair = np.concatenate([fa.analysis, fb.analysis], axis=1)     # (d, m_a + m_b, n)
    fiber = np.arange(6) % 2
    v = verify_search._descend(pair, fiber, unit_vector_stream(3, 1, 141, 0, 6)[:, :, 0], 2000)[0]
    out_v, _f, iters, conv, newton, backtracks = verify_search._descend(pair, fiber, v, 2000)
    assert np.all(iters == 1) and conv.all() and not newton.any() and not backtracks.any()
    assert np.array_equal(out_v, verify_search._normalize(v))


def test_newton_direction_is_horizontal_and_solves_the_projected_system():
    rng = np.random.default_rng(151)
    for k in range(60):
        d, n = 1 + k % 3, int(rng.integers(2, 7))
        m = int(rng.integers(n, 11))
        fa, fb = gen_random_parseval(n, m, d, 1500 + k), gen_random_parseval(n, m, d, 2500 + k)
        mats = np.concatenate([fa.analysis, fb.analysis], axis=1)   # one start per fiber
        v = unit_vector_stream(n, d, 160 + k, 0, 1)[0].T
        *terms, _f = entropy_terms(mats, v)
        g = entropy_gradient(mats, *terms)
        gt = project_tangent(g, v)
        eta = verify_search._newton(mats, v, g, gt, terms)
        size = np.linalg.norm(eta, axis=1)
        for normal in (v, 1j * v):
            assert np.all(np.abs((normal.conj() * eta).sum(axis=1).real) <= 1e-12 * size)
        # reference: P (H - Re<x,g> I) P + x x^T + (ix)(ix)^T in [Re, Im] coordinates
        hess = sum(entropy_hessian(mats[:, rows], *(t[:, rows] for t in terms))
                   for rows in (slice(None, m), slice(m, None)))     # frame a's rows, then b's
        x = np.concatenate([v.real, v.imag], axis=1)[:, :, np.newaxis]
        ix = np.concatenate([-v.imag, v.real], axis=1)[:, :, np.newaxis]
        normal = x @ np.swapaxes(x, 1, 2) + ix @ np.swapaxes(ix, 1, 2)
        proj, eye = np.eye(2 * n) - normal, np.eye(2 * n)
        lam = (v.conj() * g).sum(axis=1).real[:, np.newaxis, np.newaxis]
        ref = np.linalg.solve(proj @ (hess - lam * eye) @ proj + normal,
                              -np.concatenate([gt.real, gt.imag], axis=1)[:, :, np.newaxis])
        ref = ref[:, :n, 0] + 1j * ref[:, n:, 0]
        assert np.all(np.linalg.norm(eta - ref, axis=1) <= 1e-10 * np.linalg.norm(ref, axis=1))


def test_newton_direction_survives_a_singular_system():
    fa, fb = gen_random_parseval(3, 5, 1, 131), gen_random_parseval(3, 5, 1, 132)
    # start 1 sees all-zero frames at a basis vector: no Hessian, no gradient, a singular system
    mats = np.stack([np.concatenate([fa.analysis[0], fb.analysis[0]]), np.zeros((10, 3))])
    v = np.stack([unit_vector_stream(3, 1, 133, 0, 1)[0, :, 0], np.eye(3)[0].astype(complex)])
    *terms, _f = entropy_terms(mats, v)
    g = entropy_gradient(mats, *terms)
    gt = project_tangent(g, v)
    eta = verify_search._newton(mats, v, g, gt, terms)
    alone = verify_search._newton(mats[:1], v[:1], g[:1], gt[:1], [t[:1] for t in terms])
    assert np.array_equal(eta[0], alone[0]) and np.all(np.isfinite(eta[0]))
    assert np.all(np.isnan(eta[1]))


def test_search_counts_newton_steps():
    fa, fb = gen_random_parseval(6, 10, 4, 111), gen_random_parseval(6, 10, 4, 112)
    interior = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=2, seed=3)
    assert interior.newton_steps > 0 and not interior.boundary_grazing
    fra, frb = gen_fourier_pair(2, 1)
    grazing = minimize_entropy_sum(fra, frb, "maassen_uffink", restarts=8, max_iters=500, seed=3)
    assert grazing.newton_steps > 0 and grazing.boundary_grazing
    doc = search_result_to_dict(interior)
    keys = list(doc)
    assert keys[keys.index("runs_at_max_iters") + 1:keys.index("converged")] == [
        "newton_steps", "line_search_backtracks"]
    assert doc["newton_steps"] == interior.newton_steps


def test_search_counts_line_search_backtracks():
    fa, fb = gen_random_parseval(6, 10, 4, 111), gen_random_parseval(6, 10, 4, 112)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=2, seed=3)
    assert res.line_search_backtracks > 0 and not res.boundary_grazing
    doc = search_result_to_dict(res)
    keys = list(doc)
    assert keys[keys.index("newton_steps") + 1] == "line_search_backtracks"
    assert doc["line_search_backtracks"] == res.line_search_backtracks


def test_optimizer_never_worse_than_sampling():
    # at d=1 restart r starts at random_unit_vector(3, 1, 44 ^ r) and only
    # descends, so its minimum cannot exceed the best of its own starts
    fa = gen_random_parseval(3, 6, 1, 95)
    fb = gen_random_parseval(3, 6, 1, 96)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=16,
                               max_iters=400, seed=44)
    start_gap = min(recompute_gap(fa, fb, random_unit_vector(3, 1, 44 ^ r),
                                  "maassen_uffink")[0] for r in range(16))
    assert res.best_gap <= start_gap + 1e-12


def test_runs_at_max_iters_counts_every_capped_run():
    fa = gen_random_parseval(3, 5, 3, 91)
    fb = gen_random_parseval(3, 5, 3, 92)
    capped = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=4, max_iters=1, seed=5)
    assert capped.runs_at_max_iters == 3 * 4
    assert capped.iterations_used == 3 * 4 and not capped.converged
    assert search_result_to_dict(capped)["runs_at_max_iters"] == 12
    full = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=4, max_iters=2000, seed=5)
    assert full.runs_at_max_iters == 0 and full.converged


def test_search_keeps_each_fiber_s_best_restart():
    # restart r of fiber t is the one-restart search on the restricted frames
    # seeded seed ^ (t*restarts + r); these fibers have 3 to 6 distinct minima,
    # so a search that kept another restart would report a higher minimum
    fa, fb = gen_random_parseval(6, 10, 4, 111), gen_random_parseval(6, 10, 4, 112)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=8, seed=3)
    minima = np.empty((4, 8))
    for t in range(4):
        fa_t, fb_t = restrict_to_fiber(fa, t), restrict_to_fiber(fb, t)
        for r in range(8):
            sub = minimize_entropy_sum(fa_t, fb_t, "maassen_uffink", restarts=1,
                                       seed=3 ^ (t * 8 + r))
            minima[t, r] = sub.best_gap + sub.bound_value
    assert np.all(minima.max(axis=1) - minima.min(axis=1) > 0.1)
    assert res.best_gap + res.bound_value == pytest.approx(minima.min(), abs=1e-12)


def test_search_runs_each_start_up_to_max_iters():
    # some start of this pair needs more than 20 iterations, and none needs 2000
    fa, fb = gen_random_parseval(6, 10, 4, 111), gen_random_parseval(6, 10, 4, 112)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=8, max_iters=2000, seed=3)
    assert max(res.iterations_per_start) > 20
    assert res.runs_at_max_iters == 0 and res.converged


def test_search_on_frames_with_different_m():
    # each fiber's pair is one (3 + 5, 3) matrix; in either frame order, fiber t
    # runs as the d=1 search on the restricted frames seeded 4 ^ (t*8)
    onb, fb = gen_onb(3, 2, 1), gen_random_parseval(3, 5, 2, 2)
    for pair in ((onb, fb), (fb, onb)):
        res = minimize_entropy_sum(*pair, "maassen_uffink", restarts=8, seed=4)
        for t in range(2):
            sub = minimize_entropy_sum(*(restrict_to_fiber(fr, t) for fr in pair),
                                       "maassen_uffink", restarts=8, seed=4 ^ (t * 8))
            assert np.array_equal(sub.best_x.entries[:, 0], res.best_x.entries[:, t])
            assert sub.iterations_per_start == res.iterations_per_start[8 * t:8 * t + 8]
        assert res.best_gap > 0
        assert res.best_gap <= verify(*pair, "maassen_uffink", trials=2000, seed=4).min_gap


def _binary_entropy(p):
    """-p ln p - (1-p) ln(1-p) with 0 ln 0 = 0, elementwise."""
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        inside = q > 0.0
        out[inside] -= q[inside] * np.log(q[inside])
    return out


def _qubit_minimum(c1):
    """Exact minimum of the entropy sum for two bases of C^2 with largest
    squared overlap c1.  The minimizer lies in the Bloch plane of the two
    measurement axes, which meet at the angle phi with cos^2(phi/2) = c1,
    so the minimum is a 1-D one over the Bloch angle theta: a 2*10^6-point
    grid, refined by golden section around its best point."""
    phi = 2.0 * np.arccos(np.sqrt(c1))

    def total(theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return (_binary_entropy((1.0 + np.cos(theta)) / 2.0)
                + _binary_entropy((1.0 + np.cos(theta - phi)) / 2.0))

    grid = np.linspace(0.0, 2.0 * np.pi, 2 * 10 ** 6, endpoint=False)
    values = total(grid)
    i = int(np.argmin(values))
    lo, hi = grid[i] - (grid[1] - grid[0]), grid[i] + (grid[1] - grid[0])
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if total(a)[0] < total(b)[0]:
            hi = b
        else:
            lo = a
    return min(float(values[i]), float(total((lo + hi) / 2.0)[0]))


@pytest.mark.parametrize("case", [("onb", 1, 201), ("onb", 1, 202), ("onb", 2, 203),
                                  ("onb", 2, 204), ("onb", 3, 205), ("onb", 3, 206),
                                  ("fourier", 2, None)])
def test_search_matches_the_exact_qubit_minimum(case):
    kind, d, seed = case
    if kind == "onb":
        fa, fb = gen_onb(2, d, seed), gen_onb(2, d, seed + 1000)
    else:
        # mutually unbiased: the minimum sits at a basis vector, where weights vanish
        fa, fb = gen_fourier_pair(2, d)
    res = minimize_entropy_sum(fa, fb, "maassen_uffink", restarts=4, max_iters=2000, seed=7)
    # squared overlaps |<tau_j, omega_k>(t)|^2 from the rows of the analysis matrices
    c1 = [float(np.max(np.abs(np.conj(fa.analysis[t]) @ fb.analysis[t].T) ** 2))
          for t in range(d)]
    oracle = min(_qubit_minimum(min(c, 1.0)) for c in c1)
    assert abs(res.best_gap + res.bound_value - oracle) <= 1e-9


def test_candidate_classification():
    fra, frb = gen_fourier_pair(2, 1)
    res = minimize_entropy_sum(fra, frb, "maassen_uffink", restarts=8,
                               max_iters=500, seed=3)
    # the gap at a point of the strict domain decides: best_gap's, or for a
    # grazing minimum the gap at best_x moved into the interior
    assert not is_counterexample_candidate(res)
    assert res.boundary_grazing and res.interior_gap == res.best_gap
    from dataclasses import replace
    fake = replace(res, best_gap=-1e-3, interior_gap=-1e-3)
    assert is_counterexample_candidate(fake)
    assert not is_counterexample_candidate(replace(fake, interior_gap=-1e-9))


def _planted(monkeypatch):
    """Raise the Maassen-Uffink bound by 0.1 nats: a violation of 0.1 everywhere."""
    mu_bound = verify_search.mu_bound
    monkeypatch.setattr(verify_search, "mu_bound", lambda mu: mu_bound(mu) + 0.1)


def test_search_reports_a_planted_violation_at_a_grazing_minimum(monkeypatch):
    fra, frb = gen_fourier_pair(2, 1)
    _planted(monkeypatch)
    res = minimize_entropy_sum(fra, frb, "maassen_uffink", restarts=8, max_iters=500, seed=3)
    # the minimum is a basis vector, so it grazes, 0.1 below the raised bound
    assert res.boundary_grazing and res.best_gap == pytest.approx(-0.1, abs=1e-6)
    assert res.interior_gap == pytest.approx(-0.1, abs=1e-6)
    assert is_counterexample_candidate(res)
    # the interior point is a unit vector with no vanished weight, and it replays
    x = verify_search._into_interior(res.best_x)
    assert is_unit_inner(x, 1e-12) and np.max(np.abs(x.entries - res.best_x.entries)) < 2e-5
    assert recompute_gap(fra, frb, x, "maassen_uffink") == (res.interior_gap, False)


def test_campaign_reports_planted_violations_at_grazing_minima(monkeypatch):
    # every pair is the n=2 Fourier pair, whose minima graze, under the raised bound
    fourier, drawn = gen_fourier_pair(2, 1), []

    def fourier_frame(n, m, d, seed):
        drawn.append(seed)
        return fourier[len(drawn) % 2]

    monkeypatch.setattr(verify_search, "gen_random_parseval", fourier_frame)
    _planted(monkeypatch)
    results = [res for _spec, _fa, _fb, res in campaign(3, 4, 500, 5, n_max=2, m_max=2, d_max=1)]
    assert len(drawn) == 6
    assert all(res.boundary_grazing and res.best_gap < -0.09 for res in results)
    assert all(is_counterexample_candidate(res) for res in results)


def test_report_serialization_shapes():
    fra, frb = gen_fourier_pair(2, 1)
    rep = verify(fra, frb, "deutsch", trials=10, seed=1)
    doc = report_to_dict(rep)
    assert doc["kind"] == "verification"
    assert len(doc["trial_gaps"]) == 10
    assert json.dumps(doc)  # JSON-serializable as-is
    rows = trials_to_csv(NumberTexts(rep.trial_gaps.tolist()),
                         NumberTexts(rep.trial_worst_fiber.tolist())).split("\r\n")
    assert rows[0] == "trial,min_gap,worst_fiber"
    assert len(rows) == 12 and rows[-1] == ""
    assert float(rows[1].split(",")[1]) == pytest.approx(float(rep.trial_gaps[0]), abs=0)

    res = minimize_entropy_sum(fra, frb, "deutsch", restarts=2, max_iters=50, seed=1)
    sdoc = search_result_to_dict(res)
    assert sdoc["kind"] == "search"
    assert sdoc["best_x"]["n"] == 2
    assert json.dumps(sdoc)


def test_reports_record_the_tolerance_constants_in_fixed_key_order():
    fra, frb = gen_fourier_pair(2, 1)
    doc = report_to_dict(verify(fra, frb, "deutsch", trials=10, seed=1))
    assert doc["gap_tol"] == VERIFY_GAP_TOL == 1e-9
    assert list(doc) == ["kind", "trials", "bound_kind", "mu", "bound_value", "gap_tol", "seed",
                         "frames_digest", "min_gap", "violations", "boundary_graze_trials",
                         "trial_gaps", "trial_worst_fiber"]
    sdoc = search_result_to_dict(minimize_entropy_sum(fra, frb, "deutsch", restarts=1,
                                                      max_iters=5, seed=1))
    assert sdoc["zero_tol"] == ZERO_TOL == 1e-12
    assert list(sdoc) == ["kind", "bound_kind", "mu", "bound_value", "seed", "frames_digest",
                          "zero_tol", "restarts", "max_iters", "iterations_used",
                          "iterations_per_start", "runs_at_max_iters", "newton_steps",
                          "line_search_backtracks", "converged", "boundary_grazing",
                          "best_gap", "best_x"]


def test_canonical_json_stable():
    assert canonical_json({"b": 1, "a": [1.5, True]}) == b'{"a":[1.5,true],"b":1}'


def test_array_json_encoding_matches_per_entry_encoding():
    import hashlib

    from moduncert.frames import from_json as frame_from_json
    from moduncert.frames import to_json as frame_to_json

    def per_entry(frame):
        return {"n": frame.n, "m": frame.m, "d": frame.d, "vectors": [
            {"n": v.n, "d": v.d,
             "entries": [[[float(z.real), float(z.imag)] for z in row] for row in v.entries]}
            for v in frame.vectors]}

    fa = gen_random_parseval(4, 7, 3, 131)
    fb = gen_random_parseval(4, 7, 3, 132)
    h = hashlib.sha256()
    for fr in (fa, fb):
        assert canonical_json(frame_to_json(fr)) == canonical_json(per_entry(fr))
        h.update(canonical_json(per_entry(fr)))
        # the array decoder against a per-entry complex(re, im) decode
        doc = per_entry(fr)
        ref = np.array([[[complex(*pair) for pair in row] for row in v["entries"]]
                        for v in doc["vectors"]])
        assert np.array_equal(frame_from_json(doc).analysis, np.conj(ref).transpose(2, 0, 1))
    assert frames_digest(fa, fb) == "sha256:" + h.hexdigest()
    rep = verify(fa, fb, "deutsch", trials=50, seed=5)
    doc = report_to_dict(rep)
    assert doc["trial_gaps"] == [float(g) for g in rep.trial_gaps]
    assert doc["trial_worst_fiber"] == [int(t) for t in rep.trial_worst_fiber]
    assert all(type(t) is int for t in doc["trial_worst_fiber"])


def test_proof_chain_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 8))
        d = int(rng.integers(1, 4))
        fa = gen_random_parseval(n, m, d, int(rng.integers(0, 2 ** 31)))
        fb = gen_random_parseval(n, m, d, int(rng.integers(0, 2 ** 31)))
        x = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        assert proof_chain_check(fa, fb, x).holds


def test_proof_chain_pairs_match_buzano_check():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        fa = gen_random_parseval(n, int(rng.integers(n, 7)), d, int(rng.integers(0, 2 ** 31)))
        fb = gen_random_parseval(n, int(rng.integers(n, 7)), d, int(rng.integers(0, 2 ** 31)))
        x = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        lhs, rhs, holds = buzano_sides(synthesis(fa)[:, np.newaxis], synthesis(fb), x.entries)
        pairs = [[buzano_check(tau, omega, x) for omega in fb.vectors] for tau in fa.vectors]
        for j, row in enumerate(pairs):
            for k, res in enumerate(row):
                # both sides from the module operations, not from buzano_sides
                tau, omega = fa.vectors[j], fb.vectors[k]
                want_lhs = norm(inner(tau, x) * inner(x, omega))
                want_rhs = 0.5 * (module_norm(tau) * module_norm(omega) + norm(inner(tau, omega)))
                assert abs(want_lhs - lhs[j, k]) <= 1e-14
                assert abs(want_rhs - rhs[j, k]) <= 1e-14
                assert abs(res.lhs - lhs[j, k]) <= 1e-14
                assert abs(res.rhs - rhs[j, k]) <= 1e-14
                assert res.holds == holds[j, k]
        # the first pair, j-major, with the largest lhs - rhs
        j, k = divmod(int(np.argmax(lhs - rhs)), fb.m)
        assert proof_chain_check(fa, fb, x) == (lhs[j, k], rhs[j, k], holds[j, k])
        assert all(lhs[j, k] - rhs[j, k] >= res.lhs - res.rhs - 1e-14 for row in pairs for res in row)


def test_proof_chain_saturation():
    fr = gen_onb(2, 1, 13)
    x = fr.vectors[0]
    # pair (1,1): lhs = |<t_1,x>|^2 = 1 and rhs = (1*1 + 1)/2 = 1
    res = proof_chain_check(fr, fr, x)
    assert res.holds
    assert abs(res.lhs - res.rhs) <= 1e-12
    ca = np.abs(np.einsum("tji,it->jt", fr.analysis, x.entries))
    assert ca[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_proof_chain_mixed_fibers():
    fra, frb = gen_fourier_pair(2, 1)
    mixed_a = Frame(np.concatenate([fra.analysis, fra.analysis]))
    mixed_b = Frame(np.concatenate([fra.analysis, frb.analysis]))
    x = random_unit_vector(2, 2, 5)
    assert proof_chain_check(mixed_a, mixed_b, x).holds


def test_proof_chain_requires_unit_x():
    fra, frb = gen_fourier_pair(2, 1)
    with pytest.raises(PreconditionError):
        proof_chain_check(fra, frb, ModuleVector(np.array([[2.0], [0.0]], dtype=complex)))
