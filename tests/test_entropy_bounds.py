import numpy as np
import pytest

from moduncert import (
    DimensionMismatch,
    Frame,
    ModuleVector,
    PreconditionError,
    buzano_check,
    coherence,
    deutsch_bound,
    entropy,
    gen_fourier_pair,
    gen_onb,
    gen_random_parseval,
    is_positive,
    mu_bound,
    random_unit_vector,
)
from moduncert.entropy_bounds import (
    cross_inner_norms,
    entropy_gradient,
    entropy_hessian,
    entropy_terms,
    project_tangent,
)
from moduncert.frames import restrict_to_fiber
from moduncert.module_space import unit_vector_stream


def standard_basis_frame(n, d=1):
    return Frame(np.broadcast_to(np.eye(n), (d, n, n)))


def entropy_sum_terms(mats, v):
    """Entropy sum over the analysis matrices, its gradient and the smallest weight at v."""
    value, grad, min_w = 0.0, np.zeros_like(v), np.inf
    for a in mats:
        c, w, log_w, s = entropy_terms(a, v)
        value += float(s)
        grad = grad + entropy_gradient(a, c, w, log_w)
        min_w = min(min_w, float(w.min()))
    return value, grad, min_w


def test_entropy_uniform_superposition():
    fr = standard_basis_frame(2)
    x = ModuleVector(np.array([[1], [1]], dtype=complex) / np.sqrt(2))
    ev = entropy(fr, x)
    assert ev.value.values[0].real == pytest.approx(np.log(2), abs=1e-12)
    assert ev.in_domain
    assert ev.zero_coefficient_count == 0


def test_entropy_basis_vector_boundary():
    n = 4
    fr = standard_basis_frame(n)
    x = ModuleVector(np.eye(n, dtype=complex)[0][:, None])
    ev = entropy(fr, x)
    assert ev.value.values[0].real == pytest.approx(0.0, abs=1e-15)
    assert not ev.in_domain
    assert ev.zero_coefficient_count == n - 1


def test_entropy_mixed_fibers():
    fr = standard_basis_frame(2, d=2)
    x = ModuleVector(np.array([[1 / np.sqrt(2), 1.0],
                               [1 / np.sqrt(2), 0.0]], dtype=complex))
    ev = entropy(fr, x)
    assert np.allclose(ev.value.values.real, [np.log(2), 0.0], atol=1e-12)
    assert ev.value.values[1] == 0.0
    assert not ev.in_domain
    assert ev.zero_coefficient_count == 1


def test_entropy_preconditions():
    fr = standard_basis_frame(2)
    not_unit = ModuleVector(np.array([[0.5], [0.0]], dtype=complex))
    with pytest.raises(PreconditionError, match="unit"):
        entropy(fr, not_unit)
    scaled = Frame(0.9 * fr.analysis)
    x = random_unit_vector(2, 1, 0)
    with pytest.raises(PreconditionError, match="Parseval"):
        entropy(scaled, x)
    with pytest.raises(PreconditionError, match="unit inner"):
        entropy(gen_random_parseval(2, 4, 1, 1), x, strict_unit_frame=True)


def test_entropy_nonnegative_and_weights_normalized():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 9))
        d = int(rng.integers(1, 5))
        fr = gen_random_parseval(n, m, d, int(rng.integers(0, 2 ** 31)))
        x = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        ev = entropy(fr, x)
        assert is_positive(ev.value, 1e-12)
        assert np.max(ev.value.values.real) <= np.log(m) + 1e-9
        w = np.abs(np.einsum("tji,it->jt", fr.analysis, x.entries)) ** 2
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-10


def test_entropy_d1_matches_scalar_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 9))
        fr = gen_random_parseval(n, m, 1, int(rng.integers(0, 2 ** 31)))
        x = random_unit_vector(n, 1, int(rng.integers(0, 2 ** 31)))
        # direct scalar Shannon entropy of the coefficient weights
        ref = 0.0
        for j in range(m):
            c = complex(np.vdot(fr.vectors[j].entries[:, 0], x.entries[:, 0]).conjugate())
            w = abs(c) ** 2
            if w > 1e-12:
                ref -= w * np.log(w)
        got = entropy(fr, x).value.values[0].real
        assert abs(got - ref) <= 1e-12


def test_coherence_self_orthonormal():
    fr = gen_onb(3, 2, 5)
    assert coherence(fr, fr) == pytest.approx(1.0, abs=1e-12)


def test_coherence_fourier_pair():
    fra, frb = gen_fourier_pair(2, 1)
    assert coherence(fra, frb) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_coherence_mixed_fibers_takes_sup():
    # fiber 1: identical bases (coherence 1); fiber 2: mutually unbiased
    fra, frb = gen_fourier_pair(2, 1)
    mu = coherence(Frame(np.concatenate([fra.analysis, fra.analysis])),
                   Frame(np.concatenate([fra.analysis, frb.analysis])))
    assert mu == pytest.approx(1.0, abs=1e-12)


def test_cross_inner_norms_shape_and_values():
    fra, frb = gen_fourier_pair(3, 2)
    mat = cross_inner_norms(fra, frb)
    assert mat.shape == (3, 3)
    assert np.allclose(mat, 1 / np.sqrt(3), atol=1e-12)


def test_bounds_closed_forms():
    assert deutsch_bound(1.0) == pytest.approx(0.0, abs=1e-15)
    assert mu_bound(1.0) == pytest.approx(0.0, abs=1e-15)
    # frozen double-precision evaluations of -2 ln((1+mu)/2) and -2 ln mu
    mu = 1 / np.sqrt(2)
    assert deutsch_bound(mu) == pytest.approx(0.31669436764074993, abs=1e-15)
    assert mu_bound(mu) == pytest.approx(0.6931471805599453, abs=1e-15)
    for n in (2, 3, 7, 16):
        assert mu_bound(1 / np.sqrt(n)) == pytest.approx(np.log(n), abs=1e-12)


def test_bounds_domain_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            deutsch_bound(bad)
    for bad in (0.0, -0.5, 1.1):
        with pytest.raises(ValueError):
            mu_bound(bad)


def test_mu_bound_dominates_deutsch():
    for mu in np.linspace(0.01, 1.0, 100):
        assert mu_bound(mu) >= deutsch_bound(mu) - 1e-15


def test_buzano_saturation_coincident():
    z = random_unit_vector(3, 2, 8)
    res = buzano_check(z, z, z)
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)
    assert res.holds


def test_buzano_saturation_orthogonal_midpoint():
    x = ModuleVector(np.array([[1], [0]], dtype=complex))
    y = ModuleVector(np.array([[0], [1]], dtype=complex))
    z = ModuleVector(np.array([[1], [1]], dtype=complex) / np.sqrt(2))
    res = buzano_check(x, y, z)
    assert res.lhs == pytest.approx(0.5, abs=1e-12)
    assert res.rhs == pytest.approx(0.5, abs=1e-12)


def test_buzano_random_triples():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        x = ModuleVector(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        y = ModuleVector(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        z = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31)))
        res = buzano_check(x, y, z)
        assert res.lhs <= res.rhs + 1e-10


def test_buzano_refuses_mismatched_shapes():
    x, z = random_unit_vector(2, 1, 1), random_unit_vector(3, 1, 2)
    with pytest.raises(DimensionMismatch):
        buzano_check(x, x, z)
    with pytest.raises(DimensionMismatch):
        buzano_check(z, x, z)


def test_buzano_requires_unit_z():
    x = random_unit_vector(2, 1, 1)
    bad = ModuleVector(2.0 * x.entries)
    with pytest.raises(PreconditionError):
        buzano_check(x, x, bad)


def test_fiber_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 9))
        fa = gen_random_parseval(n, m, 1, int(rng.integers(0, 2 ** 31)))
        fb = gen_random_parseval(n, m, 1, int(rng.integers(0, 2 ** 31)))
        mats = [fa.analysis[0], fb.analysis[0]]
        v = random_unit_vector(n, 1, int(rng.integers(0, 2 ** 31))).entries[:, 0]   # (n,) row
        f0, g, min_w = entropy_sum_terms(mats, v)
        if min_w < 1e-3:
            continue
        gt = project_tangent(g, v)
        h = 1e-5
        fd = np.zeros(n, dtype=complex)
        for i in range(n):
            e = np.zeros(n, dtype=complex)
            e[i] = 1.0

            def fs(delta):
                u = v + delta
                return entropy_sum_terms(mats, u / np.linalg.norm(u))[0]

            fd[i] = ((fs(h * e) - fs(-h * e))
                     + 1j * (fs(1j * h * e) - fs(-1j * h * e))) / (2 * h)
        rel = np.max(np.abs(gt - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel <= 1e-5
        checked += 1


def _real_gradient(analysis, x):
    """Entropy gradient at the (d, n) rows x as (d, 2n) [Re, Im] rows."""
    g = entropy_gradient(analysis, *entropy_terms(analysis, x)[:3])
    return np.concatenate([g.real, g.imag], axis=-1)


def test_entropy_hessian_matches_central_differences_of_the_gradient():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 9))
        d = int(rng.integers(1, 4))
        a = gen_random_parseval(n, m, d, int(rng.integers(0, 2 ** 31))).analysis
        x = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31))).entries.T
        c, w, log_w, _s = entropy_terms(a, x)
        if w.min() < 1e-3:
            continue
        hess = entropy_hessian(a, c, w, log_w)
        assert hess.shape == (d, 2 * n, 2 * n)
        scale = max(1.0, np.max(np.abs(hess)))
        assert np.max(np.abs(hess - np.swapaxes(hess, -1, -2))) <= 1e-12 * scale
        # column k: central difference of the gradient along real coordinate k
        h = 1e-6
        fd = np.empty_like(hess)
        for k in range(2 * n):
            e = np.zeros(n, dtype=complex)
            e[k % n] = 1.0 if k < n else 1j
            fd[:, :, k] = (_real_gradient(a, x + h * e) - _real_gradient(a, x - h * e)) / (2 * h)
        assert np.max(np.abs(hess - fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-5
        checked += 1


def test_entropy_hessian_drops_vanished_weights():
    fr = gen_random_parseval(3, 5, 1, 12)
    row = fr.analysis[0, 2]                      # make weight 2 vanish
    y = random_unit_vector(3, 1, 13).entries[:, 0]
    y = y - (row @ y) * np.conj(row) / np.vdot(row, row).real
    x = y / np.linalg.norm(y)
    c, w, log_w, _s = entropy_terms(fr.analysis[0], x)
    assert w[2] <= 1e-12
    keep = [0, 1, 3, 4]
    dropped = entropy_hessian(fr.analysis[0, keep], c[keep], w[keep], log_w[keep])
    assert np.allclose(entropy_hessian(fr.analysis[0], c, w, log_w), dropped,
                       rtol=0, atol=1e-12)


def test_stacked_pair_terms_are_the_sums_of_the_frames_terms():
    # the search evaluates a frame pair as one (m_a + m_b, n) matrix per fiber: its
    # entropy, gradient and Hessian are the sums of the two frames' own, up to the
    # order in which the rows are summed
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m_a, m_b = (int(m) for m in rng.choice(np.arange(n, 10), size=2, replace=False))
        d = int(rng.integers(2, 5))
        fa = gen_random_parseval(n, m_a, d, int(rng.integers(0, 2 ** 31)))
        fb = gen_random_parseval(n, m_b, d, int(rng.integers(0, 2 ** 31)))
        x = random_unit_vector(n, d, int(rng.integers(0, 2 ** 31))).entries.T
        results = []
        for a in (np.concatenate([fa.analysis, fb.analysis], axis=1), fa.analysis, fb.analysis):
            c, w, log_w, s = entropy_terms(a, x)
            results.append((s, entropy_gradient(a, c, w, log_w), entropy_hessian(a, c, w, log_w)))
        for stacked, part_a, part_b in zip(*results):
            want = part_a + part_b
            assert stacked.shape == want.shape
            assert np.max(np.abs(stacked - want)) <= 1e-12 * np.max(np.abs(want))


def test_entropy_fibers_decouple():
    # with m >= 8 a fiber's weights are summed pairwise; a sum that ran
    # across fibers would change the last bits of some entropies
    for seed in range(40):
        fr = gen_random_parseval(5, 10, 4, seed)
        x = random_unit_vector(5, 4, 1000 + seed)
        full = entropy(fr, x).value.values
        for t in range(4):
            sub = entropy(restrict_to_fiber(fr, t), ModuleVector(x.entries[:, t:t + 1]))
            assert sub.value.values[0] == full[t]


def test_kernel_batch_independence():
    fr = gen_random_parseval(4, 9, 3, 5)
    xs = unit_vector_stream(4, 3, 17, 0, 24)
    row = fr.analysis[1, 0]                      # make weight 0 of row (0, 1) vanish
    y = xs[0, :, 1] - (row @ xs[0, :, 1]) * np.conj(row) / np.vdot(row, row).real
    xs[0, :, 1] = y / np.linalg.norm(y)
    rows = np.swapaxes(xs, 1, 2)                 # (24, 3, 4)
    c, w, log_w, s = entropy_terms(fr.analysis, rows)
    g = entropy_gradient(fr.analysis, c, w, log_w)
    for t in range(3):
        # the same rows batched against one fiber's matrix alone
        ct, wt, lt, st = entropy_terms(fr.analysis[t], rows[:, t])
        gt = entropy_gradient(fr.analysis[t], ct, wt, lt)
        assert np.array_equal(st, s[:, t]) and np.array_equal(gt, g[:, t])
        for b in range(24):
            c1, w1, l1, s1 = entropy_terms(fr.analysis[t], rows[b, t])
            g1 = entropy_gradient(fr.analysis[t], c1, w1, l1)
            assert np.array_equal(s1, s[b, t]) and np.array_equal(g1, g[b, t])
            assert np.array_equal(w1, w[b, t]) and np.array_equal(l1, log_w[b, t])
    assert np.count_nonzero(w[0, 1] <= 1e-12) > 0


def test_tolerances_must_be_finite():
    fr = standard_basis_frame(2)
    x = random_unit_vector(2, 1, 1)
    for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            is_positive(entropy(fr, x).value, bad)
