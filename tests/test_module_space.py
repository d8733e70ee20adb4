import numpy as np
import pytest

from moduncert import (
    AlgebraElement,
    DimensionMismatch,
    ModuleVector,
    gen_fourier_pair,
    gen_onb,
    gen_random_parseval,
    identity,
    inner,
    involution,
    is_positive,
    is_unit_inner,
    module_norm,
    norm,
    random_unit_vector,
    scale,
    unit_vector_stream,
    zero,
)
from moduncert.module_space import from_json, to_json


def vec(rows):
    return ModuleVector(np.array(rows, dtype=complex))


def random_vec(rng, n, d):
    return ModuleVector(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))


def test_inner_orthogonal():
    x = vec([[1], [0]])
    y = vec([[0], [1]])
    assert np.allclose(inner(x, y).values, 0.0)


def test_inner_uniform_is_one():
    n = 4
    x = vec([[1 / np.sqrt(n)]] * n)
    assert np.allclose(inner(x, x).values, 1.0)


def test_inner_conjugates_second_slot():
    x = vec([[1, 1j]])
    y = vec([[1, 1]])
    assert np.allclose(inner(x, y).values, [1, 1j])


def test_inner_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(vec([[1], [0]]), vec([[1, 0]]))


def test_module_norm_sup_over_fibers():
    x = vec([[3, 0], [0, 4]])
    assert module_norm(x) == pytest.approx(4.0)
    u = random_unit_vector(3, 2, 0)
    assert module_norm(u) == pytest.approx(1.0)


def test_module_norm_homogeneous():
    rng = np.random.default_rng(1)
    x = random_vec(rng, 3, 4)
    c = 2.5 - 1.25j
    assert module_norm(ModuleVector(c * x.entries)) == pytest.approx(abs(c) * module_norm(x))


def test_is_unit_inner():
    assert is_unit_inner(vec([[1, 1], [0, 0]]), 1e-10)
    assert not is_unit_inner(ModuleVector(np.zeros((2, 2), dtype=complex)), 1e-10)
    rng = np.random.default_rng(2)
    x = random_vec(rng, 5, 3)
    fiber_norms = np.linalg.norm(x.entries, axis=0)
    assert is_unit_inner(ModuleVector(x.entries / fiber_norms), 1e-10)


def test_random_unit_vector_contract():
    x = random_unit_vector(6, 4, 123)
    assert is_unit_inner(x, 1e-10)
    y = random_unit_vector(6, 4, 123)
    assert np.array_equal(x.entries, y.entries)
    z = random_unit_vector(6, 4, 124)
    assert not np.array_equal(x.entries, z.entries)


def test_unit_vector_stream_contract():
    xs = unit_vector_stream(6, 4, 123, 0, 64)
    assert xs.shape == (64, 6, 4) and xs.dtype == np.complex128
    assert all(is_unit_inner(ModuleVector(x), 1e-10) for x in xs)
    assert np.array_equal(unit_vector_stream(6, 4, 123, 10, 20), xs[10:30])
    for i in (0, 17, 63):
        assert np.array_equal(unit_vector_stream(6, 4, 123, i, 1)[0], xs[i])
    # 2nd = 6 uniforms padded to K = 8 per unit: replay still lines up
    ys = unit_vector_stream(3, 1, 5, 0, 9)
    assert np.array_equal(unit_vector_stream(3, 1, 5, 7, 2), ys[7:])
    assert unit_vector_stream(6, 4, 123, 5, 0).shape == (0, 6, 4)


def test_unit_vector_stream_takes_numpy_integer_offsets():
    # Philox.advance refuses a NumPy integer, which check_count accepts
    xs = unit_vector_stream(3, 2, 9, 0, 8)
    assert np.array_equal(unit_vector_stream(3, 2, 9, np.int64(5), np.int64(3)), xs[5:])


def test_unit_vector_stream_adjacent_seeds_share_no_vector():
    # s ^ 1 == s + 1 at s = 2, so per-unit seeds s ^ u would collide
    s = 2
    rows = [{x.tobytes() for x in unit_vector_stream(3, 2, seed, 0, 1024)} for seed in (s, s + 1)]
    assert len(rows[0]) == len(rows[1]) == 1024
    assert not rows[0] & rows[1]


def test_unit_vector_stream_weight_moments():
    # |<x, e_1>|^2 on the uniform complex n-sphere is Beta(1, n-1):
    # E w = 1/n, E w^2 = 2/(n(n+1)), E w^4 = 24/(n(n+1)(n+2)(n+3))
    n, trials = 4, 10 ** 5
    w = np.abs(unit_vector_stream(n, 1, 7, 0, trials)[:, 0, 0]) ** 2
    m2, m4 = 2 / (n * (n + 1)), 24 / (n * (n + 1) * (n + 2) * (n + 3))
    assert abs(w.mean() - 1 / n) <= 3 * np.sqrt((n - 1) / (n ** 2 * (n + 1)) / trials)
    assert abs(np.mean(w ** 2) - m2) <= 3 * np.sqrt((m4 - m2 ** 2) / trials)


def test_unit_vector_stream_rejects_bad_arguments():
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(ValueError, match="seed"):
            unit_vector_stream(2, 1, seed, 0, 1)
    with pytest.raises(ValueError, match="start"):
        unit_vector_stream(2, 1, 0, -1, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        unit_vector_stream(0, 1, 0, 0, 1)


@pytest.mark.parametrize("fn, args, name", [
    (gen_onb, (2.5, 1, 1), "n"), (gen_random_parseval, (2, 3.0, 1, 1), "m"),
    (gen_random_parseval, (2, 3, True, 1), "d"), (gen_fourier_pair, (2.5, 1), "n"),
    (random_unit_vector, (2, 1.5, 0), "d"), (unit_vector_stream, (2.5, 1, 0, 0, 1), "n"),
    (unit_vector_stream, (2, 1, 0, 0.5, 1), "start"),
    (unit_vector_stream, (2, 1, 0, 0, -1), "count"),
    (identity, (1.5,), "d"), (zero, (True,), "d"),
    (gen_onb, (2, 1, 1.5), "seed"), (random_unit_vector, (2, 1, 1.5), "seed"),
    (gen_random_parseval, (2, 3, 1, -1), "seed"), (gen_onb, (2, 1, True), "seed"),
    (random_unit_vector, (2, 1, True), "seed"), (unit_vector_stream, (2, 1, True, 0, 1), "seed")])
def test_sizes_must_be_integers(fn, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        fn(*args)


def test_first_coordinate_weight_moment():
    # |<x, e_1>|^2 on the uniform complex n-sphere is Beta(1, n-1):
    # mean 1/n, var (n-1)/(n^2 (n+1))
    n, trials = 4, 10 ** 5
    rng = np.random.default_rng(7)
    z = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    w = np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1)
    se = np.sqrt((n - 1) / (n ** 2 * (n + 1)) / trials)
    assert abs(w.mean() - 1 / n) <= 3 * se


def test_axiom_suite():
    # inner-product axioms, randomized at d <= 8, n <= 16
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        x, y, z = (random_vec(rng, n, d) for _ in range(3))
        a = AlgebraElement(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        sc = max(module_norm(x), module_norm(y), module_norm(z), norm(a), 1.0) ** 2
        # (i) positivity
        assert is_positive(inner(x, x), 1e-10 * sc)
        # (ii) additivity in the first slot
        lhs = inner(ModuleVector(x.entries + y.entries), z).values
        rhs = (inner(x, z) + inner(y, z)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * sc
        # (iii) A-linearity <a x, y> = a <x, y>
        lhs = inner(scale(a, x), y).values
        rhs = (a * inner(x, y)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * sc
        # (iv) involution symmetry
        assert np.max(np.abs(inner(x, y).values
                             - involution(inner(y, x)).values)) <= 1e-10 * sc
        # (v) norm consistency
        assert abs(module_norm(x) ** 2 - norm(inner(x, x))) <= 1e-10 * sc


def test_definiteness_scaling():
    # <x,x> small forces every entry small: entries are bounded by the
    # square root of the largest fiber inner product
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = ModuleVector(1e-7 * random_vec(rng, 4, 3).entries)
        bound = np.sqrt(norm(inner(x, x)))
        assert np.max(np.abs(x.entries)) <= bound + 1e-15
    zero_x = ModuleVector(np.zeros((3, 2), dtype=complex))
    assert norm(inner(zero_x, zero_x)) == 0.0
    assert np.max(np.abs(zero_x.entries)) == 0.0


def test_cauchy_schwarz():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        x, y = random_vec(rng, n, d), random_vec(rng, n, d)
        assert norm(inner(x, y)) <= module_norm(x) * module_norm(y) + 1e-10


def test_json_round_trip():
    x = random_unit_vector(3, 4, 9)
    back = from_json(to_json(x))
    assert np.array_equal(back.entries, x.entries)
    assert back.n == 3 and back.d == 4


def test_from_json_diagnostics():
    with pytest.raises(ValueError, match="entries"):
        from_json({"n": 2, "d": 1})
    with pytest.raises(ValueError, match="row"):
        from_json({"n": 2, "d": 2, "entries": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]})
    with pytest.raises(ValueError, match="n"):
        from_json({"n": 3, "d": 1, "entries": [[[1.0, 0.0]]]})


def test_foreign_operands_raise_type_error():
    x = random_unit_vector(3, 2, 1)
    for other in (1, 2.0, identity(2), x.entries):
        for op in (lambda: x + other, lambda: x - other):
            with pytest.raises(TypeError):
                op()
    for other in (1, identity(2)):
        for op in (lambda: other + x, lambda: other - x):
            with pytest.raises(TypeError):
                op()


def test_immutability():
    x = random_unit_vector(2, 2, 0)
    with pytest.raises(ValueError):
        x.entries[0, 0] = 0.0
