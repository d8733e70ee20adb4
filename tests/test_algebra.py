import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduncert import (
    AlgebraElement,
    DimensionMismatch,
    identity,
    involution,
    is_positive,
    norm,
    order_geq,
    zero,
)


def elem(*vals):
    return AlgebraElement(np.array(vals, dtype=complex))


def random_elem(rng, d):
    return AlgebraElement(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def test_mul_pointwise():
    a = elem(1 + 1j, 2)
    b = elem(1 - 1j, 3)
    assert np.allclose((a * b).values, [2, 6])


def test_involution_conjugates():
    assert np.array_equal(involution(elem(1j, 1)).values, [-1j, 1])


def test_identity_law():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_elem(rng, 5)
        assert np.array_equal((a * identity(5)).values, a.values)


def test_norm_is_max_modulus():
    assert norm(elem(3 + 4j, 1)) == pytest.approx(5.0)
    assert norm(identity(4)) == 1.0
    assert norm(zero(3)) == 0.0


def test_cstar_identity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a = random_elem(rng, int(rng.integers(1, 9)))
        lhs = norm(involution(a) * a)
        assert abs(lhs - norm(a) ** 2) <= 1e-12 * norm(a) ** 2


def test_is_positive():
    assert is_positive(elem(1, 0.5), 1e-12)
    assert not is_positive(elem(1, -0.5), 1e-12)
    assert not is_positive(elem(1, 1e-6j + 1), 1e-12)
    # tolerance admits small negative and small imaginary parts
    assert is_positive(elem(-1e-10, 1), 1e-9)


def test_order_geq_reflexive():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = AlgebraElement(rng.random(4).astype(complex))
        assert order_geq(a, a, 0.0)


def test_positive_cone_closed_under_add_mul():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = AlgebraElement(rng.random(6).astype(complex))
        b = AlgebraElement(rng.random(6).astype(complex))
        assert is_positive(a + b, 1e-12)
        assert is_positive(a * b, 1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        identity(2) + identity(3)
    with pytest.raises(DimensionMismatch):
        order_geq(identity(2), identity(3), 0.0)


def test_foreign_operands_raise_type_error():
    a = identity(2)
    for other in (1, 2.0, "2", [1, 1], None):
        for op in (lambda: a + other, lambda: other + a, lambda: a - other, lambda: other - a):
            with pytest.raises(TypeError):
                op()
    for other in ("2", [1, 1], np.array([1, 1]), None):
        for op in (lambda: a * other, lambda: other * a):
            with pytest.raises(TypeError):
                op()
    assert np.array_equal((a * 2).values, [2, 2]) and np.array_equal((2j * a).values, [2j, 2j])
    assert np.array_equal((np.float64(0.5) * a).values, [0.5, 0.5])


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
       st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
def test_mul_commutative_and_involution_antimultiplicative(xs, ys):
    d = min(len(xs), len(ys))
    a = AlgebraElement(np.array([complex(r, i) for r, i in xs[:d]]))
    b = AlgebraElement(np.array([complex(r, i) for r, i in ys[:d]]))
    # equality up to rounding: fused multiply-add makes complex products
    # sensitive to operand order in the last ulp
    scale = max(1.0, float(np.max(np.abs(a.values)) * np.max(np.abs(b.values))))
    assert np.max(np.abs((a * b).values - (b * a).values)) <= 1e-15 * scale
    lhs = involution(a * b).values
    rhs = (involution(b) * involution(a)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-15 * scale


def test_immutability():
    a = identity(3)
    with pytest.raises(ValueError):
        a.values[0] = 7.0
