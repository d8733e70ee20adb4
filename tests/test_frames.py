import numpy as np
import pytest

from moduncert import (
    DimensionMismatch,
    Frame,
    ModuleVector,
    gen_fourier_pair,
    gen_onb,
    gen_random_parseval,
    has_unit_inner_products,
    inner,
    is_parseval,
    module_norm,
    random_unit_vector,
    reconstruct,
    restrict_to_fiber,
    scale,
)
from moduncert.frames import from_json, to_json
from moduncert.module_space import from_json as vector_from_json
from moduncert.module_space import to_json as vector_to_json


def frame_from_rows(rows, d=1):
    # rows: m x n real/complex frame vectors, replicated across d fibers
    rows = np.asarray(rows, dtype=complex)
    return Frame(np.broadcast_to(np.conj(rows), (d, *rows.shape)))


def mercedes_frame():
    rows = [np.sqrt(2 / 3) * np.array([np.cos(2 * np.pi * j / 3),
                                       np.sin(2 * np.pi * j / 3)]) for j in range(3)]
    return frame_from_rows(rows)


def test_standard_basis_is_parseval():
    fr = frame_from_rows(np.eye(3), d=2)
    assert is_parseval(fr)
    assert has_unit_inner_products(fr, 1e-10)


def test_scaled_basis_is_not_parseval():
    fr = frame_from_rows(0.9 * np.eye(3))
    assert not is_parseval(fr)


def test_is_parseval_rejects_bad_tolerances():
    fr = gen_onb(2, 1, 1)
    for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            is_parseval(fr, bad)
    assert is_parseval(fr, 0.5)


def test_mercedes_benz_frame():
    fr = mercedes_frame()
    # direct 2x2 frame-operator oracle: sum of outer products
    rows = [v.entries[:, 0] for v in fr.vectors]
    S = sum(np.outer(r, np.conj(r)) for r in rows)
    assert np.max(np.abs(S - np.eye(2))) <= 1e-12
    assert is_parseval(fr)
    assert not has_unit_inner_products(fr, 1e-10)
    assert module_norm(fr.vectors[0]) == pytest.approx(np.sqrt(2 / 3))


def test_reconstruct_identity():
    fr = gen_random_parseval(3, 6, 4, 0)
    x = random_unit_vector(3, 4, 1)
    err = np.max(np.abs(reconstruct(fr, x).entries - x.entries))
    assert err <= 1e-10
    # the per-vector sum sum_j <x, tau_j> tau_j is the reference
    ref = sum(scale(inner(x, tau), tau).entries for tau in fr.vectors)
    assert np.max(np.abs(reconstruct(fr, x).entries - ref)) <= 1e-14


def test_reconstruct_scales_quadratically():
    fr = gen_onb(3, 2, 5)
    c = 0.7 + 0.2j
    scaled = Frame(np.conj(c) * fr.analysis)   # tau_j -> c tau_j
    x = random_unit_vector(3, 2, 6)
    out = reconstruct(scaled, x).entries
    assert np.max(np.abs(out - abs(c) ** 2 * x.entries)) <= 1e-10


def test_reconstruct_zero():
    fr = gen_onb(2, 2, 7)
    x = ModuleVector(np.zeros((2, 2), dtype=complex))
    assert np.max(np.abs(reconstruct(fr, x).entries)) == 0.0


def test_gen_onb_contract():
    fr = gen_onb(4, 3, 11)
    assert is_parseval(fr, 1e-10)
    assert has_unit_inner_products(fr, 1e-10)
    assert fr.m == fr.n == 4 and fr.d == 3
    again = gen_onb(4, 3, 11)
    assert all(np.array_equal(a.entries, b.entries)
               for a, b in zip(fr.vectors, again.vectors))


def test_gen_random_parseval_contract():
    fr = gen_random_parseval(2, 5, 3, 13)
    assert is_parseval(fr, 1e-10)
    assert fr.m == 5 and fr.n == 2 and fr.d == 3
    # trace argument: sum of squared row norms per fiber is n < m, so
    # some vector is short of unit inner product
    assert not has_unit_inner_products(fr, 1e-10)


def test_gen_rejects_m_below_n():
    with pytest.raises(ValueError):
        gen_random_parseval(4, 3, 1, 0)


def test_fourier_pair_cross_inner_products():
    fra, frb = gen_fourier_pair(2, 1)
    mods = [abs(inner(t, w).values[0]) for t in fra.vectors for w in frb.vectors]
    assert np.allclose(mods, 1 / np.sqrt(2))


def test_parseval_sum_identity():
    # sum_j <x,t_j><t_j,x> = <x,x> as algebra elements
    rng = np.random.default_rng(17)
    for fr in (gen_onb(3, 2, 1), gen_random_parseval(3, 7, 2, 2), mercedes_frame()):
        x = ModuleVector(rng.standard_normal((fr.n, fr.d))
                         + 1j * rng.standard_normal((fr.n, fr.d)))
        acc = np.zeros(fr.d, dtype=complex)
        for t in fr.vectors:
            c = inner(x, t)
            acc += (c * inner(t, x)).values
        assert np.max(np.abs(acc - inner(x, x).values)) <= 1e-10 * max(1.0, module_norm(x) ** 2)


def test_parseval_vectors_never_exceed_unit_norm():
    for fr in (gen_onb(2, 4, 3), gen_random_parseval(4, 9, 2, 4), mercedes_frame()):
        assert max(module_norm(v) for v in fr.vectors) <= 1 + 1e-10


def test_parseval_iff_reconstruction():
    rng = np.random.default_rng(19)

    def max_err(fr):
        worst = 0.0
        for k in range(100):
            x = ModuleVector(rng.standard_normal((fr.n, fr.d))
                             + 1j * rng.standard_normal((fr.n, fr.d)))
            worst = max(worst, float(np.max(np.abs(reconstruct(fr, x).entries - x.entries))))
        return worst

    assert max_err(gen_random_parseval(3, 5, 2, 21)) <= 1e-8
    assert max_err(frame_from_rows(0.9 * np.eye(3))) > 1e-8


def test_restrict_to_fiber():
    fr = gen_random_parseval(3, 5, 4, 23)
    for t in range(4):
        sub = restrict_to_fiber(fr, t)
        assert sub.d == 1 and sub.m == fr.m and sub.n == fr.n
        assert is_parseval(sub)
        assert np.array_equal(sub.analysis[0], fr.analysis[t])


def test_mixed_fiber_frame_is_parseval():
    # fiber 1 standard basis, fiber 2 Fourier basis
    fra, frb = gen_fourier_pair(2, 1)
    mixed = Frame(np.concatenate([fra.analysis, frb.analysis]))
    assert mixed.d == 2
    assert is_parseval(mixed)


def test_frame_requires_m_geq_n():
    with pytest.raises(ValueError, match="m >= n"):
        Frame(np.array([[[1.0, 0.0]]]))
    for bad in (np.eye(2), np.zeros((0, 2, 2)), np.zeros((1, 2, 0))):
        with pytest.raises(ValueError, match=r"\(d, m, n\)"):
            Frame(bad)


def test_frame_requires_shared_shapes():
    a = ModuleVector(np.eye(2, dtype=complex))
    b = ModuleVector(np.ones((3, 2), dtype=complex))
    doc = {"n": 2, "m": 2, "d": 2,
           "vectors": [vector_to_json(a), vector_to_json(b)]}
    with pytest.raises(DimensionMismatch, match="vector 1"):
        from_json(doc)


def test_frame_keeps_a_read_only_copy():
    source = np.eye(2)[np.newaxis].copy()
    fr = Frame(source)
    source[0, 0, 0] = 5.0
    assert fr.analysis[0, 0, 0] == 1.0 and fr.parseval and fr.analysis.dtype == np.complex128
    with pytest.raises(ValueError):
        fr.analysis[0, 0, 0] = 0.0


def test_frames_compare_and_hash_by_identity():
    fr, again = gen_onb(2, 1, 3), gen_onb(2, 1, 3)
    assert fr == fr and fr != again
    assert len({fr, fr, again}) == 2
    x, y = random_unit_vector(2, 1, 4), random_unit_vector(2, 1, 4)
    assert x == x and x != y
    assert len({x, x, y}) == 2


def test_json_round_trip_bytes():
    import json
    fr = gen_random_parseval(2, 4, 3, 29)
    doc = to_json(fr)
    back = from_json(doc)
    assert is_parseval(back)
    assert json.dumps(to_json(back)) == json.dumps(doc)
    for a, b in zip(fr.vectors, back.vectors):
        assert np.array_equal(a.entries, b.entries)


def test_json_round_trip_keeps_signed_zeros():
    import json
    doc = {"n": 2, "m": 2, "d": 1, "vectors": [
        {"n": 2, "d": 1, "entries": [[[1.0, -0.0]], [[-0.0, 0.0]]]},
        {"n": 2, "d": 1, "entries": [[[0.0, 0.0]], [[-0.0, -0.0]]]}]}
    fr = from_json(doc)
    assert json.dumps(to_json(fr)) == json.dumps(doc)
    signs = np.signbit(np.stack([fr.analysis.real, fr.analysis.imag], axis=-1))
    # analysis is conj(entries): the imaginary sign flips, the real sign stays
    assert signs[0].tolist() == [[[False, False], [True, True]],
                                 [[False, True], [True, False]]]


def test_from_json_diagnostics():
    def one_vector(**fields):
        return {"n": 2, "m": 2, "d": 1,
                "vectors": [{"n": 2, "d": 1, "entries": [[[1.0, 0.0]], [[0.0, 0.0]]]},
                            {"n": 2, "d": 1, "entries": [[[0.0, 0.0]], [[1.0, 0.0]]], **fields}]}

    # vectors must share the header's shape
    with pytest.raises(ValueError, match="vector 1"):
        from_json(one_vector(n=1, entries=[[[1.0, 0.0]]]))
    with pytest.raises(ValueError, match="vector 1"):
        from_json(one_vector(d=2, entries=[[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    with pytest.raises(ValueError, match="vectors"):
        from_json({"n": 2, "m": 2, "d": 1})
    # malformed entries are named down to the vector, row and fiber
    for entries, match in (([[[1.0, 0.0]]], "vector 1: entries must be an array of n=2 rows"),
                           ([[[1.0, 0.0]], "x"], "vector 1: row 1 must hold d=1 fibers"),
                           ([[[1.0, 0.0]], [[1.0, "0"]]], r"vector 1: row 1, fiber 0 is not"),
                           ([[[1.0, 0.0]], [[1.0, None]]], r"vector 1: row 1, fiber 0 is not"),
                           ([[[1.0, 0.0]], [[1.0]]], r"vector 1: row 1, fiber 0 is not"),
                           ([[[1.0, 0.0]], [[10 ** 400, 0]]], "vector 1: row 1, fiber 0 is beyond")):
        with pytest.raises(ValueError, match=match):
            from_json(one_vector(entries=entries), what="f.json")
    # integers beyond int64 but within float range still decode
    fr = from_json(one_vector(entries=[[[0.0, 0.0]], [[2 ** 70, 0]]]))
    assert fr.analysis[0, 1, 1] == 2.0 ** 70


def _frame_doc(entries_0, entries_1):
    return {"n": 2, "m": 2, "d": 1, "vectors": [{"n": 2, "d": 1, "entries": entries_0},
                                                {"n": 2, "d": 1, "entries": entries_1}]}


@pytest.mark.parametrize("decode, doc, where", [
    (from_json, _frame_doc([[[True, False]], [[False, False]]],
                           [[[False, False]], [[True, False]]]), "vector 0: row 0, fiber 0"),
    (from_json, _frame_doc([[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[1.0, False]]]),
     "vector 1: row 1, fiber 0"),
    (vector_from_json, {"n": 2, "d": 1, "entries": [[[True, 0.0]], [[0.0, 0.0]]]},
     "row 0, fiber 0")])
def test_decoders_refuse_booleans(decode, doc, where):
    # JSON's true and false are not numbers, though NumPy would read them as 1 and 0
    with pytest.raises(ValueError, match=f"{where} is not a \\[re, im\\] pair"):
        decode(doc)


_BASIS = _frame_doc([[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[1.0, 0.0]]])


@pytest.mark.parametrize("decode, doc, where", [
    (from_json, {**_BASIS, "n": 2.0}, "frame: n"),
    (from_json, {**_BASIS, "m": 2.0}, "frame: m"),
    (from_json, {**_BASIS, "d": 1.0}, "frame: d"),
    (from_json, {**_BASIS, "d": True}, "frame: d"),
    (from_json, {**_BASIS, "m": True}, "frame: m"),
    (from_json, {**_BASIS, "vectors": [_BASIS["vectors"][0], {**_BASIS["vectors"][1], "d": True}]},
     "frame: vector 1: d"),
    (vector_from_json, {"n": 1, "d": True, "entries": [[[1.0, 0.0]]]}, "module vector: d")])
def test_decoders_refuse_sizes_that_are_not_integers(decode, doc, where):
    # JSON's true and 1.0 both equal 1, but neither is an integer size
    with pytest.raises(ValueError, match=f"^{where} must be an integer, got "):
        decode(doc)
