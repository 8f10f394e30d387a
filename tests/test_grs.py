"""Evaluation sets, multiplier solving, and the self-duality and MDS
oracles.

The GF(13) fixtures are worked by hand.  On points 0, 1, 2, 3 the
Lagrange products are L = (7, 2, 11, 6) (values, not encodings), all
non-squares, so lam = theta and v = (1, 6, 4, 8) up to the canonical
square root.  On 0, 1, 2, 4 the products mix squares and non-squares
and no multiplier vector exists.

brute_distance below walks all q^k messages.  It shares nothing with
min_distance's information-set search but the field's vadd/vmul, so it
is the differential oracle for that search.
"""

import gc
import itertools
import json
import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grsdual import grs, linalg, make_field
from grsdual.cosets import th11_code
from grsdual.errors import (
    DuplicatePoints,
    EnumerationTooLarge,
    EvenLength,
    OddLength,
    SchemaError,
    ShapeMismatch,
    VerificationFailed,
    ZeroArgument,
)
from grsdual.grs import (
    EvalSet,
    GeneratorMatrix,
    GrsRows,
    SelfDualCode,
    build_verified_code,
    check_mds,
    check_self_dual,
    check_verify_scale,
    code_from_obj,
    generator_matrix,
    lagrange_products,
    min_distance,
    products_at,
    solve_extended_multipliers,
    solve_multipliers,
)

F = make_field(13)
VAL = {F.from_int(v): v for v in range(13)}


def encs(values):
    return [F.from_int(v) for v in values]


def vals(encoded):
    return tuple(VAL[int(x)] for x in encoded)


def test_lagrange_products_worked_example():
    assert vals(lagrange_products(F, encs([0, 1, 2, 3]))) == (7, 2, 11, 6)


def test_lagrange_products_blocks_match_the_full_difference_matrix(
        monkeypatch):
    f = make_field(5, 3)
    rng = np.random.default_rng(5)
    monkeypatch.setattr(grs, "_LAGRANGE_BLOCK", 40)  # several row blocks
    for n in (1, 2, 7, 39, 124, 125):
        a = rng.choice(f.q, size=n, replace=False)
        d = f.vsub(a[:, None], a[None, :])
        np.fill_diagonal(d, 1)
        full = np.sum(d - 1, axis=1) % (f.q - 1) + 1
        assert np.array_equal(lagrange_products(f, a), full)
    with pytest.raises(DuplicatePoints):
        lagrange_products(f, np.append(a, a[70]))


def test_products_at_matches_lagrange_products_across_blocks(monkeypatch):
    f = make_field(5, 3)
    a = np.random.default_rng(7).choice(f.q, size=90, replace=False)
    full = lagrange_products(f, a)
    idx = [89, 0, 45, 45, 3, 88, 0, 17, 89, 60]  # unsorted, repeated
    for block in (1, 90, 91, 200, 1 << 16):
        monkeypatch.setattr(grs, "_LAGRANGE_BLOCK", block)
        assert np.array_equal(products_at(f, a, idx), full[idx])
        assert np.array_equal(lagrange_products(f, a), full)
    with pytest.raises(DuplicatePoints):
        products_at(f, np.append(a, a[5]), [0, 5])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacked_lagrange_products_match_one_set_at_a_time(data):
    """Row i of a stacked call is the call on set i alone, also when
    the blocks of flat (set, row) pairs split sets and rows."""
    f = make_field(*data.draw(st.sampled_from([(3, 1), (5, 2), (13, 1),
                                                (3, 4)])))
    n = data.draw(st.integers(1, min(f.q, 9)))
    one_set = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n,
                       unique=True)
    stack = np.array(data.draw(st.lists(one_set, min_size=1, max_size=5)),
                     dtype=np.int64)
    want = [lagrange_products(f, row) for row in stack]
    for pairs_per_block in (None, 1, 2, 3, 5):
        with pytest.MonkeyPatch.context() as mp:
            if pairs_per_block is not None:
                mp.setattr(grs, "_LAGRANGE_BLOCK", pairs_per_block * n)
            got = lagrange_products(f, stack)
        assert got.shape == stack.shape
        for i, row in enumerate(want):
            assert np.array_equal(got[i], row), (pairs_per_block, i)


def test_stacked_lagrange_products_keep_shape_and_refuse_a_duplicate():
    f = make_field(5, 2)
    rng = np.random.default_rng(11)
    stack = np.array([rng.choice(f.q, size=6, replace=False)
                      for _ in range(6)]).reshape(2, 3, 6)
    got = lagrange_products(f, stack)
    assert got.shape == (2, 3, 6)
    for i, j in itertools.product(range(2), range(3)):
        assert np.array_equal(got[i, j], lagrange_products(f, stack[i, j]))
    assert lagrange_products(f, stack[1, 2].tolist()).shape == (6,)
    # a point repeated across sets is no duplicate; within one set it is
    twice = lagrange_products(f, [stack[0, 0], stack[0, 0]])
    assert np.array_equal(twice[1], got[0, 0])
    bad = stack.reshape(6, 6).copy()
    bad[4, 2] = bad[4, 5]
    with pytest.raises(DuplicatePoints):
        lagrange_products(f, bad)


def test_stacked_lagrange_products_memory_is_bounded():
    """Four sets of 1500 points: whole difference matrices would take
    72 MB; blocks of flat (set, row) pairs keep the peak small."""
    f = make_field(3, 10)
    rng = np.random.default_rng(4)
    stack = np.array([rng.choice(f.q, size=1500, replace=False)
                      for _ in range(4)])
    tracemalloc.start()
    try:
        got = lagrange_products(f, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    probe = np.arange(0, 1500, 151)
    assert np.array_equal(got[3, probe], products_at(f, stack[3], probe))


def test_lagrange_products_memory_is_linear_in_n():
    """n = 4472 is within the verify limit; an n x n int64 difference
    matrix alone would be 160 MB."""
    f = make_field(3, 10)
    a = np.random.default_rng(3).choice(f.q, size=4472, replace=False)
    tracemalloc.start()
    try:
        got = lagrange_products(f, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    probe = np.arange(0, a.size, 97)
    assert np.array_equal(got[probe], products_at(f, a, probe))


def test_lagrange_products_brute_force():
    pts = encs([0, 5, 7, 2, 11])
    got = lagrange_products(F, pts)
    for i, x in enumerate(pts):
        expect = 1
        for j, y in enumerate(pts):
            if j != i:
                expect = F.mul(expect, F.sub(x, y))
        assert int(got[i]) == expect


def test_lagrange_products_edge_cases():
    assert list(lagrange_products(F, [5])) == [1]
    with pytest.raises(DuplicatePoints):
        lagrange_products(F, [])
    with pytest.raises(DuplicatePoints):
        lagrange_products(F, [3, 3])


@pytest.mark.parametrize("points", [[20, 3], [-5, 3], [3, 13],
                                    [3, 2 ** 63 - 1], [-2 ** 63, 3],
                                    [2 ** 70, 3], [3, -2 ** 70]])
def test_l_refuses_out_of_range_encodings_as_eval_set_does(points):
    """Both entry points raise EvalSet's error, where the wrapped Zech
    index read [20, 3] as some encodings and returned [12, 6], and an
    integer past int64 raised a bare OverflowError; the stacked form
    checks every set."""
    with pytest.raises(ValueError, match="point encoding out of range"):
        EvalSet(F, points, [1, 1])
    with pytest.raises(ValueError, match="point encoding out of range"):
        lagrange_products(F, points)
    with pytest.raises(ValueError, match="point encoding out of range"):
        products_at(F, points, [0])
    with pytest.raises(ValueError, match="point encoding out of range"):
        lagrange_products(F, [[0, 1], points])
    assert lagrange_products(F, [12, 3]).tolist() == [5, 11]


@pytest.mark.parametrize("index", [5, 3, -1, 2 ** 63 - 1, -2 ** 63,
                                   2 ** 70, -2 ** 70])
def test_products_at_refuses_an_index_outside_the_set(index):
    """An index outside [0, n) is refused, where 5 raised a bare
    IndexError, -1 read L(a_2) Python-style and 2**70 raised a bare
    OverflowError; every index is checked."""
    with pytest.raises(ValueError, match="point index out of range"):
        products_at(F, [1, 2, 3], [index])
    with pytest.raises(ValueError, match="point index out of range"):
        products_at(F, [1, 2, 3], [0, 2, index])
    assert products_at(F, [1, 2, 3], [2, 0]).tolist() == (
        lagrange_products(F, [1, 2, 3])[[2, 0]].tolist())


def test_products_at_matches_full_computation():
    pts = encs([0, 1, 2, 3, 5, 8, 11, 12])
    full = lagrange_products(F, pts)
    idx = [0, 3, 7]
    assert list(products_at(F, pts, idx)) == [int(full[i]) for i in idx]
    with pytest.raises(DuplicatePoints):
        products_at(F, [3, 3], [0])


def test_solve_multipliers_worked_example():
    lam, v = solve_multipliers(F, encs([0, 1, 2, 3]))
    assert lam == 2  # theta: every L value is a non-square
    assert vals(v) == (1, 6, 4, 8)


def test_solve_multipliers_nonconstant_character():
    assert solve_multipliers(F, encs([0, 1, 2, 4])) is None


def test_solve_multipliers_square_branch():
    # find a 4-subset whose products are all squares, then lam must be 1
    for sub in itertools.combinations(range(13), 4):
        l = lagrange_products(F, encs(sub))
        if np.all(F.vsign(l) == 1):
            lam, v = solve_multipliers(F, encs(sub))
            assert lam == 1
            assert np.all(F.vmul(F.vmul(v, v), l) == 1)
            return
    raise AssertionError("no all-square subset in GF(13)")


def test_solve_multipliers_odd_length_rejected():
    with pytest.raises(OddLength):
        solve_multipliers(F, encs([0, 1, 2]))


def test_solve_extended_multipliers_worked_example():
    v = solve_extended_multipliers(F, encs([0, 8, 12, 5, 1]))
    assert vals(v) == (1, 4, 4, 4, 4)


def test_solve_extended_single_point():
    # L = (1), -1 = 12 = theta^6, sqrt = theta^3 = 8
    assert vals(solve_extended_multipliers(F, encs([0]))) == (8,)
    assert vals(solve_extended_multipliers(F, encs([5]))) == (8,)


def test_solve_extended_even_length_rejected():
    with pytest.raises(EvenLength):
        solve_extended_multipliers(F, encs([0, 1]))


def test_eval_set_validation():
    with pytest.raises(DuplicatePoints):
        EvalSet(F, (1, 1), (1, 2))
    with pytest.raises(ValueError):
        EvalSet(F, (0, 13), (1, 2))
    with pytest.raises(TypeError):  # a code is its points and multipliers
        EvalSet(F, (1, 2))
    with pytest.raises(ZeroArgument):
        EvalSet(F, (1, 2), (0, 3))
    with pytest.raises(ZeroArgument):
        EvalSet(F, (1, 2), (1, 13))
    with pytest.raises(ShapeMismatch):
        EvalSet(F, (1, 2), (1, 2, 3))
    es = EvalSet(F, (1, 2), (1, 2), True)
    assert es.length == 3 and es.n == 2


def _reference_eval_set(q, points, multipliers):
    """EvalSet's checks one entry at a time in Python: the reference for
    its numpy checks.  Returns (points, multipliers) or raises."""
    pts = tuple(int(x) for x in points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("evaluation points are not distinct")
    if len(pts) > q:
        raise DuplicatePoints("more points than field elements")
    if any(not 0 <= x < q for x in pts):
        raise ValueError("point encoding out of range")
    v = tuple(int(x) for x in multipliers)
    if len(v) != len(pts):
        raise ShapeMismatch("one multiplier per point is required")
    if any(not 0 < x < q for x in v):
        raise ZeroArgument("multipliers must be nonzero encodings")
    return pts, v


def _outcome(fn):
    """(points, multipliers, their entry types), or (exception class,
    message)."""
    try:
        pts, v = fn()
    except Exception as exc:  # the outcome is what is compared
        return type(exc), str(exc)
    return pts, v, {type(x) for x in pts + (v or ())}


_BIG = 2 ** 63
# (points, multipliers) factories over GF(13): each side of the
# comparison gets fresh inputs, generators included
EVAL_SET_INPUTS = [
    lambda: ([1.0, 2.5, 3.9], None),
    lambda: (np.array([1.5, 2.0]), np.array([1.9, 2.2])),
    lambda: ([True, False], [True, True]),
    lambda: ([_BIG, 1], None),
    lambda: ([2 ** 64, 2 ** 64], None),
    lambda: ([1, 2], [_BIG, 1]),
    lambda: ([1, 2], [2 ** 70, 0]),
    lambda: ([-1, 2], None),
    lambda: ([13, 1], None),
    lambda: ([1, 1], None),
    lambda: ([3, 3, -4], None),
    lambda: (np.arange(14) % 13, None),
    lambda: ([1, 2], [1]),
    lambda: ([1, 2], [1, 0]),
    lambda: ([1, 2], [1, 13]),
    lambda: ([1], [-1]),
    lambda: (np.array([1, 2], dtype=np.int32),
             np.array([3, 4], dtype=np.int32)),
    lambda: (np.array([1, 2, 3], dtype=np.int32), None),
    lambda: (np.array([1, 2 ** 64 - 1], dtype=np.uint64), None),
    lambda: (np.array([1, 2], dtype=np.uint64),
             np.array([3, 0], dtype=np.uint64)),
    lambda: (np.array([1, 2 ** 70], dtype=object), None),
    lambda: (np.array([1, 2], dtype=object), np.array([5, 6], dtype=object)),
    lambda: (np.array([4, 9, 0], dtype=np.int64),
             np.array([1, 12, 2], dtype=np.int64)),
    lambda: (np.array([4, 9, 13], dtype=np.int64), None),
    lambda: (np.array([1, 2, 3], dtype=np.int64)[::2], np.array([4, 5])),
    lambda: (np.array([[1, 2]], dtype=np.int64), None),
    lambda: (np.array(3), None),
    lambda: ([], []),
    lambda: (None, None),
    lambda: ([1, 2], 5),
    lambda: (["1", "2"], ["3", "x"]),
    lambda: ((x for x in [1, 2]), (x for x in [3, 4])),
]


@pytest.mark.parametrize("make", EVAL_SET_INPUTS)
def test_eval_set_checks_match_the_per_entry_reference(make):
    """The same points and multipliers, as Python ints, or the same
    exception class and message: floats, bools, ints past int64,
    negative, out-of-range and duplicate encodings, a wrong multiplier
    count, zero multipliers, and int32, uint64 and object arrays."""
    def real():
        es = EvalSet(F, *make())
        return tuple(es.points.tolist()), tuple(es.multipliers.tolist())
    assert _outcome(real) == _outcome(
        lambda: _reference_eval_set(F.q, *make()))


def _int64_or_list(draw, xs):
    """xs as a list of Python ints, or as an int64 array when it fits."""
    fits = all(-2 ** 63 <= x < 2 ** 63 for x in xs)
    return np.array(xs, dtype=np.int64) if fits and draw(st.booleans()) else xs


@st.composite
def eval_set_inputs(draw):
    """(q, points, multipliers) over GF(13) or GF(3^4), each a list of
    Python ints in [-2^70, 2^70] or an int64 array, from a valid set
    with some of: more distinct points than q, a repeated point, a zero
    multiplier, an entry outside [0, q) and a multiplier too many or too
    few."""
    q = draw(st.sampled_from([13, 81]))
    faults = draw(st.sets(st.sampled_from(
        ["excess", "repeat", "zero", "point", "multiplier", "count"])))
    pts = draw(st.permutations(range(q + draw(st.integers(1, 3)))) if
               "excess" in faults else
               st.lists(st.integers(0, q - 1), max_size=12, unique=True))
    v = draw(st.lists(st.integers(1, q - 1), min_size=len(pts),
                      max_size=len(pts)))
    outside = st.one_of(st.integers(-2 ** 70, -1), st.integers(q, 2 ** 70),
                        st.sampled_from([-2 ** 63, 2 ** 63 - 1, -1, q]))
    if pts and "repeat" in faults:
        pts.append(draw(st.sampled_from(pts)))
        v.append(draw(st.integers(1, q - 1)))
    for kind, xs in (("point", pts), ("zero", v), ("multiplier", v)):
        if xs and kind in faults:
            i = draw(st.integers(0, len(xs) - 1))
            xs[i] = 0 if kind == "zero" else draw(outside)
    if "count" in faults:
        v = v[:-1] if v and draw(st.booleans()) else v + [1]
    return q, _int64_or_list(draw, pts), _int64_or_list(draw, v)


@settings(max_examples=300, deadline=None)
@given(eval_set_inputs())
def test_eval_set_matches_the_reference_on_lists_and_int64_arrays(case):
    """Lists of Python ints and int64 arrays, with repeats, zeros,
    entries outside [0, q) and count mismatches forced: EvalSet gives
    the reference's values or its exception class and message."""
    q, pts, v = case
    f = make_field(*{13: (13, 1), 81: (3, 4)}[q])

    def real():
        es = EvalSet(f, pts, v)
        return tuple(es.points.tolist()), tuple(es.multipliers.tolist())
    assert _outcome(real) == _outcome(lambda: _reference_eval_set(q, pts, v))


@pytest.mark.parametrize("bad", [0, -1, -2 ** 63, 13, 14, 2 ** 63 - 1])
@pytest.mark.parametrize("as_array", [False, True])
def test_eval_set_refuses_multipliers_outside_one_to_q(bad, as_array):
    """A zero, negative or >= q multiplier, at the first, a middle or the
    last place, as an int64 array or as a list, raises ZeroArgument; a
    wrong count is refused first, and 1 and q-1 pass at every place."""
    pts = [0, 3, 5, 7, 12]
    for i in range(len(pts)):
        for fill, ok in ((bad, False), (1, True), (12, True)):
            v = [4, 11, 2, 9, 6]
            v[i] = fill
            v = np.array(v, dtype=np.int64) if as_array else v
            if ok:
                assert EvalSet(F, pts, v).multipliers.tolist() == list(v)
                continue
            with pytest.raises(ZeroArgument, match="nonzero encodings"):
                EvalSet(F, pts, v)
            with pytest.raises(ShapeMismatch):
                EvalSet(F, pts[:-1], v)


def test_a_code_holds_its_eval_set_as_two_read_only_int64_arrays():
    """A retained th8_code(13,1,3,0,4) [732,366] holds at most 16 KB
    (its two arrays are 11.7 KB), a code cannot change after its proof,
    and an EvalSet is not hashable."""
    from grsdual import th8_code
    th8_code(13, 1, 3, 0, 4)  # the field and every cache it fills
    gc.collect()
    tracemalloc.start()
    try:
        code = th8_code(13, 1, 3, 0, 4)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16_000, held
    for xs in (code.eval_set.points, code.eval_set.multipliers):
        assert xs.dtype == np.int64 and xs.shape == (732,)
        with pytest.raises(ValueError):
            xs[0] = 1
    with pytest.raises(TypeError):
        hash(code.eval_set)


def test_generator_matrix_worked_example():
    lam, v = solve_multipliers(F, encs([0, 1, 2, 3]))
    g = generator_matrix(EvalSet(F, encs([0, 1, 2, 3]), tuple(int(x) for x in v)), 2)
    assert vals(g.data[0]) == (1, 6, 4, 8)
    assert vals(g.data[1]) == (0, 6, 8, 11)


def test_generator_matrix_extended_unit_column():
    v = solve_extended_multipliers(F, encs([0, 8, 12, 5, 1]))
    es = EvalSet(F, encs([0, 8, 12, 5, 1]), tuple(int(x) for x in v), True)
    g = generator_matrix(es, 3)
    assert g.shape == (3, 6)
    assert list(g.data[:, 5]) == [0, 0, 1]
    # the unit column alone: row blocks sized by the length, not by the
    # zero points (a ZeroDivisionError before)
    assert generator_matrix(EvalSet(F, (), (), True), 1).data.tolist() == [[1]]


def test_generator_matrix_errors():
    es = EvalSet(F, (1, 2), (1, 2))
    with pytest.raises(ShapeMismatch):
        generator_matrix(es, 0)
    with pytest.raises(ShapeMismatch):
        generator_matrix(es, 3)


def test_check_self_dual_positive_and_negative():
    lam, v = solve_multipliers(F, encs([0, 1, 2, 3]))
    es = EvalSet(F, encs([0, 1, 2, 3]), tuple(int(x) for x in v))
    assert check_self_dual(generator_matrix(es, 2))
    # swapping two multipliers breaks the Gram matrix
    bad = EvalSet(F, encs([0, 1, 2, 3]), (int(v[1]), int(v[0]), int(v[2]), int(v[3])))
    assert not check_self_dual(generator_matrix(bad, 2))
    with pytest.raises(ShapeMismatch):
        check_self_dual(generator_matrix(es, 1))
    # 0 x 0 passes the k = n/2 test, but holds no code to prove
    with pytest.raises(ShapeMismatch, match="0 x 0"):
        check_self_dual(GeneratorMatrix(F, np.zeros((0, 0), dtype=np.int64)))


def test_only_generator_matrix_pairs_g_with_nodes():
    """No caller hands the proofs nodes, and no G carries any, not even
    the one generator_matrix forms: only a code's GrsRows pairs rows
    with nodes.  Given th8_code(13,1,3,0,2)'s points as nodes, a G with
    one entry of row 10 changed would pass, since the Hankel Gram never
    forms row 10.  Read off G, it fails."""
    from grsdual import th8_code
    code = th8_code(13, 1, 3, 0, 2)
    g = code.generator_matrix()
    bad = g.data.copy()
    bad[10, 0] = code.field.add(int(bad[10, 0]), 1)
    with pytest.raises(TypeError):
        GeneratorMatrix(code.field, bad, code.rows().nodes)
    assert not hasattr(g, "nodes")
    assert not hasattr(GeneratorMatrix(code.field, bad), "nodes")
    assert not check_self_dual(GeneratorMatrix(code.field, bad))
    assert check_self_dual(GeneratorMatrix(code.field, g.data))


def test_check_self_dual_refuses_a_bare_g_off_the_grs_shape():
    """A bare G is proved from its own entries: a G off the GRS shape
    takes the general Gram and rank.  th8_code(13,1,3,0,2)'s G with one
    entry of row 10 changed, a row the Hankel Gram never reads, is
    refused; with row 0 added to row 2 or to row k-1, the same code, it
    is proved self-dual."""
    from grsdual import th8_code
    code = th8_code(13, 1, 3, 0, 2)
    f, g = code.field, code.generator_matrix().data
    bad = g.copy()
    bad[10, 0] = f.add(int(bad[10, 0]), 1)
    assert grs._grs_eval_set(GeneratorMatrix(f, bad)) is None
    assert not check_self_dual(GeneratorMatrix(f, bad))
    for row in (2, code.k - 1):
        mixed = g.copy()
        mixed[row] = f.vadd(mixed[row], g[0])
        assert grs._grs_eval_set(GeneratorMatrix(f, mixed)) is None
        assert check_self_dual(GeneratorMatrix(f, mixed))
    assert check_self_dual(GeneratorMatrix(f, g))


def test_grs_eval_set_refuses_repeated_points_before_any_row(monkeypatch):
    """A bare G whose row 1 / row 0 repeats a point is refused by
    EvalSet's repeat check before any GrsRows is formed, and
    check_self_dual proves it by the general Gram and rank.
    th8_code(13,1,3,0,2)'s G with point 1 moved onto point 0 is not
    self-dual; with c times row 2 added to row 1, c chosen so that
    points 0 and 1 collide, it spans the same code and is."""
    from grsdual import th8_code
    code = th8_code(13, 1, 3, 0, 2)
    f, g, a = code.field, code.generator_matrix().data, code.eval_set.points
    moved = g.copy()
    moved[1, 1] = f.mul(int(g[0, 1]), a[0])
    s = f.add(a[0], a[1])
    assert s != 0
    mixed = g.copy()
    mixed[1] = f.vadd(g[1], f.vmul(f.neg(f.inv(s)), g[2]))
    want = [check_self_dual(GeneratorMatrix(f, x)) for x in (moved, mixed)]
    assert want == [False, True]

    def refuse(*args, **kwargs):
        raise AssertionError("GrsRows formed")
    monkeypatch.setattr(grs.GrsRows, "__init__", refuse)
    for x, ok in zip((moved, mixed), want):
        with pytest.raises(DuplicatePoints):
            EvalSet(f, f.vmul(x[1], f.vinv(x[0])), x[0])
        gmat = GeneratorMatrix(f, x)
        assert grs._grs_eval_set(gmat) is None
        assert check_self_dual(gmat) == ok


def test_generator_matrix_nodes_are_the_points():
    """The nodes of a code's proofs are its points, 0 at the unit column
    of an extended code: those GrsRows forms its rows from.  The G that
    generator_matrix forms carries none itself, and _grs_eval_set reads
    the EvalSet back off it."""
    ve = solve_extended_multipliers(F, encs([0, 8, 12, 5, 1]))
    for extended, pts, v in ((False, (1, 2, 3), (1, 2, 5)),
                             (True, tuple(encs([0, 8, 12, 5, 1])), ve)):
        es = EvalSet(F, pts, v, extended)
        want = list(pts) + [0] * extended
        assert GrsRows(es, 1).nodes.tolist() == want
        g = generator_matrix(es, 3)
        assert not hasattr(g, "nodes")
        assert grs._grs_eval_set(g) == es


def test_min_distance_fixtures():
    lam, v = solve_multipliers(F, encs([0, 1, 2, 3]))
    es = EvalSet(F, encs([0, 1, 2, 3]), tuple(int(x) for x in v))
    assert min_distance(generator_matrix(es, 2)) == 3
    ve = solve_extended_multipliers(F, encs([0, 8, 12, 5, 1]))
    ese = EvalSet(F, encs([0, 8, 12, 5, 1]), tuple(int(x) for x in ve), True)
    assert min_distance(generator_matrix(ese, 3)) == 4
    with pytest.raises(EnumerationTooLarge):
        min_distance(generator_matrix(es, 2), enum_limit=10)


def test_check_mds_modes_agree():
    lam, v = solve_multipliers(F, encs([0, 1, 2, 3]))
    g = generator_matrix(EvalSet(F, encs([0, 1, 2, 3]), tuple(int(x) for x in v)), 2)
    assert check_mds(g, "exhaustive")
    assert check_mds(g, "minors")
    for mode in ("sampled", "nonsense"):
        with pytest.raises(ValueError, match=f"unknown mds mode '{mode}'"):
            check_mds(g, mode)
    with pytest.raises(EnumerationTooLarge):
        check_mds(g, "minors", minor_limit=1)


def test_check_mds_rejects_non_mds_matrix():
    # two equal columns give a singular 2 x 2 minor
    g = GeneratorMatrix(F, np.array([[1, 1, 1, 1], [2, 2, 5, 7]], dtype=np.int64))
    assert not check_mds(g, "minors")
    assert not check_mds(g, "exhaustive")


def brute_distance(field, g):
    """Least weight over the codewords of all q^k - 1 nonzero messages,
    built one generator row at a time."""
    k, n = g.shape
    coeffs = np.arange(field.q, dtype=np.int64)[:, None, None]
    words = np.zeros((1, n), dtype=np.int64)
    for row in g:
        words = field.vadd(words[None], field.vmul(coeffs, row[None, None]))
        words = words.reshape(-1, n)
    weights = np.count_nonzero(words[1:], axis=1)  # words[0] is zero
    return int(weights.min()) if weights.size else n + 1


def field_sum(field, values):
    """Field sum of a 1-d array of encodings."""
    acc = 0
    for x in values:
        acc = field.add(acc, int(x))
    return acc


DISTANCE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3)]


@st.composite
def small_codes(draw):
    """A k x n matrix with q^k <= 10^5, often far from MDS."""
    p, m = draw(st.sampled_from(DISTANCE_FIELDS))
    f = make_field(p, m)
    k = draw(st.integers(1, int(math.log(10 ** 5, f.q))))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.integers(0, f.q, size=(k, n))
    g[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0
    kind = draw(st.sampled_from(["plain", "repeat", "zero_row", "zero_cols",
                                 "unit_word", "planted"]))
    if kind == "planted":
        # a light word hidden in random combinations of all rows, so
        # a systematic form seldom holds it as a row
        g[0] = 0
        g[0, rng.choice(n, size=min(n, 2), replace=False)] = rng.integers(
            1, f.q, size=min(n, 2))
        mix = rng.integers(1, f.q, size=(k, k))
        g = np.array([[field_sum(f, f.vmul(mix[i], g[:, j]))
                       for j in range(n)] for i in range(k)])
    elif kind == "repeat" and k > 1:
        g[k - 1] = g[0]
    elif kind == "zero_row":
        g[draw(st.integers(0, k - 1))] = 0
    elif kind == "zero_cols":
        g[:, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))] = 0
    elif kind == "unit_word":  # a row, hence a codeword, of weight 1
        row = draw(st.integers(0, k - 1))
        g[row] = 0
        g[row, draw(st.integers(0, n - 1))] = draw(st.integers(1, f.q - 1))
    return f, g


@settings(max_examples=120, deadline=None)
@given(small_codes())
# weight 2 only as the first row minus the second
@example((make_field(3), np.array([[1, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1]])))
@example((make_field(5), np.array([[1, 2, 3, 4, 0, 1]])))  # k = 1
@example((make_field(7), np.array([[1, 2, 3], [1, 2, 3]])))  # rank 1
@example((make_field(3), np.array([[0, 1, 0, 0], [1, 1, 2, 0]])))  # weight 1
@example((make_field(5), np.zeros((2, 3), dtype=np.int64)))  # all zero
@example((make_field(5), np.array([[1, 2, 3], [1, 3, 4], [2, 2, 1],
                                   [1, 1, 1]])))  # k > n
def test_min_distance_matches_brute_force(case):
    f, g = case
    assert min_distance(GeneratorMatrix(f, g)) == brute_distance(f, g)


def test_min_distance_enumerates_each_distinct_form_once(monkeypatch):
    """Repeated columns give this G five systematic forms, two of them
    distinct: each distinct form is enumerated once per level."""
    f = make_field(3)
    g = np.array([[1, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1]])
    forms = grs._information_sets(f, g)
    assert len(forms) == 5
    assert len({rows.tobytes() for rows, _ in forms}) == 2
    levels = []
    lightest = grs._lightest

    def counted(field, rows, w):
        levels.append(w)
        return lightest(field, rows, w)

    monkeypatch.setattr(grs, "_lightest", counted)
    assert min_distance(GeneratorMatrix(f, g)) == 2
    assert levels == [1, 1]


@pytest.mark.parametrize("p, m, k", [(7, 1, 5), (5, 1, 6), (3, 2, 5)])
def test_min_distance_finds_words_no_systematic_row_shows(p, m, k):
    """G = [I | A] with rows 0 and 1 of A equal but in two places: row 0
    minus row 1 has weight 4 and message weight 2 in both systematic
    forms.  G is redrawn until every row, and every sum of two rows, of
    both forms is heavier than the distance.  A stopping rule that
    claimed one more per level, or a coefficient grid stuck at 1, then
    misses the lightest words."""
    f = make_field(p, m)
    rng = np.random.default_rng(k)
    while True:
        a = rng.integers(1, f.q, size=(k, k))
        a[1, 2:] = a[0, 2:]
        g = np.hstack([np.eye(k, dtype=np.int64), a])
        forms = grs._information_sets(f, g)
        if forms is None or len(forms) != 2:
            continue
        # weights of every row, and of every sum of two rows, of both
        # forms: the messages of weight at most 2 with coefficients 1
        shown = min(int(np.count_nonzero(
            f.vadd(r[:, None], np.vstack([np.zeros_like(r[:1]), r])[None]),
            axis=2).min()) for r, _ in forms)
        d = brute_distance(f, g)
        if shown > d:
            break
    assert d <= 4
    assert min_distance(GeneratorMatrix(f, g)) == d


def test_min_distance_edge_shapes():
    # no rows: nothing but the zero word, so n + 1
    assert min_distance(GeneratorMatrix(F, np.zeros((0, 3), dtype=np.int64))) == 4
    # rows but no columns: every word is zero
    assert min_distance(GeneratorMatrix(F, np.zeros((2, 0), dtype=np.int64))) == 0


def test_min_distance_past_brute_force_reach():
    """A [14,7] self-dual code over GF(49): q^k = 49^7 = 6.8e11 words,
    which no enumeration of all messages could walk."""
    from grsdual.search import catalog
    row = next(e for e in catalog(49, 14) if e.n == 14)
    code = code_from_obj(row.certificate)
    gmat = code.generator_matrix()
    assert 49 ** 7 > 6 * 10 ** 11
    with pytest.raises(EnumerationTooLarge):
        min_distance(gmat)
    assert min_distance(gmat, enum_limit=49 ** 7) == 8


def vandermonde(field, points, k):
    """Rows a^i for i < k: a GRS generator matrix, hence MDS."""
    a = np.array(points, dtype=np.int64)
    return np.stack([field.vpow(a, i) for i in range(k)])


def test_check_mds_catches_a_singular_minor_in_the_last_partial_chunk(
        monkeypatch):
    f = make_field(13)
    n, k = 8, 3
    subsets = list(itertools.combinations(range(n), k))
    last = list(subsets[-1])
    rng = np.random.default_rng(5)
    # column n-1 a combination of the other columns of the last subset,
    # redrawn until no other minor turns singular
    while True:
        g = vandermonde(f, encs(range(1, n + 1)), k)
        c = rng.integers(1, f.q, size=2)
        g[:, n - 1] = f.vadd(f.vmul(c[0], g[:, last[0]]),
                             f.vmul(c[1], g[:, last[1]]))
        singular = [s for s in subsets if linalg.rank(f, g[:, list(s)]) < k]
        if singular == [tuple(last)]:
            break
    gmat = GeneratorMatrix(f, g)
    assert not check_mds(gmat, "minors")
    # chunks of 5 subsets: 56 = 11 * 5 + 1, the last chunk holds one
    monkeypatch.setattr(grs, "_MINOR_BLOCK", 5 * k * k)
    assert len(subsets) % 5 == 1
    assert not check_mds(gmat, "minors")
    g[:, n - 1] = vandermonde(f, encs([n]), k)[:, 0]
    assert check_mds(GeneratorMatrix(f, g), "minors")


def test_check_mds_sampled_finds_the_singular_minor_its_draws_miss():
    """The 1,000 seeded draws that the sampled mode once made on a [10,5]
    code hit 248 of its 252 k-subsets but not (0,1,2,4,7); a G singular
    only there passed those draws, and fails minors, which sampled now
    names."""
    f = make_field(1009)
    n, k = 10, 5
    bad = (0, 1, 2, 4, 7)
    subsets = list(itertools.combinations(range(n), k))
    coeffs = np.random.default_rng(11)
    while True:
        g = vandermonde(f, [f.from_int(x) for x in range(1, n + 1)], k)
        col = np.zeros(k, dtype=np.int64)
        for j, c in zip(bad[:4], coeffs.integers(1, f.q, size=4)):
            col = f.vadd(col, f.vmul(c, g[:, j]))
        g[:, 7] = col
        singular = [s for s in subsets if linalg.rank(f, g[:, list(s)]) < k]
        if singular == [bad]:
            break
    assert not check_mds(GeneratorMatrix(f, g), "minors")


def test_check_mds_sampled_is_bounded_by_the_minor_limit(monkeypatch):
    """minors, which the CLI's sampled runs, refuses C(n,k) past
    minor_limit before any minor is tested, and runs at the limit."""
    f = make_field(17)
    gmat = GeneratorMatrix(f, vandermonde(f, [f.from_int(x)
                                              for x in range(1, 13)], 5))
    monkeypatch.setattr(grs.linalg, "minors_nonzero", None)
    with pytest.raises(EnumerationTooLarge,
                       match="^C\\(12,5\\) = 792 exceeds 791$"):
        check_mds(gmat, "minors", minor_limit=791)
    monkeypatch.undo()
    assert check_mds(gmat, "minors", minor_limit=792)


def information_sets_reference(field, g):
    """_information_sets as it was before it stopped on a used-up
    column set: one more elimination, which finds fresh == 0."""
    k, n = g.shape
    used = np.zeros(n, dtype=bool)
    forms = []
    while True:
        order = np.concatenate([np.flatnonzero(~used), np.flatnonzero(used)])
        rows, pivots = linalg.systematic(field, g, order)
        if len(pivots) < k:
            return None
        fresh = int(np.count_nonzero(~used[pivots]))
        if fresh == 0:
            return forms
        forms.append((rows, fresh))
        used[pivots] = True


@st.composite
def elimination_inputs(draw):
    """A k x n matrix: random (full rank when k <= n, mostly), rank
    deficient, with repeated columns or with zero columns."""
    p, m = draw(st.sampled_from(DISTANCE_FIELDS))
    f = make_field(p, m)
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.integers(0, f.q, size=(k, n))
    kind = draw(st.sampled_from(["random", "deficient", "repeat_cols",
                                 "zero_cols"]))
    index = st.integers(0, n - 1)
    if kind == "deficient" and k > 1:  # last row a combination of the rest
        g[k - 1] = 0
        for i, c in enumerate(rng.integers(0, f.q, size=k - 1)):
            g[k - 1] = f.vadd(g[k - 1], f.vmul(c, g[i]))
    elif kind == "repeat_cols":
        for dst, src in draw(st.lists(st.tuples(index, index), min_size=1,
                                      max_size=n)):
            g[:, dst] = g[:, src]
    elif kind == "zero_cols":
        g[:, draw(st.lists(index, min_size=1, max_size=n))] = 0
    return f, g


def form_bytes(forms):
    if forms is None:
        return None
    return [(rows.tobytes(), fresh) for rows, fresh in forms]


@settings(max_examples=150, deadline=None)
@given(elimination_inputs())
@example((make_field(5), np.zeros((2, 0), dtype=np.int64)))  # n = 0
@example((make_field(3), np.array([[1, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1]])))
def test_information_sets_match_the_reference_loop(case):
    f, g = case
    assert form_bytes(grs._information_sets(f, g)) == \
        form_bytes(information_sets_reference(f, g))


def test_information_sets_skip_the_empty_last_elimination(monkeypatch):
    """Two disjoint information sets cover an MDS [8,4] code, so the
    search eliminates twice, not a third time to find nothing fresh."""
    f = make_field(17)
    g = vandermonde(f, [f.from_int(x) for x in range(1, 9)], 4)
    calls = []
    systematic = linalg.systematic

    def counted(field, rows, order):
        calls.append(order)
        return systematic(field, rows, order)

    monkeypatch.setattr(grs.linalg, "systematic", counted)
    forms = grs._information_sets(f, g)
    assert [fresh for _, fresh in forms] == [4, 4]
    assert len(calls) == 2


def test_check_mds_minors_memory_stays_below_the_full_stack():
    """All C(16,8) = 12870 minors of an MDS [16,8] code, in chunks: the
    peak stays below the (12870, 8, 8) int64 stack a single batch would
    hold."""
    f = make_field(17)
    n, k = 16, 8
    gmat = GeneratorMatrix(f, vandermonde(f, [f.from_int(x)
                                              for x in range(1, n + 1)], k))
    full = math.comb(n, k) * k * k * 8
    tracemalloc.start()
    try:
        assert check_mds(gmat, "minors")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full, (peak, full)


@st.composite
def minor_inputs(draw):
    """A k x n matrix, 1 <= k <= n <= 10, with zero entries: random, or
    a GRS one (every minor nonzero) with a few entries redrawn; and a
    block of Laplace terms from one term to the default."""
    p, m = draw(st.sampled_from(DISTANCE_FIELDS))
    f = make_field(p, m)
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if n <= f.q and draw(st.booleans()):
        g = vandermonde(f, rng.permutation(f.q)[:n], k)
        for _ in range(draw(st.integers(0, 2))):
            g[rng.integers(0, k), rng.integers(0, n)] = rng.integers(0, f.q)
    else:
        g = rng.integers(0, f.q, size=(k, n))
        g[rng.random((k, n)) < 0.15] = 0
    block = draw(st.sampled_from([1, 2, 3, 7, grs._MINOR_BLOCK]))
    return f, g, block


@settings(max_examples=150, deadline=None)
@given(minor_inputs())
@example((make_field(7), vandermonde(make_field(7), range(1, 7), 1), 1))
@example((make_field(5), np.array([[1, 2, 0], [0, 3, 4], [2, 0, 1]]), 2))
@example((make_field(3, 2), vandermonde(make_field(3, 2), range(9), 9), 5))
def test_minors_kernel_matches_every_subset_eliminated(case):
    """The Laplace kernel, its levels cut into blocks as small as one
    term, against the rank of every k-subset up to the first singular
    one."""
    f, g, block = case
    k, n = g.shape
    want = all(linalg.rank(f, g[:, list(s)]) == k
               for s in itertools.combinations(range(n), k))
    with unittest.mock.patch.object(grs, "_MINOR_BLOCK", block):
        assert check_mds(GeneratorMatrix(f, g), "minors") == want


def test_minors_kernel_finds_the_last_subset_singular():
    """Only the last k-subset of a [9,6] G is singular, past n = 2k:
    every block size finds it in the last block."""
    f = make_field(1009)
    n, k = 9, 6
    subsets = list(itertools.combinations(range(n), k))
    g = vandermonde(f, [f.from_int(x) for x in range(1, n + 1)], k)
    coeffs = np.random.default_rng(3)
    while True:
        col = np.zeros(k, dtype=np.int64)
        for j, c in zip(subsets[-1][:-1], coeffs.integers(1, f.q, size=5)):
            col = f.vadd(col, f.vmul(c, g[:, j]))
        g[:, n - 1] = col
        singular = [s for s in subsets if linalg.rank(f, g[:, list(s)]) < k]
        if singular == [subsets[-1]]:
            break
    for block in (1, 7, 6 * math.comb(n, k) - 1, grs._MINOR_BLOCK):
        assert not linalg.minors_nonzero(f, g, block)


def test_check_mds_refuses_the_middle_level_past_n_over_2(monkeypatch):
    """With 2k > n the expansion holds C(n, n//2) sub-minors: C(24,20)
    = 10,626 minors but C(24,12) = 2,704,156, refused before any."""
    f = make_field(29)
    gmat = GeneratorMatrix(f, vandermonde(f, [f.from_int(x)
                                              for x in range(1, 25)], 20))
    monkeypatch.setattr(grs.linalg, "minors_nonzero", None)
    with pytest.raises(EnumerationTooLarge,
                       match="^C\\(24,12\\) = 2704156 exceeds 1000000$"):
        check_mds(gmat, "minors")


def test_check_mds_minors_of_a_22_11_code_stay_within_48_mb():
    """All C(22,11) = 705,432 minors of the th11 [22,11] code over
    GF(41): the tracemalloc peak stays at most 48 MB."""
    code = th11_code(41, 1, 1, 0, 20)
    gmat = generator_matrix(code.eval_set, code.k)
    assert gmat.data.shape == (11, 22)
    tracemalloc.start()
    try:
        assert check_mds(gmat, "minors")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 10 ** 6, peak


def test_extended_three_point_soundness():
    """Extended [4,2] on 3 points exists iff every -L value is a square."""
    for sub in itertools.combinations(range(13), 3):
        pts = encs(sub)
        v = solve_extended_multipliers(F, pts)
        neg_l = F.vneg(lagrange_products(F, pts))
        expect = bool(np.all(F.vsign(neg_l) == 1))
        assert (v is not None) == expect
        if v is not None:
            es = EvalSet(F, pts, tuple(int(x) for x in v), True)
            assert check_self_dual(generator_matrix(es, 2))


def test_build_verified_code_roundtrip():
    code = build_verified_code(F, encs([0, 1, 2, 3]), False, {"theorem": "fixture"})
    assert (code.length, code.k) == (4, 2)
    assert code.verify()
    blob = code.to_json()
    again = code_from_obj(json.loads(blob))
    assert again.to_json() == blob
    assert again.field is F


def test_build_verified_code_failure_is_typed():
    with pytest.raises(VerificationFailed):
        build_verified_code(F, encs([0, 1, 2, 4]), False, {})


def test_build_verified_code_scale_guard():
    check_verify_scale(100, 200)
    with pytest.raises(EnumerationTooLarge):
        check_verify_scale(3000, 6000)
    # [4474,2237] is past the limit; refused before any multiplier work
    with pytest.raises(EnumerationTooLarge):
        build_verified_code(make_field(3, 8), np.arange(4474), False, {})


@st.composite
def eval_sets(draw):
    """A random plain or extended EvalSet, possibly holding the node 0,
    and a dimension 1 <= k <= its length."""
    p, m = draw(st.sampled_from([(3, 1), (13, 1), (3, 4), (13, 2), (7, 3)]))
    f = make_field(p, m)
    n = draw(st.integers(1, min(f.q, 14)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.choice(f.q, size=n, replace=False)
    if draw(st.booleans()) and 0 not in points:
        points[rng.integers(0, n)] = 0
    es = EvalSet(f, points, rng.integers(1, f.q, size=n), draw(st.booleans()))
    return es, draw(st.integers(1, es.length))


@settings(max_examples=200, deadline=None)
@given(eval_sets())
def test_grs_eval_set_reads_back_every_eval_set(case):
    """_grs_eval_set of generator_matrix(es, k) is es, points,
    multipliers and extension flag, for every k >= 2, and from the text
    form too; with k = 1, one row, it reads nothing."""
    es, k = case
    g = generator_matrix(es, k)
    got = grs._grs_eval_set(g)
    if k < 2:
        assert got is None
        return
    assert (got.points.tolist(), got.multipliers.tolist(), got.extended) == (
        es.points.tolist(), es.multipliers.tolist(), es.extended)
    assert grs._grs_eval_set(GeneratorMatrix.from_text(es.field,
                                                       g.to_text())) == es


@settings(max_examples=200, deadline=None)
@given(eval_sets(), st.data())
def test_grs_rows_are_the_rows_of_the_generator_matrix(case, data):
    """GrsRows forms exactly rows idx of generator_matrix, and of the
    scalar formula v_j a_j**i (1 in row k-1 of the unit column), for an
    index array (any order, repeats), a 2-d index array, a slice and one
    index; an index past k raises as it would on G."""
    es, k = case
    g = generator_matrix(es, k).data
    src = GrsRows(es, k)
    assert src.shape == g.shape
    idx = np.array(data.draw(st.lists(st.integers(0, k - 1), max_size=12)),
                   dtype=np.int64)
    got = src[idx]
    assert got.dtype == np.int64 and got.shape == (idx.size, es.length)
    assert np.array_equal(got, g[idx])
    for i, row in zip(idx.tolist(), got.tolist()):
        expect = [es.field.mul(v, es.field.power(a, i))
                  for a, v in zip(es.points, es.multipliers)]
        assert row == expect + [int(i == k - 1)] * es.extended
    assert np.array_equal(src[idx.reshape(-1, 1)], g[idx][:, None])
    i = data.draw(st.integers(0, k - 1))
    assert np.array_equal(src[i], g[i]) and np.array_equal(src[i:], g[i:])
    with pytest.raises(IndexError):
        src[k]


def test_build_verified_code_forms_no_generator_matrix(monkeypatch):
    """The construct path proves a code from the rows its proofs read,
    by GrsRows: G is never formed whole and its shape never read."""
    def refuse(*args, **kwargs):
        raise AssertionError("formed G or read its shape")

    monkeypatch.setattr(grs, "generator_matrix", refuse)
    monkeypatch.setattr(grs, "_grs_eval_set", refuse)
    from grsdual import th4_code, th8_code
    for code in (build_verified_code(F, encs([0, 1, 2, 3]), False, {}),
                 th8_code(13, 1, 3, 0, 2), th4_code(13, 3, 1, 12)):
        assert code.verify()


def test_to_obj_wire_shape():
    code = build_verified_code(F, encs([0, 1, 2, 3]), False, {"theorem": "fixture"})
    obj = code.to_obj()
    assert obj["field"] == {"p": 13, "m": 1, "modulus": [0, 1], "theta": 2}
    assert obj["k"] == 2 and obj["extended"] is False
    assert obj["a"] == [int(x) for x in encs([0, 1, 2, 3])]
    # serialization is deterministic: sorted keys, no spaces
    assert code.to_json() == json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_code_from_obj_rejects_malformed_input():
    good = json.loads(build_verified_code(F, encs([0, 1, 2, 3]), False, {}).to_json())
    for mangle in (
        lambda o: o.pop("a"),
        lambda o: o.__setitem__("a", [1, 1, 2, 3]),
        lambda o: o.__setitem__("v", [0, 1, 2, 3]),
        lambda o: o.__setitem__("v", [1, 2]),
        lambda o: o.__setitem__("a", "nonsense"),
        lambda o: o.__setitem__("field", {"p": 13}),
        lambda o: o["field"].__setitem__("modulus", [1, 1]),
        lambda o: o["field"].__setitem__("m", 0),
        # non-integers: int() would truncate these to valid encodings
        lambda o: o.__setitem__("a", [0.25, 1, 2, 3]),
        lambda o: o.__setitem__("a", [0, True, 2, 3]),
        lambda o: o.__setitem__("v", [1.0, 6, 3, 4]),
        lambda o: o.__setitem__("k", 2.0),
        lambda o: o["field"].__setitem__("p", 13.0),
        lambda o: o["field"].__setitem__("m", True),
        lambda o: o["field"].__setitem__("modulus", [0, 1.5]),
        lambda o: o.__setitem__("k", 0),
        lambda o: o.__setitem__("k", 5),
        # bool() and dict() would coerce these into a valid code
        lambda o: o.__setitem__("extended", "false"),
        lambda o: o.__setitem__("extended", [0]),
        lambda o: o.__setitem__("extended", None),
        lambda o: o.__setitem__("provenance", ["ab"]),
        # not an odd prime: CompositeCharacteristic from the field checks
        lambda o: o["field"].__setitem__("p", 15),
        lambda o: o["field"].__setitem__("p", 2),
        lambda o: o["field"].__setitem__("p", -3),
    ):
        obj = json.loads(json.dumps(good))
        mangle(obj)
        with pytest.raises(SchemaError):
            code_from_obj(obj)


def test_generator_matrix_text_roundtrip():
    lam, v = solve_multipliers(F, encs([0, 1, 2, 3]))
    g = generator_matrix(EvalSet(F, encs([0, 1, 2, 3]), tuple(int(x) for x in v)), 2)
    text = g.to_text()
    again = GeneratorMatrix.from_text(F, text)
    assert np.array_equal(again.data, g.data)
    with pytest.raises(SchemaError):
        GeneratorMatrix.from_text(F, "1 2\n3\n")
    with pytest.raises(SchemaError):
        GeneratorMatrix.from_text(F, "\n")


def test_generator_matrix_refuses_encodings_outside_the_field():
    """An entry shifted by q, up or down, is refused when G is made,
    through the constructor and through from_text, as EvalSet refuses
    such a point: read as itself, G[0, 0] - 13 passed check_self_dual
    and min_distance, and G[0, 0] + 13 raised an IndexError."""
    from grsdual.subspace import th2_code
    code = th2_code(13, 1, 0, 3)
    g = code.generator_matrix().data
    for i, j in ((0, 0), (1, 3)):
        for shift in (-code.field.q, code.field.q):
            bad = g.copy()
            bad[i, j] += shift
            with pytest.raises(ValueError, match="encoding out of range"):
                GeneratorMatrix(code.field, bad)
            text = "\n".join(" ".join(map(str, row)) for row in bad.tolist())
            with pytest.raises(ValueError, match="encoding out of range"):
                GeneratorMatrix.from_text(code.field, text)
    assert check_self_dual(GeneratorMatrix.from_text(code.field,
                                                     code.generator_matrix()
                                                     .to_text()))
    # an empty matrix holds no entry to check
    assert GeneratorMatrix(F, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


@pytest.mark.parametrize("big", [10 ** 20, -10 ** 20])
def test_generator_matrix_refuses_an_integer_past_int64(big):
    """Past int64 is past q: the same ValueError as any other out-of-range
    entry, where from_text raised an untyped OverflowError."""
    with pytest.raises(ValueError, match="matrix encoding out of range"):
        GeneratorMatrix.from_text(F, f"{big} 1")
    with pytest.raises(ValueError, match="matrix encoding out of range"):
        GeneratorMatrix(F, [[big, 1]])
    g = GeneratorMatrix.from_text(F, "3 1\n0 12\n")
    assert g.data.dtype == np.int64 and g.data.tolist() == [[3, 1], [0, 12]]
