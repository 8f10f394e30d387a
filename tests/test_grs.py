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

import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grsdual import grs, linalg, make_field
from grsdual.errors import (
    DuplicatePoints,
    EnumerationTooLarge,
    EvenLength,
    MultipliersUnset,
    OddLength,
    SchemaError,
    ShapeMismatch,
    VerificationFailed,
    ZeroArgument,
)
from grsdual.grs import (
    EvalSet,
    GeneratorMatrix,
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
        EvalSet(F, (1, 1))
    with pytest.raises(ValueError):
        EvalSet(F, (0, 13))
    with pytest.raises(ZeroArgument):
        EvalSet(F, (1, 2), (0, 3))
    with pytest.raises(ZeroArgument):
        EvalSet(F, (1, 2), (1, 13))
    with pytest.raises(ShapeMismatch):
        EvalSet(F, (1, 2), (1, 2, 3))
    es = EvalSet(F, (1, 2), (1, 2), True)
    assert es.length == 3 and es.n == 2


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


def test_generator_matrix_errors():
    with pytest.raises(MultipliersUnset):
        generator_matrix(EvalSet(F, (1, 2)), 1)
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
    assert check_mds(g, "sampled")
    with pytest.raises(ValueError):
        check_mds(g, "nonsense")
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


def test_check_mds_sampled_draws_the_seeded_subsets(monkeypatch):
    f = make_field(17)
    n, k, samples = 12, 5, 300
    g = vandermonde(f, [f.from_int(x) for x in range(1, n + 1)], k)
    seen = []
    nonsingular = linalg.nonsingular

    def spy(field, stack):
        seen.extend(np.asarray(stack))
        return nonsingular(field, stack)

    monkeypatch.setattr(grs.linalg, "nonsingular", spy)
    assert check_mds(GeneratorMatrix(f, g), "sampled", samples=samples)
    rng = random.Random(grs._SAMPLE_SEED)
    want = [g[:, sorted(rng.sample(range(n), k))] for _ in range(samples)]
    assert len(seen) == samples
    assert all(np.array_equal(a, b) for a, b in zip(seen, want))


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
        check_verify_scale(3000, 6000, limit=10 ** 6)
    with pytest.raises(EnumerationTooLarge):
        build_verified_code(F, encs([0, 1, 2, 3]), False, {}, verify_limit=1)


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
