"""Evaluation sets, multiplier solving, and the self-duality oracles.

The GF(13) fixtures are worked by hand.  On points 0, 1, 2, 3 the
Lagrange products are L = (7, 2, 11, 6) (values, not encodings), all
non-squares, so lam = theta and v = (1, 6, 4, 8) up to the canonical
square root.  On 0, 1, 2, 4 the products mix squares and non-squares
and no multiplier vector exists.
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from grsdual import grs, make_field
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
        # not an odd prime: CompositeCharacteristic inside make_field
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
