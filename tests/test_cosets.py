"""Coset expansion, tower families th8 through th11, and the
two-decomposition families th12/th13 over GF(r^2)."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from grsdual import make_field
from grsdual.cosets import (
    CosetSpec,
    TwoDecomposition,
    coset_lift,
    coset_points,
    distinct_coset_indices,
    extended_coset_lift,
    iterated_lift,
    th8_code,
    th9_code,
    th10_code,
    th11_code,
    th12_code,
    th13_code,
)
from grsdual.errors import (
    BaseNotSelfDual,
    CharacterCondition,
    DuplicatePoints,
    E1NotOdd,
    EnumerationTooLarge,
    HypothesisViolated,
    NotInSubgroup,
    TableLimitExceeded,
    TooManyCosets,
)
from grsdual.grs import lagrange_products


def test_coset_spec_coordinates():
    f = make_field(5, 2)
    spec = CosetSpec(f, 3)
    assert spec.e1 == 3 and spec.f1 == 8
    # base points live in <g^e1>; v_of recovers the exponent divided by e1
    for v in range(spec.f1):
        enc = spec.gpow(np.array([v * spec.e1]))[0]
        assert spec.v_of(int(enc)) == v
    with pytest.raises(NotInSubgroup):
        spec.v_of(2)  # theta itself is not a power of g^3
    with pytest.raises(NotInSubgroup):
        spec.v_of(0)
    with pytest.raises(HypothesisViolated):
        CosetSpec(f, 5)  # 5 does not divide 24


def test_coset_spec_with_container_subfield():
    # staging inside GF(5) embedded in GF(25): stride jumps by 6
    f = make_field(5, 2)
    spec = CosetSpec(f, 1, subfield_order=5)
    assert spec.e1 == 1 and spec.f1 == 4 and spec.stride == 6
    assert list(spec.gpow(np.arange(4))) == [1, 7, 13, 19]


def test_coset_points_requires_odd_e1():
    f = make_field(5, 2)
    with pytest.raises(E1NotOdd):
        coset_points(CosetSpec(f, 2), [1, 2])


def test_coset_points_expansion_and_identity():
    """Lifting two 4th-power points of GF(13) over e1 = 3 must
    reproduce the direct Lagrange products."""
    f = make_field(13)
    spec = CosetSpec(f, 3)
    base = [1, int(spec.gpow(np.array([6]))[0])]  # g^0 and g^6 = -1
    pts, l = coset_points(spec, base)
    assert pts.size == 6
    assert len(set(pts.tolist())) == 6
    direct = lagrange_products(f, pts)
    assert np.array_equal(l, direct)
    for i, x in enumerate(pts.tolist()):
        expect = 1
        for j, y in enumerate(pts.tolist()):
            if i != j:
                expect = f.mul(expect, f.sub(x, y))
        assert expect == int(direct[i])


def test_coset_points_rejects_bad_bases():
    f = make_field(13)
    spec = CosetSpec(f, 3)
    with pytest.raises(HypothesisViolated):
        coset_points(spec, [1])  # odd base in plain mode
    with pytest.raises(HypothesisViolated):
        coset_points(spec, [1, 2], extended=True)  # even base in extended mode
    with pytest.raises(DuplicatePoints):
        coset_points(spec, [1, 1])
    with pytest.raises(NotInSubgroup):
        coset_points(spec, [1, 2])  # theta is not a power of g^3


def test_coset_lift_builds_verified_code():
    f = make_field(13)
    spec = CosetSpec(f, 3)
    base = [1, int(spec.gpow(np.array([6]))[0])]
    code = coset_lift(spec, base)
    assert (code.length, code.k) == (6, 3)
    assert code.verify()
    assert code.provenance["theorem"] == "coset_lift"


def test_th8_small_tower():
    code = th8_code(5, 1, 3, 0, 2)
    assert (code.length, code.k) == (62, 31)
    assert not code.eval_set.extended
    assert code.verify()
    assert code.provenance == {"theorem": "th8", "r": 5, "s": 1, "m": 3,
                               "e": 0, "t": 2}


def test_th9_small_tower():
    code = th9_code(7, 1, 1, 0, 3)
    assert (code.length, code.k) == (4, 2)
    assert code.eval_set.points == (1, 2, 6, 3)
    assert code.eval_set.multipliers == (2, 3, 3, 3)
    assert code.verify()


def test_th10_extended_tower():
    code = th10_code(13, 1, 3, 0, 3)
    assert (code.length, code.k) == (550, 275)
    assert code.eval_set.extended
    assert code.verify()


def test_th11_extended_tower():
    code = th11_code(5, 2, 1, 0, 2)
    assert (code.length, code.k) == (4, 2)
    assert code.eval_set.extended
    assert code.eval_set.points == (2, 21, 4)
    assert code.eval_set.multipliers == (1, 10, 10)
    assert code.verify()


def test_tower_parity_wrappers():
    with pytest.raises(HypothesisViolated):
        th8_code(5, 1, 3, 0, 3)  # t must be even
    with pytest.raises(HypothesisViolated):
        th9_code(5, 1, 3, 0, 2)  # t must be odd
    with pytest.raises(HypothesisViolated):
        th8_code(3, 1, 2, 0, 2)  # m must be odd


def test_tower_e_range():
    with pytest.raises(HypothesisViolated):
        th8_code(5, 2, 1, 2, 2)  # e must stay below s
    code = th8_code(5, 2, 1, 1, 2)
    assert code.length == 2 * 5  # t * r^e * e1 with e1 = 1
    assert code.verify()


def test_th10_rejects_wrong_character():
    with pytest.raises(HypothesisViolated):
        th11_code(5, 1, 3, 0, 2)  # chi(2) = chi(-2) = -1
    with pytest.raises(HypothesisViolated):
        th10_code(7, 1, 3, 0, 1)  # chi(-1) = -1 over GF(7^3)


def test_iterated_single_stage_matches_direct():
    a = iterated_lift(5, 1, [3], 0, 2, "th8")
    b = th8_code(5, 1, 3, 0, 2)
    assert a.to_json() == b.to_json()
    c = iterated_lift(13, 1, [3], 0, 3, "th10")
    d = th10_code(13, 1, 3, 0, 3)
    assert c.to_json() == d.to_json()


def test_iterated_degenerate_second_stage():
    # a final factor of 1 keeps the field and the points unchanged
    one = iterated_lift(5, 1, [3], 0, 2, "th8")
    two = iterated_lift(5, 1, [3, 1], 0, 2, "th8")
    assert two.eval_set.points == one.eval_set.points
    assert two.provenance == {"theorem": "cor1", "r": 5, "s": 1,
                              "ms": [3, 1], "e": 0, "t": 2}
    assert two.verify()


def test_iterated_rejects_bad_factor_lists():
    with pytest.raises(HypothesisViolated):
        iterated_lift(5, 1, [], 0, 2, "th8")
    with pytest.raises(HypothesisViolated):
        iterated_lift(5, 1, [3, 2], 0, 2, "th8")


def test_iterated_two_stages_exceed_desk_scale():
    """5^9 supports the tower in principle, but the resulting length
    is about q/2: too large to verify, so the build refuses."""
    with pytest.raises(EnumerationTooLarge):
        iterated_lift(5, 1, [3, 3], 0, 2, "th8")
    with pytest.raises(TableLimitExceeded):
        iterated_lift(5, 1, [3, 3], 0, 2, "th8", table_limit=10 ** 6)


def test_th12_past_desk_scale_refuses_in_bounded_memory():
    """n = 50244 over GF(317^2): the full Lagrange products would need
    n^2 int64 entries (18.8 GiB); the verify limit refuses the point
    set before its L is formed."""
    make_field(317, 2)  # keep the field tables out of the measurement
    for variant in ("tf", "tf+2"):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLarge):
                th12_code(317, 2, 50244, 1, 1, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, (variant, peak)


def same_coset(td, i, j):
    """Reference predicate: whether beta^i H and beta^j H coincide."""
    return (td.e2 * (i - j)) % td.e1 == 0


def test_two_decomposition_exhaustive():
    """same_coset must agree with literal coset-set equality, where
    H = <theta^e1> is scaled by powers of beta = theta^e2."""
    for p, m in ((5, 2), (13, 1), (3, 2)):
        f = make_field(p, m)
        order = f.q - 1
        divisors = [d for d in range(1, order + 1) if order % d == 0]
        for e1 in divisors:
            group = [(i * e1) % order + 1 for i in range(order // e1)]
            for e2 in divisors:
                td = TwoDecomposition(f, e1, e2)
                cosets = [frozenset(f.mul((i * e2) % order + 1, x) for x in group)
                          for i in range(min(order // e2 + 2, 8))]
                for i, ci in enumerate(cosets):
                    for j, cj in enumerate(cosets):
                        assert same_coset(td, i, j) == (ci == cj)
                # so distinct_coset_indices needs no pairwise test
                mod = td.coset_modulus
                assert same_coset(td, 0, mod)
                assert not any(same_coset(td, i, j)
                               for i in range(mod) for j in range(i))


def test_distinct_coset_indices():
    f = make_field(5, 2)
    td = TwoDecomposition(f, 6, 4)
    assert td.coset_modulus == 3
    assert distinct_coset_indices(td, 1) == [0]
    assert distinct_coset_indices(td, 3) == [0, 1, 2]
    with pytest.raises(TooManyCosets):
        distinct_coset_indices(td, 4)


def test_th12_family_over_gf25():
    for t, n in ((1, 4), (2, 8), (3, 12)):
        code = th12_code(5, 6, 4, 2, t, "tf")
        assert (code.length, code.k) == (n, n // 2)
        assert code.verify()
    code = th12_code(5, 6, 4, 2, 2, "tf")
    assert code.eval_set.points == (1, 7, 13, 19, 3, 9, 15, 21)
    assert code.eval_set.multipliers == (6, 9, 12, 3, 9, 12, 3, 6)
    assert code.provenance["indices"] == [0, 1]


def test_th12_extended_variant():
    code = th12_code(5, 6, 4, 2, 1, "tf+2")
    assert (code.length, code.k) == (6, 3)
    assert code.eval_set.extended
    assert code.eval_set.points == (1, 7, 13, 19, 0)
    assert code.eval_set.multipliers == (1, 1, 1, 1, 1)
    assert code.verify()


def test_th12_rejections():
    with pytest.raises(HypothesisViolated):
        th12_code(5, 6, 4, 4, 2, "tf")  # (r-1+ft)/s parity fails
    with pytest.raises(HypothesisViolated):
        th12_code(5, 5, 4, 2, 2, "tf")  # ef != q-1
    with pytest.raises(TooManyCosets):
        th12_code(5, 6, 4, 2, 4, "tf")  # only 3 distinct cosets
    with pytest.raises(HypothesisViolated):
        th12_code(5, 6, 4, 2, 2, "bogus")


def test_th13_family_over_gf25():
    code = th13_code(5, 8, 3, 3, 1)
    assert (code.length, code.k) == (4, 2)
    assert code.eval_set.extended
    assert code.eval_set.points == (1, 9, 17)
    assert code.eval_set.multipliers == (4, 8, 12)
    assert code.verify()
    code = th13_code(5, 8, 3, 3, 3)
    assert (code.length, code.k) == (10, 5)
    assert code.verify()


def test_th13_rejections():
    with pytest.raises(HypothesisViolated):
        th13_code(5, 8, 3, 3, 2)  # tf must be odd
    with pytest.raises(HypothesisViolated):
        th13_code(5, 6, 4, 2, 1)  # s must divide r+1
