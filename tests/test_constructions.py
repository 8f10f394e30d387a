"""Subspace-shift construction families th1 through th4.

Small cases over GF(13) are frozen from hand computation; larger runs
are checked structurally (length, self-duality, expected hypothesis
rejections) plus the lift transfer identity on random inputs.
"""

import random
import re

import numpy as np
import pytest

from grsdual import make_field
from grsdual.field import span_enc
from grsdual.errors import (
    BaseNotSelfDual,
    BasePointsNotInSubfield,
    DuplicatePoints,
    HypothesisViolated,
    ParityCondition,
    ShiftInSubspace,
    VerificationFailed,
)
from grsdual.grs import (
    lagrange_products,
    solve_extended_multipliers,
    solve_multipliers,
)
from grsdual.subspace import (
    integer_run,
    roots_of_unity,
    subspace_basis,
    subspace_lift,
    th1_base,
    th1_code,
    th2_code,
    th3_code,
    th4_code,
    zero_and_roots,
)

F13 = make_field(13)


def test_roots_of_unity():
    got = roots_of_unity(F13, 4)
    # theta^3 = 8 generates the 4-element subgroup {8, 12, 5, 1}
    assert list(got) == [F13.from_int(v) for v in (8, 12, 5, 1)]
    for x in got:
        assert F13.power(int(x), 4) == 1
    with pytest.raises(HypothesisViolated):
        roots_of_unity(F13, 5)


def test_integer_run_and_zero_and_roots():
    assert list(integer_run(F13, 3)) == [F13.from_int(v) for v in (0, 1, 2, 3)]
    zr = zero_and_roots(F13, 3)
    assert zr[0] == 0 and len(zr) == 4
    for x in zr[1:]:
        assert F13.power(int(x), 3) == 1


def test_th1_small_prime_case():
    code = th1_code(13, 1, 0, 3)
    assert (code.length, code.k) == (6, 3)
    assert code.eval_set.points.tolist() == [3, 5, 7, 9, 11, 1]
    assert code.eval_set.multipliers.tolist() == [5, 6, 1, 2, 3, 4]
    assert code.verify()
    assert code.provenance["theorem"] == "th1"


def test_th1_even_t_case():
    code = th1_code(13, 1, 0, 2)
    assert (code.length, code.k) == (4, 2)
    assert code.verify()


def test_th1_rejects_half_group():
    # t = (r-1)/2 makes lam L land outside both character classes
    with pytest.raises(HypothesisViolated):
        th1_code(13, 1, 0, 6)


def test_th1_rejects_bad_divisor_and_field():
    with pytest.raises(HypothesisViolated):
        th1_code(13, 1, 0, 5)  # 2t does not divide r-1
    with pytest.raises(HypothesisViolated):
        th1_code(7, 1, 0, 3)  # q = 3 (mod 4)


def test_th1_lifted_case():
    code = th1_code(9, 2, 1, 2)
    assert (code.length, code.k) == (36, 18)
    assert code.field.name == "GF(3^4)"
    assert code.verify()


def test_th1_base_menu():
    f81 = make_field(3, 4)
    for t in (1, 2):  # divisors of (9-1)/2 below the half group
        base = th1_base(f81, 9, t)
        assert base.size == 2 * t
        assert len(set(base.tolist())) == 2 * t
        sgn = f81.vsign(lagrange_products(f81, base))
        assert len(set(sgn.tolist())) == 1


def test_th2_small_case():
    code = th2_code(13, 1, 0, 3)
    assert (code.length, code.k) == (4, 2)
    assert code.eval_set.points.tolist() == [F13.from_int(v)
                                          for v in (0, 1, 2, 3)]
    assert code.verify()


def test_th2_rejects_nonsquare_product():
    with pytest.raises(HypothesisViolated) as info:
        th2_code(5, 1, 0, 3)
    assert "chi(3)" in str(info.value)


def test_th2_rejects_even_t_and_bad_modulus():
    with pytest.raises(HypothesisViolated):
        th2_code(13, 1, 0, 2)  # t must be odd
    with pytest.raises(HypothesisViolated):
        th2_code(7, 1, 0, 3)  # q = 3 (mod 4)


def test_th2_lifted_case():
    code = th2_code(13, 2, 1, 3)
    assert (code.length, code.k) == (52, 26)
    assert code.verify()


def test_th2_character_symmetry():
    """chi(L(i)) = chi(L(t-i)) on integer runs: the i(t+1-i) products
    pair up, so hypothesis checks only need half the range."""
    for p in (13, 17, 29):
        f = make_field(p)
        for t in range(3, 10, 2):
            if t + 1 >= p:
                continue
            pts = integer_run(f, t)
            sgn = f.vsign(lagrange_products(f, pts))
            assert list(sgn) == list(sgn[::-1])


def test_th3_small_case():
    code = th3_code(13, 2, 0, 2)
    assert (code.length, code.k) == (4, 2)
    assert code.eval_set.extended
    assert code.verify()


def test_th3_rejections():
    with pytest.raises(HypothesisViolated):
        th3_code(13, 1, 0, 2)  # chi(2) = -1 over GF(13)
    with pytest.raises(HypothesisViolated):
        th3_code(13, 1, 0, 3)  # t must be even


def test_th3_lifted_case():
    code = th3_code(13, 2, 1, 2)
    assert (code.length, code.k) == (40, 20)
    assert code.eval_set.extended
    assert code.verify()


def test_th4_small_case():
    code = th4_code(13, 1, 0, 4)
    assert (code.length, code.k) == (6, 3)
    assert code.eval_set.extended
    assert code.eval_set.points.tolist() == [0, 4, 7, 10, 1]
    assert code.eval_set.multipliers.tolist() == [1, 3, 3, 3, 3]
    assert code.verify()


def test_th4_rejections():
    with pytest.raises(HypothesisViolated):
        th4_code(5, 1, 0, 2)  # neither character branch applies
    with pytest.raises(HypothesisViolated):
        th4_code(13, 1, 0, 3)  # t must be even
    with pytest.raises(HypothesisViolated):
        th4_code(3, 3, 1, 2)  # chi(-1) = -1 and e odd: no branch applies


def test_th4_closed_form_sweep():
    # every (r, t) with t | r-1, t even, and a valid character branch
    for r in (5, 13, 17, 29):
        f = make_field(r)
        for t in range(2, r - 1, 2):
            if (r - 1) % t:
                continue
            branch1 = f.sign(f.from_int(t)) == 1 and f.sign(f.neg(1)) == 1
            branch2 = f.sign(f.neg(f.from_int(t))) == 1  # e = 0 is even
            if branch1 or branch2:
                code = th4_code(r, 1, 0, t)
                assert (code.length, code.k) == (t + 2, (t + 2) // 2)
            else:
                with pytest.raises(HypothesisViolated):
                    th4_code(r, 1, 0, t)


def test_subspace_basis_spans_a_subspace():
    f = make_field(3, 4)
    basis = subspace_basis(f, 3, 2)
    assert len(basis) == 2
    sub = span_enc(f, 3, basis)
    assert len(sub) == 9
    assert len(set(int(x) for x in sub)) == 9
    sset = set(int(x) for x in sub)
    for a in sset:
        for b in sset:
            assert f.add(a, b) in sset


def greedy_subspace_basis(field, r, e, container_order=None):
    """Reference: keep each power 1, g, g^2, ... of the container's
    generator g that lies outside the GF(r)-span of those kept, until e
    are kept; refuse e once the powers come back round to 1."""
    if container_order is None:
        container_order = field.q
    if e == 0:
        return np.zeros(0, dtype=np.int64)
    gen = field.subfield_stride(container_order) + 1
    basis = []
    seen = {0}
    power = 1  # g^0
    while len(basis) < e:
        if power not in seen:
            basis.append(power)
            seen = set(span_enc(field, r, basis).tolist())
        power = field.mul(power, gen)
        if len(basis) < e and power == 1:
            raise HypothesisViolated(
                f"subspace dimension {e} exceeds the container over GF({r})")
    return np.array(basis, dtype=np.int64)


def test_subspace_basis_matches_the_greedy_basis():
    """The closed-form basis equals the greedy one for every field up to
    GF(3^9) below, every subfield r and container (GF(r) inside the
    container or not) and every e up to c + 1, refusal included."""
    cases = 0
    for p, top in ((3, 9), (5, 4), (7, 3), (11, 2), (13, 2)):
        for m in range(1, top + 1):
            f = make_field(p, m)
            subs = [p ** d for d in range(1, m + 1) if m % d == 0]
            for r in subs:
                for w in subs:
                    for e in range(m + 2):
                        try:
                            want = greedy_subspace_basis(f, r, e, w)
                        except HypothesisViolated as exc:
                            with pytest.raises(HypothesisViolated,
                                               match=re.escape(str(exc))):
                                subspace_basis(f, r, e, w)
                            cases += 1
                            break
                        got = subspace_basis(f, r, e, w)
                        assert got.tolist() == want.tolist(), (f, r, w, e)
                        cases += 1
    assert cases > 300


def scan_shift(field, subspace, container_order):
    """Reference: the smallest container encoding outside the subspace,
    by a scan of the container in subfield_enc order."""
    taken = set(subspace.tolist())
    for cand in field.subfield_enc(container_order).tolist():
        if cand not in taken:
            return cand
    raise ShiftInSubspace("subspace covers the whole container")


def test_lift_shift_is_the_scanned_shift():
    """subspace_lift's zeta = g^e equals the first container element
    outside V for every field up to GF(3^8) below, every subfield r and
    container and every e up to the scan's refusal at e = c, which the
    lift repeats; at e = c + 1 both keep subspace_basis's message."""
    equal = refused = 0
    for p, top in ((3, 8), (5, 4), (7, 3), (11, 2), (13, 2)):
        for m in range(1, top + 1):
            f = make_field(p, m)
            subs = [p ** d for d in range(1, m + 1) if m % d == 0]
            for r in subs:
                for w in subs:
                    for e in range(m + 2):
                        try:
                            want = scan_shift(f, span_enc(
                                f, r, subspace_basis(f, r, e, w)), w)
                        except ShiftInSubspace as exc:
                            refused += 1
                            with pytest.raises(ShiftInSubspace,
                                               match=re.escape(str(exc))):
                                subspace_lift(f, r, (0, 1), e, w)
                            # past c, subspace_basis's own refusal
                            with pytest.raises(HypothesisViolated) as over:
                                subspace_basis(f, r, e + 1, w)
                            with pytest.raises(HypothesisViolated,
                                               match=re.escape(
                                                   str(over.value))):
                                subspace_lift(f, r, (0, 1), e + 1, w)
                            break
                        # the base point 1 lifts to zeta + V, V from 0
                        pts, _ = subspace_lift(f, r, (0, 1), e, w)
                        assert pts[r ** e] == want, (f, r, w, e)
                        equal += 1
    assert (equal, refused) == (156, 95)


def test_subspace_lift_transfer_identity():
    """L on the lifted set factors through L on the base, checked
    against direct recomputation for random bases."""
    f = make_field(5, 3)
    rng = random.Random(0xBA5E)
    stride = f.subfield_stride(5)
    subfield = [0] + [1 + stride * i for i in range(4)]
    for _ in range(10):
        base = tuple(rng.sample(subfield, 4))
        pts, l = subspace_lift(f, 5, base, 1)
        assert pts.size == 20
        direct = lagrange_products(f, pts)
        assert np.array_equal(l, direct)
        base_l = lagrange_products(f, np.array(base, dtype=np.int64))
        ratio = f.vmul(direct, f.vinv(np.repeat(base_l, 5)))
        assert len(set(ratio.tolist())) == 1  # constant transfer scalar


def test_subspace_lift_rejects_bad_input():
    f = make_field(5, 3)
    with pytest.raises(BasePointsNotInSubfield):
        subspace_lift(f, 5, (0, 2), 1)
    with pytest.raises(DuplicatePoints):
        subspace_lift(f, 5, (0, 1, 0), 1)
    # V = GF(5^3) leaves no shift outside it
    with pytest.raises(ShiftInSubspace):
        subspace_lift(f, 5, (0, 1), 3)


def test_subspace_lift_degenerate_is_identity():
    # e = 0 lifts along the zero subspace: points unchanged
    f = make_field(13, 2)
    base = [f.from_int(v) for v in (0, 1, 2, 3)]
    pts, l = subspace_lift(f, 13, base, 0)
    assert pts.tolist() == base
    assert np.array_equal(l, lagrange_products(f, base))


def test_subspace_lift_extended_small():
    f = make_field(13, 2)
    base = zero_and_roots(f, 2)
    pts, l = subspace_lift(f, 13, base, 1, extended=True)
    assert pts.size == 39
    assert np.array_equal(l, lagrange_products(f, pts))
    assert solve_extended_multipliers(f, pts, l) is not None


def test_subspace_lift_extended_rejections():
    f27 = make_field(3, 3)
    base = zero_and_roots(f27, 2)
    with pytest.raises(ParityCondition):
        subspace_lift(f27, 3, base, 1, extended=True)
    f = make_field(13, 2)
    with pytest.raises(HypothesisViolated):
        subspace_lift(f, 13, integer_run(f, 3), 1, extended=True)
    f3 = make_field(13, 3)
    with pytest.raises(BaseNotSelfDual):
        # 2 is a non-square in GF(13^3), so -L fails on 0,1,2
        subspace_lift(f3, 13, integer_run(f3, 2), 1, extended=True)


def test_extended_lift_parity_is_the_sign_of_the_subspace_product():
    """ParityCondition is raised exactly when chi(prod of nonzero V) =
    -1, over every subfield r and dimension e.  The base is all of
    GF(r), where -L = 1 meets the extended criterion."""
    for p, m in ((3, 3), (3, 4), (7, 3), (3, 5), (13, 2)):
        f = make_field(p, m)
        for d in range(1, m + 1):
            if m % d:
                continue
            r = p ** d
            base = f.subfield_enc(r)
            for e in range(m // d):
                sub = span_enc(f, r, subspace_basis(f, r, e))
                nz = sub[sub != 0]
                sign = f.sign(int(f.vprod(nz))) if nz.size else 1
                try:
                    pts, _ = subspace_lift(f, r, base, e, extended=True)
                except ParityCondition:
                    assert sign == -1, (f.q, r, e)
                else:
                    assert sign == 1 and pts.size == r ** (e + 1)
