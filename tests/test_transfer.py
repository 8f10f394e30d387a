"""The Lagrange products L that the lifts check and hand on.

Every lift checks its transfer identity on every lifted point and
passes the checked L to build_verified_code as l_values.  These tests
pin that L is checked everywhere (not on a sample), that the L handed
on is the true one, and that a builder forms L of a point set as large
as its final one exactly once (a tower forms it on a translate of the
final set when no coset stage follows the lift).
"""

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grsdual import grs
from grsdual.cosets import (
    CosetSpec,
    coset_lift,
    extended_coset_lift,
    iterated_lift,
    th8_code,
    th9_code,
    th10_code,
    th11_code,
    th12_code,
    th13_code,
)
from grsdual.errors import DuplicatePoints, HypothesisViolated
from grsdual.field import DEFAULT_TABLE_LIMIT, factor_prime_power, make_field
from grsdual.grs import check_transfer, lagrange_products
from grsdual.search import FAMILIES, odd_prime_powers, th_large_q_code
from grsdual.cosets import coset_points
from grsdual.subspace import (
    default_subspace,
    subspace_lift,
    th1_code,
    th2_code,
    th3_code,
    th4_code,
)


@contextlib.contextmanager
def everywhere(original, replacement):
    """Rebind every grsdual module attribute bound to original."""
    saved = [(mod, key) for name, mod in list(sys.modules.items())
             if name.split(".")[0] == "grsdual"
             for key, value in vars(mod).items() if value is original]
    assert (grs, original.__name__) in saved
    for mod, key in saved:
        setattr(mod, key, replacement)
    try:
        yield
    finally:
        for mod, key in saved:
            setattr(mod, key, original)


def test_check_transfer_compares_every_point():
    """549 points over GF(13^3): a wrong L at a point the old 64-point
    probe skipped must be caught."""
    code = th10_code(13, 1, 3, 0, 3)
    f, pts = code.field, np.array(code.eval_set.points, dtype=np.int64)
    assert (f.q, pts.size) == (2197, 549)
    expect = lagrange_products(f, pts)
    assert check_transfer(f, pts, expect)
    old_probe = set(np.linspace(0, pts.size - 1, num=64,
                                dtype=np.int64).tolist())
    for i in (min(set(range(pts.size)) - old_probe), pts.size - 2):
        assert i not in old_probe
        bad = expect.copy()
        bad[i] = bad[i] % (f.q - 1) + 1  # another nonzero value
        assert not check_transfer(f, pts, bad)


def test_transfer_check_rejects_a_repeated_base_with_held_products():
    """A caller-held l_base skips L on the base, so the lifts have no
    distinctness test of their own: the identity check on the lifted
    points is what raises."""
    f = make_field(13, 2)
    with pytest.raises(DuplicatePoints):
        subspace_lift(f, 13, [1, 1], default_subspace(f, 13, 1),
                      l_base=np.array([1, 1], dtype=np.int64))
    with pytest.raises(DuplicatePoints):
        coset_points(CosetSpec(make_field(13), 3), [1, 1],
                     l_base=np.array([1, 1], dtype=np.int64))


BUILDS = (
    lambda: th1_code(5, 2, 1, 1),
    lambda: th2_code(13, 2, 1, 3),
    lambda: th3_code(13, 2, 1, 2),
    lambda: th4_code(13, 3, 1, 12),
    lambda: th8_code(5, 1, 3, 0, 2),
    lambda: th9_code(7, 1, 3, 0, 3),
    lambda: th10_code(13, 1, 3, 0, 3),
    lambda: th11_code(9, 1, 3, 0, 2),
    lambda: th11_code(5, 2, 1, 1, 2),  # m = 1: no coset stage
    lambda: th12_code(5, 6, 4, 2, 2, "tf"),
    lambda: th13_code(5, 8, 3, 3, 1),
    lambda: iterated_lift(5, 1, [3, 1], 0, 2, "th8"),
    lambda: th_large_q_code(make_field(7, 2), 4),
    lambda: coset_lift(CosetSpec(make_field(13), 3), [1, 7]),
    lambda: extended_coset_lift(CosetSpec(make_field(13), 3), [1]),
)


def _count_products():
    """(calls, wrapper): calls lists the point count of each call."""
    calls = []

    def counting(field, points):
        calls.append(len(points))
        return lagrange_products(field, points)
    return calls, counting


def test_final_products_formed_once():
    for build in BUILDS:
        calls, counting = _count_products()
        with everywhere(lagrange_products, counting):
            code = build()
        assert calls.count(len(code.eval_set.points)) == 1, code.provenance


# Point counts of every L a build forms, in order.  The base's L is
# formed once (th4, th9: by the closed-form check on 0 + roots) and
# handed on; then each lift stage forms L once, in its identity check
# on every point (th10, th8: the lift with e = 0, then the coset union).
STAGE_SIZES = (
    (lambda: th4_code(13, 3, 1, 12), [13, 169]),
    (lambda: th3_code(13, 2, 1, 2), [3, 39]),
    (lambda: th10_code(13, 1, 3, 0, 3), [3, 3, 549]),
    (lambda: th8_code(13, 1, 3, 0, 4), [4, 4, 732]),
    (lambda: th9_code(13, 1, 3, 0, 3), [4, 4, 732]),
)


def test_no_stage_re_forms_held_products():
    for build, sizes in STAGE_SIZES:
        calls, counting = _count_products()
        with everywhere(lagrange_products, counting):
            build()
        assert calls == sizes


def test_th12_appended_zero_reuses_the_union_products():
    """L on S + {0} is x L_S(x) on S plus one products_at row, so L is
    formed once on S and never on S + {0}."""
    calls, counting = _count_products()
    with everywhere(lagrange_products, counting):
        code = th12_code(5, 6, 4, 2, 1, "tf+2")
    n = len(code.eval_set.points)
    assert code.eval_set.points[-1] == 0
    assert calls.count(n) == 0 and calls.count(n - 1) == 1


GRID = [(q, fid, params)
        for q in odd_prime_powers(125)
        for fid, fam in FAMILIES.items()
        for params in fam.grid(*factor_prime_power(q), min(40, q + 1))
        if 2 <= fam.length(params) <= min(40, q + 1)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(GRID))
def test_handed_on_products_are_the_true_ones(point):
    """Over the registry's grid points for q <= 125, every l_values that
    reaches build_verified_code is L of its points."""
    _, fid, params = point
    seen = []
    build = grs.build_verified_code

    def checking(field, points, extended, provenance, l_values=None,
                 **kwargs):
        if l_values is not None:
            want = lagrange_products(field, points)
            assert np.array_equal(np.asarray(l_values), want)
            seen.append(provenance)
        return build(field, points, extended, provenance, l_values,
                     **kwargs)

    with everywhere(build, checking):
        try:
            FAMILIES[fid].build(params, DEFAULT_TABLE_LIMIT)
        except HypothesisViolated:
            return
    assert fid == "large_q" or len(seen) == 1
