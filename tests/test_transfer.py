"""The Lagrange products L that the lifts hand on.

Every lift hands its closed-form L to build_verified_code as l_values
without forming L on the lifted set.  The zero Gram is the one proof of
that closed form: on distinct points, sum_j w_j a_j^u = 0 for
u = 0..n-2 holds exactly for w proportional to 1/L.  These tests pin
that a closed form wrong at one point ends in VerificationFailed, that
the L handed on (and each coset stage's l_base) is the true one, and
that no lift build forms L on a point set as large as its final one
(large_q forms it once, in its multiplier solve).
"""

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grsdual import cosets, grs
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
from grsdual.errors import (
    BaseNotSelfDual,
    DuplicatePoints,
    HypothesisViolated,
    VerificationFailed,
)
from grsdual.field import DEFAULT_TABLE_LIMIT, factor_prime_power, make_field
from grsdual.grs import lagrange_products
from grsdual.search import FAMILIES, odd_prime_powers, th_large_q_code
from grsdual.cosets import coset_points
from grsdual.subspace import (
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
    assert saved
    for mod, key in saved:
        setattr(mod, key, replacement)
    try:
        yield
    finally:
        for mod, key in saved:
            setattr(mod, key, original)


def _wrong_at(fn, index, change):
    """fn with its returned L replaced by change(L[index]) at index."""
    def wrong(*args, **kwargs):
        pts, l = fn(*args, **kwargs)
        l = l.copy()
        l[index] = change(int(l[index]))
        return pts, l
    return wrong


def _times_g2(q):
    """x times g^2 in GF(q): another value of L with the same character,
    so the multiplier solve passes and only the Gram can catch it."""
    return lambda x: (x + 1) % (q - 1) + 1


def test_a_closed_form_wrong_at_one_point_fails_verification():
    """Without a recompute of L, the Gram catches a closed form wrong at
    one point: on the subspace lift's final set, at coset points the
    old 64-point probe skipped, and on th12's appended zero."""
    def gram_fails():
        return pytest.raises(VerificationFailed, match="check_self_dual")
    wrong = _wrong_at(subspace_lift, 100, _times_g2(2197))
    with everywhere(subspace_lift, wrong), gram_fails():
        th4_code(13, 3, 1, 12)
    old_probe = set(np.linspace(0, 548, num=64, dtype=np.int64).tolist())
    for i in (min(set(range(549)) - old_probe), 547):
        assert i not in old_probe
        union = _wrong_at(cosets._coset_union, i, _times_g2(2197))
        with everywhere(cosets._coset_union, union), gram_fails():
            th10_code(13, 1, 3, 0, 3)

    products_at = grs.products_at

    def wrong_zero(field, points, indices):
        return _times_g2(field.q)(products_at(field, points, indices))
    with everywhere(products_at, wrong_zero), gram_fails():
        th12_code(5, 6, 4, 2, 1, "tf+2")


def test_a_flipped_character_in_a_tower_stage_is_a_bug():
    """A subspace-stage L with one character flipped fails the coset
    stage's base criterion; in a tower, whose hypotheses all precede
    the stages, that is VerificationFailed, not a hypothesis miss that
    catalog would skip."""
    f = make_field(13, 3)
    flip = _wrong_at(subspace_lift, 1, lambda x: f.mul(x, 2))  # 2 = theta
    assert f.sign(2) == -1
    with everywhere(subspace_lift, flip):
        with pytest.raises(VerificationFailed) as err:
            th8_code(13, 1, 3, 0, 4)
    assert isinstance(err.value.__cause__, BaseNotSelfDual)


def test_transfer_check_rejects_a_repeated_base_with_held_products():
    """A caller-held l_base skips L on the base, so the coset lift checks
    its coset coordinates for repeats itself."""
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
    """No lift build forms L on a point set as large as its final one;
    large_q, with no closed form, forms it once in its solve."""
    for build in BUILDS:
        calls, counting = _count_products()
        with everywhere(lagrange_products, counting):
            code = build()
        n = len(code.eval_set.points)
        if code.provenance["theorem"] == "large_q":
            assert calls == [n]
        else:
            assert all(c < n for c in calls), (code.provenance, calls)


# Point counts of every L a build forms, in order: only the base's, once,
# by the subspace lift, handed on to every coset stage.
STAGE_SIZES = (
    (lambda: th4_code(13, 3, 1, 12), [13]),
    (lambda: th3_code(13, 2, 1, 2), [3]),
    (lambda: th10_code(13, 1, 3, 0, 3), [3]),
    (lambda: th8_code(13, 1, 3, 0, 4), [4]),
    (lambda: th9_code(13, 1, 3, 0, 3), [4]),
)


def test_no_stage_re_forms_held_products():
    for build, sizes in STAGE_SIZES:
        calls, counting = _count_products()
        with everywhere(lagrange_products, counting):
            build()
        assert calls == sizes


def test_th12_appended_zero_reuses_the_union_products():
    """L on S + {0} is x L_S(x) on S, from the union's closed form, plus
    one products_at row, so L is formed on neither S nor S + {0}: only
    on the t coset representatives."""
    calls, counting = _count_products()
    with everywhere(lagrange_products, counting):
        code = th12_code(5, 6, 4, 2, 1, "tf+2")
    assert code.eval_set.points[-1] == 0
    assert calls == [1]


GRID = [(q, fid, params)
        for q in odd_prime_powers(125)
        for fid, fam in FAMILIES.items()
        for _, params in fam.grid(*factor_prime_power(q), min(40, q + 1))]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(GRID))
# the construct_large pool's lift builds, up to 732 points
@example((2197, "th8", {"r": 13, "s": 1, "m": 3, "e": 0, "t": 4}))
@example((2197, "th10", {"r": 13, "s": 1, "m": 3, "e": 0, "t": 3}))
@example((1331, "th4", {"r": 11, "m": 3, "e": 2, "t": 2}))
@example((343, "th4", {"r": 7, "m": 3, "e": 2, "t": 6}))
def test_handed_on_products_are_the_true_ones(point):
    """Over the registry's grid points for q <= 125 and the pool builds,
    every l_values that reaches build_verified_code is L of its points,
    and so is every l_base a coset stage is handed."""
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

    def stage(spec, base, extended=False, l_base=None):
        if l_base is not None:
            want = lagrange_products(spec.field, base)
            assert np.array_equal(np.asarray(l_base), want)
        return coset_points(spec, base, extended, l_base)

    with everywhere(build, checking), everywhere(coset_points, stage):
        try:
            FAMILIES[fid].build(params, DEFAULT_TABLE_LIMIT)
        except HypothesisViolated:
            return
    assert fid == "large_q" or len(seen) == 1
