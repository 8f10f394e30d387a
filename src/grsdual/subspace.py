"""Code constructions built on additive subspace lifts.

The engine is one identity.  Take base points b_1..b_T inside a
subfield GF(r), a GF(r)-linear subspace V of dimension e (inside any
intermediate subfield containing it), and a shift zeta outside V.  The
lifted point set W = { b_i * zeta + v : v in V } has T * r^e distinct
points, and its Lagrange products factor through the base:

    L_W(b_i zeta + v) = c * L_b(b_i),
    c = (prod of nonzero V) * (prod_{v in V} (zeta + v))^(T-1).

So the quadratic character of L is constant on W iff it is constant on
b (multiply by lam = c), and the extended criterion transfers up to the
sign chi(prod of nonzero V) = chi(-1)^((r^e - 1)/2), which is +1 when
q = 1 (mod 4) or e is even.  subspace_lift is the one lift: it checks
its preconditions once (r a subfield, b inside GF(r), zeta outside V;
for the extended lift an odd b that meets the extended criterion and a
+1 sign), checks the identity on every lifted point, and hands the
checked L on to the multiplier solve.  The multiplier criterion on W is
left to build_verified_code, which solves it anyway.

On top of that engine, four construction families (wire ids th1..th4;
see the README catalog for their parameter shapes):

  th1: even length 2 t r^e from roots of unity in GF(r);
  th2: length (t+1) p^e from the run 0..t in GF(p), t odd;
  th3: length (t+1) p^e + 1, extended, t even;
  th4: length (t+1) r^e + 1, extended, from 0 and the t-th roots.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BaseNotSelfDual,
    BasePointsNotInSubfield,
    HypothesisViolated,
    ParityCondition,
    ShiftInSubspace,
    VerificationFailed,
    _require,
)
from .field import DEFAULT_TABLE_LIMIT, extension_field, make_field, span_enc
from .grs import (
    build_verified_code,
    check_transfer,
    lagrange_products,
    solve_extended_multipliers,
)


def subspace_basis(field, r, e, container_order=None):
    """First e of the greedy GF(r)-basis of the container subfield.

    The basis is read off the powers 1, g, g^2, ... of the container's
    canonical generator, keeping each power that is independent of the
    ones already kept.  Deterministic by construction.
    """
    if container_order is None:
        container_order = field.q
    if e == 0:
        return np.zeros(0, dtype=np.int64)
    # theta^stride generates the container's multiplicative group; for
    # the full field the stride is 1 and this is theta itself.
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


def default_subspace(field, r, e, container_order=None):
    """Span of the first e canonical basis elements, in span order."""
    return span_enc(field, r, subspace_basis(field, r, e, container_order))


def default_shift(field, subspace, container_order=None):
    """Smallest encoding outside the subspace.

    With a container order, smallest encoding among the container
    subfield's elements outside the subspace, so lifted points stay in
    the container.
    """
    taken = set(int(x) for x in subspace)
    if container_order is None or container_order == field.q:
        pool = range(field.q)
    else:
        pool = field.subfield_enc(container_order).tolist()
    for cand in pool:
        if cand not in taken:
            return int(cand)
    raise ShiftInSubspace("subspace covers the whole container")


def subspace_lift(field, r, base_points, subspace, shift=None,
                  extended=False, l_base=None):
    """Lift base points in GF(r) along the cosets b_i * shift + V.

    shift defaults to the smallest encoding outside V.  With extended
    set, the base must be odd-sized and meet the extended criterion,
    and chi(prod of nonzero V) must be +1 (q = 1 (mod 4) or even
    dimension), so the lifted set meets it too.  l_base, when given, is
    L_b as the caller already holds it.  Returns (points, l): the
    lifted points row-major and L on them, after checking the transfer
    identity L_W(b_i zeta + v) = c * L_b(b_i) on every point.
    """
    f = field
    base = np.asarray(base_points, dtype=np.int64)
    sub = np.asarray(subspace, dtype=np.int64)
    stride = f.subfield_stride(r)  # validates r as well
    outside = base[(base != 0) & ((base - 1) % stride != 0)]
    if outside.size:
        raise BasePointsNotInSubfield(
            f"base point {outside[0]} is not in GF({r})")
    if shift is None:
        shift = default_shift(f, sub)
    elif np.any(sub == shift):
        raise ShiftInSubspace("shift must lie outside the subspace")
    if extended and base.size % 2 == 0:
        raise HypothesisViolated("extended lift needs an odd base size")
    if l_base is None:
        l_base = lagrange_products(f, base)
    nz = sub[sub != 0]
    v_prod = 1 if nz.size == 0 else int(f.vprod(nz))
    if extended:
        if solve_extended_multipliers(f, base, l_base) is None:
            raise BaseNotSelfDual(
                "base fails the extended multiplier criterion")
        if f.sign(v_prod) != 1:
            raise ParityCondition(
                "need q = 1 (mod 4) or even subspace dimension")
    # c = prod(V setminus 0) * prod(shift + V)^(T-1)
    c = f.mul(v_prod,
              f.power(int(f.vprod(f.vadd(shift, sub))), base.size - 1))
    pts = f.vadd(f.vmul(base, shift)[:, None], sub[None, :]).ravel()
    expect = f.vmul(c, np.repeat(l_base, sub.size))
    if not check_transfer(f, pts, expect):
        raise VerificationFailed("subspace lift transfer identity failed")
    return pts, expect


# ----------------------------------------------------------------------
# base point menus, each inside an arbitrary container subfield

def roots_of_unity(field, order):
    """beta, beta^2, ..., beta^order for beta = theta^((q-1)/order)."""
    _require((field.q - 1) % order == 0, f"{order} does not divide q-1")
    step = (field.q - 1) // order
    ks = (np.arange(1, order + 1, dtype=np.int64) * step) % (field.q - 1)
    return ks + 1


def th1_base(field, sub_order, t):
    """2t root-of-unity points inside GF(sub_order), split by t's parity.

    t odd: the full group of 2t-th roots.  t even: the t-th roots and a
    square-scaled copy of them.  Either way 2t points whose Lagrange
    character is constant (the construction above each asserts it).
    """
    _require((sub_order - 1) % (2 * t) == 0, "2t must divide r-1")
    if t % 2 == 1:
        # q = 1 (mod 4) and 2t = 2 (mod 4) force (q-1)/2t even, so the
        # generating root is a square.
        assert ((field.q - 1) // (2 * t)) % 2 == 0
        base = roots_of_unity(field, 2 * t)
    else:
        base = _scaled_root_pair(field, sub_order, t)
    stride = field.subfield_stride(sub_order)
    assert all(x == 0 or (x - 1) % stride == 0 for x in base.tolist())
    return base


def _scaled_root_pair(field, sub_order, t):
    """beta..beta^t and zeta*beta..zeta*beta^t for even t.

    zeta is the smallest-encoding nonzero square of GF(sub_order)
    outside the group generated by beta, so both cosets are disjoint
    and the character stays constant across them.
    """
    beta_exp = (field.q - 1) // t
    roots = roots_of_unity(field, t)
    root_set = set(roots.tolist())
    stride = field.subfield_stride(sub_order)
    zeta = None
    for j in range(0, sub_order - 1, 2):  # even powers of the generator
        cand = j * stride + 1
        if cand not in root_set:
            zeta = cand
            break
    _require(zeta is not None, "no square outside the root group")
    assert field.sign(zeta) == 1 and beta_exp % 2 == 0
    return np.concatenate([roots, field.vmul(zeta, roots)])


def integer_run(field, t):
    """0, 1, ..., t as field elements."""
    return np.array([field.from_int(i) for i in range(t + 1)], dtype=np.int64)


def zero_and_roots(field, t):
    """0 together with the t-th roots of unity."""
    return np.concatenate([np.zeros(1, dtype=np.int64),
                           roots_of_unity(field, t)])


# ----------------------------------------------------------------------
# the four construction families

def th1_code(r, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[2 t r^e, t r^e] self-dual over GF(r^m), q = 1 (mod 4)."""
    f = extension_field(r, m, table_limit)
    _require(f.q % 4 == 1, "q = 1 (mod 4) fails")
    _require(0 <= e <= m - 1, "e must satisfy 0 <= e <= m-1")
    half = (r - 1) // 2
    _require(t >= 1 and half % t == 0, "t must divide (r-1)/2")
    _require(t != half, "t = (r-1)/2 is excluded")
    base = th1_base(f, r, t)
    pts, l = subspace_lift(f, r, base, default_subspace(f, r, e))
    prov = {"theorem": "th1", "r": r, "m": m, "e": e, "t": t}
    return build_verified_code(f, pts, False, prov, l)


def _integer_run_code(p, m, e, t, table_limit, extended):
    """th2 (t odd) or th3 (t even, extended) on the run 0..t in GF(p)."""
    f = make_field(p, m, table_limit)
    _require(f.q % 4 == 1, "q = 1 (mod 4) fails")
    parity = "even" if extended else "odd"
    _require(t % 2 == (0 if extended else 1) and 2 <= t <= p - 1,
             f"t must be {parity} with 2 <= t <= p-1")
    _require(0 <= e <= m - 1, "e must satisfy 0 <= e <= m-1")
    for i in range(1, t // 2 + 1):
        val = f.from_int(i * (t + 1 - i))
        if f.sign(val) != 1:
            raise HypothesisViolated(
                f"chi({i * (t + 1 - i)}) = -1 at i = {i} "
                f"fails the square condition")
    base = integer_run(f, t)
    pts, l = subspace_lift(f, p, base, default_subspace(f, p, e),
                           extended=extended)
    prov = {"theorem": "th3" if extended else "th2",
            "p": p, "m": m, "e": e, "t": t}
    return build_verified_code(f, pts, extended, prov, l)


def th2_code(p, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[(t+1) p^e, .] self-dual over GF(p^m) from the run 0..t, t odd."""
    return _integer_run_code(p, m, e, t, table_limit, False)


def th3_code(p, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[(t+1) p^e + 1, .] extended self-dual, t even, q = 1 (mod 4)."""
    return _integer_run_code(p, m, e, t, table_limit, True)


def th4_code(r, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[(t+1) r^e + 1, .] extended self-dual from 0 and the t-th roots."""
    f = extension_field(r, m, table_limit)
    _require(t % 2 == 0 and t >= 2 and (r - 1) % t == 0,
             "t must be even and divide r-1")
    _require(0 <= e <= m - 1, "e must satisfy 0 <= e <= m-1")
    t_val = f.from_int(t)
    branch1 = f.sign(t_val) == 1 and f.q % 4 == 1
    branch2 = f.sign(f.neg(t_val)) == 1 and e % 2 == 0
    _require(branch1 or branch2,
             "need chi(t) = chi(-1) = 1, or chi(-t) = 1 with e even")
    base = zero_and_roots(f, t)
    l_base = _check_zero_roots_products(f, base, t)
    pts, l = subspace_lift(f, r, base, default_subspace(f, r, e),
                           extended=True, l_base=l_base)
    prov = {"theorem": "th4", "r": r, "m": m, "e": e, "t": t}
    return build_verified_code(f, pts, True, prov, l)


def _check_zero_roots_products(field, base, t):
    """L on {0} + t-th roots, checked to be t at each root and -1 at
    zero."""
    l = lagrange_products(field, base)
    t_enc = field.from_int(t)
    if int(l[0]) != field.neg(1) or not np.all(l[1:] == t_enc):
        raise VerificationFailed("closed form for L on 0 + roots failed")
    return l
