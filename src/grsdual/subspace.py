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
q = 1 (mod 4) or e is even.  subspace_lift is the one lift: it builds
V and zeta itself (the first e + 1 basis powers), checks its
preconditions once (r a subfield, b distinct and inside GF(r); for the
extended lift an odd b that meets the extended criterion and a +1
sign), and hands the closed-form L on to the multiplier solve.  It does
not recompute L on W: build_verified_code solves the criterion on W and
proves the Gram zero, which holds only if the closed form is L up to
one scalar.

On top of that engine, four construction families (wire ids th1..th4;
see the README catalog for their parameter shapes):

  th1: even length 2 t r^e from roots of unity in GF(r);
  th2: length (t+1) p^e from the run 0..t in GF(p), t odd;
  th3: length (t+1) p^e + 1, extended, t even;
  th4: length (t+1) r^e + 1, extended, from 0 and the t-th roots.

th1_admits, integer_run_admits (th2, th3) and th4_admits hold their
hypotheses, build nothing, and run first in the builders.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BaseNotSelfDual,
    BasePointsNotInSubfield,
    DuplicatePoints,
    HypothesisViolated,
    ParityCondition,
    ShiftInSubspace,
    _require,
)
from .field import DEFAULT_TABLE_LIMIT, extension_field, make_field, span_enc
from .grs import _criterion, build_verified_code, lagrange_products


def subspace_basis(field, r, e, container_order=None):
    """The powers 1, g, ..., g^(e-1) of the container's canonical
    generator g.

    Over GF(r) = GF(p^d_r), a generator g of the container GF(p^d_c)
    has degree c = lcm(d_r, d_c)/d_r (Lidl-Niederreiter, ch. 2): the
    least c with g^(r^c) = g.  So its first c powers are GF(r)-
    independent, and e > c is refused.
    """
    if container_order is None:
        container_order = field.q
    # theta^stride generates the container's multiplicative group; for
    # the full field the stride is 1 and this is theta itself.
    stride = field.subfield_stride(container_order)
    field.subfield_stride(r)  # validates r as well
    c = next(c for c in range(1, field.m + 1)
             if (r ** c - 1) % (container_order - 1) == 0)
    if e > c:
        raise HypothesisViolated(
            f"subspace dimension {e} exceeds the container over GF({r})")
    return np.arange(e, dtype=np.int64) * stride % (field.q - 1) + 1


def subspace_lift(field, r, base_points, e, container_order=None,
                  extended=False):
    """Lift base points in GF(r) along the cosets b_i * zeta + V.

    V is span_enc(field, r, subspace_basis(field, r, e,
    container_order)), spanned by g^0..g^(e-1), and zeta = g^e lies
    outside it while e < c (see subspace_basis); at e = c, V holds the
    container.  With extended set, the base must be odd-sized and meet
    the extended criterion, and chi(prod of nonzero V) must be +1
    (q = 1 (mod 4) or even e), so the lifted set meets it too.  Returns
    (points, l): the lifted points row-major and the closed form
    c * L_b(b_i) of L on them.
    """
    f = field
    base = np.asarray(base_points, dtype=np.int64)
    stride = f.subfield_stride(r)  # validates r as well
    outside = base[(base != 0) & ((base - 1) % stride != 0)]
    if outside.size:
        raise BasePointsNotInSubfield(
            f"base point {outside[0]} is not in GF({r})")
    if len(set(base.tolist())) != base.size:
        raise DuplicatePoints("base points are not distinct")
    if extended and base.size % 2 == 0:
        raise HypothesisViolated("extended lift needs an odd base size")
    try:  # V spans the first e powers, zeta is the last
        basis = subspace_basis(f, r, e + 1, container_order)
    except HypothesisViolated:
        subspace_basis(f, r, e, container_order)  # e > c: V itself fails
        raise ShiftInSubspace("subspace covers the whole container") from None
    sub = span_enc(f, r, basis[:e])
    l_base = lagrange_products(f, base)
    v_prod = int(f.vprod(sub[sub != 0]))  # 1 for the empty product
    if extended:
        if _criterion(f, l_base, True) is None:
            raise BaseNotSelfDual(
                "base fails the extended multiplier criterion")
        if f.sign(v_prod) != 1:
            raise ParityCondition(
                "need q = 1 (mod 4) or even subspace dimension")
    # zeta + V, then each b_i zeta + V; c = prod(V - 0) prod(zeta + V)^(T-1)
    cosets = f.vadd(f.vmul(np.append(1, base), basis[e])[:, None], sub[None])
    c = f.mul(v_prod, f.power(int(f.vprod(cosets[0])), base.size - 1))
    return cosets[1:].ravel(), f.vmul(c, np.repeat(l_base, sub.size))


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

def th1_admits(a, f):
    """th1's hypotheses on a = {r, m, e, t} over f = GF(r^m)."""
    r, m, e, t = a["r"], a["m"], a["e"], a["t"]
    _require(f.q % 4 == 1, "q = 1 (mod 4) fails")
    _require(0 <= e <= m - 1, "e must satisfy 0 <= e <= m-1")
    half = (r - 1) // 2
    _require(t >= 1 and half % t == 0, "t must divide (r-1)/2")
    _require(t != half, "t = (r-1)/2 is excluded")
    return {"theorem": "th1", "r": r, "m": m, "e": e, "t": t}


def th1_code(r, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[2 t r^e, t r^e] self-dual over GF(r^m), q = 1 (mod 4)."""
    f = extension_field(r, m, table_limit)
    prov = th1_admits({"r": r, "m": m, "e": e, "t": t}, f)
    pts, l = subspace_lift(f, r, th1_base(f, r, t), e)
    return build_verified_code(f, pts, False, prov, l)


def integer_run_admits(a, f, extended=False):
    """th2's (th3's if extended) hypotheses on a = {p, m, e, t}."""
    p, m, e, t = a["p"], a["m"], a["e"], a["t"]
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
    return {"theorem": "th3" if extended else "th2",
            "p": p, "m": m, "e": e, "t": t}


def _integer_run_code(p, m, e, t, table_limit, extended):
    """th2 (t odd) or th3 (t even, extended) on the run 0..t in GF(p)."""
    f = make_field(p, m, table_limit)
    prov = integer_run_admits({"p": p, "m": m, "e": e, "t": t}, f, extended)
    pts, l = subspace_lift(f, p, integer_run(f, t), e, extended=extended)
    return build_verified_code(f, pts, extended, prov, l)


def th2_code(p, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[(t+1) p^e, .] self-dual over GF(p^m) from the run 0..t, t odd."""
    return _integer_run_code(p, m, e, t, table_limit, False)


def th3_code(p, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[(t+1) p^e + 1, .] extended self-dual, t even, q = 1 (mod 4)."""
    return _integer_run_code(p, m, e, t, table_limit, True)


def th4_admits(a, f):
    """th4's hypotheses on a = {r, m, e, t} over f = GF(r^m)."""
    r, m, e, t = a["r"], a["m"], a["e"], a["t"]
    _require(t % 2 == 0 and t >= 2 and (r - 1) % t == 0,
             "t must be even and divide r-1")
    _require(0 <= e <= m - 1, "e must satisfy 0 <= e <= m-1")
    _check_zero_roots_character(f, e, t)
    return {"theorem": "th4", "r": r, "m": m, "e": e, "t": t}


def th4_code(r, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[(t+1) r^e + 1, .] extended self-dual from 0 and the t-th roots."""
    f = extension_field(r, m, table_limit)
    prov = th4_admits({"r": r, "m": m, "e": e, "t": t}, f)
    pts, l = subspace_lift(f, r, zero_and_roots(f, t), e, extended=True)
    return build_verified_code(f, pts, True, prov, l)


def _check_zero_roots_character(field, e, t):
    """The character hypothesis of the extended lift of 0 + t-th roots
    (th4, th11) along a dim-e subspace."""
    t_val = field.from_int(t)
    branch1 = field.sign(t_val) == 1 and field.q % 4 == 1
    branch2 = field.sign(field.neg(t_val)) == 1 and e % 2 == 0
    _require(branch1 or branch2,
             "need chi(t) = chi(-1) = 1, or chi(-t) = 1 with e even")
