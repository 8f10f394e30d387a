"""Code constructions built on multiplicative coset lifts.

Where the additive engine replaces a point by an affine subspace, the
multiplicative engine replaces it by a coset of a subgroup.  Fix a
decomposition q - 1 = e1 * f1 and write g for a generator of the
multiplicative group, H1 = <g^e1> (order f1) and H2 = <g^f1> (order
e1).  Each base point a in H1 has a unique coordinate v(a) in
0..f1 - 1 with a = g^{v(a) e1}; the lifted set takes the whole coset
g^{v(a)} H2 for every base point.  Lagrange products factor exactly:

    L_S(g^{v(a) + f1 u}) = e1 * g^{v(a)(e1 - 1)} * g^{-f1 u} * L_a(a).

With e1 odd (so f1 is even and the stray powers of g are all squares)
the quadratic character of L transfers unchanged, plainly or in the
extended sense.  coset_points checks the hypotheses on e1 and the
base once, checks the identity on every lifted point (which also
rejects a base that repeats a coset, as repeated points), and hands
the checked L on to the multiplier solve.  th12/th13 take their unions
of cosets through the same identity, with the coset and quotient
orders swapped and the representatives given directly; the criterion
on the union is left to build_verified_code, which solves it anyway.

The same machinery works relative to a subfield: with the ambient
order replaced by a subfield order W, the decomposition e1 * f1 =
W - 1 and g the subfield's canonical generator.  Characters need no
translation because every tower step used here has odd index.

Families built on top (wire ids match the command line):

  th8/th9:   even length T * r^e * (1 + r^s + ... + r^{s(m-1)}) over
             GF(r^{sm}), m odd; T = t (t even) or t + 1 (t odd);
  th10/th11: the extended companions, length T * r^e * (...) + 1;
  cor1-cor4: the same four, iterated up an odd tower of subfields;
  th12:      lengths tf and tf + 2 over GF(r^2) from unions of t
             cosets of the order-f subgroup, scaled by powers of
             beta = theta^{(r-1)/s};
  th13:      length tf + 1 (extended, tf odd) with beta = theta^{(r+1)/s}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseNotSelfDual,
    CharacterCondition,
    E1NotOdd,
    HypothesisViolated,
    NotInSubgroup,
    TooManyCosets,
    VerificationFailed,
    _require,
)
from .field import DEFAULT_TABLE_LIMIT, extension_field
from .grs import (
    build_verified_code,
    check_transfer,
    check_verify_scale,
    lagrange_products,
    products_at,
    solve_extended_multipliers,
    solve_multipliers,
)
from .subspace import (
    _check_zero_roots_products,
    default_shift,
    default_subspace,
    roots_of_unity,
    subspace_lift,
    th1_base,
    zero_and_roots,
)


@dataclass(frozen=True)
class CosetSpec:
    """Decomposition W - 1 = e1 * f1 of a subfield's cyclic group.

    subfield_order W defaults to the ambient q.
    """

    field: object
    e1: int
    subfield_order: int = 0

    def __post_init__(self):
        if self.subfield_order == 0:
            object.__setattr__(self, "subfield_order", self.field.q)
        group = self.subfield_order - 1
        if self.e1 < 1 or group % self.e1 != 0:
            raise HypothesisViolated(
                f"e1 = {self.e1} does not divide {group}")
        self.field.subfield_stride(self.subfield_order)  # validates order

    @property
    def f1(self):
        return (self.subfield_order - 1) // self.e1

    @property
    def stride(self):
        return self.field.subfield_stride(self.subfield_order)

    def gpow(self, exps):
        """Encodings of g**exps for the subfield generator g."""
        exps = np.asarray(exps, dtype=np.int64) % (self.subfield_order - 1)
        return (exps * self.stride) % (self.field.q - 1) + 1

    def v_of(self, enc):
        """Coset coordinate of a subgroup member: enc = g**(v * e1)."""
        enc = int(enc)
        if enc == 0 or (enc - 1) % self.stride != 0:
            raise NotInSubgroup(f"{enc} is not in the subfield group")
        k = (enc - 1) // self.stride
        if k % self.e1 != 0:
            raise NotInSubgroup(f"{enc} is not a power of g**{self.e1}")
        return k // self.e1


def coset_points(spec, base_points, extended=False, l_base=None):
    """Expand base points to full cosets, checking the lift criteria.

    Plain mode takes an even-sized base satisfying the multiplier
    criterion; extended mode an odd-sized base satisfying the extended
    one, plus the character condition on e1 (automatic when q = 1 mod
    4, which is asserted).  l_base, when given, is L on the base as the
    caller already holds it.  Returns (points, l): the lifted points
    row-major, base point outer and coset step inner, and L on them,
    after checking the product transfer identity; a base that repeats a
    coset fails that check with DuplicatePoints.
    """
    f = spec.field
    base = np.asarray(base_points, dtype=np.int64)
    _check_e1(spec, extended)
    if base.size % 2 != extended:
        raise HypothesisViolated(
            f"coset lift needs an {('even', 'odd')[extended]} base")
    if l_base is None:
        l_base = lagrange_products(f, base)
    solve = solve_extended_multipliers if extended else solve_multipliers
    if solve(f, base, l_base) is None:
        raise BaseNotSelfDual("base fails the multiplier criterion")

    vs = np.array([spec.v_of(x) for x in base.tolist()], dtype=np.int64)
    return _coset_union(spec, vs, l_base)


def _coset_union(spec, vs, l_base):
    """The union of the cosets g^v <g^f1> over vs, row-major, and L on it.

    L(g^(v + f1 u)) = e1 g^(v (e1 - 1)) g^(-f1 u) L_a(g^(v e1)), with
    l_base = L_a on the points g^(v e1), is checked on every point.
    """
    f = spec.field
    u = np.arange(spec.e1, dtype=np.int64)
    pts = spec.gpow(vs[:, None] + spec.f1 * u[None, :]).ravel()
    scale = spec.gpow(vs[:, None] * (spec.e1 - 1) - spec.f1 * u[None, :])
    expect = f.vmul(f.from_int(spec.e1),
                    f.vmul(scale, l_base[:, None])).ravel()
    if not check_transfer(f, pts, expect):
        raise VerificationFailed("coset lift transfer identity failed")
    return pts, expect


def _check_e1(spec, extended):
    """The coset-lift hypotheses that depend on e1 alone."""
    f = spec.field
    if spec.e1 % 2 == 0:
        raise E1NotOdd(f"e1 = {spec.e1} must be odd")
    if extended:
        e1_sign = f.sign(f.from_int(spec.e1))
        if f.q % 4 == 1:
            assert e1_sign == 1  # odd divisor of q-1 is then a square
        elif e1_sign != 1:
            raise CharacterCondition(
                f"chi({spec.e1}) = -1 and q is 3 mod 4")


def coset_lift(spec, base_points, provenance=None):
    """Even-length self-dual code on a union of cosets."""
    pts, l = coset_points(spec, base_points, extended=False)
    prov = provenance or {"theorem": "coset_lift", "e1": spec.e1}
    return build_verified_code(spec.field, pts, False, prov, l)


def extended_coset_lift(spec, base_points, provenance=None):
    """Extended self-dual code on a union of cosets, odd base."""
    pts, l = coset_points(spec, base_points, extended=True)
    prov = provenance or {"theorem": "extended_coset_lift", "e1": spec.e1}
    return build_verified_code(spec.field, pts, True, prov, l)


# ----------------------------------------------------------------------
# tower families over GF(r^{sm})

# variant: (extended, parity t must have, T - t, iterated id), where the
# code length is T r^e (1 + r^s + ...) plus 1 when extended.
TOWER_VARIANTS = {
    "th8": (False, 0, 0, "cor1"), "th9": (False, 1, 1, "cor2"),
    "th10": (True, 1, 0, "cor3"), "th11": (True, 0, 1, "cor4")}


def _tower_sum(base, count):
    """1 + base + ... + base**(count-1)."""
    return (base ** count - 1) // (base - 1)


def tower_length(variant, r, s, ms, e, t):
    """T r^e prod_j (1 + w_j + ... + w_j^(m_j - 1)), plus 1 if extended,
    with w_j = r^(s m_1 ... m_(j-1)): the length of every tower code."""
    extended, _, extra, _ = TOWER_VARIANTS[variant]
    n = (t + extra) * r ** e
    omega = r ** s
    for mj in ms:
        n *= _tower_sum(omega, mj)
        omega **= mj
    return n + int(extended)


def _shift_nonzero(field, pts, container_order):
    """Add the smallest container element clearing zero from pts.

    Adding a constant to every point leaves all pairwise differences,
    hence all Lagrange products, unchanged.
    """
    pts = np.asarray(pts, dtype=np.int64)
    for aenc in field.subfield_enc(container_order).tolist():
        shifted = field.vadd(pts, int(aenc))
        if np.all(shifted != 0):
            return shifted
    raise HypothesisViolated("point set covers the whole container")


def _tower_menu(field, r, s, e, t, variant):
    """Check the variant's remaining hypotheses; return its menu in GF(r)
    and L on it, or None where the menu's L is not yet formed."""
    _require(0 <= e <= s - 1, "e must satisfy 0 <= e <= s-1")
    _require(t >= 1 and (r - 1) % t == 0, "t must divide r-1")
    if variant == "th8":
        _require(1 < t < r - 1, "need 1 < t < r-1")
        _require(field.q % 4 == 1, "q = 1 (mod 4) fails")
        assert (r ** s) % 4 == 1  # forced by q = 1 mod 4 with m odd
        return th1_base(field, r, t // 2), None
    if variant == "th10":
        val = field.from_int(t)
        if ((r ** e + 1) // 2) % 2 == 1:
            val = field.neg(val)
        _require(field.sign(val) == 1,
                 "chi((-1)^((r^e+1)/2) t) = -1 fails")
        return roots_of_unity(field, t), None
    tval = field.from_int(t)
    if variant == "th9":
        _require(field.sign(field.neg(tval)) == 1, "chi(-t) = -1 fails")
    else:
        _require(1 <= t < r - 1, "need 1 <= t < r-1")
        branch1 = field.sign(tval) == 1 and field.q % 4 == 1
        branch2 = field.sign(field.neg(tval)) == 1 and e % 2 == 0
        _require(branch1 or branch2,
                 "need chi(t) = chi(-1) = 1, or chi(-t) = 1 with e even")
    base = zero_and_roots(field, t)
    return base, _check_zero_roots_products(field, base, t)


def _tower(variant, r, s, ms, e, t, table_limit):
    """Tower code over GF(r^{s m1 m2 ...}): the variant's menu, lifted by
    a dim-e subspace inside GF(r^s) and shifted off zero, expanded to
    cosets once per factor in ms, innermost first.  All hypotheses, the
    per-stage e1 checks included, precede the scale guard, which runs on
    the closed-form length before any expansion.  One factor carries
    the variant's provenance, more carry its iterated id's.
    """
    extended, parity, _, iterated_id = TOWER_VARIANTS[variant]
    _require(t % 2 == parity, f"t must be {('even', 'odd')[parity]}")
    _require(len(ms) >= 1 and all(x >= 1 and x % 2 == 1 for x in ms),
             "tower factors must be odd and there must be at least one")
    f = extension_field(r, s * math.prod(ms), table_limit)
    menu, l = _tower_menu(f, r, s, e, t, variant)
    specs = []
    omega = r ** s
    for mj in ms:
        specs.append(CosetSpec(f, _tower_sum(omega, mj), omega ** mj))
        omega **= mj
    for spec in specs:
        _check_e1(spec, extended)
    n = tower_length(variant, r, s, ms, e, t)
    check_verify_scale(n // 2, n)

    sub = default_subspace(f, r, e, r ** s)
    pts, l = subspace_lift(f, r, menu, sub, default_shift(f, sub, r ** s),
                           variant == "th11", l)
    pts = _shift_nonzero(f, pts, r ** s)  # L is shift-invariant
    if extended and solve_extended_multipliers(f, pts, l) is None:
        raise VerificationFailed("extended criterion lost in the tower base")
    for spec in specs:
        if spec.e1 > 1:  # a factor m_j = 1 gives one-point cosets
            pts, l = coset_points(spec, pts, extended, l)
    if len(ms) == 1:
        prov = {"theorem": variant, "m": ms[0]}
    else:
        prov = {"theorem": iterated_id, "ms": ms}
    prov.update(r=r, s=s, e=e, t=t)
    return build_verified_code(f, pts, extended, prov, l)


def th8_th9_code(r, s, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """Even-length coset family over GF(r^{sm}): th8 for even t, th9
    for odd t."""
    return _tower(("th8", "th9")[t % 2], r, s, [m], e, t, table_limit)


def th10_th11_code(r, s, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """Extended coset family over GF(r^{sm}): th10 for odd t, th11 for
    even t."""
    return _tower(("th11", "th10")[t % 2], r, s, [m], e, t, table_limit)


def th8_code(r, s, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """[t r^e (1+...+r^{s(m-1)}), .] over GF(r^{sm}), t even, m odd."""
    return _tower("th8", r, s, [m], e, t, table_limit)


def th9_code(r, s, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """As th8 with t odd and t + 1 points in the base menu."""
    return _tower("th9", r, s, [m], e, t, table_limit)


def th10_code(r, s, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """Extended, length t r^e (1+...+r^{s(m-1)}) + 1, t odd."""
    return _tower("th10", r, s, [m], e, t, table_limit)


def th11_code(r, s, m, e, t, table_limit=DEFAULT_TABLE_LIMIT):
    """Extended, length (t+1) r^e (1+...+r^{s(m-1)}) + 1, t even."""
    return _tower("th11", r, s, [m], e, t, table_limit)


def iterated_lift(r, s, ms, e, t, variant, table_limit=DEFAULT_TABLE_LIMIT):
    """Tower family iterated up GF(r^s) < GF(r^{s m1}) < ... one coset
    expansion per factor, innermost first.

    variant is one of th8/th9/th10/th11 and carries that family's
    hypotheses.  A single factor builds exactly the one-step code, with
    its provenance.
    """
    if variant not in TOWER_VARIANTS:
        raise HypothesisViolated(f"unknown tower variant {variant!r}")
    return _tower(variant, r, s, [int(x) for x in ms], e, t, table_limit)


# ----------------------------------------------------------------------
# two-decomposition families over GF(r^2)

@dataclass(frozen=True)
class TwoDecomposition:
    """Two factorizations q - 1 = e1 f1 = e2 f2 of the same group.

    Cosets of H = <theta^e1> scaled by powers of beta = theta^e2 are
    distinct exactly when the powers differ modulo D = f2/gcd(f2, f1).
    """

    field: object
    e1: int
    e2: int

    def __post_init__(self):
        group = self.field.q - 1
        for e in (self.e1, self.e2):
            if e < 1 or group % e != 0:
                raise HypothesisViolated(f"{e} does not divide q-1")

    @property
    def f1(self):
        return (self.field.q - 1) // self.e1

    @property
    def f2(self):
        return (self.field.q - 1) // self.e2

    @property
    def coset_modulus(self):
        return self.f2 // math.gcd(self.f2, self.f1)


def distinct_coset_indices(td, t):
    """Default index choice 0..t-1: t distinct cosets for 1 <= t <= D.

    beta^i H = beta^j H exactly when e1 divides e2 (i - j), that is
    when D = f2/gcd(f1, f2) = e1/gcd(e1, e2) divides i - j, so no two
    of 0..t-1 give the same coset."""
    if t < 1 or t > td.coset_modulus:
        raise TooManyCosets(
            f"t = {t} exceeds the {td.coset_modulus} distinct cosets")
    return list(range(t))


def _scaled_cosets(td, indices):
    """(points, l) on S = union of beta^i <theta^e1> over indices,
    row-major: the coset engine with coset order f1, representatives
    beta^i and L_a on their f1-th powers beta^(i f1)."""
    vs = np.asarray(indices, dtype=np.int64) * td.e2
    spec = CosetSpec(td.field, td.f1)
    return _coset_union(spec, vs,
                        lagrange_products(td.field, spec.gpow(vs * td.f1)))


def _two_decomposition(r, e, f, s, t, sign, table_limit):
    """GF(r^2) and the decomposition e, (r + sign)/s, after the
    hypotheses th12 (sign -1, tf even) and th13 (sign +1, tf odd) share."""
    fld = extension_field(r, 2, table_limit)
    _require(e >= 1 and f >= 1 and e * f == fld.q - 1, "need ef = q-1")
    _require(s >= 1 and f % s == 0 and (r + sign) % s == 0,
             f"s must divide both f and r{sign:+d}")
    _require(t * f % 2 == (sign > 0),
             f"tf must be {'odd' if sign > 0 else 'even'}")
    td = TwoDecomposition(fld, e, (r + sign) // s)
    assert td.coset_modulus == s * (r - sign) // math.gcd(s * (r - sign), f)
    return fld, td


def th12_code(r, e, f, s, t, variant, table_limit=DEFAULT_TABLE_LIMIT):
    """Self-dual codes of length tf or tf+2 over GF(r^2).

    S is a union of t cosets of the order-f subgroup, scaled by powers
    of beta = theta^{(r-1)/s}.  variant "tf" builds the plain code on
    S; variant "tf+2" appends 0 and builds the extended code.  The
    parity hypotheses split by variant and, for "tf+2", by whether t
    hits the coset bound D.
    """
    fld, td = _two_decomposition(r, e, f, s, t, -1, table_limit)
    indices = distinct_coset_indices(td, t)
    if variant == "tf":
        _require(e % 2 == 0, "e must be even")
        _require(((r - 1 + f * t) // s) % 2 == 0,
                 "(r-1+ft)/s must be even")
    elif variant == "tf+2":
        if t == td.coset_modulus:
            _require((f * t // s) % 2 == 0, "ft/s must be even")
            _require((t - 1) * (r + 1 - f * t // s) % 4 == 0,
                     "((t-1)/2)(r+1-ft/s) must be even")
        elif (f // s) % 2 == 0:
            _require((t - 1) * (r + 1) % 4 == 0,
                     "((t-1)/2)(r+1) must be even")
        else:
            _require(t % 2 == 0, "t must be even when f/s is odd")
            if ((r + 1) // 2 + sum(indices)) % 2 == 1:
                indices[-1] += 1  # index t < D: still t distinct cosets
    else:
        raise HypothesisViolated(f"unknown variant {variant!r}")

    pts, l = _scaled_cosets(td, indices)
    prov = {"theorem": "th12", "variant": variant, "r": r, "e": e,
            "f": f, "s": s, "t": t, "indices": list(indices)}
    if variant == "tf":
        return build_verified_code(fld, pts, False, prov, l)
    full = np.concatenate([pts, np.zeros(1, dtype=np.int64)])
    l_zero = products_at(fld, full, [pts.size])
    # on S, L over S + {0} is x L_S(x)
    return build_verified_code(fld, full, True, prov,
                               np.concatenate([fld.vmul(pts, l), l_zero]))


def th13_code(r, e, f, s, t, table_limit=DEFAULT_TABLE_LIMIT):
    """Extended self-dual code of length tf+1 over GF(r^2), tf odd.

    Same union-of-cosets shape as th12 but scaled by powers of
    beta = theta^{(r+1)/s}, which forces the inner Lagrange products
    into the subfield GF(r), where they are squares; the extended
    multiplier solve in build_verified_code checks the resulting
    criterion on S.
    """
    fld, td = _two_decomposition(r, e, f, s, t, 1, table_limit)
    assert e % 2 == 0  # q-1 = 0 mod 8 and f odd force e even
    indices = distinct_coset_indices(td, t)

    pts, l = _scaled_cosets(td, indices)
    prov = {"theorem": "th13", "r": r, "e": e, "f": f, "s": s, "t": t,
            "indices": list(indices)}
    return build_verified_code(fld, pts, True, prov, l)
