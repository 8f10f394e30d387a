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
base once, rejects a base that repeats a coset as repeated points,
and hands the closed-form L on to the multiplier solve without
recomputing it.  th12/th13 take their unions of cosets through the
same identity, with the coset and quotient orders swapped and the
representatives given directly.  build_verified_code solves the
criterion on the union and proves the Gram zero, which holds only if
the closed form is L up to one scalar.

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

tower_admits, th12_admits and th13_admits hold their hypotheses, build
nothing, and run first in the builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseNotSelfDual,
    CharacterCondition,
    DuplicatePoints,
    E1NotOdd,
    HypothesisViolated,
    NotInSubgroup,
    TooManyCosets,
    VerificationFailed,
    _require,
)
from .field import DEFAULT_TABLE_LIMIT, extension_field
from .grs import (
    _criterion,
    build_verified_code,
    check_verify_scale,
    lagrange_products,
    products_at,
)
from .subspace import (
    _check_zero_roots_character,
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
    row-major, base point outer and coset step inner, and the closed
    form of L on them.  A base that repeats a coset raises
    DuplicatePoints.
    """
    f = spec.field
    base = np.asarray(base_points, dtype=np.int64)
    _check_e1(f, spec.e1, extended)
    if base.size % 2 != extended:
        raise HypothesisViolated(
            f"coset lift needs an {('even', 'odd')[extended]} base")
    if l_base is None:
        l_base = lagrange_products(f, base)
    if _criterion(f, l_base, extended) is None:
        raise BaseNotSelfDual("base fails the multiplier criterion")

    vs = [spec.v_of(x) for x in base.tolist()]
    if len(set(vs)) != len(vs):
        raise DuplicatePoints("base points repeat a coset")
    return _coset_union(spec, np.array(vs, dtype=np.int64), l_base)


def _coset_union(spec, vs, l_base):
    """The union of the cosets g^v <g^f1> over vs, row-major, and L on it
    in the closed form

    L(g^(v + f1 u)) = e1 g^(v (e1 - 1)) g^(-f1 u) L_a(g^(v e1)),

    with l_base = L_a on the points g^(v e1).
    """
    f = spec.field
    u = np.arange(spec.e1, dtype=np.int64)
    pts = spec.gpow(vs[:, None] + spec.f1 * u[None, :]).ravel()
    scale = spec.gpow(vs[:, None] * (spec.e1 - 1) - spec.f1 * u[None, :])
    return pts, f.vmul(f.from_int(spec.e1),
                       f.vmul(scale, l_base[:, None])).ravel()


def _check_e1(f, e1, extended):
    """The coset-lift hypotheses that depend on e1 alone."""
    if e1 % 2 == 0:
        raise E1NotOdd(f"e1 = {e1} must be odd")
    if extended:
        e1_sign = f.sign(f.from_int(e1))
        if f.q % 4 == 1:
            assert e1_sign == 1  # odd divisor of q-1 is then a square
        elif e1_sign != 1:
            raise CharacterCondition(f"chi({e1}) = -1 and q is 3 mod 4")


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


def _stages(r, s, ms):
    """(e1, W) of each coset stage, innermost first: W = w^m_j and e1 =
    1 + w + ... + w^(m_j - 1) = (W - 1)/(w - 1), w = r^(s m_1 ... m_(j-1))."""
    w = r ** s
    for mj in ms:
        yield (w ** mj - 1) // (w - 1), w ** mj
        w **= mj


def tower_length(variant, r, s, ms, e, t):
    """T r^e times every stage's e1 (a telescoping product), plus 1 if
    extended: tower lengths."""
    extended, _, extra, _ = TOWER_VARIANTS[variant]
    expansion = (r ** (s * math.prod(ms)) - 1) // (r ** s - 1)
    return (t + extra) * r ** e * expansion + int(extended)


def _shift_nonzero(field, pts, container_order):
    """Add the first container element a, in subfield_enc order, with
    -a not among pts, so that no shifted point is zero.

    Adding a constant to every point leaves all pairwise differences,
    hence all Lagrange products, unchanged.
    """
    taken = set(field.vneg(pts).tolist())
    free = next((a for a in field.subfield_enc(container_order).tolist()
                 if a not in taken), None)
    _require(free is not None, "point set covers the whole container")
    return field.vadd(pts, free)


def _tower_shape(variant, ms, t):
    """The tower hypotheses that need no field (which ms sizes)."""
    parity = TOWER_VARIANTS[variant][1]
    _require(t % 2 == parity, f"t must be {('even', 'odd')[parity]}")
    _require(len(ms) >= 1 and all(x >= 1 and x % 2 == 1 for x in ms),
             "tower factors must be odd and there must be at least one")


def tower_admits(variant, a, f):
    """The hypotheses of a tower code on a = {r, s, m or ms, e, t} over
    f = GF(r^(s m1 m2 ...)), the per-stage e1 checks and the scale guard
    on the closed-form length included."""
    extended, _, _, iterated_id = TOWER_VARIANTS[variant]
    r, s, e, t = a["r"], a["s"], a["e"], a["t"]
    ms = [a["m"]] if "m" in a else list(a["ms"])
    _tower_shape(variant, ms, t)
    _require(0 <= e <= s - 1, "e must satisfy 0 <= e <= s-1")
    _require(t >= 1 and (r - 1) % t == 0, "t must divide r-1")
    if variant == "th8":
        _require(1 < t < r - 1, "need 1 < t < r-1")
        _require(f.q % 4 == 1, "q = 1 (mod 4) fails")
        assert (r ** s) % 4 == 1  # forced by q = 1 mod 4 with m odd
    elif variant == "th10":
        val = f.from_int(t)
        if ((r ** e + 1) // 2) % 2 == 1:
            val = f.neg(val)
        _require(f.sign(val) == 1, "chi((-1)^((r^e+1)/2) t) = -1 fails")
    elif variant == "th9":
        _require(f.sign(f.neg(f.from_int(t))) == 1, "chi(-t) = -1 fails")
    else:
        _require(1 <= t < r - 1, "need 1 <= t < r-1")
        _check_zero_roots_character(f, e, t)
    for e1, _ in _stages(r, s, ms):
        _check_e1(f, e1, extended)
    n = tower_length(variant, r, s, ms, e, t)
    check_verify_scale(n // 2, n)
    if len(ms) == 1:
        prov = {"theorem": variant, "m": ms[0]}
    else:
        prov = {"theorem": iterated_id, "ms": ms}
    prov.update(r=r, s=s, e=e, t=t)
    return prov


def _tower(variant, r, s, ms, e, t, table_limit):
    """Tower code over GF(r^{s m1 m2 ...}): the variant's menu, lifted by
    a dim-e subspace inside GF(r^s) and shifted off zero, expanded to
    cosets once per factor in ms, innermost first.  tower_admits runs
    before any expansion; a HypothesisViolated from a stage after it is
    a bug, hence VerificationFailed.
    """
    extended = TOWER_VARIANTS[variant][0]
    _tower_shape(variant, ms, t)
    f = extension_field(r, s * math.prod(ms), table_limit)
    prov = tower_admits(variant, dict(r=r, s=s, ms=ms, e=e, t=t), f)
    menu = (th1_base(f, r, t // 2) if variant == "th8"
            else roots_of_unity(f, t) if variant == "th10"
            else zero_and_roots(f, t))
    try:
        pts, l = subspace_lift(f, r, menu, e, r ** s, variant == "th11")
        pts = _shift_nonzero(f, pts, r ** s)  # L is shift-invariant
        for e1, order in _stages(r, s, ms):
            if e1 > 1:  # a factor m_j = 1 gives one-point cosets
                spec = CosetSpec(f, e1, order)
                pts, l = coset_points(spec, pts, extended, l)
    except HypothesisViolated as exc:
        raise VerificationFailed(f"tower stage failed: {exc}") from exc
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

def _scaled_cosets(fld, f, e2, indices):
    """(points, l) on S = union of beta^i <theta^e> over indices, with
    beta = theta^e2 and ef = q - 1, row-major: the coset engine with
    coset order f, representatives beta^i and L_a on their f-th powers
    beta^(i f)."""
    vs = np.asarray(indices, dtype=np.int64) * e2
    spec = CosetSpec(fld, f)
    return _coset_union(spec, vs, lagrange_products(fld, spec.gpow(vs * f)))


def coset_count(r, f, s, sign):
    """D, the number of distinct cosets beta^i H of H = <theta^e> over
    GF(r^2), ef = r^2 - 1 and beta = theta^e2, e2 = (r + sign)/s: beta^i
    H = beta^j H iff e | e2 (i - j), iff D = f2/gcd(f2, f) divides
    i - j, f2 = (q-1)/e2 = s(r - sign)."""
    return s * (r - sign) // math.gcd(s * (r - sign), f)


def _two_decomposition(fld, r, e, f, s, t, sign):
    """D after the hypotheses th12 (sign -1, tf even) and th13 (sign +1,
    tf odd) share over fld = GF(r^2): indices 0..t-1 need 1 <= t <= D."""
    _require(e >= 1 and f >= 1 and e * f == fld.q - 1, "need ef = q-1")
    _require(s >= 1 and f % s == 0 and (r + sign) % s == 0,
             f"s must divide both f and r{sign:+d}")
    _require(t * f % 2 == (sign > 0),
             f"tf must be {'odd' if sign > 0 else 'even'}")
    d = coset_count(r, f, s, sign)
    if t < 1 or t > d:
        raise TooManyCosets(f"t = {t} exceeds the {d} distinct cosets")
    return d


def th12_admits(a, fld):
    """th12's hypotheses on a = {r, e, f, s, t, variant} over fld =
    GF(r^2): the parity ones split by variant and, for "tf+2", by
    whether t hits the coset bound D, below which the indices may take
    a parity bump."""
    r, e, f, s, t, variant = (a[k] for k in ("r", "e", "f", "s", "t",
                                             "variant"))
    d = _two_decomposition(fld, r, e, f, s, t, -1)
    indices = list(range(t))
    if variant == "tf":
        _require(e % 2 == 0, "e must be even")
        _require(((r - 1 + f * t) // s) % 2 == 0,
                 "(r-1+ft)/s must be even")
    elif variant == "tf+2":
        if t == d:
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
    return {"theorem": "th12", "variant": variant, "r": r, "e": e, "f": f,
            "s": s, "t": t, "indices": indices}


def th12_code(r, e, f, s, t, variant, table_limit=DEFAULT_TABLE_LIMIT):
    """Self-dual codes of length tf or tf+2 over GF(r^2).

    S is a union of t cosets of the order-f subgroup, scaled by powers
    of beta = theta^{(r-1)/s}.  variant "tf" builds the plain code on
    S; variant "tf+2" appends 0 and builds the extended code.
    """
    fld = extension_field(r, 2, table_limit)
    prov = th12_admits({"r": r, "e": e, "f": f, "s": s, "t": t,
                        "variant": variant}, fld)
    pts, l = _scaled_cosets(fld, f, (r - 1) // s, prov["indices"])
    if variant == "tf":
        return build_verified_code(fld, pts, False, prov, l)
    full = np.concatenate([pts, np.zeros(1, dtype=np.int64)])
    l_zero = products_at(fld, full, [pts.size])
    # on S, L over S + {0} is x L_S(x)
    return build_verified_code(fld, full, True, prov,
                               np.concatenate([fld.vmul(pts, l), l_zero]))


def th13_admits(a, fld):
    """th13's hypotheses on a = {r, e, f, s, t} over fld = GF(r^2)."""
    r, e, f, s, t = (a[k] for k in ("r", "e", "f", "s", "t"))
    _two_decomposition(fld, r, e, f, s, t, 1)
    assert e % 2 == 0  # q-1 = 0 mod 8 and f odd force e even
    return {"theorem": "th13", "r": r, "e": e, "f": f, "s": s, "t": t,
            "indices": list(range(t))}


def th13_code(r, e, f, s, t, table_limit=DEFAULT_TABLE_LIMIT):
    """Extended self-dual code of length tf+1 over GF(r^2), tf odd.

    Same union-of-cosets shape as th12 but scaled by powers of
    beta = theta^{(r+1)/s}, which forces the inner Lagrange products
    into the subfield GF(r), where they are squares; the extended
    multiplier solve in build_verified_code checks the resulting
    criterion on S.
    """
    fld = extension_field(r, 2, table_limit)
    prov = th13_admits({"r": r, "e": e, "f": f, "s": s, "t": t}, fld)
    pts, l = _scaled_cosets(fld, f, (r + 1) // s, prov["indices"])
    return build_verified_code(fld, pts, True, prov, l)
