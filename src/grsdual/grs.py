"""Generalized Reed-Solomon evaluation sets and self-duality checks.

A code here is described by an evaluation set: distinct points
a_1..a_n of GF(q), per-column multipliers v_1..v_n, and an "extended"
flag adding the coordinate that evaluates the top polynomial
coefficient.  The generator matrix of the dimension-k code has rows
(v_1 a_1^i, ..., v_n a_n^i) for i < k, plus a final (0,...,0,1) column
when extended (GrsRows).

Two criteria drive every construction in this package.  With
L(a_i) = prod_{j != i} (a_i - a_j):

* even n: the code with v_i^2 = (lam * L(a_i))^-1 is self-dual whenever
  some lam makes every lam * L(a_i) a square, which happens exactly
  when the quadratic character of L is constant on the points;
* odd n, extended: the extended code with v_i^2 = (-L(a_i))^-1 is
  self-dual whenever every -L(a_i) is a square.

lagrange_products forms L from one Zech entry per pair (Field.zech_diffs),
and solve_multipliers / solve_extended_multipliers realize those criteria
with the canonical square root, so multiplier vectors are reproducible.
check_self_dual, min_distance and check_mds are independent oracles that
read rows of G, never the construction: a verify reads GrsRows, the
rows' one definition, so none lacks the GRS shape.  Such a code, on
distinct points with nonzero multipliers, has rank k and is MDS
(MacWilliams-Sloane, ch. 11): the rank of a GrsRows and the `grs` MDS
rung rest on the EvalSet checks, and form no row.  A bare G has that
rank proof only as some EvalSet's rows (_grs_eval_set).

min_distance, the `exhaustive` MDS mode, is exact: a Brouwer-Zimmermann
information-set search (M. Grassl, "Searching for linear codes with
large minimum distance", 2006) that enumerates low-weight messages only,
under the guard that refuses q^k past the enumeration limit.  Past it,
`verify --mds auto` takes the `grs` rung; `minors`, run only when asked
for, tests every k x k minor of G.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import (
    CompositeCharacteristic,
    DuplicatePoints,
    EnumerationTooLarge,
    EvenLength,
    NonPositiveDegree,
    OddLength,
    SchemaError,
    ShapeMismatch,
    VerificationFailed,
    ZeroArgument,
)
from .field import DEFAULT_TABLE_LIMIT, Field, canonical_modulus, make_field

DEFAULT_ENUM_LIMIT = 10 ** 7
DEFAULT_MINOR_LIMIT = 10 ** 6
DEFAULT_VERIFY_LIMIT = 10 ** 7

# Zech entries per block of L (lagrange_products, products_at, and the
# selftest's root products): block // n points, each against all n.
_LAGRANGE_BLOCK = 1 << 16

# Entries per block of candidate words in min_distance, and per block
# of Laplace terms in check_mds.
_DISTANCE_BLOCK = 1 << 16
_MINOR_BLOCK = 1 << 15


def _below(values, bound, message):
    """values as an int64 array of entries in [0, bound), or
    ValueError(message), also for an integer past int64."""
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(message) from None
    # one reduction: the uint64 view reads a negative as past bound
    if a.size and a.view(np.uint64).max() >= bound:
        raise ValueError(message)
    return a


def _products_rows(field, a, rows):
    """L(a_i) for i in rows within every set (row of the 2-D a), a block of
    whole sets, or of one set's rows, at a time: O(a.size + _LAGRANGE_BLOCK)
    memory.  A row's own -1 Zech entry cancels; another is a repeat."""
    out = np.empty((len(a), rows.size), dtype=np.int64)
    per = max(1, _LAGRANGE_BLOCK // max(1, a.shape[1]))  # rows a block
    sets = max(1, per // max(1, rows.size))
    for s, r in itertools.product(range(0, len(a), sets),
                                  range(0, rows.size, per)):
        x = a[s:s + sets, rows[r:r + per]]
        z = field.zech_diffs(x, a[s:s + sets])
        if np.count_nonzero(z == -1) != x.size:
            raise DuplicatePoints("evaluation points are not distinct")
        logs = z.sum(axis=-1, dtype=np.int64) + (a.shape[1] - 1) * (x - 1)
        out[s:s + sets, r:r + per] = (logs + 1) % (field.q - 1) + 1
    return out.ravel()


def lagrange_products(field, points):
    """L(a_i) = prod_{j != i}(a_i - a_j) for every point, vectorized.

    points of shape (..., n) stack independent sets along the last axis,
    and L has their shape.  n = 1 gives [1].  A duplicate in any set raises
    DuplicatePoints, an encoding outside [0, q) ValueError, as in EvalSet.
    """
    a = _below(points, field.q, "point encoding out of range")
    if a.size == 0:
        raise DuplicatePoints("need at least one evaluation point")
    n = a.shape[-1]
    l = _products_rows(field, a.reshape(-1, n), np.arange(n))
    return l.reshape(a.shape)


def products_at(field, points, indices):
    """L(a_i) for each index i in [0, n), in any order, repeats allowed."""
    a = _below(points, field.q, "point encoding out of range")
    rows = _below(indices, a.shape[-1], "point index out of range")
    return _products_rows(field, a[None], rows)


def check_verify_scale(k, length):
    """Refuse self-duality verification beyond the verify limit.

    Verifying a [n, k] code forms O(sqrt k) rows of its k x n generator
    matrix, or all of them for the MDS modes that read all of G; past
    k * n = DEFAULT_VERIFY_LIMIT, fail with a typed error instead.
    """
    if k * length > DEFAULT_VERIFY_LIMIT:
        raise EnumerationTooLarge(
            f"verifying a [{length},{k}] code needs a {k} x {length} "
            f"matrix, past the verify limit of {DEFAULT_VERIFY_LIMIT} "
            f"entries")


def _criterion(field, l, extended):
    """lam with every lam L(a_i) a square: 1 or theta (encoding 2) when
    the character of L is constant, -1 when extended; else None."""
    signs = field.vsign(l)
    for lam in (field.neg(1),) if extended else (1, 2):
        if np.all(signs == field.sign(lam)):
            return lam
    return None


def _solve(field, points, l_values, extended):
    """(lam, v) with v_i = sqrt((lam L(a_i))^-1) for the lam of
    _criterion, or None; the parity of n must match extended."""
    a = np.array(points, dtype=np.int64)
    if a.size % 2 != extended:
        raise (OddLength, EvenLength)[extended](
            f"an {('even', 'odd')[extended]} number of points is required")
    l = lagrange_products(field, a) if l_values is None else l_values
    lam = _criterion(field, l, extended)
    if lam is None:
        return None
    lam_l = field.vmul(lam, l)
    v = field.vsqrt(field.vinv(lam_l))
    assert np.all(field.vmul(field.vmul(v, v), lam_l) == 1)
    return lam, v


def solve_multipliers(field, points, l_values=None):
    """Multipliers for an even-length self-dual code, or None.

    Returns (lam, v) where lam in {1, theta} is the square-correcting
    scalar and v_i = sqrt((lam L(a_i))^-1), or None when the character
    of L is not constant on the points.
    """
    return _solve(field, points, l_values, False)


def solve_extended_multipliers(field, points, l_values=None):
    """Multipliers for an odd-length extended self-dual code, or None.

    v_i = sqrt((-L(a_i))^-1); exists iff every -L(a_i) is a square.
    """
    solved = _solve(field, points, l_values, True)
    return None if solved is None else solved[1]


def _encodings(xs, lo, q, distinct=False):
    """(xs, whether its entries lie in [lo, q), whether one repeats if
    distinct): a 1-d int64 array in numpy, any other input as Python ints
    by int().  Only the repeat check sorts, and it sorts a copy."""
    if isinstance(xs, np.ndarray) and xs.dtype == np.int64 and xs.ndim == 1:
        if not distinct:  # one reduction: in uint64, x < lo is past q
            return (xs, (xs - lo).view(np.uint64).max(initial=0) < q - lo,
                    False)
        s = xs.copy()
        s.sort()
        return (xs, not s.size or lo <= s[0] and s[-1] < q,
                np.count_nonzero(s[1:] == s[:-1]) > 0)
    xs = list(map(int, xs))  # may pass int64 until the range check
    return (xs, not xs or lo <= min(xs) and max(xs) < q,
            distinct and len(set(xs)) != len(xs))


@dataclass(frozen=True, eq=False)
class EvalSet:
    """Distinct points, one nonzero multiplier each, the extension flag;
    points and multipliers are read-only 1-d int64 arrays, so a code
    cannot change after its proof.  Not hashable."""

    field: Field
    points: np.ndarray
    multipliers: np.ndarray
    extended: bool = False

    def __post_init__(self):
        q = self.field.q
        pts, in_field, repeats = _encodings(self.points, 0, q, distinct=True)
        if repeats:
            raise DuplicatePoints("evaluation points are not distinct")
        if len(pts) > q:
            raise DuplicatePoints("more points than field elements")
        if not in_field:
            raise ValueError("point encoding out of range")
        v, nonzero, _ = _encodings(self.multipliers, 1, q)
        if len(v) != len(pts):
            raise ShapeMismatch("one multiplier per point is required")
        if not nonzero:
            raise ZeroArgument("multipliers must be nonzero encodings")
        for name, xs in (("points", pts), ("multipliers", v)):
            a = np.array(xs, dtype=np.int64)  # a copy the caller cannot write
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        return (isinstance(other, EvalSet) and self.field == other.field
                and self.extended == other.extended
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.multipliers, other.multipliers))

    @property
    def n(self):
        return len(self.points)

    @property
    def length(self):
        return self.n + (1 if self.extended else 0)


@dataclass(frozen=True)
class GeneratorMatrix:
    """G, a row source of encodings in [0, q), GRS if _grs_eval_set says."""
    field: Field
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _below(
            self.data, self.field.q, "matrix encoding out of range"))

    @property
    def shape(self):
        return self.data.shape

    def __getitem__(self, idx):
        return self.data[idx]

    def to_text(self):
        lines = [" ".join(str(int(x)) for x in row) for row in self.data]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, field, text):
        rows = [[int(tok) for tok in line.split()]
                for line in text.strip().splitlines() if line.strip()]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise SchemaError("ragged or empty matrix text")
        return cls(field, rows)


class GrsRows:
    """Rows of G = generator_matrix(eval_set, k), formed as the proofs
    read them; nodes are the points, 0 at the unit column."""

    def __init__(self, eval_set, k):
        self.field = eval_set.field
        self.shape, self.extended = (k, eval_set.length), eval_set.extended
        a, v = eval_set.points, eval_set.multipliers
        if self.extended:  # the unit column: v = a = 0
            a, v = np.concatenate([[a, v], [[0], [0]]], axis=1)
        self.nodes, self.multipliers = a, v

    def __getitem__(self, idx):
        """Rows idx (int, slice or int array): v_j a_j**i, 1 in row k-1
        of the unit column."""
        i = np.arange(self.shape[0])[idx][..., None]
        g = self.field.vpow(self.nodes, i, self.multipliers)
        if self.extended:
            g[..., -1] = i[..., 0] == self.shape[0] - 1
        return g


def generator_matrix(eval_set, k):
    """All k rows of GrsRows in cache-sized row blocks."""
    if not 0 < k <= eval_set.length:
        raise ShapeMismatch(f"k = {k} out of range for length {eval_set.length}")
    src = GrsRows(eval_set, k)
    g = np.empty(src.shape, dtype=np.int64)
    rows = max(1, linalg._BLOCK_BYTES // (8 * eval_set.length))
    for r0 in range(0, k, rows):
        g[r0:r0 + rows] = src[r0:r0 + rows]
    return GeneratorMatrix(eval_set.field, g)


def _grs_eval_set(gmat):
    """The EvalSet es with generator_matrix(es, k) equal to G, or None.

    Multipliers are row 0, points row 1 / row 0, and es is extended
    when the last column is e_{k-1}; es is returned only if GrsRows(es, k)
    equals G entry for entry, compared in row blocks.  None for k < 2,
    for k past the length, for a zero in row 0 and, by EvalSet's check,
    for repeated points."""
    f, g = gmat.field, gmat[:]
    k, n = g.shape
    if not 2 <= k <= n:
        return None
    ext = bool(g[-1, -1] == 1 and not g[:-1, -1].any())
    head = g[0, :n - ext]
    if not head.all():
        return None
    try:
        es = EvalSet(f, f.vmul(g[1, :n - ext], f.vinv(head)), head, ext)
    except DuplicatePoints:
        return None
    src, rows = GrsRows(es, k), max(1, linalg._BLOCK_BYTES // (8 * n))
    return es if all(np.array_equal(src[r:r + rows], g[r:r + rows])
                     for r in range(0, k, rows)) else None


def check_self_dual(gmat):
    """True iff G has shape k x 2k, rank k, and G @ G.T == 0.

    A GrsRows, or a bare G that _grs_eval_set reads as some EvalSet's
    rows, by its Hankel Gram alone, as its rank rests on the EvalSet
    checks; any other G by the general Gram and rank by elimination."""
    k, n = gmat.shape
    if not n or n % 2 or k != n // 2:
        raise ShapeMismatch(f"{k} x {n} is not a self-dual shape")
    f = gmat.field
    if isinstance(gmat, GrsRows) or _grs_eval_set(gmat) is not None:
        return not np.any(linalg.gram(f, gmat, hankel=True))
    return not np.any(linalg.gram(f, gmat)) and linalg.rank(f, gmat[:]) == k


def _information_sets(field, g):
    """Systematic forms of g on greedily disjoint information sets.

    Each form is (rows, fresh): rows is g in systematic form and fresh
    counts its pivot columns that no earlier form used.  Columns no
    form has used yet come first in each elimination, so every form
    takes as many new columns as it can; forms stop once every column
    is used, since a further elimination could only pivot on used
    columns.  Returns None when g has rank below its row count, which
    the first elimination finds.
    """
    k, n = g.shape
    used = np.zeros(n, dtype=bool)
    forms = []
    while True:
        order = np.concatenate([np.flatnonzero(~used), np.flatnonzero(used)])
        rows, pivots = linalg.systematic(field, g, order)
        if len(pivots) < k:
            return None
        fresh = int(np.count_nonzero(~used[pivots]))
        if fresh == 0:
            return forms
        forms.append((rows, fresh))
        used[pivots] = True
        if used.all():
            return forms


def _lightest(field, rows, w):
    """Least weight of the words sum_t c_t rows[i_t] over every support
    i_1 < ... < i_w with c_1 = 1 and the other c_t nonzero.

    Scaling does not change weight, so fixing c_1 = 1 loses no word.
    Supports and the (q-1)^(w-1) coefficient grid are taken in blocks
    of at most about _DISTANCE_BLOCK word entries.
    """
    k, n = rows.shape
    units = field.q - 1
    grid = units ** (w - 1)
    g_step = max(1, min(grid, _DISTANCE_BLOCK // n))
    s_step = max(1, _DISTANCE_BLOCK // (g_step * n))
    supports = itertools.combinations(range(k), w)
    best = n + 1
    while chunk := list(itertools.islice(supports, s_step)):
        picked = rows[np.array(chunk)][:, None]  # (supports, 1, w, n)
        for g0 in range(0, grid, g_step):
            idx = np.arange(g0, min(grid, g0 + g_step))[None, :, None]
            words = picked[:, :, 0]
            for t in range(1, w):
                coeff = idx // units ** (t - 1) % units + 1
                words = field.vadd(words, field.vmul(coeff, picked[:, :, t]))
            best = min(best, int(np.count_nonzero(words, axis=2).min()))
    return best


def min_distance(gmat, enum_limit=DEFAULT_ENUM_LIMIT):
    """Exact minimum distance by the Brouwer-Zimmermann search.

    Weight-w messages are enumerated once in each distinct systematic
    form of the information sets from _information_sets (repeated
    columns can give equal forms, which give equal words, but every
    set keeps its fresh_j in the bound).  A codeword none of them
    has produced up to w has weight above w on every information set,
    so above w - (k - fresh_j) on the fresh columns of set j; those
    are disjoint, so it weighs at least sum_j max(0, w + 1 - k +
    fresh_j).  The search stops once that bound reaches the lightest
    word found, and is complete at w = k in any case.  A rank-deficient
    G has a zero codeword and distance 0.  q^k > enum_limit refuses,
    whatever the search would cost.
    """
    f = gmat.field
    g = gmat.data
    k, n = g.shape
    total = f.q ** k
    if total > enum_limit:
        raise EnumerationTooLarge(f"q^k = {total} exceeds {enum_limit}")
    forms = _information_sets(f, g)
    if forms is None:
        return 0
    distinct = {rows.tobytes(): rows for rows, _ in forms}.values()
    best = n + 1
    for w in range(1, k + 1):
        for rows in distinct:
            best = min(best, _lightest(f, rows, w))
        if sum(max(0, w + 1 - k + fresh) for _, fresh in forms) >= best:
            break
    return best


def check_mds(gmat, mode="exhaustive", enum_limit=DEFAULT_ENUM_LIMIT,
              minor_limit=DEFAULT_MINOR_LIMIT):
    """Exact MDS test in one of two modes.

    exhaustive: min_distance == n - k + 1 (q^k bounded);
    minors:     every k x k minor of G nonzero, by linalg.minors_nonzero
                (refused past minor_limit C(n, min(k, n//2))).
    """
    f, g = gmat.field, gmat.data
    k, n = g.shape
    if mode == "exhaustive":
        return min_distance(gmat, enum_limit) == n - k + 1
    if mode != "minors":
        raise ValueError(f"unknown mds mode {mode!r}")
    if math.comb(n, held := min(k, n // 2)) > minor_limit:
        raise EnumerationTooLarge(
            f"C({n},{held}) = {math.comb(n, held)} exceeds {minor_limit}")
    return linalg.minors_nonzero(f, g, _MINOR_BLOCK)


@dataclass(frozen=True)
class SelfDualCode:
    """A length-2k self-dual code given by its evaluation set."""

    eval_set: EvalSet
    k: int
    provenance: dict = dc_field(default_factory=dict)

    @property
    def field(self):
        return self.eval_set.field

    @property
    def length(self):
        return self.eval_set.length

    def generator_matrix(self):
        return generator_matrix(self.eval_set, self.k)

    def rows(self):
        return GrsRows(self.eval_set, self.k)

    def verify(self):
        return check_self_dual(self.rows())

    def to_obj(self):
        return {
            "field": self.field.descriptor(),
            "a": self.eval_set.points.tolist(),
            "v": self.eval_set.multipliers.tolist(),
            "extended": self.eval_set.extended,
            "k": self.k,
            "provenance": self.provenance,
        }

    def to_json(self):
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))


def code_from_obj(obj, table_limit=DEFAULT_TABLE_LIMIT):
    """Rebuild a SelfDualCode from its wire dict, validating the field."""
    try:
        fd = obj["field"]
        ints = [fd["p"], fd["m"], fd["theta"], obj["k"], *fd["modulus"],
                *obj["a"], *obj["v"]]
        # bool is an int subclass; EvalSet's int() would truncate floats
        if any(isinstance(x, bool) or not isinstance(x, int) for x in ints):
            raise SchemaError(
                "p, m, theta, k, modulus, a and v must be integers")
        if fd["theta"] != 2:
            raise SchemaError("theta must be 2, the generator's encoding")
        # bool() would take "false" as true, dict() ["ab"] as {"a": "b"}
        if not isinstance(obj["extended"], bool):
            raise SchemaError("extended must be true or false")
        provenance = obj.get("provenance", {})
        if not isinstance(provenance, dict):
            raise SchemaError("provenance must be an object")
        # compare before make_field builds tables of up to table_limit
        p = fd["p"]
        modulus = canonical_modulus(p, fd["m"], table_limit)
        if list(modulus) != fd["modulus"]:  # each coefficient in [0, p)
            raise SchemaError("field modulus does not match the canonical one")
        f = make_field(p, fd["m"], table_limit)
        es = EvalSet(f, obj["a"], obj["v"], obj["extended"])
        # malformed, not too large to verify, however large k n is
        if not 0 < obj["k"] <= es.length:
            raise SchemaError(f"k = {obj['k']} out of range for length "
                              f"{es.length}")
        return SelfDualCode(es, obj["k"], dict(provenance))
    except (KeyError, TypeError, ValueError, CompositeCharacteristic,
            DuplicatePoints, ZeroArgument, ShapeMismatch,
            NonPositiveDegree) as exc:
        raise SchemaError(f"malformed code object: {exc}") from exc


def build_verified_code(field, points, extended, provenance, l_values=None):
    """Solve for multipliers, assemble the code, and self-check it.

    l_values, when given, is L on the points in a lift's closed form,
    and is not formed again.  The zero Gram is its proof: on distinct
    points, sum_j w_j a_j^u = 0 for u = 0..n-2 holds exactly for w
    proportional to 1/L, so v^2 = 1/(lam l) passes only if l is L up to
    one scalar.  Used by every construction; a failure here means the
    construction's hypothesis checks or closed form let a bad case
    through, hence VerificationFailed.
    """
    pts = np.asarray(points, dtype=np.int64)
    n_total = pts.size + (1 if extended else 0)
    check_verify_scale(n_total // 2, n_total)
    if extended:
        multipliers = solve_extended_multipliers(field, pts, l_values)
    else:
        solved = solve_multipliers(field, pts, l_values)
        multipliers = None if solved is None else solved[1]
    if multipliers is None:
        raise VerificationFailed(
            "multiplier criterion failed although hypotheses hold")
    es = EvalSet(field, pts, multipliers, extended)
    code = SelfDualCode(es, es.length // 2, provenance)
    if not code.verify():
        raise VerificationFailed("constructed code failed check_self_dual")
    return code
