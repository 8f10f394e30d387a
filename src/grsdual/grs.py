"""Generalized Reed-Solomon evaluation sets and self-duality checks.

A code here is described by an evaluation set: distinct points
a_1..a_n of GF(q), per-column multipliers v_1..v_n, and an "extended"
flag adding the coordinate that evaluates the top polynomial
coefficient.  The generator matrix of the dimension-k code has rows
(v_1 a_1^i, ..., v_n a_n^i) for i < k, plus a final (0,...,0,1) column
when extended.

Two criteria drive every construction in this package.  With
L(a_i) = prod_{j != i} (a_i - a_j):

* even n: the code with v_i^2 = (lam * L(a_i))^-1 is self-dual whenever
  some lam makes every lam * L(a_i) a square, which happens exactly
  when the quadratic character of L is constant on the points;
* odd n, extended: the extended code with v_i^2 = (-L(a_i))^-1 is
  self-dual whenever every -L(a_i) is a square.

solve_multipliers / solve_extended_multipliers realize those criteria
with the canonical square root, so multiplier vectors are
reproducible.  check_self_dual, min_distance and check_mds are
independent oracles: they work off the generator matrix alone and never
consult the construction that produced it.

min_distance, the `exhaustive` MDS mode, is exact: a Brouwer-Zimmermann
information-set search (M. Grassl, "Searching for linear codes with
large minimum distance", 2006) that enumerates low-weight messages only,
under the guard that refuses q^k past the enumeration limit.
The `minors` and `sampled` modes test k x k minors in stacked batches.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import (
    CompositeCharacteristic,
    DuplicatePoints,
    EnumerationTooLarge,
    EvenLength,
    MultipliersUnset,
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
DEFAULT_SAMPLE_COUNT = 1000
DEFAULT_VERIFY_LIMIT = 10 ** 7

# Entries per block of point differences in L (lagrange_products and
# products_at).
_LAGRANGE_BLOCK = 1 << 16

_SAMPLE_SEED = 0x5D5EED

# Entries per block of candidate words in min_distance, and per chunk
# of stacked minors in check_mds.
_DISTANCE_BLOCK = 1 << 16
_MINOR_BLOCK = 1 << 15


def _products_rows(field, a, rows):
    """L(a_i) for i in rows against all of a, a block of rows at a time,
    so memory stays O(n + _LAGRANGE_BLOCK) rather than len(rows) x n."""
    out = np.empty(rows.size, dtype=np.int64)
    step = max(1, _LAGRANGE_BLOCK // max(1, a.size))
    for s in range(0, rows.size, step):
        idx = rows[s:s + step]
        d = field.vsub(a[idx, None], a[None, :])
        d[np.arange(idx.size), idx] = 1  # empty factor for the point itself
        if np.any(d == 0):
            raise DuplicatePoints("evaluation points are not distinct")
        out[s:s + step] = np.sum(d - 1, axis=1) % (field.q - 1) + 1
    return out


def lagrange_products(field, points):
    """L(a_i) = prod_{j != i}(a_i - a_j) for every point, vectorized.

    n = 1 returns the empty product [1].  Duplicate points raise.
    """
    a = np.array(points, dtype=np.int64)
    if a.size == 0:
        raise DuplicatePoints("need at least one evaluation point")
    return _products_rows(field, a, np.arange(a.size))


def products_at(field, points, indices):
    """L(a_i) for i in indices only (in any order, repeats allowed)."""
    a = np.array(points, dtype=np.int64)
    return _products_rows(field, a, np.asarray(indices, dtype=np.int64))


def check_transfer(field, pts, expect):
    """Whether L(pts) == expect on every point.  A point set too large
    to verify raises EnumerationTooLarge before any L is formed."""
    check_verify_scale(pts.size // 2, pts.size)
    return bool(np.all(lagrange_products(field, pts) == expect))


def check_verify_scale(k, length, limit=DEFAULT_VERIFY_LIMIT):
    """Refuse self-duality verification beyond the configured scale.

    Verifying a [n, k] code materializes a k x n generator matrix and a
    k x k Gram matrix; past k * n = limit, fail with a typed error
    instead of exhausting memory.
    """
    if k * length > limit:
        raise EnumerationTooLarge(
            f"verifying a [{length},{k}] code needs a {k} x {length} "
            f"matrix, past the verify limit of {limit} entries")


def solve_multipliers(field, points, l_values=None):
    """Multipliers for an even-length self-dual code, or None.

    Returns (lam, v) where lam in {1, theta} is the square-correcting
    scalar and v_i = sqrt((lam L(a_i))^-1), or None when the character
    of L is not constant on the points.
    """
    a = np.array(points, dtype=np.int64)
    if a.size % 2:
        raise OddLength("an even number of points is required")
    l = lagrange_products(field, a) if l_values is None else l_values
    signs = field.vsign(l)
    if np.all(signs == 1):
        lam = 1
    elif np.all(signs == -1):
        lam = 2  # theta, the canonical non-square
    else:
        return None
    w = field.vinv(field.vmul(lam, l))
    v = field.vsqrt(w)
    assert np.all(field.vmul(field.vmul(v, v), field.vmul(lam, l)) == 1)
    return lam, v


def solve_extended_multipliers(field, points, l_values=None):
    """Multipliers for an odd-length extended self-dual code, or None.

    v_i = sqrt((-L(a_i))^-1); exists iff every -L(a_i) is a square.
    """
    a = np.array(points, dtype=np.int64)
    if a.size % 2 == 0:
        raise EvenLength("an odd number of points is required")
    l = lagrange_products(field, a) if l_values is None else l_values
    neg_l = field.vneg(l)
    if not np.all(field.vsign(neg_l) == 1):
        return None
    v = field.vsqrt(field.vinv(neg_l))
    assert np.all(field.vmul(field.vmul(v, v), neg_l) == 1)
    return v


@dataclass(frozen=True)
class EvalSet:
    """Evaluation points plus optional multipliers and extension flag."""

    field: Field
    points: tuple
    multipliers: tuple = None
    extended: bool = False

    def __post_init__(self):
        pts = tuple(int(x) for x in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise DuplicatePoints("evaluation points are not distinct")
        if len(pts) > self.field.q:
            raise DuplicatePoints("more points than field elements")
        if any(not 0 <= x < self.field.q for x in pts):
            raise ValueError("point encoding out of range")
        if self.multipliers is not None:
            v = tuple(int(x) for x in self.multipliers)
            object.__setattr__(self, "multipliers", v)
            if len(v) != len(pts):
                raise ShapeMismatch("one multiplier per point is required")
            if any(not 0 < x < self.field.q for x in v):
                raise ZeroArgument("multipliers must be nonzero encodings")

    @property
    def n(self):
        return len(self.points)

    @property
    def length(self):
        return self.n + (1 if self.extended else 0)


@dataclass(frozen=True)
class GeneratorMatrix:
    field: Field
    data: np.ndarray

    @property
    def shape(self):
        return self.data.shape

    def to_text(self):
        lines = [" ".join(str(int(x)) for x in row) for row in self.data]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, field, text):
        rows = [[int(tok) for tok in line.split()]
                for line in text.strip().splitlines() if line.strip()]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise SchemaError("ragged or empty matrix text")
        return cls(field, np.array(rows, dtype=np.int64))


def generator_matrix(eval_set, k):
    """Rows v_j * a_j^i for i < k; extended adds the unit column."""
    if eval_set.multipliers is None:
        raise MultipliersUnset("evaluation set has no multipliers")
    n = eval_set.n
    if not 0 < k <= eval_set.length:
        raise ShapeMismatch(f"k = {k} out of range for length {eval_set.length}")
    f = eval_set.field
    g = np.zeros((k, eval_set.length), dtype=np.int64)
    g[:, :n] = f.vmul(eval_set.multipliers,
                      f.vpow(eval_set.points, np.arange(k)[:, None]))
    if eval_set.extended:
        g[k - 1, n] = 1
    return GeneratorMatrix(f, g)


def check_self_dual(gmat):
    """True iff G has shape k x 2k, rank k, and G @ G.T == 0."""
    g = gmat.data
    k, n = g.shape
    if n % 2 or k != n // 2:
        raise ShapeMismatch(f"{k} x {n} is not a self-dual shape")
    if np.any(linalg.gram(gmat.field, g)):
        return False
    return linalg.rank(gmat.field, g) == k


def _information_sets(field, g):
    """Systematic forms of g on greedily disjoint information sets.

    Each form is (rows, fresh): rows is g in systematic form and fresh
    counts its pivot columns that no earlier form used.  Columns no
    form has used yet come first in each elimination, so every form
    takes as many new columns as it can; forms stop when none is left.
    Returns None when g has rank below its row count.
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
              minor_limit=DEFAULT_MINOR_LIMIT, samples=DEFAULT_SAMPLE_COUNT):
    """MDS test in one of three modes.

    exhaustive: min_distance == n - k + 1 (exact, q^k bounded);
    minors:     every k x k minor of G nonsingular (exact, C(n,k) bounded);
    sampled:    `samples` random k-column subsets nonsingular
                (probabilistic; a pass is evidence, not proof).

    Subsets go through linalg.nonsingular in chunks of about
    _MINOR_BLOCK entries, and the first chunk with a singular minor
    ends the test.
    """
    f = gmat.field
    g = gmat.data
    k, n = g.shape
    if mode == "exhaustive":
        return min_distance(gmat, enum_limit) == n - k + 1
    if mode == "minors":
        count = math.comb(n, k)
        if count > minor_limit:
            raise EnumerationTooLarge(f"C({n},{k}) = {count} exceeds {minor_limit}")
        subsets = itertools.combinations(range(n), k)
    elif mode == "sampled":
        rng = random.Random(_SAMPLE_SEED)
        subsets = (sorted(rng.sample(range(n), k)) for _ in range(samples))
    else:
        raise ValueError(f"unknown mds mode {mode!r}")
    step = max(1, _MINOR_BLOCK // max(1, k * k))
    while chunk := list(itertools.islice(subsets, step)):
        cols = np.array(chunk, dtype=np.int64).reshape(len(chunk), k)
        if not linalg.nonsingular(f, g[:, cols].transpose(1, 0, 2)).all():
            return False
    return True


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

    def verify(self):
        return check_self_dual(self.generator_matrix())

    def to_obj(self):
        return {
            "field": self.field.descriptor(),
            "a": list(self.eval_set.points),
            "v": list(self.eval_set.multipliers),
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
        ints = [fd["p"], fd["m"], obj["k"], *fd["modulus"], *obj["a"],
                *obj["v"]]
        # bool is an int subclass; EvalSet's int() would truncate floats
        if any(isinstance(x, bool) or not isinstance(x, int) for x in ints):
            raise SchemaError("p, m, k, modulus, a and v must be integers")
        # bool() would take "false" as true, dict() ["ab"] as {"a": "b"}
        if not isinstance(obj["extended"], bool):
            raise SchemaError("extended must be true or false")
        provenance = obj.get("provenance", {})
        if not isinstance(provenance, dict):
            raise SchemaError("provenance must be an object")
        # compare before make_field builds tables of up to table_limit
        p = fd["p"]
        modulus = canonical_modulus(p, fd["m"], table_limit)
        if list(modulus) != [c % p for c in fd["modulus"]]:
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


def build_verified_code(field, points, extended, provenance, l_values=None,
                        verify_limit=DEFAULT_VERIFY_LIMIT):
    """Solve for multipliers, assemble the code, and self-check it.

    l_values, when given, is L on the points as a lift already checked
    it, so the multiplier solve does not form it again.  Used by every
    construction; a failure here means the construction's hypothesis
    checks let a bad case through, hence VerificationFailed.
    """
    pts = np.array(points, dtype=np.int64)
    n_total = pts.size + (1 if extended else 0)
    check_verify_scale(n_total // 2, n_total, verify_limit)
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
