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
from .field import DEFAULT_TABLE_LIMIT, Field, make_field

DEFAULT_ENUM_LIMIT = 10 ** 7
DEFAULT_MINOR_LIMIT = 10 ** 6
DEFAULT_SAMPLE_COUNT = 1000
DEFAULT_VERIFY_LIMIT = 10 ** 7

# Entries per block of point differences in L (lagrange_products and
# products_at).
_LAGRANGE_BLOCK = 1 << 16

_SAMPLE_SEED = 0x5D5EED


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
    a = np.array(eval_set.points, dtype=np.int64)
    row = np.array(eval_set.multipliers, dtype=np.int64)
    cols = n + (1 if eval_set.extended else 0)
    g = np.zeros((k, cols), dtype=np.int64)
    for i in range(k):
        g[i, :n] = row
        row = f.vmul(row, a)
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


def min_distance(gmat, enum_limit=DEFAULT_ENUM_LIMIT):
    """Exact minimum distance by enumerating all q^k messages."""
    f = gmat.field
    g = gmat.data
    k, n = g.shape
    total = f.q ** k
    if total > enum_limit:
        raise EnumerationTooLarge(f"q^k = {total} exceeds {enum_limit}")
    best = n + 1
    chunk = 1 << 14
    qpow = f.q ** np.arange(k, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = (idx[:, None] // qpow[None, :]) % f.q
        words = np.zeros((idx.size, n), dtype=np.int64)
        for t in range(k):
            words = f.vadd(words, f.vmul(msgs[:, t:t + 1], g[t][None, :]))
        weights = np.count_nonzero(words, axis=1)
        if start == 0:
            weights = weights[1:]  # drop the zero message
        if weights.size:
            best = min(best, int(weights.min()))
    return best


def check_mds(gmat, mode="exhaustive", enum_limit=DEFAULT_ENUM_LIMIT,
              minor_limit=DEFAULT_MINOR_LIMIT, samples=DEFAULT_SAMPLE_COUNT):
    """MDS test in one of three modes.

    exhaustive: min_distance == n - k + 1 (exact, q^k bounded);
    minors:     every k x k minor of G nonsingular (exact, C(n,k) bounded);
    sampled:    `samples` random k-column subsets nonsingular
                (probabilistic; a pass is evidence, not proof).
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
    return all(linalg.is_nonsingular(f, g[:, list(cols)]) for cols in subsets)


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
        f = make_field(fd["p"], fd["m"], table_limit)
        if list(f.modulus) != [c % f.p for c in fd["modulus"]]:
            raise SchemaError("field modulus does not match the canonical one")
        es = EvalSet(f, obj["a"], obj["v"], bool(obj["extended"]))
        # malformed, not too large to verify, however large k n is
        if not 0 < obj["k"] <= es.length:
            raise SchemaError(f"k = {obj['k']} out of range for length "
                              f"{es.length}")
        return SelfDualCode(es, obj["k"], dict(obj.get("provenance", {})))
    except (KeyError, TypeError, ValueError, DuplicatePoints, ZeroArgument,
            ShapeMismatch, NonPositiveDegree) as exc:
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
