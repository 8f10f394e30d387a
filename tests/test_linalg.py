"""The BLAS Gram, the rank and the systematic form against plain
Zech-table oracles.

zech_gram and zech_rank below are the straightforward kernels: every
sum is a fold of Zech additions and the row reduction touches every
column of every row.  zech_systematic is the Zech-table Gauss-Jordan
that linalg.systematic replaced with one on digit planes.  They share
nothing with grsdual.linalg except the field's own vadd/vmul, so
agreement is a differential check of the coefficient-plane Gram, its
chunking and row blocking, of the Hankel Gram of GRS generator matrices
and its fallback to every row, and of the systematic form and rank.  A
bare G takes the Hankel Gram, with no elimination, exactly when
grs._grs_eval_set reads it as some EvalSet's rows.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grsdual import grs, linalg, make_field
from grsdual.cosets import th8_code, th10_code
from grsdual.errors import TableLimitExceeded
from grsdual.grs import (
    EvalSet,
    GeneratorMatrix,
    GrsRows,
    SelfDualCode,
    check_mds,
    check_self_dual,
    generator_matrix,
    solve_extended_multipliers,
    solve_multipliers,
)
from grsdual.subspace import th4_code

# GF(3), GF(3^9), GF(13^3) and the largest prime below 2^22, whose
# (p-1)^2 forces inner chunking beyond 512 columns
FIELDS = [(3, 1), (3, 9), (13, 3), (4194301, 1)]
BIG_P = 4194301


def zech_sum(field, a):
    """Sum of encodings along the last axis by repeated halving."""
    a = np.asarray(a, dtype=np.int64)
    while a.shape[-1] > 1:
        w = a.shape[-1]
        if w & 1:
            pad = np.zeros(a.shape[:-1] + (1,), dtype=np.int64)
            a = np.concatenate([a, pad], axis=-1)
            w += 1
        a = field.vadd(a[..., : w // 2], a[..., w // 2:])
    return a[..., 0]


def zech_gram(field, g):
    g = np.asarray(g, dtype=np.int64)
    out = np.zeros((g.shape[0],) * 2, dtype=np.int64)
    if g.shape[1]:
        for i in range(g.shape[0]):
            out[i] = zech_sum(field, field.vmul(g[i][None, :], g))
    return out


def zech_systematic(field, g, order):
    """linalg.systematic before it ran on digit planes: Gauss-Jordan in
    Zech arithmetic, touching only the rows that hold the pivot column."""
    a = np.array(g, dtype=np.int64)
    rows = a.shape[0]
    pivots = []
    for c in order:
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = field.vmul(a[r], field.inv(int(a[r, c])))
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            a[others] = field.vadd(
                a[others],
                field.vmul(field.vneg(a[others, c])[:, None], a[r][None, :]))
        pivots.append(int(c))
    return a[:len(pivots)], pivots


def zech_rank(field, mat):
    """Full row reduction with a normalized pivot row, all columns."""
    a = np.array(mat, dtype=np.int64)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + int(pivots[0])
        a[[r, p]] = a[[p, r]]
        a[r] = field.vmul(a[r], field.inv(int(a[r, c])))
        for i in range(r + 1, rows):
            if a[i, c]:
                f = field.neg(int(a[i, c]))
                a[i] = field.vadd(a[i], field.vmul(f, a[r]))
        r += 1
    return r


@st.composite
def matrices(draw, fields=FIELDS, max_k=8, max_n=16):
    """A random matrix with some all-zero rows and columns."""
    p, m = draw(st.sampled_from(fields))
    f = make_field(p, m)
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.integers(0, f.q, size=(k, n))
    g[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0
    g[draw(st.lists(st.integers(0, k - 1), max_size=2)), :] = 0
    g[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    return f, g


def combine(field, rng, rows, count):
    """count random GF(q)-combinations of the given rows."""
    out = np.zeros((count, rows.shape[1]), dtype=np.int64)
    for i in range(count):
        for row in rows:
            c = int(rng.integers(0, field.q))
            out[i] = field.vadd(out[i], field.vmul(c, row))
    return out


def is_grs(field, g):
    """Whether check_self_dual takes the Hankel path on the bare G g:
    _grs_eval_set reads it as some EvalSet's rows."""
    return grs._grs_eval_set(GeneratorMatrix(field, g)) is not None


def shaped_gram(field, g):
    """linalg.gram on the path check_self_dual takes for a bare G."""
    return linalg.gram(field, g, is_grs(field, g))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_gram_matches_zech_oracle(case):
    f, g = case
    assert np.array_equal(linalg.gram(f, g), zech_gram(f, g))
    assert np.array_equal(shaped_gram(f, g), zech_gram(f, g))


@settings(max_examples=10, deadline=None)
@given(st.integers(513, 1100), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_gram_chunks_the_inner_axis_exactly(n, k, seed):
    f = make_field(BIG_P)
    assert n * (BIG_P - 1) ** 2 >= 2 ** 53  # one matmul would be inexact
    g = np.random.default_rng(seed).integers(0, f.q, size=(k, n))
    assert np.array_equal(linalg.gram(f, g), zech_gram(f, g))


@settings(max_examples=40, deadline=None)
@given(matrices(fields=[(3, 9), (13, 3)], max_k=12, max_n=40))
def test_gram_small_chunks_and_blocks_match(case):
    # shrink the exactness window and the block budget so extension
    # fields go through many chunks and row blocks as well
    f, g = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_EXACT", 7 * (f.p - 1) ** 2 + 1)
        mp.setattr(linalg, "_BLOCK_BYTES", 8 * f.m * f.m * g.shape[0] * 3)
        got = linalg.gram(f, g)
    assert np.array_equal(got, zech_gram(f, g))


def test_gram_refuses_a_prime_too_large_for_exact_products():
    # one coefficient product (p-1)^2 would pass 2^53; only the table
    # limit keeps such fields away, so the kernel refuses them itself
    huge = SimpleNamespace(p=2 ** 27 + 29, m=1, modulus=(0, 1))
    with pytest.raises(TableLimitExceeded):
        linalg.gram(huge, np.ones((1, 2), dtype=np.int64))


def test_gram_of_a_self_dual_code_is_zero():
    from grsdual.subspace import th2_code
    code = th2_code(13, 2, 1, 3)  # [52,26] over GF(13^2)
    g = code.generator_matrix().data
    assert not np.any(shaped_gram(code.field, g))
    bad = g.copy()
    bad[1, 2] = code.field.add(int(bad[1, 2]), 1)
    got = shaped_gram(code.field, bad)
    assert np.array_equal(got, zech_gram(code.field, bad))
    assert np.any(got)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_zech_oracle(case):
    f, g = case
    assert linalg.rank(f, g) == zech_rank(f, g)
    assert linalg.rank(f, g.T) == zech_rank(f, g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS[:3]), st.integers(1, 8), st.integers(0, 8),
       st.integers(0, 2 ** 32 - 1))
def test_rank_of_rank_deficient_matrices(pm, r, extra, seed):
    f = make_field(*pm)
    rng = np.random.default_rng(seed)
    base = rng.integers(1, f.q, size=(r, 2 * (r + extra)))
    g = np.vstack([base, combine(f, rng, base, extra + 1)])
    rng.shuffle(g)
    expect = zech_rank(f, g)
    assert expect <= r
    assert linalg.rank(f, g) == expect


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS[:3]), st.integers(2, 8),
       st.integers(0, 2 ** 32 - 1))
def test_rank_falls_back_when_the_leading_block_is_singular(pm, k, seed):
    f = make_field(*pm)
    rng = np.random.default_rng(seed)
    g = rng.integers(0, f.q, size=(k, 2 * k))
    # leading k x k block singular: one of its columns repeats another
    g[:, k - 1] = g[:, 0]
    expect = zech_rank(f, g)
    assert linalg.rank(f, g) == expect
    assert zech_rank(f, g[:, :k]) < k


def test_rank_fallback_on_a_full_rank_matrix():
    f = make_field(3)
    g = np.array([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert linalg.rank(f, g[:, :2]) == 0
    assert linalg.rank(f, g) == 2
    assert linalg.rank(f, np.zeros((0, 3), dtype=np.int64)) == 0


# m = 1 to 4, and the largest prime below 2^22 for the int64 bound
ELIMINATION_FIELDS = [(3, 1), (37, 1), (BIG_P, 1), (3, 2), (13, 2), (3, 3),
                      (7, 3), (3, 4), (5, 4)]


@st.composite
def elimination_cases(draw):
    """(field, g, order): g with zero rows, zero and repeated columns,
    and a column order as _information_sets passes it, an int64
    permutation, or a range."""
    f = make_field(*draw(st.sampled_from(ELIMINATION_FIELDS)))
    k, n = draw(st.integers(0, 7)), draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.integers(0, f.q, size=(k, n))
    g[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0
    if k:
        g[draw(st.lists(st.integers(0, k - 1), max_size=2)), :] = 0
    if n:
        cols = st.integers(0, n - 1)
        g[:, draw(st.lists(cols, max_size=2))] = 0
        for dst, src in draw(st.lists(st.tuples(cols, cols), max_size=3)):
            g[:, dst] = g[:, src]
    if draw(st.booleans()):
        return f, g, range(n)
    return f, g, np.array(draw(st.permutations(range(n))), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(elimination_cases())
@example((make_field(3, 4), np.zeros((0, 5), dtype=np.int64), range(5)))
@example((make_field(5), np.zeros((3, 0), dtype=np.int64),
          np.zeros(0, dtype=np.int64)))
def test_systematic_matches_the_zech_elimination(case):
    f, g, order = case
    rows, pivots = linalg.systematic(f, g, order)
    want_rows, want_pivots = zech_systematic(f, g, order)
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    assert rows.tobytes() == want_rows.tobytes()
    assert pivots == want_pivots
    assert all(type(c) is int for c in pivots)


@pytest.mark.parametrize("bad", [7, -1, 2 ** 40, 2 ** 70])
def test_rank_refuses_an_encoding_outside_the_field(bad):
    """7 is past GF(5)'s encodings; -1 and 2**40 used to raise a bare
    IndexError, and 7 to give rank 2 from a garbage form."""
    f = make_field(5)
    g = [[1, bad, 2], [2, 3, 1]]
    with pytest.raises(ValueError, match="out of range"):
        linalg.rank(f, g)
    with pytest.raises(ValueError, match="out of range"):
        linalg.systematic(f, g, [2, 1, 0])


def counted_rank(field, mat):
    """(linalg.rank, whether check_self_dual would prove it without
    elimination): is_grs, read with systematic refused; where it holds,
    the rank is the row count."""
    def refuse(f, a, order):
        raise AssertionError("eliminated")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "systematic", refuse)
        proved = is_grs(field, mat)
    r = linalg.rank(field, mat)
    assert r == mat.shape[0] or not proved
    return r, proved


@st.composite
def eval_sets(draw, max_n=12):
    """A random plain or extended EvalSet over one of FIELDS on 1 to
    max_n points, at times with the node 0, and random multipliers."""
    f = make_field(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, min(f.q, max_n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.choice(f.q, size=n, replace=False)
    if draw(st.booleans()) and 0 not in points:
        points[rng.integers(0, n)] = 0  # the node 0: a_j**i = 0 for i > 0
    return EvalSet(f, points, rng.integers(1, f.q, size=n), draw(st.booleans()))


@st.composite
def grs_matrices(draw):
    """G of a random GRS code, plain or extended, with 1 <= k <= length,
    and the number of evaluation points."""
    es = draw(eval_sets())
    k = draw(st.integers(1, es.length))
    return es.field, generator_matrix(es, k).data, es.n


@settings(max_examples=80, deadline=None)
@given(grs_matrices())
def test_rank_of_grs_matrices_is_proved_without_elimination(case):
    # every G of k >= 2 rows reads as its EvalSet, extended with
    # k = length too; one row is eliminated
    f, g, n = case
    k = g.shape[0]
    assert zech_rank(f, g) == k
    assert counted_rank(f, g) == (k, k >= 2)


@settings(max_examples=150, deadline=None)
@given(grs_matrices(), st.sampled_from(["entry", "zero", "node", "tall"]),
       st.integers(0, 2 ** 32 - 1))
def test_rank_of_corrupted_grs_matrices_matches_zech_oracle(case, kind, seed):
    f, g, n = case
    rng = np.random.default_rng(seed)
    k = g.shape[0]
    lead = min(k, n)
    i, j, j2 = rng.integers(0, k), rng.integers(0, lead), rng.integers(0, lead)
    if kind == "entry":  # any other encoding
        g[i, j] = (g[i, j] + rng.integers(1, f.q)) % f.q
    elif kind == "zero":  # multiplier v_j = 0
        g[:, j] = 0
    elif kind == "node":  # a_j2 = a_j, with its own multiplier
        g[:, j2] = f.vmul(g[:, j], int(rng.integers(1, f.q)))
    else:
        g = g.T
    assert counted_rank(f, g)[0] == zech_rank(f, g)


def test_rank_proof_on_edge_shapes_and_single_corruptions():
    f = make_field(13)
    g = generator_matrix(EvalSet(f, range(8), range(1, 9)), 4).data
    square = g[:, :4]
    assert counted_rank(f, g[:1]) == (1, False)  # k = 1
    assert counted_rank(f, square) == (4, True)
    assert counted_rank(f, g.T) == (4, False)  # tall
    zero = g.copy()
    zero[:, 1] = 0
    assert counted_rank(f, zero) == (4, False)
    # a repeated node: the leading block is singular, the whole matrix
    # is not unless it is that block
    node = g.copy()
    node[:, 3] = f.vmul(g[:, 0], 5)
    assert counted_rank(f, node) == (4, False)
    assert zech_rank(f, node[:, :4]) == 3
    assert counted_rank(f, node[:, :4]) == (3, False)
    # one entry of the last row altered: det is affine in it, and its
    # cofactor is a Vandermonde determinant, so one value is singular
    for j in range(4):
        tries = []
        for c in range(f.q):
            bad = g.copy()
            bad[3, j] = c
            tries.append(bad)
        singular = [b for b in tries if zech_rank(f, b[:, :4]) < 4]
        assert len(singular) == 1
        assert counted_rank(f, singular[0][:, :4]) == (3, False)
        assert counted_rank(f, singular[0]) == (4, False)


def test_check_self_dual_proves_rank_without_elimination():
    def refuse(field, a, order):
        raise AssertionError("eliminated")

    for code in (th8_code(13, 1, 3, 0, 2), th4_code(13, 3, 1, 12)):
        f = code.field
        gmat = code.generator_matrix()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "systematic", refuse)
            assert check_self_dual(gmat)
        # adding row 0 to row 2 keeps the code, and so its zero Gram and
        # full rank, but not the shape [v_j * a_j**i]
        g = gmat.data.copy()
        g[2] = f.vadd(g[2], g[0])
        mixed = GeneratorMatrix(f, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "systematic", refuse)
            with pytest.raises(AssertionError, match="eliminated"):
                check_self_dual(mixed)
        assert check_self_dual(mixed)


def test_minors_refuse_matrices_no_eval_set_gives():
    """A repeated node, two unit columns, a zero column and the unit
    column with c = 0: none is MDS, and the minor test refuses each."""
    f = make_field(13)
    es = EvalSet(f, range(6), range(1, 7), True)
    g = generator_matrix(es, 3).data
    assert check_mds(GeneratorMatrix(f, g), "minors")
    node = g.copy()
    node[:, 4] = f.vmul(g[:, 1], 5)  # a_4 = a_1, multiplier 5 v_1
    two = g.copy()
    two[:, 0] = [0, 0, 7]
    zero, last = g.copy(), g.copy()
    zero[:, 2] = 0
    last[:, 6] = 0  # the unit column with c = 0
    for bad in (node, two, zero, last):
        assert not check_mds(GeneratorMatrix(f, bad), "minors")


def grs_shape(field, g):
    """Whether g is generator_matrix(es, k) of some EvalSet es with
    2 <= k, in scalar ops: every column [v_j * a_j**i] with v_j != 0 and
    distinct a_j, but a last column (0, ..., 0, 1), the unit column."""
    k, n = g.shape
    cols = g.T.tolist()
    if not 2 <= k <= n:
        return False
    if cols[-1] == [0] * (k - 1) + [1]:
        cols.pop()
    if any(col[0] == 0 for col in cols):
        return False
    a = [field.mul(col[1], field.inv(col[0])) for col in cols]
    return len(set(a)) == len(a) and all(
        col[i + 1] == field.mul(col[i], x)
        for col, x in zip(cols, a) for i in range(k - 1))


def block_rows(field, k, n):
    """The row-block size of linalg.gram, from its module constants:
    _BLOCK_BYTES of planes at 4 bytes an entry where they are float32,
    at width * (p-1)**2 < _EXACT32, else at 8."""
    most = (linalg._EXACT - 1) // (field.p - 1) ** 2
    chunks = -(-n // most)
    width = -(-n // chunks)
    size = 4 if width * (field.p - 1) ** 2 < linalg._EXACT32 else 8
    return max(1, linalg._BLOCK_BYTES // (size * field.m * chunks * width),
               min(8, k // (2 * field.m)))


def sumset_rows(k, cap):
    """Baby rows 0..b-1, k-b..k-1 and giant rows 0, b, 2b, ..., k-1 of
    the Hankel Gram: the first b from isqrt(k // 2) (at least 1) to cap
    whose giant rows fit one block of cap rows, if one does, else
    isqrt(k // 2) capped at cap."""
    b = max(1, math.isqrt(k // 2))
    b = next((c for c in range(b, cap + 1)
              if len(range(0, k - 1, c)) < cap), min(b, cap))
    return (sorted(set(range(b)) | set(range(k - b, k))),
            sorted(set(range(0, k, b)) | {k - 1}))


def sqrt_bound(k):
    """2 ceil(sqrt(2k)) + 1: the plane rows the Hankel path may form."""
    return 2 * (math.isqrt(2 * k - 1) + 1) + 1


def traced_gram(field, g):
    """(linalg.gram on the path check_self_dual takes for a bare G,
    whether that is the Hankel path).

    The Hankel path is the one where _grs_eval_set reads G as some
    EvalSet's rows, read here once: gram itself reads no shape.  Its
    left operand is the coefficient planes of the baby rows, formed in
    one call with the first row block of giant rows, and it forms the
    rest of the giant rows one row block at a time: 2b + k/b + 1 rows
    in all, never more than two row blocks held, and either one call
    or at most 2 ceil(sqrt(2k)) + 1 rows when the block size does not
    cap b.  The general path forms the planes of all of g in one call,
    and each row block is a slice of them."""
    rows, planes = [], linalg._coeff_planes

    def counted(f, a, chunks, width):
        rows.append(a.shape[0])
        return planes(f, a, chunks, width)

    def refuse(f, a):
        raise AssertionError("gram read the GRS shape")

    k, n = g.shape
    cap = block_rows(field, k, n)
    hankel = is_grs(field, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_coeff_planes", counted)
        mp.setattr(grs, "_grs_eval_set", refuse)
        out = linalg.gram(field, g, hankel)
    if not hankel:
        assert rows == [k], rows
    else:
        held, streamed = sumset_rows(k, cap)
        blocks = [min(cap, len(streamed) - r0)
                  for r0 in range(0, len(streamed), cap)]
        assert rows == [len(held) + blocks[0]] + blocks[1:], rows
        assert len(held) <= 2 * cap
        if cap >= math.isqrt(k // 2):
            assert len(rows) == 1 or sum(rows) <= sqrt_bound(k), rows
        assert len(rows) == 1 or not any(
            len(range(0, k - 1, c)) < cap for c in range(1, cap + 1))
    return out, hankel


def refuse_full_gram(mp, n, m, k, block=8):
    """With row blocks of `block` rows of float32 planes (p = 13), make
    plane arrays of more than 2 ceil(sqrt(2k)) + 1 rows in all of a
    matrix with n columns raise: the general Gram path forms one of all
    k rows.  Returns the list of rows of each plane array formed."""
    planes, formed = linalg._coeff_planes, []

    def small(f, a, chunks, width):
        formed.append(a.shape[0])
        if sum(formed) > sqrt_bound(k):
            raise AssertionError("full planes")
        return planes(f, a, chunks, width)

    mp.setattr(linalg, "_BLOCK_BYTES", 4 * m * n * block)
    mp.setattr(linalg, "_coeff_planes", small)
    return formed


@settings(max_examples=80, deadline=None)
@given(grs_matrices())
def test_gram_of_grs_matrices_takes_the_hankel_path(case):
    # a one-row G reads as no EvalSet, and its Gram is one entry
    f, g, n = case
    expect = zech_gram(f, g)
    got, hankel = traced_gram(f, g)
    assert hankel == (g.shape[0] >= 2)
    assert np.array_equal(got, expect)
    # many column chunks and row blocks, on both the reader and the
    # planes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_EXACT", 3 * (f.p - 1) ** 2 + 1)
        mp.setattr(linalg, "_BLOCK_BYTES", 8 * f.m * g.shape[1] * 2)
        got, again = traced_gram(f, g)
    assert again == hankel
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("p, m, k, n, grs, blocks", [
    (7, 2, 40, 48, True, [12 + 8]), (3, 5, 40, 80, True, [8 + 4, 4, 3]),
    (13, 3, 50, 100, True, [14 + 8]), (3, 2, 3, 6, True, [2 + 1, 1, 1]),
    (5, 2, 20, 30, False, [20]),
    (7, 2, 12, 48, True, [4 + 3, 3, 1]), (13, 3, 90, 100, True, [12 + 8, 8])])
def test_gram_blocks_keep_several_rows_below_a_one_row_budget(p, m, k, n, grs,
                                                              blocks):
    """With _BLOCK_BYTES below one row of planes, a block still takes
    min(8, k // 2m) rows (at least one): 8 rows of m planes each stay
    below half of G.  On the Hankel path the held planes come first, in
    one call with the first block: the 2b baby rows, b capped at one
    block, then the giant rows 0, b, 2b, ... and k-1, in one block if
    some b <= rows lets them (k = 40 over GF(49) raises b from 4 to 6
    and k = 50 over GF(13^3) from 5 to 7 for it).  The general path
    forms the planes of its k rows in one call, and each block is a
    slice of them."""
    f = make_field(p, m)
    rng = np.random.default_rng(k * n)
    if grs:
        es = EvalSet(f, rng.choice(f.q, size=n, replace=False),
                     rng.integers(1, f.q, size=n))
        g = generator_matrix(es, k).data
    else:
        g = rng.integers(0, f.q, size=(k, n))
    hankel = is_grs(f, g)
    assert hankel == grs
    expect = linalg.gram(f, g, hankel)
    rows, planes = [], linalg._coeff_planes

    def counted(f, a, chunks, width):
        rows.append(a.shape[0])
        return planes(f, a, chunks, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_BLOCK_BYTES", 8)
        mp.setattr(linalg, "_coeff_planes", counted)
        got = linalg.gram(f, g, hankel)
    assert rows == blocks
    assert np.array_equal(got, expect)
    assert np.array_equal(got, zech_gram(f, g))


def corrupt(f, g, n, kind, rng):
    """g with one defect of the given kind; n is the number of GRS
    columns, so columns from n on are extension columns."""
    g = g.copy()
    k, cols = g.shape
    if kind == "past":  # one entry of a column rank's block never reads
        j = int(rng.integers(min(k, cols - 1), cols))
        i = int(rng.integers(0, k))
        g[i, j] = (g[i, j] + rng.integers(1, f.q)) % f.q
    elif kind == "ext":  # a nonzero above the last row of a unit column
        if cols == n:
            g = np.hstack([g, np.zeros((k, 1), dtype=np.int64)])
            g[k - 1, n] = rng.integers(0, f.q)
        g[int(rng.integers(0, max(1, k - 1))), -1] = rng.integers(1, f.q)
    elif kind == "head":  # a zero in row 0 of a GRS column
        g[0, int(rng.integers(0, n))] = 0
    else:
        g = rng.integers(0, f.q, size=g.shape)
    return g


@settings(max_examples=120, deadline=None)
@given(grs_matrices(), st.sampled_from(["past", "ext", "head", "random"]),
       st.integers(0, 2 ** 32 - 1))
def test_gram_of_corrupted_grs_matrices_matches_zech_oracle(case, kind, seed):
    # a corrupted matrix takes the general path unless it is still some
    # EvalSet's rows, as a G of k = 2 with a new row 0 or 1 may be
    f, g, n = case
    bad = corrupt(f, g, n, kind, np.random.default_rng(seed))
    expect = zech_gram(f, bad)
    got, hankel = traced_gram(f, bad)
    assert hankel == grs_shape(f, bad)
    assert np.array_equal(got, expect)
    # many column chunks and row blocks on either path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_EXACT", 3 * (f.p - 1) ** 2 + 1)
        mp.setattr(linalg, "_BLOCK_BYTES", 8 * f.m * bad.shape[1] * 2)
        got, again = traced_gram(f, bad)
    assert again == hankel
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("extended", [False, True])
def test_gram_shape_check_reads_every_column(extended):
    f = make_field(13, 2)
    rng = np.random.default_rng(4)
    n, k = 24, 6
    points = rng.choice(f.q, size=n, replace=False)
    es = EvalSet(f, points, rng.integers(1, f.q, size=n), extended)
    g = generator_matrix(es, k).data
    got, hankel = traced_gram(f, g)
    assert hankel and np.array_equal(got, zech_gram(f, g))
    for kind in ("past", "ext", "head", "random"):
        for seed in range(3):
            bad = corrupt(f, g, n, kind, np.random.default_rng(seed))
            got, hankel = traced_gram(f, bad)
            assert not hankel, (kind, seed)
            assert not grs_shape(f, bad)
            assert np.array_equal(got, zech_gram(f, bad)), (kind, seed)
    # the last row of every GRS column past the leading block
    for j in range(k, n):
        bad = g.copy()
        bad[k - 1, j] = f.add(int(bad[k - 1, j]), 1)
        got, hankel = traced_gram(f, bad)
        assert not hankel and np.array_equal(got, zech_gram(f, bad))


def test_check_self_dual_never_forms_full_gram_planes():
    for code in (th8_code(13, 1, 3, 0, 2), th4_code(13, 3, 1, 12)):
        f = code.field
        gmat = code.generator_matrix()
        k, n = gmat.data.shape
        assert k > 8 * 7  # giant rows past one block of 8
        with pytest.MonkeyPatch.context() as mp:
            formed = refuse_full_gram(mp, n, f.m, k)
            assert check_self_dual(gmat)
        assert len(formed) > 1
        # row 0 added to row 2: the same code, not the shape
        g = gmat.data.copy()
        g[2] = f.vadd(g[2], g[0])
        with pytest.MonkeyPatch.context() as mp:
            refuse_full_gram(mp, n, f.m, k)
            with pytest.raises(AssertionError, match="full planes"):
                check_self_dual(GeneratorMatrix(f, g))
        assert check_self_dual(GeneratorMatrix(f, g))


def test_hankel_gram_memory_stays_below_one_copy_of_g():
    f = make_field(3, 9)
    k, n = 1000, 2000
    rng = np.random.default_rng(11)
    es = EvalSet(f, rng.choice(f.q, size=n, replace=False),
                 rng.integers(1, f.q, size=n))
    g = generator_matrix(es, k).data
    tracemalloc.start()
    try:
        got = shaped_gram(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * k * n, (peak, 8 * k * n)
    for i, j in [(0, 0), (0, k - 1), (k - 1, k - 1), (317, 682), (999, 3)]:
        assert got[i, j] == zech_sum(f, f.vmul(g[i], g[j]))


@pytest.mark.parametrize("m", [None, 1, 10])
def test_sumset_rows_cover_every_index_within_the_bound(m, monkeypatch):
    """Every u <= 2k-2 is a baby row plus a giant row, for every
    k <= 5000: with b uncapped (m = None) in 2 ceil(sqrt(2k)) + 1 rows,
    never all k rows once b >= 2; with _BLOCK_BYTES = 8, whose blocks of
    min(8, k // 2m) rows cap b, in 2b + ceil((k-1)/b) + 1 rows, 2b of
    them held.  The giant rows fit one block wherever some b <= cap lets
    them, b passes isqrt(k // 2) only as far as that needs and otherwise
    is isqrt(k // 2) capped at cap; both m = 1 and m = 10 reach k whose
    giant rows take several blocks."""
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 8)
    several = False
    for k in range(1, 5001):
        cap = k if m is None else block_rows(SimpleNamespace(p=3, m=m),
                                             k, 2 * k)
        baby, giant = linalg._sumset_rows(k, cap)
        b = 1 if k < 3 else int(giant[1])
        assert (baby.tolist(), giant.tolist()) == sumset_rows(k, cap)
        sums = np.add.outer(baby, giant).ravel()
        assert np.bincount(sums, minlength=2 * k - 1).all(), k
        assert sums.max() == 2 * k - 2
        assert baby.size == min(2 * b, k) and baby.size <= 2 * cap
        assert b <= cap and giant.size <= -(-(k - 1) // b) + 1
        fits = m is None or any(len(range(0, k - 1, c)) < cap
                                for c in range(1, cap + 1))
        assert giant.size <= cap or not fits, k
        if b > max(1, math.isqrt(k // 2)):  # raised only to fit one block
            assert giant.size <= cap < len(range(0, k - 1, b - 1)) + 1, k
        else:
            assert b == min(max(1, math.isqrt(k // 2)), cap), k
        several |= giant.size > cap
        if m is None:
            assert baby.size + giant.size <= sqrt_bound(k), k
            assert b < 2 or giant.size < k
    assert several == (m is not None)


def test_hankel_proof_is_one_round_where_its_giant_rows_fit_one_block():
    """th8_code(13,1,3,0,4), [732,366], and th10_code(13,1,3,0,3),
    [550,275], form every plane of their Hankel proof in one
    _coeff_planes call: their float32 planes count at 4 bytes an entry,
    so 29 and 39 rows make a block, b rises from 13 to 14 at k = 366 and
    their giant rows fit it (2b + giant: 28 + 28 and 22 + 26 rows).  At
    [4472,2236] over GF(3^10) the budget holds one row of planes, so the
    floor of 8 rows makes the block and still caps b at 8: held and
    first-block planes are 3 blocks of 8 rows, then 35 more blocks, 297
    rows in all, as before planes were counted at their itemsize."""
    calls, planes = [], linalg._coeff_planes

    def counted(f, a, chunks, width):
        out = planes(f, a, chunks, width)
        calls.append((a.shape[0], out.nbytes))
        return out

    f = make_field(3, 10)
    rng = np.random.default_rng(4472)
    n, k = 4472, 2236
    big = GrsRows(EvalSet(f, rng.choice(f.q, size=n, replace=False),
                          rng.integers(1, f.q, size=n)), k)
    for src, rows in ((th8_code(13, 1, 3, 0, 4).rows(), [28 + 28]),
                      (th10_code(13, 1, 3, 0, 3).rows(), [22 + 26]),
                      (big, [16 + 8] + [8] * 34 + [1])):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_coeff_planes", counted)
            got = linalg.gram(src.field, src, hankel=True)
        assert [r for r, _ in calls] == rows
        assert calls[0][1] == rows[0] * src.field.m * src.shape[1] * 4
        if src is not big:
            assert not got.any()  # self-dual
    held, giant = linalg._sumset_rows(k, 8)
    assert held.size == 16 and giant[1] == 8
    row = calls[0][1] // calls[0][0]
    assert linalg._BLOCK_BYTES // row == 1
    assert calls[0][1] == 3 * 8 * row
    picks = [0, 1, 317, k - 1]
    g = big[picks]
    for i, j in [(0, 0), (0, 3), (3, 3), (2, 1)]:
        assert got[picks[i], picks[j]] == zech_sum(f, f.vmul(g[i], g[j]))


def test_hankel_gram_is_a_read_only_view_of_its_edge():
    f = make_field(13, 2)
    rng = np.random.default_rng(5)
    n, k = 40, 12
    es = EvalSet(f, rng.choice(f.q, size=n, replace=False),
                 rng.integers(1, f.q, size=n), True)
    g = generator_matrix(es, k).data
    got = shaped_gram(f, g)
    assert not got.flags.writeable and got.strides == (8, 8)
    with pytest.raises(ValueError):
        got[0, 0] = 1
    assert np.array_equal(got, zech_gram(f, g))
    # the general path has its own (k, k) array
    bad = g.copy()
    bad[2] = f.vadd(bad[2], bad[0])
    full = shaped_gram(f, bad)
    assert full.flags.writeable and full.flags.c_contiguous
    assert np.array_equal(full, zech_gram(f, bad))


def test_check_self_dual_reads_the_grs_shape_once(monkeypatch):
    """On a bare G, check_self_dual reads it as an EvalSet's rows once
    per call (_grs_eval_set), and takes the Hankel Gram alone on an
    EvalSet or the general path on None; on a code's GrsRows, whose rows
    are formed from its points, nothing reads it."""
    calls, read, found = [], grs._grs_eval_set, []

    def counted(gmat):
        calls.append(gmat.shape)
        found.append(read(gmat) is not None)
        return read(gmat)

    monkeypatch.setattr(grs, "_grs_eval_set", counted)
    for code in (th8_code(13, 1, 3, 0, 2), th4_code(13, 3, 1, 12)):
        gmat = code.generator_matrix()
        calls.clear()
        found.clear()
        assert check_self_dual(gmat)
        assert calls == [gmat.shape] and found == [True]
        assert check_self_dual(gmat) and len(calls) == 2
        assert check_self_dual(code.rows()) and code.verify()
        assert len(calls) == 2
        # row 0 added to row 2: the same code, off the shape
        g = gmat.data.copy()
        g[2] = code.field.vadd(g[2], g[0])
        calls.clear()
        found.clear()
        assert check_self_dual(GeneratorMatrix(code.field, g))
        assert calls == [gmat.shape] and found == [False]


@settings(max_examples=100, deadline=None)
@given(eval_sets(max_n=16), st.data())
def test_every_eval_set_gives_an_mds_code_of_rank_k(es, data):
    """The invariant that the rank of a GrsRows and the grs rung rest
    on: a GRS code on distinct points with nonzero multipliers, plain or
    extended, is MDS, every k x k minor nonzero where C(n, k) <= 5000,
    so of rank k.  At even length, check_self_dual of a code's rows,
    which forms only their Gram, agrees with that of its bare G, which
    runs the rank too, on random and on self-dual multipliers."""
    f = es.field
    k = data.draw(st.integers(1, es.length))
    if math.comb(es.length, k) <= 5000:
        assert check_mds(generator_matrix(es, k), "minors")
    if es.length % 2:
        return
    v = None
    if data.draw(st.booleans()):  # self-dual multipliers, where some are
        v = (solve_extended_multipliers(f, es.points) if es.extended
             else (solve_multipliers(f, es.points) or (0, None))[1])
    if v is not None:
        es = EvalSet(f, es.points, v, es.extended)
    code = SelfDualCode(es, es.length // 2)
    assert check_self_dual(code.rows()) == check_self_dual(
        code.generator_matrix())
    assert check_self_dual(code.rows()) or v is None


@settings(max_examples=150, deadline=None)
@given(eval_sets(), st.data())
def test_check_self_dual_of_a_changed_g_matches_zech_oracle(es, data):
    """After one in-range entry of a k x 2k G (self-dual where the
    points allow) is changed, _grs_eval_set returns None or an EvalSet
    whose generator matrix is the changed G, for k = 2 at times another
    GRS code, and check_self_dual, by the Hankel Gram alone on such an
    EvalSet, else by the general Gram and rank, equals the Zech
    oracles' verdict."""
    f = es.field
    assume(es.length % 2 == 0)
    v = (solve_extended_multipliers(f, es.points) if es.extended
         else (solve_multipliers(f, es.points) or (0, None))[1])
    if v is not None:
        es = EvalSet(f, es.points, v, es.extended)
    k = es.length // 2
    g = generator_matrix(es, k).data
    row = data.draw(st.integers(0, k - 1))
    col = data.draw(st.integers(0, 2 * k - 1))
    g[row, col] = (g[row, col] + data.draw(st.integers(1, f.q - 1))) % f.q
    gmat = GeneratorMatrix(f, g)
    read = grs._grs_eval_set(gmat)
    if read is not None:
        assert np.array_equal(generator_matrix(read, k).data, g)
    want = not zech_gram(f, g).any() and zech_rank(f, g) == k
    assert check_self_dual(gmat) == want


@st.composite
def grs_sources(draw):
    """The row source of G of a random plain or extended EvalSet,
    possibly with the node 0, with 1 <= k <= length."""
    es = draw(eval_sets(max_n=30))
    return GrsRows(es, draw(st.integers(1, es.length)))


@settings(max_examples=80, deadline=None)
@given(grs_sources())
def test_gram_of_a_row_source_matches_zech_oracle(src):
    """gram of a GrsRows, on the Hankel path, forms only the rows
    of _sumset_rows and equals zech_gram of G: plain and extended codes,
    k = 1 included."""
    f, (k, cols) = src.field, src.shape
    g = src[:]
    formed, rows = [], GrsRows.__getitem__

    def counted(self, idx):
        formed.extend(np.atleast_1d(idx).tolist())
        return rows(self, idx)

    # one block of every row, and blocks of two rows of float32 planes
    # (one of float64), or of min(8, k // 2m)
    for block in (None, 4 * f.m * cols * 2):
        formed.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GrsRows, "__getitem__", counted)
            if block:
                mp.setattr(linalg, "_BLOCK_BYTES", block)
            cap = block_rows(f, k, cols)
            got = linalg.gram(f, src, hankel=True)
        assert np.array_equal(got, zech_gram(f, g))
        held, streamed = sumset_rows(k, cap)
        assert formed == held + streamed


@settings(max_examples=80, deadline=None)
@given(grs_sources(), st.data())
def test_gram_refuses_a_formed_row_off_the_nodes(src, data):
    """gram takes no row of a bare G on trust: with one entry of any row
    changed, one the Hankel Gram reads or not, it equals zech_gram of
    the changed G.  _grs_eval_set reads row 0 and row 1 as the EvalSet,
    so a changed row i >= 2 leaves G no EvalSet's rows and the general
    path runs; a changed row 0 or 1 may give another EvalSet, whose
    generator matrix is the changed G."""
    f, (k, cols) = src.field, src.shape
    row = data.draw(st.integers(0, k - 1))
    col = data.draw(st.integers(0, cols - 1))
    g = src[:]
    g[row, col] = (g[row, col] + data.draw(st.integers(1, f.q - 1))) % f.q
    es = grs._grs_eval_set(GeneratorMatrix(f, g))
    if row >= 2:
        assert es is None
    if es is not None:
        assert np.array_equal(generator_matrix(es, k).data, g)
    assert np.array_equal(linalg.gram(f, g, es is not None), zech_gram(f, g))


def test_gram_is_exact_on_either_side_of_the_float32_bound(monkeypatch):
    """Over GF(4093), (p-1)**2 = 2**24 - 32752: chunks of one column put
    width * (p-1)**2 below 2**24, so the planes are float32 and every
    matmul entry comes within 32752 of the bound; wider chunks are past
    it, and float64.  On one G of each path, a random G and a GRS G of
    the Hankel path, both Grams equal zech_gram."""
    f = make_field(4093)
    assert (f.p - 1) ** 2 < linalg._EXACT32 < 2 * (f.p - 1) ** 2
    rng = np.random.default_rng(4093)
    es = EvalSet(f, rng.choice(f.q, size=40, replace=False),
                 rng.integers(1, f.q, size=40))
    planes, dtypes = linalg._coeff_planes, set()

    def recorded(field, a, chunks, width):
        out = planes(field, a, chunks, width)
        dtypes.add((width, out.dtype.type))
        return out

    monkeypatch.setattr(linalg, "_coeff_planes", recorded)
    # p - 1 = 4092 in every entry: each product is the largest, (p-1)**2
    top = np.full((5, 40), f.from_int(f.p - 1))
    for g in (rng.integers(0, f.q, size=(7, 40)), generator_matrix(es, 9).data,
              top):
        want, hankel = zech_gram(f, g), is_grs(f, g)
        dtypes.clear()
        wide = linalg.gram(f, g, hankel)
        assert dtypes == {(40, np.float64)}
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_EXACT", (f.p - 1) ** 2 + 1)  # width 1
            dtypes.clear()
            narrow = linalg.gram(f, g, hankel)
        assert dtypes == {(1, np.float32)}
        assert np.array_equal(wide, want) and np.array_equal(narrow, want)


def test_check_self_dual_peak_stays_below_half_a_copy_of_g():
    """[2000,1000] over GF(3^9): the Gram's (k, k) copy of its edge took
    0.59 copies of G; held baby rows and the edge view take about 0.3."""
    f = make_field(3, 9)
    k, n = 1000, 2000
    rng = np.random.default_rng(11)
    es = EvalSet(f, rng.choice(f.q, size=n, replace=False),
                 rng.integers(1, f.q, size=n))
    gmat = generator_matrix(es, k)
    linalg.gram(f, gmat.data[:2])  # the digit table, outside the peak
    tracemalloc.start()
    try:
        assert not check_self_dual(gmat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * 8 * k * n, peak / (8 * k * n)


def test_verify_of_a_code_at_the_verify_limit_peaks_below_16_mb():
    """SelfDualCode.verify of a random [4472,2236] GRS code over
    GF(3^10), k n just below 10^7, forms 297 rows of G for its Gram
    (b capped at 8 by the row block): its tracemalloc peak was 87.6 MiB
    when verify formed all of G and read its shape off it."""
    f = make_field(3, 10)
    rng = np.random.default_rng(4472)
    n = 4472
    es = EvalSet(f, rng.choice(f.q, size=n, replace=False),
                 rng.integers(1, f.q, size=n))
    code = SelfDualCode(es, n // 2)
    linalg.gram(f, code.rows()[:2])  # the digit table, outside the peak
    tracemalloc.start()
    try:
        assert not code.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20


@settings(max_examples=40, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_systematic_form_spans_the_rows(case, rnd):
    f, g = case
    order = list(range(g.shape[1]))
    rnd.shuffle(order)
    rows, pivots = linalg.systematic(f, g, order)
    r = zech_rank(f, g)
    assert len(pivots) == r == rows.shape[0]
    assert np.array_equal(rows[:, pivots], np.eye(r, dtype=np.int64))
    # same row space: stacking the form on g adds no rank
    assert zech_rank(f, np.vstack([g, rows])) == r
    # greedy in the given order: each pivot is the first column in
    # order, after the previous pivot, that adds rank
    pos = [order.index(c) for c in pivots]
    assert pos == sorted(pos)
    for i, c in enumerate(order):
        taken = [p for p in pivots if order.index(p) < i]
        grows = zech_rank(f, g[:, taken + [c]]) > len(taken)
        assert grows == (c in pivots)


def test_gram_peak_memory_is_a_small_multiple_of_the_planes():
    f = make_field(3, 9)
    k, n = 300, 600
    g = np.random.default_rng(9).integers(0, f.q, size=(k, n))
    planes = 8 * f.m * k * n
    tracemalloc.start()
    try:
        linalg.gram(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * planes, (peak, planes)
