"""The BLAS Gram, the rank, the systematic form and the batched minor
test against plain Zech-table oracles.

zech_gram and zech_rank below are the straightforward kernels: every
sum is a fold of Zech additions and the row reduction touches every
column of every row.  They share nothing with grsdual.linalg except the
field's own vadd/vmul, so agreement is a differential check of the
coefficient-plane Gram, its chunking and row blocking, of the Hankel
Gram of GRS-shaped matrices and its fallback to the upper triangle, of
the scaled-Vandermonde rank proof and its fallback to elimination, and
of the stacked elimination in nonsingular.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grsdual import linalg, make_field
from grsdual.cosets import th8_code
from grsdual.errors import TableLimitExceeded
from grsdual.grs import (
    EvalSet,
    GeneratorMatrix,
    check_self_dual,
    generator_matrix,
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


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_gram_matches_zech_oracle(case):
    f, g = case
    assert np.array_equal(linalg.gram(f, g), zech_gram(f, g))


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
    assert not np.any(linalg.gram(code.field, g))
    bad = g.copy()
    bad[1, 2] = code.field.add(int(bad[1, 2]), 1)
    assert np.array_equal(linalg.gram(code.field, bad),
                          zech_gram(code.field, bad))
    assert np.any(linalg.gram(code.field, bad))


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
    assert linalg.nonsingular(f, g[None, :, 2:]).tolist() == [True]
    assert linalg.nonsingular(f, g[None, :, 1:3]).tolist() == [False]
    assert linalg.rank(f, np.zeros((0, 3), dtype=np.int64)) == 0


def counted_rank(field, mat):
    """(linalg.rank, number of _eliminate calls it made)."""
    calls = []
    eliminate = linalg._eliminate

    def counted(f, a):
        calls.append(1)
        return eliminate(f, a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", counted)
        r = linalg.rank(field, mat)
    return r, len(calls)


@st.composite
def grs_matrices(draw, fields=FIELDS):
    """G of a random GRS code, plain or extended, with 1 <= k <= length,
    and the number of evaluation points."""
    p, m = draw(st.sampled_from(fields))
    f = make_field(p, m)
    n = draw(st.integers(1, min(f.q, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.choice(f.q, size=n, replace=False)
    if draw(st.booleans()) and 0 not in points:
        points[rng.integers(0, n)] = 0  # the node 0: a_j**i = 0 for i > 0
    es = EvalSet(f, points, rng.integers(1, f.q, size=n), draw(st.booleans()))
    k = draw(st.integers(1, es.length))
    return f, generator_matrix(es, k).data, n


@settings(max_examples=80, deadline=None)
@given(grs_matrices())
def test_rank_of_grs_matrices_is_proved_without_elimination(case):
    # only an extended code with k = length has the extra column in its
    # leading block, and only that matrix is reduced
    f, g, n = case
    k = g.shape[0]
    assert zech_rank(f, g) == k
    assert counted_rank(f, g) == (k, int(k > n))


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
    assert linalg.rank(f, g) == zech_rank(f, g)


def test_rank_proof_on_edge_shapes_and_single_corruptions():
    f = make_field(13)
    g = generator_matrix(EvalSet(f, range(8), range(1, 9)), 4).data
    square = g[:, :4]
    assert counted_rank(f, g[:1]) == (1, 0)  # k = 1
    assert counted_rank(f, square) == (4, 0)
    assert counted_rank(f, g.T) == (4, 1)  # tall
    zero = g.copy()
    zero[:, 1] = 0
    assert counted_rank(f, zero) == (4, 1)
    # a repeated node: the leading block is singular, the whole matrix
    # is not unless it is that block
    node = g.copy()
    node[:, 3] = f.vmul(g[:, 0], 5)
    assert counted_rank(f, node) == (4, 1)
    assert zech_rank(f, node[:, :4]) == 3
    assert counted_rank(f, node[:, :4]) == (3, 1)
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
        assert counted_rank(f, singular[0][:, :4]) == (3, 1)
        assert counted_rank(f, singular[0]) == (4, 1)


def test_check_self_dual_proves_rank_without_elimination():
    def refuse(field, a):
        raise AssertionError("eliminated")

    for code in (th8_code(13, 1, 3, 0, 2), th4_code(13, 3, 1, 12)):
        f = code.field
        gmat = code.generator_matrix()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_eliminate", refuse)
            assert check_self_dual(gmat)
        # adding row 0 to row 2 keeps the code, and so its zero Gram and
        # full rank, but not the shape [v_j * a_j**i]
        g = gmat.data.copy()
        g[2] = f.vadd(g[2], g[0])
        mixed = GeneratorMatrix(f, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_eliminate", refuse)
            with pytest.raises(AssertionError, match="eliminated"):
                check_self_dual(mixed)
        assert check_self_dual(mixed)


def grs_shape(field, g):
    """Whether every column is [v_j * a_j**i] with v_j != 0, or zero
    above its last row: the shape of linalg._grs_nodes, in scalar ops."""
    k = g.shape[0]
    for col in g.T.tolist():
        if col[0]:
            a = field.mul(col[min(1, k - 1)], field.inv(col[0]))
            if any(col[i + 1] != field.mul(col[i], a) for i in range(k - 1)):
                return False
        elif any(col[:k - 1]):
            return False
    return True


def traced_gram(field, g):
    """(linalg.gram, whether it took the Hankel path).

    The general path forms the coefficient planes of all of g in one
    call; the Hankel path forms those of rows 0 and k-1, then those of
    one row block at a time."""
    rows = []
    planes = linalg._coeff_planes

    def counted(f, a, chunks, width):
        rows.append(a.shape[0])
        return planes(f, a, chunks, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_coeff_planes", counted)
        out = linalg.gram(field, g)
    k = g.shape[0]
    assert rows == [k] or (rows[0] == 2 and sum(rows[1:]) == k), rows
    return out, len(rows) > 1


def refuse_full_gram(mp, n, m, block=16):
    """Make any plane array of more than `block` rows of a matrix with n
    columns raise: the general Gram path forms one of all k rows."""
    planes = linalg._coeff_planes

    def small(f, a, chunks, width):
        if a.shape[0] > block:
            raise AssertionError("full planes")
        return planes(f, a, chunks, width)

    mp.setattr(linalg, "_BLOCK_BYTES", 8 * m * n * block)
    mp.setattr(linalg, "_coeff_planes", small)


@settings(max_examples=80, deadline=None)
@given(grs_matrices())
def test_gram_of_grs_matrices_takes_the_hankel_path(case):
    f, g, n = case
    expect = zech_gram(f, g)
    got, hankel = traced_gram(f, g)
    assert hankel
    assert np.array_equal(got, expect)
    # many column chunks and row blocks, on both the shape check and
    # the planes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_EXACT", 3 * (f.p - 1) ** 2 + 1)
        mp.setattr(linalg, "_BLOCK_BYTES", 8 * f.m * g.shape[1] * 2)
        got, hankel = traced_gram(f, g)
    assert hankel
    assert np.array_equal(got, expect)


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
    # a corrupted matrix takes the general path unless it still has the
    # shape, as every matrix with k <= 2 does
    f, g, n = case
    bad = corrupt(f, g, n, kind, np.random.default_rng(seed))
    got, hankel = traced_gram(f, bad)
    assert hankel == grs_shape(f, bad)
    assert np.array_equal(got, zech_gram(f, bad))


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
    # the last row of every GRS column past the leading block (that of
    # the unit column is free)
    for j in range(k, n):
        bad = g.copy()
        bad[k - 1, j] = f.add(int(bad[k - 1, j]), 1)
        assert not traced_gram(f, bad)[1]
        assert np.array_equal(linalg.gram(f, bad), zech_gram(f, bad))


def test_check_self_dual_never_forms_full_gram_planes():
    for code in (th8_code(13, 1, 3, 0, 2), th4_code(13, 3, 1, 12)):
        f = code.field
        gmat = code.generator_matrix()
        k, n = gmat.data.shape
        assert k > 16
        with pytest.MonkeyPatch.context() as mp:
            refuse_full_gram(mp, n, f.m)
            assert check_self_dual(gmat)
        # row 0 added to row 2: the same code, not the shape
        g = gmat.data.copy()
        g[2] = f.vadd(g[2], g[0])
        with pytest.MonkeyPatch.context() as mp:
            refuse_full_gram(mp, n, f.m)
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
        got = linalg.gram(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * k * n, (peak, 8 * k * n)
    for i, j in [(0, 0), (0, k - 1), (k - 1, k - 1), (317, 682), (999, 3)]:
        assert got[i, j] == zech_sum(f, f.vmul(g[i], g[j]))


@st.composite
def square_stacks(draw, fields=FIELDS):
    """A stack of k x k matrices, some made singular on purpose."""
    p, m = draw(st.sampled_from(fields))
    f = make_field(p, m)
    k = draw(st.integers(1, 7))
    count = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = rng.integers(0, f.q, size=(count, k, k))
    stack[rng.random(stack.shape) < draw(st.sampled_from([0.0, 0.4, 0.8]))] = 0
    for b in range(count):
        kind = rng.integers(0, 5)
        if kind == 1:  # a zero row
            stack[b, rng.integers(0, k)] = 0
        elif kind == 2:  # a zero column
            stack[b, :, rng.integers(0, k)] = 0
        elif kind == 3 and k > 1:  # a row that combines the others
            stack[b, -1] = combine(f, rng, stack[b, :-1], 1)[0]
        elif kind == 4 and k > 1:  # a repeated column
            stack[b, :, 0] = stack[b, :, k - 1]
    return f, stack


@settings(max_examples=60, deadline=None)
@given(square_stacks())
def test_nonsingular_matches_zech_rank_on_mixed_stacks(case):
    f, stack = case
    k = stack.shape[1]
    expect = [zech_rank(f, mat) == k for mat in stack]
    assert linalg.nonsingular(f, stack).tolist() == expect


def test_nonsingular_on_empty_and_permuted_stacks():
    f = make_field(13)
    assert linalg.nonsingular(f, np.zeros((0, 3, 3), dtype=np.int64)).size == 0
    # pivots at different rows per matrix: a permutation matrix needs a
    # row swap at every step, the identity none
    perm = np.eye(4, dtype=np.int64)[[3, 1, 0, 2]]
    stack = np.stack([np.eye(4, dtype=np.int64), perm,
                      np.zeros((4, 4), dtype=np.int64)])
    assert linalg.nonsingular(f, stack).tolist() == [True, True, False]


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
