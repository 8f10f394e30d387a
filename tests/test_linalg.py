"""The BLAS Gram and the blocked rank against plain Zech-table oracles.

zech_gram and zech_rank below are the straightforward kernels: every
sum is a fold of Zech additions and the row reduction touches every
column of every row.  They share nothing with grsdual.linalg except the
field's own vadd/vmul, so agreement is a differential check of the
coefficient-plane Gram, its chunking and row blocking, and of the
leading-block shortcut in rank.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grsdual import linalg, make_field
from grsdual.errors import TableLimitExceeded

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
    assert linalg.is_nonsingular(f, g[:, 2:])
    assert not linalg.is_nonsingular(f, g[:, 1:3])
    assert linalg.rank(f, np.zeros((0, 3), dtype=np.int64)) == 0


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
