"""Dense linear algebra on integer-encoding matrices over a Field.

Matrices are numpy arrays of encodings.  Sums fold pairwise so each
reduction is O(log n) vectorized Zech additions instead of a Python
loop over entries.
"""

from __future__ import annotations

import numpy as np


def fold_sum(field, a, axis=-1):
    """Sum of encodings along an axis by repeated halving."""
    a = np.asarray(a, dtype=np.int64)
    a = np.moveaxis(a, axis, -1)
    while a.shape[-1] > 1:
        w = a.shape[-1]
        if w & 1:
            pad = np.zeros(a.shape[:-1] + (1,), dtype=np.int64)
            a = np.concatenate([a, pad], axis=-1)
            w += 1
        a = field.vadd(a[..., : w // 2], a[..., w // 2:])
    return a[..., 0]


def gram(field, g):
    """G @ G.T over the field; rows of g are codeword generators."""
    g = np.asarray(g, dtype=np.int64)
    k = g.shape[0]
    out = np.empty((k, k), dtype=np.int64)
    for i in range(k):
        out[i] = fold_sum(field, field.vmul(g[i][None, :], g), axis=1)
    return out


def row_reduce(field, mat):
    """Row echelon form; returns (reduced copy, rank)."""
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
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = field.vmul(a[r], field.inv(int(a[r, c])))
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            idx = below + r + 1
            factors = field.vneg(a[idx, c])
            a[idx] = field.vadd(a[idx], field.vmul(factors[:, None], a[r][None, :]))
        r += 1
    return a, r


def rank(field, mat):
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    return row_reduce(field, mat)[1]


def is_nonsingular(field, mat):
    mat = np.asarray(mat)
    return rank(field, mat) == mat.shape[0]
