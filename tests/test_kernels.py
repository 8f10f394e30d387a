"""The division-free kernels against the divmod bodies they replaced.

ref_vadd, ref_vsub, ref_vneg, ref_vmul, ref_vpow and ref_coeff_planes
below are the plain kernels: the modulus q-1 through int64 %, and the
coefficient planes through m rounds of % p and // p on the base-p value
of every entry.  ref_lagrange_products forms L(a_i) by vsub and vprod
over the whole difference matrix.  They live here only, as oracles for
Field.vadd, Field.vsub, Field.vneg, Field.vmul, Field.vpow,
linalg._coeff_planes (which reads the field's digit table),
generator_matrix (which calls the field kernels in row blocks) and
lagrange_products and products_at (one Zech entry per pair, through
Field.zech_diffs); brute_zech_sums adds coefficient vectors, the
oracle of Field.zech_sums.  The module also bounds the memory of
generator_matrix, checks that the digit table waits for a Gram, and
that the int32 field tables never reach a kernel's or a matrix's dtype.
"""

import functools
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grsdual import grs, linalg, make_field
from grsdual.errors import DuplicatePoints, ZeroArgument
from grsdual.field import _build_field, factor_prime_power
from grsdual.grs import (EvalSet, GrsRows, SelfDualCode, generator_matrix,
                         lagrange_products, products_at)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# m = 1 and m > 1; p = 251 and 257 on either side of the uint8 digit
# boundary; the largest prime below 2^22 needs uint32 digits
FIELDS = [(3, 1), (13, 1), (3, 9), (13, 3), (251, 1), (257, 2),
          (4194301, 1)]


def ref_vadd(field, a, b):
    a, b = field.varray(a), field.varray(b)
    n = field.q - 1
    z = field._zech[(b - a) % n]
    out = np.where(z < 0, 0, (a - 1 + z) % n + 1)
    out = np.where(a == 0, b, out)
    return np.where(b == 0, a, out)


def ref_vneg(field, a):
    a = field.varray(a)
    return np.where(a == 0, 0, (a - 1 + field._half) % (field.q - 1) + 1)


def ref_vsub(field, a, b):
    a, b = field.varray(a), field.varray(b)
    n, h = field.q - 1, field._half
    z = field._zech[(b + h - a) % n]
    out = np.where(z < 0, 0, (a - 1 + z) % n + 1)
    return np.where(b == 0, a, np.where(a == 0, (b - 1 + h) % n + 1, out))


def ref_vmul(field, a, b):
    a, b = field.varray(a), field.varray(b)
    out = (a + b - 2) % (field.q - 1) + 1
    return np.where((a == 0) | (b == 0), 0, out)


def ref_vpow(field, a, e):
    a = field.varray(a)
    if np.any((e < 0) & (a == 0)):
        raise ZeroArgument("zero has no negative power")
    n = field.q - 1
    return np.where(a == 0, e == 0, (a - 1) * field.varray(e % n) % n + 1)


def ref_coeff_planes(field, g, chunks, width):
    p, m = field.p, field.m
    k, n = g.shape
    vals = np.zeros((k, chunks * width), dtype=np.int64)
    nz = g != 0
    vals[:, :n][nz] = field._exp_int[g[nz] - 1]
    vals = vals.reshape(k, chunks, width).transpose(1, 0, 2)
    planes = np.empty((chunks, k, m, width), dtype=np.float64)
    for s in range(m):
        planes[:, :, s, :] = vals % p
        vals = vals // p
    return planes


def ref_lagrange_products(field, points, rows=None):
    """L(a_i) for i in rows (all of them by default) within every set
    (last axis of points): vsub over each set's difference matrix, 1 on
    the point itself, then vprod.  A zero difference raises."""
    a = np.array(points, dtype=np.int64)
    n = a.shape[-1]
    idx = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    out = []
    for s in a.reshape(-1, n):
        d = field.vsub(s[idx, None], s)
        d[np.arange(idx.size), idx] = 1  # empty factor for the point itself
        try:
            out.append(field.vprod(d, axis=1))
        except ZeroArgument:
            raise DuplicatePoints("evaluation points are not distinct") from None
    out = np.concatenate(out)
    return out if rows is not None else out.reshape(a.shape)


def scalar_grid(op, a, b):
    """op on every pair of the broadcast of a and b, as an int64 array."""
    a, b = np.asarray(a), np.asarray(b)
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = [op(int(x), int(y)) for x, y in np.broadcast(a, b)]
    return np.array(out, dtype=np.int64).reshape(shape)


@st.composite
def operands(draw, shapes):
    """A field and two operands of one of the given shape pairs; "int"
    is a Python int.  Zeros are drawn on either side."""
    f = make_field(*draw(st.sampled_from(FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3, 1.0]))
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))

    def operand(shape):
        if shape == "int":
            return 0 if rng.random() < zeros else int(rng.integers(1, f.q))
        shape = tuple(k if d == "k" else n if d == "n" else d for d in shape)
        x = rng.integers(1, f.q, size=shape)
        x[rng.random(shape) < zeros] = 0
        return x

    left, right = draw(st.sampled_from(shapes))
    return f, operand(left), operand(right)


MUL_SHAPES = [("int", "int"), ((), ()), ((), "int"), ("int", ("k", "n")),
              (("k", "n"), "int"), (("k", 1), (1, "n")), ((1, "n"), ("k", 1)),
              (("n",), ("k", "n")), (("k", "n"), ("k", "n"))]


@settings(max_examples=300, deadline=None)
@given(operands(MUL_SHAPES))
def test_vmul_matches_the_divmod_kernel_and_mul(case):
    f, a, b = case
    before = [np.array(a, copy=True), np.array(b, copy=True)]
    got = f.vmul(a, b)
    expect = scalar_grid(f.mul, a, b)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.shape == expect.shape and np.array_equal(got, expect)
    ref = ref_vmul(f, a, b)
    assert ref.shape == got.shape and np.array_equal(ref, got)
    # the kernel works in place on its own buffer only
    assert np.array_equal(before[0], a) and np.array_equal(before[1], b)


@pytest.mark.parametrize("kernel, scalar, ref", [
    ("vadd", "add", ref_vadd), ("vsub", "sub", ref_vsub),
    ("vneg", "neg", ref_vneg)])
@settings(max_examples=300, deadline=None)
@given(case=operands(MUL_SHAPES))
def test_zech_kernels_match_the_divmod_kernel_and_scalar(kernel, scalar, ref,
                                                         case):
    f, a, b = case
    before = [np.array(a, copy=True), np.array(b, copy=True)]
    if kernel == "vneg":
        got, expect = f.vneg(a), scalar_grid(lambda x, _: f.neg(x), a, a)
        want = ref(f, a)
    else:
        got = getattr(f, kernel)(a, b)
        expect = scalar_grid(getattr(f, scalar), a, b)
        want = ref(f, a, b)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.shape == expect.shape and np.array_equal(got, expect)
    assert want.shape == got.shape and np.array_equal(want, got)
    assert np.array_equal(before[0], a) and np.array_equal(before[1], b)


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 121, 125, 169, 243, 257])
def test_zech_kernels_match_the_divmod_kernels_exhaustively(q):
    f = make_field(*factor_prime_power(q))
    a, b = np.arange(q)[:, None], np.arange(q)[None, :]
    assert np.array_equal(f.vadd(a, b), ref_vadd(f, a, b))
    assert np.array_equal(f.vsub(a, b), ref_vsub(f, a, b))
    assert np.array_equal(f.vneg(a), ref_vneg(f, a))


@settings(max_examples=300, deadline=None)
@given(operands([("int", "int"), ((), "int"), (("n",), "int"),
                 (("k", "n"), "int"), (("n",), ("k", 1)),
                 (("k", 1), (1, "n")), (("k", "n"), ("k", "n"))]),
       st.sampled_from([0, 1, -1, 10 ** 30, -(10 ** 30)]),
       st.booleans())
def test_vpow_matches_the_divmod_kernel_and_power(case, shift, negate):
    # operands draws encodings; as exponents they are shifted by a
    # multiple of q - 1 or past int64 (Python ints only) and negated
    f, a, e = case
    if isinstance(e, int) or abs(shift) == 1:  # int64 arrays stay in range
        e = e + shift * (f.q - 1)
    if negate:
        e = -e
    try:
        expect = scalar_grid(f.power, a, e)
    except ZeroArgument:
        with pytest.raises(ZeroArgument):
            f.vpow(a, e)
        with pytest.raises(ZeroArgument):
            ref_vpow(f, a, e)
        return
    got = f.vpow(a, e)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.shape == expect.shape and np.array_equal(got, expect)
    ref = ref_vpow(f, a, e)
    assert ref.shape == got.shape and np.array_equal(ref, got)
    # a factor v is multiplied in before the one reduction; v = 0 gives 0
    v = np.arange(got.size).reshape(got.shape) % f.q
    assert np.array_equal(f.vpow(a, e, v), ref_vmul(f, v, ref))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (13, 3), (5, 9), (4194301, 1)]), st.data())
def test_int32_tables_leave_every_kernel_and_matrix_int64(fm, data):
    """Every v-kernel returns int64 on int64 input, each scalar op a
    Python int equal to its kernel's entry, and generator_matrix, GrsRows
    and both Gram paths return int64, with encodings up to q - 1, where
    a + z in the Zech sum reaches 2 (q - 1)."""
    f = make_field(*fm)
    top = st.one_of(st.integers(0, f.q - 1),
                    st.integers(max(0, f.q - 8), f.q - 1))
    pairs = data.draw(st.lists(st.tuples(top, top), min_size=1, max_size=20))
    a, b = np.array(pairs + [(f.q - 1, f.q - 1), (0, 1)], dtype=np.int64).T
    nz = a[a != 0]
    e = data.draw(st.integers(-3 * f.q, 3 * f.q))
    squares = f.vmul(a, a)
    ab = list(zip(a.tolist(), b.tolist()))
    for got, want in [
            (f.vadd(a, b), [f.add(u, v) for u, v in ab]),
            (f.vsub(a, b), [f.sub(u, v) for u, v in ab]),
            (f.vmul(a, b), [f.mul(u, v) for u, v in ab]),
            (f.vneg(a), [f.neg(u) for u in a.tolist()]),
            (f.vpow(nz, e), [f.power(u, e) for u in nz.tolist()]),
            (f.vinv(nz), [f.inv(u) for u in nz.tolist()]),
            (f.vsign(nz), [f.sign(u) for u in nz.tolist()]),
            (f.vsqrt(squares), [f.sqrt_enc(u) for u in squares.tolist()]),
            (f.vprod(nz), [functools.reduce(f.mul, nz.tolist(), 1)])]:
        assert np.asarray(got).dtype == np.int64
        assert all(type(w) is int for w in want)
        assert np.ravel(got).tolist() == want
    points = data.draw(st.lists(st.integers(0, f.q - 1), min_size=1,
                                max_size=min(f.q, 10), unique=True))
    es = EvalSet(f, points, [data.draw(st.integers(1, f.q - 1))
                             for _ in points], data.draw(st.booleans()))
    k = data.draw(st.integers(1, es.length))
    g, src = generator_matrix(es, k), GrsRows(es, k)
    assert g.data.dtype == src[np.arange(k)].dtype == np.int64
    hankel = grs._grs_eval_set(g) is not None  # read off G
    assert linalg.gram(f, g.data, hankel).dtype == np.int64
    assert linalg.gram(f, src, hankel=True).dtype == np.int64  # row source


@pytest.mark.parametrize("p, m, dtype", [
    (3, 9, np.uint8), (251, 1, np.uint8), (257, 2, np.uint16),
    (4194301, 1, np.uint32)])
def test_the_digit_table_takes_the_smallest_dtype(p, m, dtype):
    digits = make_field(p, m).digits()
    assert digits.dtype == dtype and digits.shape == (m, p ** m)
    assert not digits[:, 0].any()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 6), st.integers(1, 40),
       st.integers(1, 40), st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(0, 2 ** 32 - 1))
def test_coeff_planes_match_the_divmod_kernel(fm, k, n, chunks, zeros, seed):
    f = make_field(*fm)
    rng = np.random.default_rng(seed)
    g = rng.integers(1, f.q, size=(k, n))
    g[rng.random(g.shape) < zeros] = 0
    chunks = min(chunks, n)
    width = -(-n // chunks)
    got = linalg._coeff_planes(f, g, chunks, width)
    ref = ref_coeff_planes(f, g, chunks, width)
    exact32 = width * (f.p - 1) ** 2 < 2 ** 24
    assert got.dtype == (np.float32 if exact32 else np.float64)
    assert got.shape == ref.shape and np.array_equal(got, ref)


@pytest.mark.parametrize("fm", FIELDS)
def test_gram_over_many_chunks_matches_the_divmod_planes(fm, monkeypatch):
    """Chunks of 3 columns: float32 planes up to p = 251 and 257, float64
    at p = 4194301, each against the float64 divmod planes."""
    f = make_field(*fm)
    rng = np.random.default_rng(f.q)
    g = rng.integers(0, f.q, size=(6, 29))
    es = EvalSet(f, rng.choice(f.q, size=min(f.q, 29), replace=False),
                 rng.integers(1, f.q, size=min(f.q, 29)))
    h = generator_matrix(es, min(6, es.n))
    assert grs._grs_eval_set(h) is not None  # the Hankel path of a bare G
    planes, dtypes = linalg._coeff_planes, set()

    def recorded(*args):
        out = planes(*args)
        dtypes.add(out.dtype.type)
        return out

    # chunks of at most 3 columns, on a general and a Hankel Gram
    monkeypatch.setattr(linalg, "_EXACT", 3 * (f.p - 1) ** 2 + 1)
    monkeypatch.setattr(linalg, "_coeff_planes", recorded)
    fast = [linalg.gram(f, g), linalg.gram(f, h.data, True)]
    assert dtypes == {np.float64 if f.p > 2 ** 12 else np.float32}
    monkeypatch.setattr(linalg, "_coeff_planes", ref_coeff_planes)
    slow = [linalg.gram(f, g), linalg.gram(f, h.data, True)]
    for x, y in zip(fast, slow):
        assert np.array_equal(x, y)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 12), st.booleans(),
       st.booleans(), st.integers(1, 3), st.data())
def test_generator_matrix_matches_the_scalar_formula(fm, n, node0, extended,
                                                     block, data):
    """Row i of a code's G is v_j a_j**i, 1 in row k-1 of the unit column,
    by scalar power and mul: through code.rows()[idx] for an int, a slice
    and an index array (any order, repeats), and through generator_matrix
    in row blocks; plain and extended sets, k = 1, k = length // 2 and a
    drawn k.  GrsRows is the one row formula every proof reads."""
    f = make_field(*fm)
    n = min(n, f.q)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.choice(f.q, size=n, replace=False)
    if node0 and 0 not in a:
        a[rng.integers(0, n)] = 0
    v = rng.integers(1, f.q, size=n)
    es = EvalSet(f, a, v, extended)
    drawn = data.draw(st.integers(1, es.length))
    for k in sorted({1, max(1, es.length // 2), drawn}):
        expect = np.zeros((k, es.length), dtype=np.int64)
        for i in range(k):
            for j in range(n):
                expect[i, j] = f.mul(int(v[j]), f.power(int(a[j]), i))
        if extended:
            expect[k - 1, n] = 1
        rows = SelfDualCode(es, k).rows()
        i = data.draw(st.integers(0, k - 1))
        lo, hi = sorted(data.draw(st.tuples(st.integers(0, k),
                                            st.integers(0, k))))
        idx = np.array(data.draw(st.lists(st.integers(0, k - 1),
                                          max_size=2 * k)), dtype=np.int64)
        for key in (i, slice(lo, hi), idx):
            got = rows[key]
            assert got.dtype == np.int64
            assert np.array_equal(got, expect[key]), key
        with pytest.MonkeyPatch.context() as mp:  # `block` rows at a time
            mp.setattr(linalg, "_BLOCK_BYTES", 8 * es.length * block)
            got = generator_matrix(es, k).data
        assert np.array_equal(got, expect)
        assert np.array_equal(generator_matrix(es, k).data, expect)
        ref = ref_vmul(f, v, ref_vpow(f, a, np.arange(k)[:, None]))
        assert np.array_equal(got[:, :n], ref)


def test_generator_matrix_costs_about_one_copy_of_g():
    """[2000,1000] over GF(3^9) with the node 0 and the unit column:
    the divmod kernels on the whole matrix peaked at 4.12 copies."""
    f = make_field(3, 9)
    rng = np.random.default_rng(2000)
    n, k = 1999, 1000
    a = rng.choice(f.q, size=n, replace=False)
    a[0] = 0
    es = EvalSet(f, a, rng.integers(1, f.q, size=n), True)
    tracemalloc.start()
    try:
        g = generator_matrix(es, k).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (k, 2000) and g[k - 1, n] == 1
    assert peak <= 1.5 * 8 * k * 2000, peak / (8 * k * 2000)


def test_the_digit_table_is_built_once_by_the_first_gram():
    f = _build_field.__wrapped__(7, 2)  # a fresh GF(49), not the cached one
    assert f._digits is None
    g = np.random.default_rng(49).integers(0, f.q, size=(3, 8))
    linalg.gram(f, g)
    table = f._digits
    assert table is not None and table.shape == (2, 49)
    linalg.gram(f, g)
    assert f._digits is table


def test_make_field_builds_no_digit_table():
    # a fresh interpreter: the cached GF(5^9) of this session may have
    # met a Gram in another test
    proc = subprocess.run(
        [sys.executable, "-c",
         "from grsdual import make_field; "
         "assert make_field(5, 9)._digits is None"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 125, 169])
def test_zech_diffs_are_the_logs_of_every_difference(q):
    """log(x - a) = log x + z with log 0 = -1, and z = -1 exactly where
    x = a, on every pair; stacked, the rows of each set meet its own
    points only."""
    f = make_field(*factor_prime_power(q))
    x = np.arange(q, dtype=np.int64)
    rng = np.random.default_rng(q)
    xs, sets = (rng.permuted(np.tile(x, (4, 1)), axis=1) for _ in range(2))
    for rows, a in ((x, x), (xs, sets), (xs[:, :3], sets)):
        z = f.zech_diffs(rows, a)
        assert z.dtype == np.int32
        assert z.shape == rows.shape + a.shape[-1:]
        rows, a = rows[..., None], a[..., None, :]
        same = rows == a
        assert np.array_equal(z == -1, same)
        logs = (rows - 1 + z) % (q - 1) + 1
        assert np.array_equal(np.where(same, 0, logs), ref_vsub(f, rows, a))


def brute_zech_sums(field, x, y):
    """log(x + y) - log x (log 0 = -1), -1 where x + y = 0, by adding
    coefficient vectors: the base-p values of x and y through _exp_int,
    digit by digit mod p, and the sum's log through _log."""
    p, q = field.p, field.q
    vals = np.concatenate([[0], field._exp_int]).astype(np.int64)
    u, v = vals[field.varray(x)], vals[field.varray(y)]
    total, w = np.zeros(np.broadcast_shapes(u.shape, v.shape), np.int64), 1
    for _ in range(field.m):
        total += (u // w % p + v // w % p) % p * w
        w *= p
    logs = field._log[total].astype(np.int64)  # log 0 is -1 in the table
    lx = field.varray(x) - 1
    return np.where(total == 0, -1, np.where(lx < 0, logs + 1,
                                             (logs - lx) % (q - 1)))


@pytest.mark.parametrize("q", [3, 9, 13, 25, 27])
def test_zech_sums_match_coefficient_addition_on_every_pair(q):
    """Every pair, zeros included: a (q, 1) x (1, q) broadcast, a stacked
    (..., r, 1) x (..., 1, n) one, and each pair again as 0-d input; and
    scalar add and sub equal vadd and vsub on every pair."""
    f = make_field(*factor_prime_power(q))
    x, y = np.arange(q)[:, None], np.arange(q)[None, :]
    z = f.zech_sums(x, y)
    want = brute_zech_sums(f, x, y)
    assert z.dtype == np.int32 and z.shape == (q, q)
    assert np.array_equal(z, want)
    xs, ys = np.stack([x, x[::-1]]), np.stack([y, y[:, ::-1]])
    assert np.array_equal(f.zech_sums(xs, ys), brute_zech_sums(f, xs, ys))
    for u, v in itertools.product(range(q), repeat=2):
        got = f.zech_sums(u, np.int64(v))
        assert got.shape == () and int(got) == want[u, v]
    # the scalar ops, which read the kernels on 0-d input
    assert np.array_equal(scalar_grid(f.add, x, y), f.vadd(x, y))
    assert np.array_equal(scalar_grid(f.sub, x, y), f.vsub(x, y))


def test_only_zech_sums_reads_the_zech_table():
    """The one Zech gather: apart from __init__, which stores the table,
    no Field method reads _zech, and no lookup wraps its index."""
    import ast
    import inspect
    from grsdual import field
    tree = ast.parse(inspect.getsource(field.Field))
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "_zech"}
    assert readers == {"__init__", "zech_sums"}
    assert 'mode="wrap"' not in inspect.getsource(field)


L_FIELDS = [(3, 1), (5, 2), (13, 1), (3, 4), (4093, 1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(L_FIELDS), st.integers(0, 4), st.integers(1, 12),
       st.sampled_from(["distinct", "zero", "repeat", "two zeros"]),
       st.sampled_from(["1", "n", "3n", "2^16"]),
       st.integers(0, 2 ** 32 - 1))
def test_lagrange_products_match_the_vsub_vprod_kernel(fm, stack, n, kind,
                                                       block, seed):
    """One set (stack 0) or an (s, n) stack, with 0 in every set or none,
    in blocks of one row up to 2^16 entries: the same L as the
    reference, and DuplicatePoints from both for a repeated point, two
    zeros included."""
    f = make_field(*fm)
    n = min(n, f.q)
    rng = np.random.default_rng(seed)
    a = np.array([rng.choice(f.q, size=n, replace=False)
                  for _ in range(max(stack, 1))], dtype=np.int64)
    if kind != "distinct":
        for s in a:
            if 0 not in s:
                s[rng.integers(n)] = 0
    if kind in ("repeat", "two zeros") and n > 1:
        s = a[rng.integers(len(a))]
        i, j = rng.choice(n, size=2, replace=False)
        s[i] = 0 if kind == "two zeros" else s[j]
        s[j] = s[i]
    if not stack:
        a = a[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grs, "_LAGRANGE_BLOCK",
                   {"1": 1, "n": n, "3n": 3 * n, "2^16": 1 << 16}[block])
        try:
            want = ref_lagrange_products(f, a)
        except DuplicatePoints:
            with pytest.raises(DuplicatePoints):
                lagrange_products(f, a)
            return
        got = lagrange_products(f, a)
    assert got.dtype == np.int64 and got.shape == a.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fm", L_FIELDS)
@pytest.mark.parametrize("block", [1, 2, 1 << 16])
def test_products_at_raises_only_for_a_requested_repeat(fm, block,
                                                        monkeypatch):
    """A repeated pair (two zeros, or a nonzero pair) outside the requested
    rows leaves the reference values; a request of either point raises."""
    f = make_field(*fm)
    monkeypatch.setattr(grs, "_LAGRANGE_BLOCK", block)
    rng = np.random.default_rng(f.q)
    base = rng.choice(np.arange(1, f.q), size=min(f.q - 1, 6), replace=False)
    for pair in (0, int(base[0])):
        a = np.concatenate([base[1:], [pair, pair]])  # the pair is last
        n = a.size
        for rows in [[0], list(range(n - 2)), [n - 3, 0, n - 3]]:
            rows = [r for r in rows if 0 <= r < n - 2]
            if rows:
                assert np.array_equal(products_at(f, a, rows),
                                      ref_lagrange_products(f, a, rows))
            for bad in ([n - 2], [n - 1], rows + [n - 1]):
                with pytest.raises(DuplicatePoints):
                    ref_lagrange_products(f, a, bad)
                with pytest.raises(DuplicatePoints):
                    products_at(f, a, bad)
