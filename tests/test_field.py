"""Field tables, quadratic characters, and subfield structure.

Ground truth for GF(13) and GF(169) is frozen from hand computation:
2 generates GF(13)*, the squares mod 13 are {1, 3, 4, 9, 10, 12}, and
x^2 + 3x + 1 is the first irreducible quadratic over GF(13) in
(constant, linear) lexicographic order.  The property tests run the
scalar ops, and each v* op against its scalar twin, on random elements
of GF(3), GF(3^9), GF(13^3) and GF(4194301).
"""

import functools
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grsdual import make_field
from grsdual.errors import (
    CompositeCharacteristic,
    DependentBasis,
    HypothesisViolated,
    NonPositiveDegree,
    NotASubfield,
    TableLimitExceeded,
    ZeroArgument,
)
from grsdual import field
from grsdual.field import canonical_modulus, extension_field, span_enc

F13 = make_field(13)
QR13 = {1, 3, 4, 9, 10, 12}
THETA = 2  # the encoding of theta

# GF(4194301): the largest prime field within the default table limit
FIELDS = [make_field(3), make_field(3, 9), make_field(13, 3),
          make_field(4194301)]


def test_smallest_primitive_root():
    assert F13.from_int(2) == THETA
    f = make_field(7)
    # 3 is the least primitive root mod 7
    assert f.from_int(3) == THETA


def test_prime_field_value_arithmetic():
    enc = [F13.from_int(v) for v in range(13)]
    val = {e: v for v, e in enumerate(enc)}
    assert sorted(enc) == list(range(13))
    for a in range(13):
        for b in range(13):
            assert val[F13.add(enc[a], enc[b])] == (a + b) % 13
            assert val[F13.mul(enc[a], enc[b])] == (a * b) % 13
            assert val[F13.sub(enc[a], enc[b])] == (a - b) % 13


def test_inverse_and_negation():
    for a in range(1, 13):
        inv = F13.inv(F13.from_int(a))
        assert F13.mul(F13.from_int(a), inv) == 1
    for a in range(13):
        assert F13.add(F13.from_int(a), F13.neg(F13.from_int(a))) == 0
    with pytest.raises(ZeroArgument):
        F13.inv(0)


def test_power_matches_repeated_multiplication():
    for a in range(13):
        acc = 1
        for k in range(6):
            assert F13.power(F13.from_int(a), k) == acc
            acc = F13.mul(acc, F13.from_int(a))
    assert F13.power(0, 0) == 1
    assert F13.power(0, 3) == 0


def test_exp_log_roundtrip():
    # enc i, i >= 1, is theta^(i-1)
    for i in range(1, F13.q):
        assert F13.power(THETA, i - 1) == i
        assert F13.from_int(F13.poly_value(i)) == i


def test_character_table():
    squares = {v for v in range(1, 13) if F13.sign(F13.from_int(v)) == 1}
    assert squares == QR13
    for v in range(1, 13):
        want = 1 if v in QR13 else -1
        assert F13.sign(F13.from_int(v)) == want
    with pytest.raises(ZeroArgument):
        F13.sign(0)


def test_character_is_multiplicative():
    for q in (13, 9, 27, 25):
        f = make_field(*_pm(q))
        for a in range(1, f.q):
            for b in range(1, f.q):
                assert f.sign(f.mul(a, b)) == f.sign(a) * f.sign(b)


def test_character_of_minus_one():
    # chi(-1) = +1 exactly when q = 1 (mod 4)
    for q in (5, 13, 9, 25, 29, 7, 11, 27, 19, 23):
        f = make_field(*_pm(q))
        want = 1 if q % 4 == 1 else -1
        assert f.sign(f.neg(1)) == want


def _pm(q):
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q > 1:
                q //= p
                m += 1
            return p, m
    raise AssertionError


def test_sqrt_canonical_choice():
    # sqrt(theta^(2j)) = theta^j, so enc log // 2 + 1
    three = F13.from_int(3)
    root = F13.sqrt_enc(three)
    assert F13.mul(root, root) == three
    assert root == F13.from_int(4)
    assert F13.sqrt_enc(F13.from_int(2)) is None
    assert F13.sqrt_enc(0) == 0
    for i in range(1, F13.q):
        r = F13.sqrt_enc(i)
        if F13.sign(i) == 1:
            assert r == (i - 1) // 2 + 1
            assert F13.mul(r, r) == i
        else:
            assert r is None


def _element(f):
    """Encodings of f, with zero drawn often."""
    return st.one_of(st.just(0), st.integers(0, f.q - 1))


def _value_sum(f, a, b):
    """Digit-wise sum mod p of the base-p polynomial values of a and b."""
    u, v, w, out = f.poly_value(a), f.poly_value(b), 1, 0
    for _ in range(f.m):
        out += (u + v) % f.p * w
        u, v, w = u // f.p, v // f.p, w * f.p
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_vectorized_ops_match_scalar(f, data):
    """Each v* op against its scalar twin, on arrays holding zeros."""
    pairs = data.draw(st.lists(st.tuples(_element(f), _element(f)),
                               max_size=40))
    x = data.draw(st.integers(1, f.q - 1))
    a, b = np.array(pairs + [(0, 0), (0, x), (x, 0)], dtype=np.int64).T
    for vop, op in ((f.vadd, f.add), (f.vsub, f.sub), (f.vmul, f.mul)):
        assert vop(a, b).tolist() == [op(u, v) for u, v in zip(a.tolist(),
                                                              b.tolist())]
    assert f.vneg(a).tolist() == [f.neg(u) for u in a.tolist()]
    e = data.draw(st.integers(0, 3 * f.q))
    assert f.vpow(a, e).tolist() == [f.power(u, e) for u in a.tolist()]
    nz = a[a != 0].tolist()
    assert f.vinv(nz).tolist() == [f.inv(u) for u in nz]
    assert f.vsign(nz).tolist() == [f.sign(u) for u in nz]
    assert f.vpow(nz, -e).tolist() == [f.power(u, -e) for u in nz]
    assert int(f.vprod(nz)) == functools.reduce(f.mul, nz, 1)
    squares = f.vmul(a, a)
    assert f.vsqrt(squares).tolist() == [f.sqrt_enc(u)
                                         for u in squares.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_inverse_power_sign_and_sqrt(f, data):
    a = data.draw(_element(f))
    b, c = (data.draw(st.integers(1, f.q - 1)) for _ in range(2))
    e = data.draw(st.integers(0, 12))
    assert f.mul(b, f.inv(b)) == 1
    acc = 1
    for _ in range(e):
        acc = f.mul(acc, a)
    assert f.power(a, e) == acc
    assert f.power(b, -e) == f.inv(f.power(b, e))
    assert f.sign(f.mul(b, c)) == f.sign(b) * f.sign(c)
    # Euler's criterion
    assert f.power(b, (f.q - 1) // 2) == (1 if f.sign(b) == 1 else f.neg(1))
    assert f.sqrt_enc(f.mul(a, a)) in (a, f.neg(a))


def test_vprod_and_vsqrt():
    enc3, enc9 = F13.from_int(3), F13.from_int(9)
    prod = F13.vprod(np.array([enc3, enc9], dtype=np.int64))
    assert prod == F13.mul(enc3, enc9)
    roots = F13.vsqrt(np.array([enc3, enc9], dtype=np.int64))
    assert list(F13.vmul(roots, roots)) == [enc3, enc9]
    with pytest.raises(ZeroArgument):
        F13.vprod(np.array([1, 0], dtype=np.int64))
    with pytest.raises(ZeroArgument):
        F13.vsign(np.array([1, 0], dtype=np.int64))
    with pytest.raises(ZeroArgument):
        F13.vinv(np.array([0], dtype=np.int64))


@pytest.mark.parametrize("pm", [(3, 2), (13, 1), (5, 3)])
def test_vsub_is_vadd_of_the_negation_on_every_pair(pm):
    f = make_field(*pm)
    a, b = np.meshgrid(np.arange(f.q), np.arange(f.q), indexing="ij")
    assert np.array_equal(f.vsub(a, b), f.vadd(a, f.vneg(b)))


@pytest.mark.parametrize("f", FIELDS[:3])
def test_array_ops_broadcast_like_their_scalar_ops(f):
    rng = np.random.default_rng(f.q)
    col = rng.integers(0, f.q, size=(5, 1))
    row = rng.integers(0, f.q, size=(1, 7))
    col[0, 0] = row[0, 0] = 0
    x = int(row[0, 1]) or 1
    for vop, op in ((f.vadd, f.add), (f.vsub, f.sub), (f.vmul, f.mul)):
        grid = vop(col, row)
        assert grid.shape == (5, 7)
        assert grid.tolist() == [[op(u, v) for v in row[0].tolist()]
                                 for u in col[:, 0].tolist()]
        for s in (0, x):  # a Python int, on either side, zero included
            assert vop(s, row).tolist() == [[op(s, v) for v in row[0]]]
            assert vop(col, s).tolist() == [[op(u, s)] for u in col[:, 0]]
        for u, v in ((0, 0), (0, x), (x, 0), (x, x)):  # 0-d arrays
            got = vop(np.array(u), np.array(v))
            assert got.shape == () and int(got) == op(u, v)


@pytest.mark.parametrize("f", FIELDS)
def test_vpow_broadcasts_an_exponent_array(f):
    rng = np.random.default_rng(f.q)
    a = np.append(rng.integers(0, f.q, size=9), 0)
    k = 6
    stacked = np.stack([f.vpow(a, i) for i in range(k)])
    assert np.array_equal(f.vpow(a, np.arange(k)[:, None]), stacked)
    assert stacked[0].tolist() == [1] * a.size  # 0**0 = 1
    assert f.vpow(a, np.arange(k)[:, None])[1:, -1].tolist() == [0] * (k - 1)
    # exponents past int64, as power takes them, and negative ones
    nz = a[a != 0]
    for e in (10 ** 30, -(10 ** 30), f.q - 1, -(f.q - 1), -3):
        assert f.vpow(nz, e).tolist() == [f.power(u, e) for u in nz.tolist()]
    assert f.vpow(a, 10 ** 30).tolist() == [f.power(u, 10 ** 30)
                                           for u in a.tolist()]
    with pytest.raises(ZeroArgument):
        f.vpow(a, -1)
    with pytest.raises(ZeroArgument):
        f.vpow(a, -np.arange(k)[:, None])
    assert np.array_equal(f.vpow(nz, -np.arange(k)[:, None]),
                          np.stack([f.vpow(nz, -i) for i in range(k)]))
    assert int(f.vpow(np.array(0), 0)) == 1 and f.vpow(0, 0).shape == ()


def test_extension_modulus_is_lexicographically_first():
    assert make_field(13, 2).modulus == (1, 3, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(3, 4).name == "GF(3^4)"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_extension_addition_consistency(f, data):
    """The ring axioms on the scalar ops, and the Zech addition against
    coefficient-wise addition of the polynomial values."""
    a, b, c = (data.draw(_element(f)) for _ in range(3))
    add, mul = f.add, f.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, f.neg(a)) == 0 and f.sub(a, b) == add(a, f.neg(b))
    assert f.poly_value(add(a, b)) == _value_sum(f, a, b)


def test_subfield_stride_and_closure():
    f = make_field(13, 2)
    assert f.subfield_stride(13) == 14
    sub = f.subfield_enc(13)
    assert list(sub) == [0, 1] + [1 + 14 * i for i in range(1, 12)]
    assert len(sub) == 13
    sset = set(int(x) for x in sub)
    for a in sset:
        for b in sset:
            assert f.add(a, b) in sset
            assert f.mul(a, b) in sset
    with pytest.raises(NotASubfield):
        f.subfield_stride(5)


def test_nested_subfields():
    f = make_field(3, 4)
    assert f.subfield_stride(3) == 40
    assert f.subfield_stride(9) == 10
    inner = set(f.subfield_enc(3).tolist())
    middle = set(f.subfield_enc(9).tolist())
    assert inner < middle


def test_span_enc_order_and_dependence():
    f9 = make_field(3, 2)
    assert list(span_enc(f9, 3, [1])) == [0, 1, 5]
    assert list(span_enc(f9, 3, [1, 2])) == [0, 2, 6, 1, 8, 3, 5, 7, 4]
    with pytest.raises(DependentBasis):
        span_enc(f9, 3, [1, f9.from_int(2)])


def test_span_enc_gives_distinct_closed_set():
    f = make_field(3, 4)
    encs = span_enc(f, 3, [1, 2])
    assert len(set(encs.tolist())) == 9
    eset = set(encs.tolist())
    for a in eset:
        for b in eset:
            assert f.add(a, b) in eset


def test_make_field_is_cached():
    assert make_field(13) is make_field(13)
    assert make_field(13, 2) is make_field(13, 2)


def test_field_construction_errors():
    for p in (1, 9, 15, 21):  # no prime factor, or one below p
        with pytest.raises(CompositeCharacteristic, match="not an odd prime"):
            make_field(p)
    with pytest.raises(CompositeCharacteristic):
        make_field(4)
    with pytest.raises(CompositeCharacteristic):
        make_field(2, 3)
    with pytest.raises(TableLimitExceeded):
        make_field(13, 2, table_limit=100)
    # the size check runs before trial division and before p**m
    with pytest.raises(TableLimitExceeded):
        make_field(2305843009213693951)
    with pytest.raises(TableLimitExceeded):
        make_field(3, 10 ** 9)
    with pytest.raises(TableLimitExceeded):
        extension_field(2305843009213693951, 1)
    # a typed hypothesis failure, which the CLI maps to exit 2
    for m in (0, -1, -10 ** 9):
        with pytest.raises(NonPositiveDegree, match=f"degree {m} "):
            make_field(5, m)
    with pytest.raises(HypothesisViolated):
        extension_field(25, 0)



# ----------------------------------------------------------------------
# table construction against the per-state recurrence and brute force

def _odd_prime_powers(limit):
    out = []
    for q in range(3, limit + 1):
        try:
            p, m = field.factor_prime_power(q)
        except CompositeCharacteristic:
            continue
        if p != 2:
            out.append((p, m))
    return out


def _reference_modulus(p, m):
    """The first monic irreducible of degree m over every candidate in
    (c0, c1, ...) order, c0 = 0 included."""
    if m == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=m):
        cand = list(tail) + [1]
        if all(field._poly_eval(cand, x, p) for x in range(p)) and \
                field._is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError


def _reference_theta(p, m, mod):
    """The smallest polynomial value of order q - 1 over every value from
    2, the constants included."""
    q = p ** m
    for value in range(2, q):
        coeffs = [value // p ** i % p for i in range(m)]
        while coeffs[-1] == 0:
            coeffs.pop()
        if all(field._poly_pow_mod(coeffs, (q - 1) // ell, list(mod), p)
               != [1] for ell in field._prime_factors(q - 1)):
            return coeffs
    raise AssertionError


def _reference_tables(p, m, mod, theta_coeffs):
    """exp/log/Zech by the per-state multiply-by-theta recurrence over a
    whole (m, q-1) int64 state array."""
    q, n = p ** m, p ** m - 1
    cols = []
    for i in range(m):
        col = field._poly_mul_mod(theta_coeffs, [0] * i + [1], list(mod), p)
        cols.append(col + [0] * (m - len(col)))
    mt = np.array(cols, dtype=np.int64).T
    states = np.empty((m, n), dtype=np.int64)
    cur = np.zeros(m, dtype=np.int64)
    cur[0] = 1
    for k in range(n):
        states[:, k] = cur
        cur = mt @ cur % p
    exp_int = p ** np.arange(m, dtype=np.int64) @ states
    log = np.full(q, -1, dtype=np.int64)
    log[exp_int] = np.arange(n)
    c = exp_int % p
    return exp_int, log, log[exp_int - c + (c + 1) % p]


def _assert_tables_equal(f, mod, theta_coeffs):
    assert f.modulus == tuple(mod)
    assert f.poly_value(THETA) == sum(c * f.p ** i
                                      for i, c in enumerate(theta_coeffs))
    want = _reference_tables(f.p, f.m, mod, theta_coeffs)
    for got, ref in zip((f._exp_int, f._log, f._zech), want):
        assert got.dtype == np.int32 and np.array_equal(got, ref)


@pytest.mark.parametrize("p, top", [(3, 8), (5, 5), (7, 4), (11, 3), (13, 3)])
def test_searches_match_brute_force_over_every_candidate(p, top):
    """find_modulus starts at c0 = 1 and _find_theta past the constants;
    the brute force scans every candidate and every value, p**m up to
    p**top."""
    for m in range(1, top + 1):
        mod = field.find_modulus(p, m)
        assert mod == _reference_modulus(p, m)
        if 1 < m and p ** m <= 729:  # Rabin's gcd step rejects the factor x
            assert not any(field._is_irreducible([0, *tail, 1], p) for tail
                           in itertools.product(range(p), repeat=m - 1))
        assert (field._find_theta(p, m, list(mod), p ** m)
                == _reference_theta(p, m, mod))


def test_tables_match_the_recurrence_on_every_odd_prime_power_to_2000():
    for p, m in _odd_prime_powers(2000):
        mod = _reference_modulus(p, m)
        _assert_tables_equal(make_field(p, m), mod,
                             _reference_theta(p, m, mod))


@pytest.mark.parametrize("block", [1, 2, 3, 7, 20])
def test_tables_match_the_recurrence_when_blocks_end_off_q_minus_1(
        monkeypatch, block):
    monkeypatch.setattr(field, "_EXP_BLOCK", block)
    for p, m in [(3, 1), (3, 2), (13, 1), (5, 3), (3, 5), (7, 3)]:
        f = field._build_field.__wrapped__(p, m)
        mod = f.modulus
        _assert_tables_equal(f, mod, _reference_theta(p, m, mod))


def _table_digest(f):
    h = hashlib.sha256(repr((f.modulus, f.poly_value(THETA))).encode())
    for t in (f._exp_int, f._log, f._zech):
        h.update(np.ascontiguousarray(t, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("pm, digest", [
    ((5, 9), "bd1f425b5e4a2dee29cafcdf5d3c1fac"
             "4e314faf7d804d14b8e73648697ae884"),
    ((2039, 2), "46ce15cb37b402b39077b1b43376f103"
                "9e05f4e93ae536ad062c51e908b18a98"),
    ((4194301, 1), "20e8de05b8233780b59a6c113c00f402"
                   "02e0439ce0a31f6b2c60fdf12f9cc35a"),
], ids=["GF(5^9)", "GF(2039^2)", "GF(4194301)"])
def test_large_field_tables_are_pinned(pm, digest):
    """sha256 of the modulus, theta and the three tables of fields too
    large for the recurrence reference, as the per-state recurrence
    built them."""
    f = make_field(*pm) if pm != (2039, 2) else \
        field._build_field.__wrapped__(*pm)  # not kept: 100 MB of tables
    assert _table_digest(f) == digest


def test_table_build_peak_is_within_the_tables_and_a_block():
    """The build holds no (m, q-1) state array, which alone would be 8
    times the three tables: its tracemalloc peak is at most 2.5 times
    them, and they take 4 bytes an entry."""
    tracemalloc.start()
    try:
        f = field._build_field.__wrapped__(3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = f._exp_int.nbytes + f._log.nbytes + f._zech.nbytes
    assert tables == 4 * (3 * f.q - 2)
    assert peak <= 2.5 * tables, (peak, tables)


def test_the_digit_table_divides_in_int32_in_place():
    """GF(5^9)'s digit table (16.8 MB) peaked at 61.5 MiB when each
    divmod step made two int64 arrays of q entries; one int32 copy of
    the exp table, divided in place, keeps it within 40 MiB."""
    f = field._build_field.__wrapped__(5, 9)  # no digit table yet
    tracemalloc.start()
    try:
        table = f.digits()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20, peak / 2 ** 20
    vals = np.concatenate([[0], f._exp_int.astype(np.int64)])
    for s in range(f.m):
        vals, digit = np.divmod(vals, f.p)
        assert np.array_equal(table[s], digit)


def test_fields_past_int32_tables_are_refused(monkeypatch):
    """q - 1 >= 2**31 would wrap the int32 tables: refused within any
    table limit, before the modulus search or a table is built."""
    def no_build(*args):
        raise AssertionError("built a field past int32 tables")

    monkeypatch.setattr(field, "_build_field", no_build)
    monkeypatch.setattr(field, "find_modulus", no_build)
    for p, m in [(3, 19), (5, 13), (7, 11), (46337, 2)]:  # q < 2**31
        field._check_field_args(p, m, 2 ** 40)
    for p, m in [(3, 20), (5, 14), (7, 12), (46349, 2)]:  # q > 2**31
        for call in (make_field, canonical_modulus):
            with pytest.raises(TableLimitExceeded, match="int32"):
                call(p, m, table_limit=2 ** 40)


def test_fields_past_exact_float64_tables_are_refused():
    # the exp blocks are float64 matmuls, exact while m (p-1)**2 < 2**53
    for p in (94906297, 2305843009213693951):  # primes past the bound
        for call in (make_field, canonical_modulus):
            with pytest.raises(TableLimitExceeded, match="float64"):
                call(p, 1, table_limit=10 ** 30)
