"""Field tables, quadratic characters, and subfield structure.

Ground truth for GF(13) and GF(169) is frozen from hand computation:
2 generates GF(13)*, the squares mod 13 are {1, 3, 4, 9, 10, 12}, and
x^2 + 3x + 1 is the first irreducible quadratic over GF(13) in
(constant, linear) lexicographic order.  The property tests run the
scalar ops, and each v* op against its scalar twin, on random elements
of GF(3), GF(3^9), GF(13^3) and GF(4194301).
"""

import functools

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
from grsdual.field import extension_field, span_enc

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
    with pytest.raises(CompositeCharacteristic):
        make_field(15)
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

