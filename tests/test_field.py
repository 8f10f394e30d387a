"""Field tables, quadratic characters, and subfield structure.

Ground truth for GF(13) and GF(169) is frozen from hand computation:
2 generates GF(13)*, the squares mod 13 are {1, 3, 4, 9, 10, 12}, and
x^2 + 3x + 1 is the first irreducible quadratic over GF(13) in
(constant, linear) lexicographic order.
"""

import random

import numpy as np
import pytest

from grsdual import make_field
from grsdual.errors import (
    CompositeCharacteristic,
    DependentBasis,
    FieldMismatch,
    HypothesisViolated,
    NonPositiveDegree,
    NotASubfield,
    TableLimitExceeded,
    ZeroArgument,
)
from grsdual.field import (
    extension_field,
    quadratic_character,
    span_enc,
    sqrt,
    subfield_elements,
)

F13 = make_field(13)
QR13 = {1, 3, 4, 9, 10, 12}


def test_smallest_primitive_root():
    assert F13.theta.enc == 2
    f = make_field(7)
    # 3 is the least primitive root mod 7; its enc is from_int(3)
    assert f.theta.enc == f.from_int(3)


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
    # enc i, i >= 1, is theta^(i-1): log is enc - 1
    for i in range(1, F13.q):
        assert F13.log(i) == i - 1
        assert F13.element(i).log() == i - 1
    with pytest.raises(ZeroArgument):
        F13.log(0)


def test_quadratic_character_table():
    squares = {v for v in range(1, 13) if quadratic_character(F13, F13.from_int(v)) == 1}
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
    root = sqrt(F13, three)
    assert F13.mul(root, root) == three
    assert root == F13.from_int(4)
    assert sqrt(F13, F13.from_int(2)) is None
    assert sqrt(F13, 0) == 0
    for i in range(1, F13.q):
        r = F13.sqrt_enc(i)
        if F13.sign(i) == 1:
            assert r == (i - 1) // 2 + 1
            assert F13.mul(r, r) == i
        else:
            assert r is None


def test_vectorized_ops_match_scalar():
    rng = random.Random(0x713)
    a = np.array([rng.randrange(13) for _ in range(200)], dtype=np.int64)
    b = np.array([rng.randrange(13) for _ in range(200)], dtype=np.int64)
    assert all(F13.vadd(a, b)[i] == F13.add(int(a[i]), int(b[i])) for i in range(200))
    assert all(F13.vmul(a, b)[i] == F13.mul(int(a[i]), int(b[i])) for i in range(200))
    assert all(F13.vsub(a, b)[i] == F13.sub(int(a[i]), int(b[i])) for i in range(200))
    nz = a[a != 0]
    assert all(F13.vinv(nz)[i] == F13.inv(int(nz[i])) for i in range(nz.size))
    assert all(F13.vneg(a)[i] == F13.neg(int(a[i])) for i in range(200))


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


def test_extension_addition_consistency():
    """Spot-check the Zech table: (a+b)+c == a+(b+c) and a+(-a) == 0."""
    f = make_field(5, 2)
    rng = random.Random(0x2525)
    for _ in range(500):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))


def test_subfield_stride_and_closure():
    f = make_field(13, 2)
    assert f.subfield_stride(13) == 14
    sub = f.subfield_enc(13)
    assert list(sub) == [0, 1] + [1 + 14 * i for i in range(1, 12)]
    assert len(subfield_elements(f, 13)) == 13
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


def test_in_subfield():
    f = make_field(13, 2)
    for x in f.subfield_enc(13):
        assert f.in_subfield(int(x), 13)
    assert not f.in_subfield(2, 13)  # theta itself generates the big field


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


def test_cross_field_elements_refuse_to_mix():
    a = make_field(9 // 3, 2).element(3)
    b = make_field(13).element(3)
    with pytest.raises(FieldMismatch):
        a + b
