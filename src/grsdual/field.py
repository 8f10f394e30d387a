"""Finite fields GF(p^m) of odd characteristic, in discrete-log form.

Elements travel as integer encodings: 0 is the zero element and an
encoding i in {1, ..., q-1} stands for theta**(i-1), where theta is the
field's canonical primitive element.  With that convention
multiplication, inversion, powers and the quadratic character are pure
exponent arithmetic; addition goes through a precomputed Zech-logarithm
table (z[k] = log(1 + theta**k)).  The encoding is also the wire format
used by the JSON serializers and the command line tools.

Construction is deterministic, so two runs (or two machines) agree on
every encoding:

* the modulus is the lexicographically smallest monic irreducible
  polynomial of degree m over GF(p), coefficients compared constant
  term first;
* theta is the element with the smallest base-p polynomial value whose
  multiplicative order is q - 1;
* square roots return the root with the smaller discrete log.

Building the tables takes O(q) time and memory, which the table limit
guards (the default allows q up to 2**22): three int32 tables, 12 q
bytes, and one block of exponents, with no loop per element.  Fields
are immutable and cached per (p, m) without bound, so every field built
keeps its 12 q bytes for the life of the process.  There is no element
object: an element is its encoding, and arithmetic is the Field's
scalar methods and their v-prefixed array twins.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import (
    CompositeCharacteristic,
    DependentBasis,
    NonPositiveDegree,
    NotASubfield,
    TableLimitExceeded,
    ZeroArgument,
)

DEFAULT_TABLE_LIMIT = 2 ** 22

_EXP_BLOCK = 16384  # table entries per block: m coefficients an exponent


def _prime_factors(n):
    """Sorted distinct prime factors of n."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(n):
    """Return (p, d) with n = p**d, or raise CompositeCharacteristic."""
    ps = _prime_factors(n)  # empty for n < 2
    if len(ps) != 1:
        raise CompositeCharacteristic(f"{n} is not a prime power")
    p = ps[0]
    d = 0
    while n % p == 0:
        n //= p
        d += 1
    return p, d


# ----------------------------------------------------------------------
# dense polynomial arithmetic over GF(p), coefficients constant-first
# (only used while constructing a field; everything after runs on tables)

def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul_mod(f, g, mod, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    # reduce by the monic modulus
    dm = len(mod) - 1
    while len(out) > dm:
        lead = out.pop()
        if lead:
            for i in range(dm):
                out[-dm + i] = (out[-dm + i] - lead * mod[i]) % p
        _poly_trim(out)
        if len(out) <= dm:
            break
    return _poly_trim(out)


def _poly_pow_mod(f, n, mod, p):
    result = [1]
    base = list(f)
    while n:
        if n & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        n >>= 1
    return result


def _poly_gcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        # f mod g, g monic-ized on the fly
        inv = pow(g[-1], p - 2, p)
        gm = [(c * inv) % p for c in g]
        while len(f) >= len(gm) and f:
            lead = f[-1]
            if lead:
                off = len(f) - len(gm)
                for i, c in enumerate(gm):
                    f[off + i] = (f[off + i] - lead * c) % p
            f.pop()
            _poly_trim(f)
        f, g = g, f
    return f


def _is_irreducible(mod, p):
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    m = len(mod) - 1
    if m == 1:
        return True
    x = [0, 1]
    # x**(p**m) == x  (mod f)
    h = list(x)
    for _ in range(m):
        h = _poly_pow_mod(h, p, mod, p)
    if _poly_trim([(a - b) % p for a, b in _zip_pad(h, x)]):
        return False
    for ell in _prime_factors(m):
        h = list(x)
        for _ in range(m // ell):
            h = _poly_pow_mod(h, p, mod, p)
        diff = _poly_trim([(a - b) % p for a, b in _zip_pad(h, x)])
        g = _poly_gcd(list(mod), diff, p)
        if len(g) != 1:
            return False
    return True


def _zip_pad(f, g):
    n = max(len(f), len(g))
    return zip(f + [0] * (n - len(f)), g + [0] * (n - len(g)))


@functools.lru_cache(maxsize=None)
def find_modulus(p, m):
    """The canonical modulus of GF(p^m): the first monic irreducible
    polynomial of degree m in coefficient order, as a tuple."""
    if m == 1:
        return (0, 1)
    # monic candidates in lexicographic (c0, c1, ...) order, from c0 = 1:
    # c0 = 0 makes x a factor
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        cand = list(tail) + [1]
        # cheap linear-factor filter before the full test
        if any(_poly_eval(cand, c, p) == 0 for c in range(p)):
            continue
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def _poly_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _find_theta(p, m, mod, q):
    """Coefficients of the smallest polynomial value with multiplicative
    order q - 1, past the constants when m > 1 (their order divides p-1)."""
    factors = _prime_factors(q - 1)
    for value in range(p if m > 1 else 2, q):
        coeffs = []
        v = value
        while v:
            coeffs.append(v % p)
            v //= p
        ok = True
        for ell in factors:
            e = _poly_pow_mod(coeffs, (q - 1) // ell, mod, p)
            if e == [1]:
                ok = False
                break
        if ok:
            return coeffs
    raise RuntimeError("no primitive element found")  # pragma: no cover


def _build_tables(p, m, mod, theta_coeffs, q):
    """int32 exp/log/Zech tables, b = _EXP_BLOCK // m exponents (of m
    coefficients each) at a time, holding O(_EXP_BLOCK) past the tables:
    with M multiplication by theta, theta**0 .. theta**(b-1) come by
    doubling and each later block is M**b times the one before; log is
    scattered and theta**k + 1 formed per block, then Zech gathered per
    block."""
    cols = [_poly_mul_mod(theta_coeffs, [0] * i + [1], list(mod), p)
            for i in range(m)]
    mt = np.array([c + [0] * (m - len(c)) for c in cols], dtype=np.float64).T
    # float64 matmuls of entries below p sum at most m (p-1)**2: exact
    assert m * (p - 1) ** 2 < 2 ** 53  # _check_field_args refuses the rest

    def mod_p(x):
        return x - p * np.floor(x / p)

    n = q - 1
    b = min(max(1, _EXP_BLOCK // m), n)
    block = np.zeros((m, b))
    block[0, 0] = 1
    mb = np.eye(m)  # M**b, from the doubling's squares, if blocks follow
    step, d = mt, 1  # step is M**d
    while d <= b:
        if b & d and n > b:
            mb = mod_p(mb @ step)
        if d < b:  # columns [d, 2d) are M**d times columns [0, d)
            block[:, d:2 * d] = mod_p(step @ block[:, :min(d, b - d)])
            step = mod_p(step @ step)
        d *= 2

    weights = p ** np.arange(m, dtype=np.float64)
    exp_int = np.empty(n, dtype=np.int32)  # q - 1 < 2**31: _check_field_args
    log = np.full(q, -1, dtype=np.int32)
    zech = np.empty(n, dtype=np.int32)
    for start in range(0, n, b):
        if start:
            block = mod_p(mb @ block[:, :min(b, n - start)])
        e = exp_int[start:start + b]
        e[:] = weights @ block
        log[e] = np.arange(start, start + e.size, dtype=np.int32)
        zech[start:start + b] = e + 1 - p * (block[0] == p - 1)
    if log[1] != 0 or int(np.count_nonzero(log >= 0)) != n:
        raise RuntimeError("exp table is not a bijection")  # pragma: no cover
    for start in range(0, n, b):
        zech[start:start + b] = log[zech[start:start + b]]  # -1: theta**k = -1
    return exp_int, log, zech


class Field:
    """An immutable GF(p^m) with discrete-log tables.

    Do not instantiate directly; use make_field, which is cached and
    enforces the table limit.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp_int", "_log", "_zech",
                 "_half", "name", "_digits")

    def __init__(self, p, m, modulus, tables):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = tuple(modulus)
        self._exp_int, self._log, self._zech = tables
        self._half = (self.q - 1) // 2
        self.name = f"GF({p})" if m == 1 else f"GF({p}^{m})"
        self._digits = None

    # -------------------------------------------------------- elements

    def from_int(self, k):
        """The image of the integer k under Z -> GF(p) -> GF(q)."""
        v = k % self.p
        return 0 if v == 0 else int(self._log[v]) + 1

    def poly_value(self, enc):
        """Base-p value of the coefficient vector of the element."""
        return 0 if enc == 0 else int(self._exp_int[enc - 1])

    def digits(self):
        """Row s: the x**s coefficient of every encoding (0 at 0), in the
        smallest dtype holding p-1.  Built on first use and kept."""
        if self._digits is None:
            vals = np.concatenate([np.zeros(1, np.int32), self._exp_int])
            table = np.empty((self.m, self.q),
                             dtype=np.min_scalar_type(self.p - 1))
            for s in range(self.m):
                table[s] = vals % self.p
                vals //= self.p
            self._digits = table
        return self._digits

    def descriptor(self):
        return {"p": self.p, "m": self.m,
                "modulus": list(self.modulus), "theta": 2}

    def __repr__(self):
        return f"<{self.name} modulus={list(self.modulus)}>"

    # ---------------------------------------------------- scalar ops
    # encodings in, encodings out; hot paths have array twins below

    def add(self, a, b):
        return int(self.vadd(a, b))

    def neg(self, a):
        if a == 0:
            return 0
        return (a - 1 + self._half) % (self.q - 1) + 1

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return (a + b - 2) % (self.q - 1) + 1

    def inv(self, a):
        if a == 0:
            raise ZeroArgument("zero has no inverse")
        return (1 - a) % (self.q - 1) + 1

    def power(self, a, e):
        if a == 0:
            if e == 0:
                return 1  # monomial-basis convention 0**0 = 1
            if e < 0:
                raise ZeroArgument("zero has no negative power")
            return 0
        return (a - 1) * (e % (self.q - 1)) % (self.q - 1) + 1

    def sign(self, a):
        """Quadratic character: +1 on squares, -1 on non-squares."""
        if a == 0:
            raise ZeroArgument("character is undefined at zero")
        return 1 - 2 * ((a - 1) & 1)

    def sqrt_enc(self, a):
        """Canonical square root (smaller discrete log), or None."""
        if a == 0:
            return 0
        k = a - 1
        if k & 1:
            return None
        return k // 2 + 1

    # ----------------------------------------------------- array ops

    def varray(self, xs):
        return np.asarray(xs, dtype=np.int64)

    def _log_sum(self, s):
        """s % (q-1) + 1 for int64 0 <= s < 2(q-1), in place: as uint64,
        min(s, s - (q-1)) is s % (q-1)."""
        s = np.asarray(s).view(np.uint64)
        np.minimum(s, s - np.uint64(self.q - 1), out=s)
        s += 1
        return s.view(np.int64)

    def zech_sums(self, x, y):
        """int32 z, log(x + y) = log x + z (log 0 = -1), -1 exactly where
        x + y = 0, over the broadcast of x and y: one Zech entry each, at
        y - max(x, 1) in [1-q, q-2], a plain gather; zeros patched in place."""
        x, y = self.varray(x), self.varray(y)
        z = np.asarray(self._zech[y - np.maximum(x, 1)])
        if np.count_nonzero(y) < y.size:  # x + 0 = x
            np.copyto(z, 0, where=y == 0)
        if np.count_nonzero(x) < x.size:  # 0 + y = y: log y + 1 = y
            np.copyto(z, y - (y == 0), where=x == 0)  # -1 at 0 + 0
        return z

    def vadd(self, a, b):
        """a + b, broadcast: log a plus a Zech sum, int32 + int64 in int64."""
        z = self.zech_sums(a, b)
        out = self._log_sum(z + (self.varray(a) - 1))
        np.copyto(out, 0, where=z < 0)
        return out

    def vneg(self, a):
        a = self.varray(a)
        out = self._log_sum(a + (self._half - 1))
        if np.count_nonzero(a) < a.size:
            np.copyto(out, 0, where=a == 0)
        return out

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))  # a - b = a + (-b)

    def zech_diffs(self, x, a):
        """z[..., i, j] = log(x_i - a_j) - log x_i, -1 exactly at x_i = a_j:
        zech_sums of rows x (..., r) and of -a, formed per set a (..., n)."""
        return self.zech_sums(x[..., None], self.vneg(a)[..., None, :])

    def vmul(self, a, b):
        a, b = self.varray(a), self.varray(b)
        s = self._log_sum(a + b - 2)
        for x in (a, b):
            if np.count_nonzero(x) < x.size:
                np.copyto(s, 0, where=x == 0)
        return s

    def vinv(self, a):
        a = self.varray(a)
        if np.any(a == 0):
            raise ZeroArgument("zero has no inverse")
        return (1 - a) % (self.q - 1) + 1

    def vpow(self, a, e, v=1):
        """v a**e for an integer e or integer array e; 0**0 = 1."""
        a = self.varray(a)
        out = np.asarray((a - 1) * self.varray(e % (self.q - 1)))
        out += v - 1
        d = out // (self.q - 1)  # out %= q-1 as out - d (q-1), in place:
        d *= self.q - 1          # numpy's // by a scalar is a multiply and
        out -= d                 # a shift, its % a true division
        out += 1
        if np.count_nonzero(a) < a.size:
            if np.any((e < 0) & (a == 0)):
                raise ZeroArgument("zero has no negative power")
            np.copyto(out, (e == 0) * v, where=a == 0)
        if np.count_nonzero(v) < np.size(v):
            np.copyto(out, 0, where=v == 0)
        return out

    def vsign(self, a):
        a = self.varray(a)
        if np.any(a == 0):
            raise ZeroArgument("character is undefined at zero")
        return 1 - 2 * ((a - 1) & 1)

    def vsqrt(self, a):
        """Vectorized canonical sqrt; all entries must be squares."""
        a = self.varray(a)
        k = a - 1
        if np.any((a > 0) & (k & 1 == 1)):
            raise ZeroArgument("vsqrt on a non-square")
        return np.where(a == 0, 0, k // 2 + 1)

    def vprod(self, a, axis=None):
        """Product of nonzero encodings along an axis, in log space."""
        a = self.varray(a)
        if np.count_nonzero(a) < a.size:
            raise ZeroArgument("vprod expects nonzero entries")
        return np.sum(a - 1, axis=axis) % (self.q - 1) + 1

    # ----------------------------------------------------- subfields

    def subfield_stride(self, r):
        """(q-1)/(r-1) after validating r = p**d with d | m."""
        try:
            rp, rd = factor_prime_power(r)
        except CompositeCharacteristic:
            raise NotASubfield(f"{r} is not a power of {self.p}")
        if rp != self.p or self.m % rd != 0:
            raise NotASubfield(f"GF({r}) is not a subfield of {self.name}")
        return (self.q - 1) // (r - 1)

    def subfield_enc(self, r):
        """Encodings of GF(r) inside this field: 0 then powers of the
        subfield generator, ascending exponent (= ascending encoding)."""
        stride = self.subfield_stride(r)
        out = np.empty(r, dtype=np.int64)
        out[0] = 0
        out[1:] = np.arange(r - 1, dtype=np.int64) * stride + 1
        return out


@functools.lru_cache(maxsize=None)
def _build_field(p, m):
    q = p ** m
    modulus = find_modulus(p, m)
    theta_coeffs = _find_theta(p, m, list(modulus), q)
    tables = _build_tables(p, m, modulus, theta_coeffs, q)
    return Field(p, m, modulus, tables)


def _check_field_args(p, m, table_limit):
    """make_field's argument checks, which build nothing."""
    if m < 1:
        raise NonPositiveDegree(f"extension degree {m} is below 1")
    # Size first: trial division on a huge p, or p**m for a huge m, would
    # hang; for p >= 3, m >= bit_length(limit) puts p**m past the limit.
    if p >= 3 and (m >= table_limit.bit_length() or p ** m > table_limit):
        raise TableLimitExceeded(
            f"q = {p}**{m} exceeds the table limit {table_limit}")
    if m * (p - 1) ** 2 >= 2 ** 53:  # _build_tables' float64 matmuls
        raise TableLimitExceeded(f"q = {p}**{m} is past exact float64 tables")
    if p ** m > 2 ** 31:  # q - 1 >= 2**31 would wrap the int32 tables
        raise TableLimitExceeded(f"q = {p}**{m} is past int32 tables")
    if p == 2 or _prime_factors(p) != [p]:
        raise CompositeCharacteristic(f"{p} is not an odd prime")


def canonical_modulus(p, m=1, table_limit=DEFAULT_TABLE_LIMIT):
    """The modulus make_field(p, m) would use, after the same argument
    checks, without building the field's tables."""
    _check_field_args(p, m, table_limit)
    return find_modulus(p, m)


def make_field(p, m=1, table_limit=DEFAULT_TABLE_LIMIT):
    """Construct (or fetch the cached) GF(p^m).

    p must be an odd prime and p**m at most table_limit and 2**31, since
    the representation stores three int32 tables of 4 q bytes each.
    """
    _check_field_args(p, m, table_limit)
    return _build_field(p, m)


def extension_field(r, k, table_limit=DEFAULT_TABLE_LIMIT):
    """GF(r^k) for a prime power r."""
    if r > table_limit:  # refuse before trial division on a huge r
        raise TableLimitExceeded(
            f"q = {r}**{k} exceeds the table limit {table_limit}")
    p, d = factor_prime_power(r)
    return make_field(p, d * k, table_limit)


def span_enc(field, r, basis_encs):
    """All GF(r)-linear combinations of the basis, as an encoding array.

    Coefficient vectors run in lexicographic order, the last basis
    element's coefficient varying fastest; coefficients follow the
    subfield_enc order.  Raises DependentBasis on a collision.
    """
    coeffs = field.subfield_enc(r)
    acc = np.zeros(1, dtype=np.int64)
    for b in basis_encs:
        terms = field.vmul(coeffs, int(b))
        acc = field.vadd(acc[:, None], terms[None, :]).ravel()
    if len(np.unique(acc)) != len(acc):
        raise DependentBasis("basis is linearly dependent over the subfield")
    return acc
