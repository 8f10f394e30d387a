"""Square-clique greedy search, its q bound, and the catalog sweep."""

import dataclasses
import json
import math
import sys
import time

import numpy as np
import pytest

import grsdual
from grsdual import make_field
from grsdual.cosets import TOWER_VARIANTS
from grsdual.errors import (
    EnumerationTooLarge,
    GreedyFailed,
    HypothesisViolated,
    VerificationFailed,
)
from grsdual.field import DEFAULT_TABLE_LIMIT, factor_prime_power
from grsdual.grs import code_from_obj, lagrange_products
from grsdual.search import (
    FAMILIES,
    CatalogEntry,
    _admitted,
    _factorizations,
    _odd_factor_tuples,
    _square_orders,
    catalog,
    catalog_to_csv,
    catalog_to_jsonl,
    clique_count_lower_bound,
    divisors,
    large_q_bound,
    odd_prime_powers,
    square_clique_greedy,
    th_large_q_code,
)


def test_large_q_bound_values():
    assert large_q_bound(2) == 1.0
    assert abs(large_q_bound(4) - 45.86000936329382) < 1e-9
    # past a float's range the bound is infinite, not an OverflowError
    assert math.isfinite(large_q_bound(505))
    assert large_q_bound(506) == large_q_bound(2000) == math.inf


def test_large_q_bound_is_increasing():
    vals = [large_q_bound(n) for n in range(4, 17)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_count_lower_bound_positive_above_threshold():
    """The expected-clique count is nonnegative for every q past the
    bound; the bound is exactly its larger root in sqrt(q)."""
    for n in (4, 6, 8):
        b = large_q_bound(n)
        root = clique_count_lower_bound(b, n)
        assert abs(root) < 1e-6  # the bound itself is the root
        for q in (b * 1.01, b * 2, b * 10, b * 1000):
            assert clique_count_lower_bound(q, n) > 0


def test_count_lower_bound_is_finite_wherever_q_is():
    """Past a float's range (n >= 506 has an infinite bound, n >= 1025
    an unrepresentable 2**(n-1)) the count stays a finite float whose
    sign says whether q exceeds the bound; at q = inf it is inf."""
    for n in (4, 505, 506, 1024, 1025, 2000):
        bound = large_q_bound(n)
        assert clique_count_lower_bound(math.inf, n) == math.inf
        qs = [5.0, 13.0, 1e12, 1e300, sys.float_info.max]
        if math.isfinite(bound):
            qs += [bound * 0.99, bound * 1.01]
        for q in qs:
            count = clique_count_lower_bound(q, n)
            assert math.isfinite(count), (q, n)
            assert (count > 0) == (q > bound), (q, n)


def test_greedy_clique_frozen_case():
    assert square_clique_greedy(make_field(7, 2), 4) == [0, 1, 9, 17]


def test_greedy_clique_pairwise_property():
    """Each returned set really is a clique: every pairwise difference
    is a nonzero square."""
    for q, n in ((49, 4), (53, 4), (49, 6), (169, 6), (625, 6)):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = round(math.log(q, p))
        f = make_field(p, m)
        clique = square_clique_greedy(f, n)
        assert clique is not None and len(clique) == n
        for i in range(n):
            for j in range(i):
                assert f.sign(f.sub(clique[i], clique[j])) == 1


def vsub_greedy_clique(field):
    """square_clique_greedy's reference, grown until no candidate is left:
    the sign of x - pick by vsub and vsign over all q encodings."""
    encs = np.arange(field.q, dtype=np.int64)
    live = np.ones(field.q, dtype=bool)
    clique = [0]
    while True:
        d = field.vsub(encs, clique[-1])
        live &= (d != 0) & (field.vsign(np.where(d == 0, 1, d)) == 1)
        nxt = np.flatnonzero(live)
        if nxt.size == 0:
            return clique
        clique.append(int(nxt[0]))


def test_greedy_clique_matches_the_vsub_greedy_below_2000():
    """The same picks, and None one past the maximal clique, for every
    q = 1 (mod 4) below 2000."""
    for q in odd_prime_powers(1999):
        if q % 4 == 1:
            f = make_field(*factor_prime_power(q))
            want = vsub_greedy_clique(f)
            assert square_clique_greedy(f, len(want)) == want, q
            assert square_clique_greedy(f, len(want) + 1) is None, q


def test_greedy_clique_exhausts_small_field():
    assert square_clique_greedy(make_field(13), 4) is None


def test_th_large_q_code_builds_verified():
    code = th_large_q_code(make_field(7, 2), 4)
    assert (code.length, code.k) == (4, 2)
    assert code.verify()
    assert code.provenance == {"theorem": "large_q", "n": 4}


def test_th_large_q_code_hypothesis_checks():
    with pytest.raises(HypothesisViolated):
        th_large_q_code(make_field(7), 4)  # q = 3 (mod 4)
    with pytest.raises(HypothesisViolated):
        th_large_q_code(make_field(5, 2), 5)  # odd n
    with pytest.raises(HypothesisViolated):
        th_large_q_code(make_field(13), 4)  # below the bound
    with pytest.raises(GreedyFailed):
        th_large_q_code(make_field(13), 4, permissive=True)


def test_odd_prime_powers():
    assert odd_prime_powers(50) == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25,
                                    27, 29, 31, 37, 41, 43, 47, 49]
    assert odd_prime_powers(2) == []


def test_catalog_small_prime():
    entries = catalog(7, 10)
    got = [(e.q, e.n, e.status) for e in entries]
    assert got == [(7, 2, "nonexistent"), (7, 4, "constructed"),
                   (7, 6, "nonexistent"), (7, 8, "constructed"),
                   (7, 10, "nonexistent")]
    by_n = {e.n: e for e in entries}
    assert [p["theorem"] for p in by_n[4].provenance] == ["th10", "th9"]
    assert [p["theorem"] for p in by_n[8].provenance] == ["th4"]
    for e in entries:
        if e.status == "constructed":
            assert e.verified and e.certificate is not None
            assert code_from_obj(e.certificate).verify()
        else:
            assert not e.verified and e.certificate is None
            assert e.provenance == ()


def test_catalog_nonexistence_rule():
    # q = 3 (mod 4) bans exactly n = 2 (mod 4)
    for e in catalog(7, 20) + catalog(11, 20):
        if e.n % 4 == 2:
            assert e.status == "nonexistent"


def test_catalog_square_field_hits_all_even_lengths():
    entries = catalog(25, 12)
    assert all(e.status == "constructed" for e in entries)
    by_n = {e.n: [p["theorem"] for p in e.provenance] for e in entries}
    assert by_n[2][0] == "large_q"
    assert by_n[4][0] == "th1"
    assert "th12" in by_n[4] and "th13" in by_n[4]


def test_catalog_rejects_bad_q():
    for bad in (8, 15, 1):
        with pytest.raises(HypothesisViolated):
            catalog(bad, 4)


def test_catalog_serializations_are_deterministic():
    entries = catalog(7, 8)
    jsonl = catalog_to_jsonl(entries)
    assert jsonl == catalog_to_jsonl(catalog(7, 8))
    lines = jsonl.strip().split("\n")
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first == {"certificate": None, "n": 2, "provenance": [],
                     "q": 7, "status": "nonexistent", "verified": False}
    assert catalog_to_csv(entries) == (
        "q,n,status,theorem\n"
        "7,2,nonexistent,\n"
        "7,4,constructed,th10\n"
        "7,6,nonexistent,\n"
        "7,8,constructed,th4\n")


def test_catalog_entry_to_obj():
    entry = CatalogEntry(7, 2, "nonexistent")
    assert entry.to_obj() == {"q": 7, "n": 2, "status": "nonexistent",
                              "provenance": [], "certificate": None,
                              "verified": False}


def test_admits_exactly_when_the_build_succeeds():
    """Over every grid point with q <= 343 and cap min(40, q + 1),
    admits returns the built code's provenance, and the grid's length is
    the built code's, exactly when the build succeeds; a refusal is the
    builder's, class and message."""
    admitted = refused = 0
    for q in odd_prime_powers(343):
        fld = make_field(*factor_prime_power(q))
        cap = min(40, q + 1)
        for fam in FAMILIES.values():
            for n, params in fam.grid(fld.p, fld.m, cap):
                try:
                    prov = fam.admits(params, fld)
                except HypothesisViolated as exc:
                    with pytest.raises(type(exc)) as built:
                        fam.build(params, DEFAULT_TABLE_LIMIT)
                    assert str(built.value) == str(exc), (q, params)
                    refused += 1
                    continue
                code = fam.build(params, DEFAULT_TABLE_LIMIT)
                assert code.provenance == prov, (q, params)
                assert code.length == n, (q, params)
                admitted += 1
    assert admitted > 2000 and refused > 2000


def unbounded_lift_grid(key, ts):
    """A th1..th4 grid with no cap: every r^m = q (only r = p when key
    is "p"), e < m and t in ts(r)."""
    def grid(p, big_m, cap):
        pairs = ([(p, big_m)] if key == "p" else
                 [(p ** d, big_m // d) for d in divisors(big_m)])
        for r, m in pairs:
            for e in range(m):
                for t in ts(r):
                    yield {key: r, "m": m, "e": e, "t": t}
    return grid


def unbounded_tower_grid(variant, iterated):
    """A th8..th11 or cor1..cor4 grid with no cap: every r^(s m1 ...) =
    q, e < s and t | r-1 of the variant's parity."""
    def grid(p, big_m, cap):
        for r, mt in _factorizations(p, big_m):
            for prod in divisors(mt):
                if iterated:
                    towers = [list(ms) for ms in _odd_factor_tuples(prod)
                              if len(ms) >= 2]
                else:
                    towers = [prod] if prod % 2 else []
                for ms in towers:
                    for e in range(mt // prod):
                        for t in divisors(r - 1):
                            if t % 2 == TOWER_VARIANTS[variant][1]:
                                yield {"r": r, "s": mt // prod,
                                       "ms" if iterated else "m": ms,
                                       "e": e, "t": t}
    return grid


def unbounded_th12_grid(p, big_m, cap):
    """The th12 grid with both variants at every t f <= cap."""
    for r, f, e in _square_orders(p, big_m, cap):
        for s in divisors(math.gcd(f, r - 1)):
            d_cap = grsdual.cosets.coset_count(r, f, s, -1)
            for t in range(1, min(d_cap, cap // f) + 1):
                if t * f % 2 == 0:
                    for variant in ("tf", "tf+2"):
                        yield {"r": r, "e": e, "f": f, "s": s, "t": t,
                               "variant": variant}


def unbounded_th13_grid(p, big_m, cap):
    """The th13 grid with every odd t up to the coset count."""
    for r, f, e in _square_orders(p, big_m, cap):
        if f % 2 == 1:
            for s in divisors(math.gcd(f, r + 1)):
                d_cap = grsdual.cosets.coset_count(r, f, s, 1)
                for t in range(1, d_cap + 1, 2):
                    yield {"r": r, "e": e, "f": f, "s": s, "t": t}


def unbounded_large_q_grid(p, big_m, cap):
    """Every even n <= q + 1 past the clique bound, when q = 1 (mod 4)."""
    q = p ** big_m
    for n in range(2, q + 2, 2):
        if q % 4 == 1 and q > large_q_bound(n):
            yield {"q": q, "n": n, "permissive": False}


UNBOUNDED_GRIDS = {
    "th1": unbounded_lift_grid("r", lambda r: [
        t for t in divisors((r - 1) // 2) if 2 * t != r - 1]),
    "th2": unbounded_lift_grid("p", lambda p: range(3, p, 2)),
    "th3": unbounded_lift_grid("p", lambda p: range(2, p, 2)),
    "th4": unbounded_lift_grid("r", lambda r: [
        t for t in divisors(r - 1) if t % 2 == 0]),
    **{fid: unbounded_tower_grid(variant, iterated)
       for variant, (_, _, _, cor) in TOWER_VARIANTS.items()
       for fid, iterated in ((variant, False), (cor, True))},
    "th12": unbounded_th12_grid,
    "th13": unbounded_th13_grid,
    "large_q": unbounded_large_q_grid,
}


def tower_reference_length(plus, extended):
    """(t + plus) r^e E, plus 1 if extended, with E = 1 + r^s + ... +
    r^(s (M - 1)) summed term by term and M the product of the factors."""
    def length(a):
        big_m = math.prod(a["ms"]) if "ms" in a else a["m"]
        e_sum = sum(a["r"] ** (a["s"] * i) for i in range(big_m))
        return (a["t"] + plus) * a["r"] ** a["e"] * e_sum + extended
    return length


# each family's length, as the README's family table states it
REFERENCE_LENGTHS = {
    "th1": lambda a: 2 * a["t"] * a["r"] ** a["e"],
    "th2": lambda a: (a["t"] + 1) * a["p"] ** a["e"],
    "th3": lambda a: (a["t"] + 1) * a["p"] ** a["e"] + 1,
    "th4": lambda a: (a["t"] + 1) * a["r"] ** a["e"] + 1,
    **{fid: tower_reference_length(plus, extended)
       for variant, plus, extended in (("th8", 0, 0), ("th9", 1, 0),
                                       ("th10", 0, 1), ("th11", 1, 1))
       for fid in (variant, TOWER_VARIANTS[variant][3])},
    "th12": lambda a: a["t"] * a["f"] + 2 * (a["variant"] == "tf+2"),
    "th13": lambda a: a["t"] * a["f"] + 1,
    "large_q": lambda a: a["n"],
}


def capped_grid(fid):
    """fid's unbounded grid as (n, params), n its reference length,
    keeping the points with n <= cap."""
    def grid(p, big_m, cap):
        for a in UNBOUNDED_GRIDS[fid](p, big_m, cap):
            n = REFERENCE_LENGTHS[fid](a)
            if n <= cap:
                yield n, a
    return grid


def test_lift_grids_stop_at_the_cap():
    """Over every odd prime power up to 2187 and caps 2, 10, 40 and
    q + 1, each family's grid is its unbounded grid filtered to
    reference length <= cap, in the same order, each point with its
    reference length, and no length is below 2."""
    assert set(UNBOUNDED_GRIDS) == set(REFERENCE_LENGTHS) == set(FAMILIES)
    for q in odd_prime_powers(2187):
        p, m = factor_prime_power(q)
        for cap in (2, 10, 40, q + 1):
            for fid, fam in FAMILIES.items():
                got = list(fam.grid(p, m, cap))
                assert got == list(capped_grid(fid)(p, m, cap)), (q, cap, fid)
                assert all(n >= 2 for n, _ in got), (q, cap, fid)


def test_admitted_is_the_same_from_the_unbounded_lift_grids(monkeypatch):
    """_admitted over every odd prime power up to 2187 at caps 2, 10
    and 40 (or q + 1 when smaller) lists the same witnesses, in the same
    order, as with every family's unbounded grid, filtered to reference
    length <= cap, in place."""
    def admitted_all():
        return [(n, params, prov)
                for q in odd_prime_powers(2187)
                for cap in sorted({min(c, q + 1) for c in (2, 10, 40)})
                for n, _, params, prov in _admitted(
                    make_field(*factor_prime_power(q)), cap)]

    bounded = admitted_all()
    for fid in UNBOUNDED_GRIDS:
        monkeypatch.setitem(FAMILIES, fid, dataclasses.replace(
            FAMILIES[fid], grid=capped_grid(fid)))
    assert admitted_all() == bounded
    assert len(bounded) > 15000


def count_certificates(monkeypatch):
    """Provenance of every build_verified_code call, through each
    module that builds codes."""
    calls = []
    for mod in (grsdual.subspace, grsdual.cosets, grsdual.search):
        def counted(*args, _build=mod.build_verified_code, **kwargs):
            code = _build(*args, **kwargs)
            calls.append(code.provenance)
            return code
        monkeypatch.setattr(mod, "build_verified_code", counted)
    return calls


@pytest.mark.parametrize("q", [7, 25, 27, 121, 125, 169, 243, 343])
def test_catalog_builds_one_certificate_per_row(q, monkeypatch):
    calls = count_certificates(monkeypatch)
    rows = [e for e in catalog(q, 40) if e.status == "constructed"]
    assert calls == [e.certificate["provenance"] for e in rows]
    assert all(e.provenance[0] == e.certificate["provenance"] for e in rows)
    if q > 7:  # rows with more witnesses than certificates
        assert sum(len(e.provenance) for e in rows) > len(rows)


def test_catalog_past_the_verify_limit_refuses_before_it_builds(monkeypatch):
    """n = 4490 over GF(4489) is past the verify limit: the refusal the
    build of its certificate raised after every shorter one's, now
    before any build."""
    def refused(*args, **kwargs):
        raise AssertionError("a certificate was built")

    for mod in (grsdual.subspace, grsdual.cosets, grsdual.search):
        monkeypatch.setattr(mod, "build_verified_code", refused)
    start = time.perf_counter()
    with pytest.raises(EnumerationTooLarge) as exc:
        catalog(4489, 4490)
    assert time.perf_counter() - start < 2
    assert str(exc.value) == (
        "verifying a [4490,2245] code needs a 2245 x 4490 matrix, past "
        "the verify limit of 10000000 entries")


def test_a_failed_certificate_build_is_a_bug(monkeypatch):
    def refused(*args):
        raise HypothesisViolated("refused after admits passed")

    monkeypatch.setattr(grsdual.search, "th1_code", refused)
    with pytest.raises(VerificationFailed):
        catalog(25, 4)  # th1 is the certificate of n = 4
    # past the large_q bound the greedy run cannot come up short
    monkeypatch.setattr(grsdual.search, "square_clique_greedy",
                        lambda field, n: None)
    with pytest.raises(VerificationFailed):
        catalog(25, 2)
