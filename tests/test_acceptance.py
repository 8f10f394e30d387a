"""Acceptance gate for the package.

Nine end-to-end checks, one per test, each printing a PASS line when it
holds.  These pin down the headline behaviors: the showcase codes over
GF(81), GF(169), GF(1331), exact exhaustive distances, the identity
selftest, soundness of the even-length criterion, the coset families,
the large-field sweep, and the nonexistence filter in the catalog.
Run with -s to see the lines; tolerances are stated inline.
"""

import itertools
import time

import numpy as np

from grsdual import (
    EvalSet,
    catalog,
    check_self_dual,
    generator_matrix,
    lagrange_products,
    large_q_bound,
    make_field,
    min_distance,
    odd_prime_powers,
    run_selftest,
    solve_multipliers,
    th1_code,
    th2_code,
    th3_code,
    th4_code,
    th8_code,
    th9_code,
    th10_code,
    th11_code,
    th12_code,
    th13_code,
    th_large_q_code,
)
from grsdual.field import factor_prime_power
from grsdual.linalg import gram, rank


def _gram_is_zero(code):
    g = code.generator_matrix()
    return not np.any(gram(code.field, g.data))


def test_root_group_code_over_gf81():
    t0 = time.perf_counter()
    code = th1_code(9, 2, 1, 2)
    elapsed = time.perf_counter() - t0
    assert code.field.q == 81
    assert code.field.name == "GF(3^4)"
    assert (code.length, code.k) == (36, 18)
    assert _gram_is_zero(code)
    assert rank(code.field, code.generator_matrix().data) == 18
    assert elapsed < 1.0
    print(f"PASS [36,18] over GF(81) in {elapsed:.3f}s, gram zero, rank 18")


def test_even_and_extended_codes_over_gf169():
    t0 = time.perf_counter()
    even = th2_code(13, 2, 1, 3)
    t_even = time.perf_counter() - t0
    assert even.field.q == 169
    assert (even.length, even.k) == (52, 26)
    assert not even.eval_set.extended
    assert _gram_is_zero(even)
    assert t_even < 1.0

    t0 = time.perf_counter()
    ext = th3_code(13, 2, 1, 2)
    t_ext = time.perf_counter() - t0
    assert ext.field.q == 169
    assert (ext.length, ext.k) == (40, 20)
    assert ext.eval_set.extended
    assert _gram_is_zero(ext)
    assert t_ext < 1.0
    print(f"PASS [52,26] in {t_even:.3f}s and extended [40,20] "
          f"in {t_ext:.3f}s over GF(169)")


def test_long_extended_code_over_gf1331():
    t0 = time.perf_counter()
    code = th4_code(11, 3, 2, 2)
    elapsed = time.perf_counter() - t0
    assert code.field.q == 1331
    assert (code.length, code.k) == (364, 182)
    assert code.eval_set.extended
    assert _gram_is_zero(code)
    assert elapsed < 5.0
    print(f"PASS extended [364,182] over GF(1331) in {elapsed:.2f}s, "
          "gram zero")


def test_exhaustive_distance_matches_singleton_bound():
    # every battery code with q^k codewords within the enumeration
    # budget gets its distance computed exactly, no sampling
    battery = [
        th1_code(13, 1, 0, 2),
        th2_code(13, 1, 0, 3),
        th3_code(13, 2, 0, 2),
        th4_code(13, 1, 0, 4),
        th9_code(7, 1, 1, 0, 3),
        th10_code(7, 1, 1, 0, 3),
        th11_code(5, 2, 1, 0, 2),
        th12_code(5, 6, 4, 2, 1, "tf"),
        th12_code(5, 6, 4, 2, 2, "tf"),
        th13_code(5, 8, 3, 3, 1),
        th13_code(5, 8, 3, 3, 3),
        th1_code(9, 2, 1, 2),       # 81^18 words, filtered out below
        th8_code(5, 1, 3, 0, 2),    # 125^31 words, filtered out below
    ]
    fixture = th2_code(13, 1, 0, 3)
    f13 = fixture.field
    want_v = tuple(f13.from_int(x) for x in (1, 6, 4, 8))
    assert tuple(fixture.eval_set.multipliers) == want_v

    checked = 0
    for code in battery:
        if code.field.q ** code.k > 10 ** 7:
            continue
        d = min_distance(code.generator_matrix())
        assert d == code.length - code.k + 1, code.provenance
        checked += 1
    assert checked == 11
    print(f"PASS exhaustive d = n-k+1 on {checked} codes "
          "(largest 25^5 words), [4,2] fixture multipliers match")


def test_identity_selftest_sweep():
    t0 = time.perf_counter()
    results = run_selftest(max_q=200)
    elapsed = time.perf_counter() - t0
    assert len(results) == 7
    assert all(r.checks > 0 for r in results)
    assert all(r.failures == 0 for r in results)
    assert elapsed < 60.0
    total = sum(r.checks for r in results)
    print(f"PASS selftest max_q=200: {total} checks, 0 failures, "
          f"{elapsed:.2f}s")


def test_even_criterion_sound_on_all_gf13_quadruples():
    # three independently computed answers must agree on all 715
    # 4-subsets: constant character of L, the solver, and a brute
    # force search over square multiplier vectors in value space
    f = make_field(13)
    square_vals = sorted((pow(x, 2, 13) for x in range(1, 13)))[::2]
    w_all = np.array(list(itertools.product(square_vals, repeat=4)))
    mismatches = []
    for vals in itertools.combinations(range(13), 4):
        pts = [f.from_int(x) for x in vals]
        chars = [f.sign(int(l)) for l in lagrange_products(f, pts)]
        eta_constant = len(set(chars)) == 1

        solved = solve_multipliers(f, pts)
        if solved is not None:
            lam, v = solved
            ok = check_self_dual(generator_matrix(EvalSet(f, pts, v), 2))
            assert ok, vals

        powers = np.array([[pow(a, l, 13) for l in range(3)] for a in vals])
        exists = bool(np.any(np.all(w_all @ powers % 13 == 0, axis=1)))

        if not (eta_constant == (solved is not None) == exists):
            mismatches.append(vals)
    assert mismatches == []
    print("PASS all 715 quadruples over GF(13): constant character "
          "<=> solvable <=> brute force, 0 misclassified")


def test_coset_family_codes():
    jobs = [
        (lambda: th8_code(5, 1, 3, 0, 2), 62, False),
        (lambda: th12_code(5, 6, 4, 2, 1, "tf"), 4, False),
        (lambda: th12_code(5, 6, 4, 2, 2, "tf"), 8, False),
        (lambda: th12_code(5, 6, 4, 2, 3, "tf"), 12, False),
        (lambda: th13_code(5, 8, 3, 3, 1), 4, True),
        (lambda: th13_code(5, 8, 3, 3, 3), 10, True),
    ]
    lengths = []
    for build, want_n, want_ext in jobs:
        t0 = time.perf_counter()
        code = build()
        elapsed = time.perf_counter() - t0
        assert code.length == want_n
        assert code.eval_set.extended == want_ext
        assert code.k * 2 == code.length
        assert code.verify()
        assert elapsed < 1.0
        lengths.append(want_n)
    print(f"PASS coset families: lengths {lengths} all verified, "
          "each under 1s")


def test_large_field_sweep():
    bound = large_q_bound(4)
    assert abs(bound - 45.86000936329382) < 1e-9
    swept = 0
    for q in odd_prime_powers(10 ** 4):
        if q % 4 != 1 or q <= bound:
            continue
        field = make_field(*factor_prime_power(q))
        code = th_large_q_code(field, 4)
        assert (code.length, code.k) == (4, 2), q
        assert code.verify(), q
        swept += 1
    assert swept == 634
    print(f"PASS greedy [4,2] on all {swept} fields with "
          f"{bound:.2f} < q <= 10^4, q = 1 mod 4, 0 failures")


def test_catalog_never_claims_banned_lengths():
    banned_seen = 0
    constructed_banned = []
    for q in odd_prime_powers(200):
        for entry in catalog(q, 20):
            if q % 4 == 3 and entry.n % 4 == 2:
                banned_seen += 1
                if entry.status == "constructed":
                    constructed_banned.append((q, entry.n))
                assert entry.provenance == ()
    assert constructed_banned == []
    assert banned_seen > 0
    print(f"PASS catalog over q <= 200: {banned_seen} banned (q,n) pairs, "
          "none claimed constructed")
