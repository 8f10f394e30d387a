"""Greedy [n/2]-dimensional self-dual codes on every large enough field.

Above an explicit clique bound, a counting argument guarantees that n
pairwise-compatible points exist, and a greedy scan finds them.  This
sweeps all prime powers q = 1 (mod 4) up to a configurable limit and
reports timing; every field above the bound must succeed.
"""

import argparse
import time

from grsdual import (
    clique_count_lower_bound,
    large_q_bound,
    make_field,
    odd_prime_powers,
    th_large_q_code,
)
from grsdual.field import factor_prime_power


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=10 ** 4)
    ap.add_argument("--n", type=int, default=4, help="code length")
    args = ap.parse_args()

    bound = large_q_bound(args.n)
    print(f"n = {args.n}: clique bound {bound:.2f}")
    for mult in (1.0, 2.0, 10.0):
        q = bound * mult
        print(f"  guaranteed cliques at q = {q:10.1f}: "
              f">= {clique_count_lower_bound(q, args.n):.3g}")

    qs = [q for q in odd_prime_powers(args.max_q)
          if q % 4 == 1 and q > bound]
    if not qs:
        print(f"\nno field q = 1 (mod 4) up to --max-q {args.max_q} "
              f"exceeds the bound")
        return
    print(f"\nsweeping {len(qs)} fields, "
          f"{bound:.2f} < q <= {args.max_q} ...")
    t0 = time.perf_counter()
    slowest = (0.0, None)
    for q in qs:
        t1 = time.perf_counter()
        field = make_field(*factor_prime_power(q))
        code = th_large_q_code(field, args.n)
        assert code.verify()
        dt = time.perf_counter() - t1
        if dt > slowest[0]:
            slowest = (dt, q)
    total = time.perf_counter() - t0
    print(f"all verified in {total:.2f}s "
          f"(slowest q = {slowest[1]} at {slowest[0] * 1000:.1f} ms)")

    sample = qs[len(qs) // 2]
    field = make_field(*factor_prime_power(sample))
    code = th_large_q_code(field, args.n)
    print(f"\nsample q = {sample}: points {list(code.eval_set.points)}, "
          f"multipliers {list(code.eval_set.multipliers)}")


if __name__ == "__main__":
    main()
