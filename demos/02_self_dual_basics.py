"""Worked example of the self-duality criterion over GF(13).

For evaluation points a_1..a_n the product L(a_i) of the differences
a_i - a_j controls everything.  An even-length code exists when the
quadratic character of L is constant on the points; an odd point set
extends by an extra coordinate when every -L(a_i) is a square.  The
multipliers are square roots of the scaled inverses, and the resulting
generator matrix G satisfies G G^T = 0 on the nose.
"""

import numpy as np

from grsdual import (
    EvalSet,
    check_self_dual,
    generator_matrix,
    lagrange_products,
    make_field,
    min_distance,
    solve_extended_multipliers,
    solve_multipliers,
)
from grsdual.linalg import gram


def main():
    f = make_field(13)
    val = lambda e: f.poly_value(int(e))  # noqa: E731
    vals = lambda es: [val(e) for e in es]  # noqa: E731

    pts = [f.from_int(x) for x in (0, 1, 2, 3)]
    print("even length: points", vals(pts), "over", f.name)
    l = lagrange_products(f, pts)
    print("  L values   ", vals(l))
    print("  characters ", f.vsign(l).tolist())
    lam, v = solve_multipliers(f, pts)
    print("  lambda     ", val(lam))
    print("  multipliers", vals(v))

    es = EvalSet(f, pts, v)
    g = generator_matrix(es, 2)
    print("  G (encodings):")
    for row in g.data:
        print("   ", [int(x) for x in row])
    print("  G G^T == 0 ", not np.any(gram(f, g.data)))
    print("  self-dual  ", check_self_dual(g))
    print("  distance   ", min_distance(g), "= n - k + 1")

    pts = [f.from_int(x) for x in (0, 1, 4)]
    print("\nodd length: points", vals(pts), "extend by one coordinate")
    l = lagrange_products(f, pts)
    print("  -L characters", f.vsign(f.vneg(l)).tolist())
    v = solve_extended_multipliers(f, pts)
    print("  multipliers", vals(v))
    es = EvalSet(f, pts, v, extended=True)
    g = generator_matrix(es, 2)
    print("  self-dual  ", check_self_dual(g))
    print("  distance   ", min_distance(g))

    # a quadruple whose characters disagree has no multipliers at all
    pts = [f.from_int(x) for x in (0, 1, 2, 4)]
    print("\ncounterexample: points", vals(pts))
    l = lagrange_products(f, pts)
    print("  characters ", f.vsign(l).tolist())
    print("  solver     ", solve_multipliers(f, pts))


if __name__ == "__main__":
    main()
