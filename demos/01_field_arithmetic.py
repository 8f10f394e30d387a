"""Tour of the table-backed field arithmetic.

Every nonzero element is stored as a discrete log offset: encoding i
stands for theta^(i-1), with 0 reserved for zero.  Multiplication is
then integer addition of exponents and addition runs through a Zech
logarithm table, so all the code paths above this module are pure
numpy integer ops.
"""

from grsdual import make_field

THETA = 2  # encoding i stands for theta^(i-1)


def show(label, value):
    print(f"  {label:<28} {value}")


def main():
    f = make_field(13)
    val = f.poly_value
    print(f"{f.name}: encodings are powers of theta")
    show("theta enc", THETA)
    show("theta value", val(THETA))
    three = f.from_int(3)
    show("enc of value 3", three)
    show("log of that element", three - 1)

    a, b = f.from_int(5), f.from_int(11)
    show("5 * 11", val(f.mul(a, b)))
    show("5 + 11", val(f.add(a, b)))
    show("5 / 11", val(f.mul(a, f.inv(b))))
    show("-5", val(f.neg(a)))

    print("\nquadratic characters over GF(13)")
    chars = {v: f.sign(f.from_int(v)) for v in range(1, 13)}
    squares = sorted(v for v, c in chars.items() if c == 1)
    show("squares", squares)
    show("sqrt of 3 (canonical)", val(f.sqrt_enc(three)))

    g = make_field(3, 4)
    print(f"\n{g.name}: an extension field, q = {g.q}")
    show("modulus (constant first)", list(g.modulus))
    show("chi(-1)", g.sign(g.neg(1)))
    sub9 = g.subfield_enc(9).tolist()
    show("GF(9) inside, size", len(sub9))
    show("GF(3) inside, size", len(g.subfield_enc(3)))

    # closure spot check: sums of subfield elements stay inside
    show("closed under +", g.add(sub9[2], sub9[5]) in set(sub9))


if __name__ == "__main__":
    main()
