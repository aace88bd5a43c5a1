"""A tour of the integral Schur algebra in its weight-matrix basis.

Builds small algebras, multiplies basis elements, and triangulates the
product formula against the two brute-force realizations: composition of
invariant tensor-space endomorphisms, and the convolution product on dual
monomial functionals.
"""

from schurres import (
    basis_element,
    compose,
    decode,
    endo_of_basis,
    enumerate_weight_matrices,
    format_element,
    green_convolution,
    identity,
    multiply,
    multiply_basis,
)
from schurres.combinatorics import diagonal_matrix

n = r = 2
print(f"S({n},{r}) has basis indexed by {len(enumerate_weight_matrices(n, r))} "
      "weight matrices:")
for m in enumerate_weight_matrices(n, r):
    print("   ", m)

omega = ((1, 1), (0, 0))
pi = ((1, 0), (1, 0))
product = multiply_basis(omega, pi)
print(f"\nxi{omega} * xi{pi} = {format_element(product)}")

print("\nThe same product through the tensor-space oracle:")
oracle = decode(compose(endo_of_basis(omega), endo_of_basis(pi)))
print("   ", format_element(oracle), "(agrees:", oracle == product, ")")

print("Green's convolution gives it a third way:")
conv = green_convolution(omega, pi)
print("   ", format_element(conv), "(agrees:", conv == product, ")")

print("\nDiagonal idempotents decompose the identity:")
one = identity(2, 2)
print("    identity =", format_element(one))
e1, e2 = (basis_element(diagonal_matrix(lam)) for lam in ((2, 0), (1, 1)))
print("    orthogonality:", format_element(multiply(e1, e2)))

print("\nExhaustive triangulation over all basis pairs of S(2,2):")
mats = enumerate_weight_matrices(n, r)
checked = 0
for a in mats:
    fa = endo_of_basis(a)
    for b in mats:
        direct = multiply_basis(a, b)
        assert direct == decode(compose(fa, endo_of_basis(b)))
        assert direct == green_convolution(a, b)
        checked += 1
print(f"    {checked} pairs, three routes, exact agreement")
