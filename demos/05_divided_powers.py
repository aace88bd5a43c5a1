"""Divided powers as principal modules over the Schur algebra.

Monomials in divided powers are indexed by weight matrices with a fixed
column marginal; an integer matrix acts on them inside the divided-power
algebra, sending each generator to its image and expanding the divided
powers of those images.  Identifying each monomial with the algebra basis
element of the same matrix intertwines this action with left multiplication
by the matrix's image in the algebra, which this script proves on full bases
for every matrix: both sides are polynomials in the matrix entries, fixed by
their values at finitely many weight matrices.
"""

from schurres import (
    AlgebraElement,
    basis_element,
    divided_basis,
    divided_power_of_vector,
    divided_product,
    format_element,
    gl_action,
    multiply,
    tensor_power_action,
    verify_equivariance,
)

print("single-factor relations:")
e1 = {(1, 0): 1}
print("    e1*e1 =", divided_product(e1, e1))
print("    (e1+e2)^(2) =", divided_power_of_vector((1, 1), 2))

lam = (2, 0)
g = ((1, 0), (1, 1))
rho = tensor_power_action(g, sum(lam))
print(f"\nthe shear {g} acting on the monomial basis of degree {lam}:")
for pi in divided_basis(lam):
    image = gl_action(g, pi)
    assert AlgebraElement(2, 2, image) == multiply(rho, basis_element(pi))
    print(f"    {pi} -> {image}")

print("\nthe image of the shear in the algebra:")
print("   ", format_element(rho))

pi = ((2, 0), (0, 0))
lhs = AlgebraElement(2, 2, gl_action(g, pi))
rhs = multiply(rho, basis_element(pi))
print(f"\nact-then-identify  {format_element(lhs)}")
print(f"identify-then-act  {format_element(rhs)}")

print("\nequivariance on full bases, for every matrix:")
for lam in [(2, 0), (1, 1), (2, 1), (1, 1, 1)]:
    print(f"    {lam}: {verify_equivariance(lam)[0]}")
