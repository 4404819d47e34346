#!/usr/bin/env python3
"""Tour of the finite-field layer: GF(9) arithmetic, traces, the trace form.

A field is its numpy tables, indexed by element indices: ``mul_table``,
``coeff_matrix``, ``trace_table``, ``trmul_table`` and ``gram`` below.
"""

from amecodes import GF

# Prime fields behave like ordinary modular arithmetic; element index = value.
# The inverse of 2 is where row 2 of the multiplication table holds 1.
f5 = GF(5)
print("Z_5:  2 * 4 =", f5.mul_table[2, 4], "   2^-1 =", list(f5.mul_table[2]).index(1))

# Extension fields enumerate elements by powers of alpha (the class of x
# modulo the pinned polynomial).  For GF(9) the polynomial is x^2 + x + 2.
f9 = GF(9)


def coeffs(i):
    return tuple(f9.coeff_matrix[i].tolist())


print("\nGF(9) with modulus", f9.modulus, " (alpha = class of x)")
print("index -> coefficients over {1, alpha}:")
for i in range(f9.q):
    name = "0" if i == 0 else f"alpha^{i - 1}"
    print(f"  {i}: {name:>8} = {coeffs(i)}")

# alpha (index 2) has multiplicative order q - 1 = 8, and alpha^4 = 2 = -1;
# square it three times through the multiplication table.
alpha2 = f9.mul_table[2, 2]
alpha4 = f9.mul_table[alpha2, alpha2]
print("\nalpha^4 =", coeffs(alpha4), " (the element 2, i.e. -1 mod 3)")
print("alpha^8 =", coeffs(f9.mul_table[alpha4, alpha4]), " (back to 1)")

# The Galois trace maps GF(9) onto Z_3 linearly: tr(x) = x + x^3.
print("\ntraces:", f9.trace_table.tolist())

# The trace form tr(x * y) is bilinear over Z_3, so its Gram matrix on the
# basis {1, alpha} gives it on coefficient vectors: tr(x * y) = cx . G . cy.
# This is the matrix through which the codes layer reads the
# trace-symplectic product of two Pauli strings.
G = f9.gram
print("\ntrace-form Gram matrix on {1, alpha}:", G.tolist())
x, y = 3, 7  # alpha^2, alpha^6
via_gram = int(f9.coeff_matrix[x] @ G @ f9.coeff_matrix[y] % f9.p)
print("tr(alpha^2 * alpha^6) =", f9.trmul_table[x, y], " via the Gram matrix:", via_gram)
