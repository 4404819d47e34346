#!/usr/bin/env python3
"""The dense oracle on the four-qutrit AME state: projection codewords,
Knill-Laflamme verification, and reduced-state entropies."""

import itertools
import math

import numpy as np

from amecodes import (GF, StateVector, ame_projection_codewords, dense_distance,
                      expand_stabilizer, knill_laflamme_check, reduced_entropy)
from amecodes.catalog import load_table

# |psi> = (1/3) sum_{i,j} |i, j, i+j, i+2j>  over Z_3
f3 = GF(3)
amps = np.zeros(81, dtype=complex)
for i in range(3):
    for j in range(3):
        amps[((i * 3 + j) * 3 + (i + j) % 3) * 3 + (i + 2 * j) % 3] = 1 / 3
psi = StateVector(f3, 4, amps)

# Every single site and every pair of sites is maximally mixed.
print("entropies of |psi>:")
print("  |A|=1:", [round(reduced_entropy(psi, [a]), 6) for a in range(4)])
print("  |A|=2:", sorted(round(reduced_entropy(psi, p), 6)
                         for p in itertools.combinations(range(4), 2)))
print("  log2(3) =", round(math.log2(3), 6), "  2*log2(3) =", round(2 * math.log2(3), 6))

# Treat the first qutrit as the message: the three renormalized
# projections are the logical codewords of a three-qutrit code.
codewords = ame_projection_codewords(psi, 1)
print("\nprojection codewords (support):")
for i, w in enumerate(codewords.words):
    support = [f"|{idx//9}{idx%9//3}{idx%3}>" for idx in np.nonzero(np.abs(w.amplitudes) > 1e-12)[0]]
    print(f"  word {i}: " + " + ".join(support))

# They form a distance-2 code: weight-1 errors act as scalars on the
# code space, some weight-2 product does not.
print("\nKL at d=2:", "pass" if knill_laflamme_check(codewords, 2) is None else "fail")
witness = knill_laflamme_check(codewords, 3)
print("KL at d=3: fail, witness", witness, f"(weight {witness.weight()})")
print("dense distance:", dense_distance(codewords, 3))

# The same code arrives through the stabilizer route: expanding the
# shipped [[3,1,2]]_3 child table spans exactly the same 3-dim space.
child = load_table("code_3_1_2_3")
cw2 = expand_stabilizer(child)
overlaps = np.array([[b.inner(a) for a in codewords.words] for b in cw2.words])
print("\nspan overlap singular values (all 1 = same space):",
      np.round(np.linalg.svd(overlaps, compute_uv=False), 10))
