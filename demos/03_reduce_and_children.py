#!/usr/bin/env python3
"""Canonicalize stabilizer tables into the reduction-friendly form and
extract whole child-code families, including from a scrambled input."""

import random

import numpy as np

from amecodes import GeneratorTable, derive_family, to_reduction_friendly
from amecodes import linalg
from amecodes.catalog import load_table


def show(title, table):
    print(title)
    for i, g in enumerate(table.gens, 1):
        print(f"  g{i}: {g}")


# The shipped AME(6,2) table is already reduction-friendly: site j of the
# left block is held by two rows near the bottom (Z above X), identities
# elsewhere.  Canonicalization is a fixed point on it.
ame62 = load_table("ame_6_2")
form = to_reduction_friendly(ame62)
show("[[6,0,4]]_2 reduction-friendly form:", form.table)
print("layout:", form.layout, " block width:", form.block_width)

# Children drop the last two rows and the first column, k rising by one
# and the distance falling by one each step.
for params, child in derive_family(ame62)[1:]:
    show(f"\nchild {params.label()}:", child)

# The form is reachable from any generating set of the same group.  Mix
# the rows by a random invertible matrix over Z_2 and canonicalize back.
rng = random.Random(7)
while True:
    c = np.array([[rng.randrange(2) for _ in range(6)] for _ in range(6)])
    if linalg.rank(c, 2) == 6:
        break
mat = (c @ ame62.symplectic_matrix()) % 2
scrambled = GeneratorTable.from_matrix(ame62.field, 6, mat, ame62.claimed)
show("\na scrambled generating set of the same state:", scrambled)
recovered = to_reduction_friendly(scrambled)
same_group = linalg.same_row_span(
    recovered.table.symplectic_matrix(), ame62.symplectic_matrix(), 2
)
show("\ncanonicalized back:", recovered.table)
print("generates the same group:", same_group)

# The GF(9) family works the same way with 2m rows per site.
code9 = load_table("code_5_1_3_9")
fam9 = derive_family(code9)
show(f"\n{fam9[1][0].label()} extracted from [[5,1,3]]_9:", fam9[1][1])
