"""Property tests: the distance scan (rank screen plus bounded blocks)
finds the same first undetectable error as an exhaustive scan, whatever
the block size, and holds no more than a few blocks in memory.

The reference is ``oracles.first_undetectable``, which tests every error
of every subset with scalar trace arithmetic.  With ``_BLOCK_ROWS`` = 1
every weight class is screened and every block is one error; at the
default only the large classes are.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amecodes import codes, linalg
from amecodes.codes import GeneratorTable, find_min_undetectable
from amecodes.fields import GF
from amecodes.pauli import PauliString
from oracles import first_undetectable

# (q, largest n) kept small enough for the exhaustive reference
SIZES = [(2, 7), (3, 6), (5, 5), (4, 5), (9, 4)]


def graph_state(field, adjacency):
    """m generators per vertex i: X_b on i and Z_{b * A_ij} on each j, for
    b = 1, alpha, ..., alpha^(m-1) (element index e+1 is alpha^e)."""
    n = len(adjacency)
    gens = []
    for i in range(n):
        for b in range(1, field.m + 1):
            gens.append(PauliString(field, tuple(
                (b, 0) if j == i else (0, field.mul(b, adjacency[i][j])) for j in range(n))))
    return GeneratorTable(field, n, tuple(gens))


@st.composite
def scrambled_codes(draw):
    """A random graph state, its rows mixed by a random invertible Z_p
    matrix, keeping the first m(n - k) rows."""
    q, n_max = draw(st.sampled_from(SIZES))
    field = GF(q)
    n = draw(st.integers(2, n_max))
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adjacency[i][j] = adjacency[j][i] = draw(st.integers(0, q - 1))
    state = graph_state(field, adjacency)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p, rows = field.p, len(state.gens)
    while True:
        c = np.array([[rng.randrange(p) for _ in range(rows)] for _ in range(rows)])
        if linalg.rank(c, p) == rows:
            break
    k = draw(st.integers(0, min(2, n - 1)))
    mat = (c @ state.symplectic_matrix()) % p
    return GeneratorTable.from_matrix(field, n, mat[: field.m * (n - k)])


# an AME(4,9) graph state: its weight-3 class (80^3 errors a subset) is
# screened and scanned in blocks at the default block size too
AME_4_9 = graph_state(GF(9), [[0, 7, 3, 4], [7, 0, 3, 7], [3, 3, 0, 1], [4, 7, 1, 0]])


@settings(max_examples=60, deadline=None)
@given(scrambled_codes())
@example(AME_4_9)
def test_scan_matches_the_exhaustive_route_at_any_block_size(table):
    w, sites = first_undetectable(table, table.n)
    n_pairs = table.field.q ** 2 - 1
    for block in (1, 97, codes._BLOCK_ROWS):
        if block == 1 and n_pairs**w > 10**5:
            continue  # one-error blocks: keep the scan short
        with mock.patch.object(codes, "_BLOCK_ROWS", block):
            hit = find_min_undetectable(table, table.n)
        assert (hit[0], hit[1].sites) == (w, sites), block


def cauchy_ame_6_7():
    """Bipartite graph state of A_ij = 1/(x_i - y_j) over Z_7, x = 0, 1, 2 and
    y = 3, 4, 5: A is superregular, so the state is AME(6,7) (Helwig et al.,
    PRA 86, 052335 (2012))."""
    field = GF(7)
    a = [[pow(x - y, -1, 7) for y in (3, 4, 5)] for x in (0, 1, 2)]
    adjacency = [[0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            adjacency[i][3 + j] = adjacency[3 + j][i] = a[i][j]
    return graph_state(field, adjacency)


def test_ame_6_7_scan_stays_under_32_mib():
    table = cauchy_ame_6_7()
    tracemalloc.start()
    try:
        hit = find_min_undetectable(table, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit[0] == 4
    assert peak < 32 * 2**20, peak
