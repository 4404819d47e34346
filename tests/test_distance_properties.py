"""Property tests: the distance scan (chunks of whole subsets joined by
head and tail keys, then screened subsets, each decided by the kernel of
its syndrome map) finds the same first undetectable error as an
exhaustive scan, whatever the block size, also under key hashes that
collide, and holds no more than a few blocks in memory.

The reference is ``oracles.first_undetectable``, which tests every error
of every subset with scalar trace arithmetic.  With ``_BLOCK_ROWS`` = 1 a
join holds 4 errors, so only the qubit weight-1 class is joined, one
subset a chunk, and every other class is screened, each kernel read one
combination at a time; at 97 a join holds 388 errors, so qubit weight 5
and q = 4 weight 2 are joined one subset a chunk, and lighter classes
many; at the default only the large classes are screened.  Under a
colliding key hash (base 1 keys a row by the plain sum of its entries,
base 0 keys every row 0) only the exact row check tells a zero syndrome
from a collision.  Random independent tables that need not commute are
checked too: independence for k > 0 is the scan's one precondition.
Every catalog table and family member gives one witness at every block
size, and the exhaustive route's under colliding keys.  The Cauchy
AME(8,11) and AME(10,11) states lie past the default budget and are
checked against the rank route.
"""

import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amecodes import codes, linalg, stabtab
from amecodes.catalog import catalog_dir, load_table
from amecodes.codes import GeneratorTable, find_min_undetectable, subsystem_entropy
from amecodes.errors import ResourceBudgetError
from amecodes.fields import GF
from amecodes.pauli import PauliString
from amecodes.reduction import derive_family
from amecodes.repeater import children_params
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
                (b, 0) if j == i else (0, int(field.mul_table[b, adjacency[i][j]])) for j in range(n))))
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


@st.composite
def independent_tables(draw):
    """m(n - k) random independent Z_p rows, some entries zeroed, which
    need not commute."""
    q, n_max = draw(st.sampled_from(SIZES))
    field = GF(q)
    n = draw(st.integers(2, n_max))
    k = draw(st.integers(0, min(2, n - 1)))
    density = draw(st.sampled_from([0.25, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (field.m * (n - k), 2 * field.m * n)
    while True:
        mat = rng.integers(0, field.p, shape) * (rng.random(shape) < density)
        if linalg.rank(mat, field.p) == shape[0]:
            return GeneratorTable.from_matrix(field, n, mat)


# an AME(4,9) graph state: its weight-3 class (80^3 errors a subset) is
# screened, and its witness read from a kernel, at the default block size too
AME_4_9 = graph_state(GF(9), [[0, 7, 3, 4], [7, 0, 3, 7], [3, 3, 0, 1], [4, 7, 1, 0]])

# a Bell pair beside the [[4,2,2]] code: at block size 1 the kernel of
# subset (0, 1), {ZZ, XX, YY}, is nonzero but inside the group, so the
# scan must move on to the logical ZZ on sites 2 and 3
BELL_AND_4_2_2 = stabtab.parse("code n=6 q=2 k=2\ng1: z1 z1 i i i i\ng2: x1 x1 i i i i\n"
                               "g3: i i z1 z1 z1 z1\ng4: i i x1 x1 x1 x1\n")

# a GF(9) Bell pair (X_a X_a for a = 1, alpha and Z_b Z_-b; index 5 is -1,
# index 6 is -alpha) beside the [[4,2,2]]_9 code: weight 2 (80^2 errors a
# subset) is screened at block sizes 1 and 97, and the kernel of subset
# (0, 1) is nonzero but inside the group, so the scan must move on; at the
# default the join meets those group elements first and moves on too
BELL_AND_4_2_2_9 = stabtab.parse(
    "code n=6 q=9 k=2\nmodulus: 1,1,2\n"
    "g1: x1 x1 i i i i\ng2: x2 x2 i i i i\ng3: z1 z5 i i i i\ng4: z2 z6 i i i i\n"
    "g5: i i z1 x1z5 z5 x5z1\ng6: i i z2 x2z6 z6 x6z2\n"
    "g7: i i x1 z1 x5 z5\ng8: i i x2 z2 x6 z6\n")

# a dependent k = 1 table, g3 = g1 g2 up to phase: the group has rank 2, not
# the generator count 3, so z1 z1 i i is a logical and z1 z1 z1 z1 is not
DEPENDENT_4_1 = stabtab.parse("code n=4 q=2 k=1\ng1: x1 x1 x1 x1\ng2: z1 z1 z1 z1\n"
                              "g3: x1z1 x1z1 x1z1 x1z1\n")


# the key hash's base, then two under which distinct rows collide
KEY_BASES = (codes._KEY_BASE, 0, 1)


def assert_scan_matches_the_exhaustive_route(table):
    w, sites = first_undetectable(table, table.n)
    n_pairs = table.field.q ** 2 - 1
    for block, key_base in itertools.product((1, 97, codes._BLOCK_ROWS), KEY_BASES):
        if block == 1 and n_pairs**w > 10**5:
            continue  # one-error blocks: keep the scan short
        with mock.patch.object(codes, "_BLOCK_ROWS", block), \
                mock.patch.object(codes, "_KEY_BASE", key_base):
            hit = find_min_undetectable(table, table.n)
        assert (hit[0], hit[1].sites) == (w, sites), (block, key_base)


@settings(max_examples=60, deadline=None)
@given(scrambled_codes())
@example(AME_4_9)
@example(BELL_AND_4_2_2)
@example(BELL_AND_4_2_2_9)
@example(DEPENDENT_4_1)
def test_scan_matches_the_exhaustive_route_at_any_block_size(table):
    assert_scan_matches_the_exhaustive_route(table)


@settings(max_examples=60, deadline=None)
@given(independent_tables())
def test_non_commuting_tables_match_the_exhaustive_route_at_any_block_size(table):
    assert_scan_matches_the_exhaustive_route(table)


CATALOG = sorted(path.stem for path in catalog_dir().glob("*.stabtab"))


def family(name):
    parent = load_table(name)
    return [parent] + [member for _, member in derive_family(parent, verify=False)]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_families_give_one_witness_at_every_block_size(name):
    for table in family(name):
        found = set()
        for block in (1, 97, codes._BLOCK_ROWS):
            with mock.patch.object(codes, "_BLOCK_ROWS", block):
                hit = find_min_undetectable(table, table.n)
            found.add((hit[0], str(hit[1])))
        assert len(found) == 1, found


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_families_match_the_exhaustive_route_under_colliding_keys(name):
    for table in family(name):
        assert_scan_matches_the_exhaustive_route(table)


def cauchy_ame(t, p):
    """Bipartite graph state of A_ij = 1/(x_i - y_j) over Z_p, x = 0..t-1 and
    y = t..2t-1: A is superregular (2t <= p), so the state is AME(2t,p)
    (Helwig et al., PRA 86, 052335 (2012))."""
    adjacency = [[0] * 2 * t for _ in range(2 * t)]
    for i in range(t):
        for j in range(t):
            adjacency[i][t + j] = adjacency[t + j][i] = pow(i - (t + j), -1, p)
    return graph_state(GF(p), adjacency)


def peak_scan(table, d_max, budget=codes.DEFAULT_DISTANCE_BUDGET):
    """find_min_undetectable's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        hit = find_min_undetectable(table, d_max, budget)
        return hit, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ame_6_7_scan_stays_under_32_mib():
    hit, peak = peak_scan(cauchy_ame(3, 7), 4)
    assert hit[0] == 4
    assert peak < 32 * 2**20, peak


def test_qubit_graph_state_scan_to_weight_5_stays_under_1_mib():
    # a 16-qubit graph state of distance 5: every class is joined, at most
    # 4 * _BLOCK_ROWS errors a chunk; the weight-5 class holds 4,368 x 243
    rng = random.Random(8)
    adjacency = [[0] * 16 for _ in range(16)]
    for i, j in itertools.combinations(range(16), 2):
        adjacency[i][j] = adjacency[j][i] = rng.randrange(2)
    hit, peak = peak_scan(graph_state(GF(2), adjacency), 5)
    assert hit[0] == 5
    assert peak < 2**20, peak


@pytest.mark.parametrize("t, p, witness", [
    (4, 11, "z1 z5 z2 z4 x7 i i i"),
    (5, 11, "z1 z4 z9 z8 z5 x6 i i i i"),
])
def test_cauchy_ame_past_the_default_budget(t, p, witness):
    # the default budget refuses both scans (every screened class is charged
    # its brute-force count); each finishes through one kernel witness
    table, n = cauchy_ame(t, p), 2 * t
    with pytest.raises(ResourceBudgetError):
        find_min_undetectable(table, n // 2 + 1)
    hit, peak = peak_scan(table, n // 2 + 1, budget=10**20)
    assert (hit[0], str(hit[1])) == (n // 2 + 1, witness)
    assert peak < 32 * 2**20, peak
    # the rank route agrees: every n/2-subset is maximally mixed
    for sites in itertools.combinations(range(n), n // 2):
        assert subsystem_entropy(table, sites) == pytest.approx(t * math.log2(p))
    family = derive_family(table, budget=10**20)  # checks every member's distance
    assert [params for params, _ in family[1:]] == children_params(n, p)
