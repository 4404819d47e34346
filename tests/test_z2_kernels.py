"""The characteristic-2 kernels: syndromes packed into uint64 words, joined
by head and tail keys in chunks of site subsets, and the bitset rank over
Z_2.

Pins the first witness of every p = 2 catalog table, checks tables with
more than 64 generators (several words per syndrome) against the
exhaustive ``oracles.first_undetectable``, and checks the packed Z_2
elimination: ``linalg.rank`` against the pivots of ``linalg.rref``, and
both against the row-by-row ``oracles.rref_rows``.
"""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amecodes import codes, linalg
from amecodes.catalog import catalog_dir, load_table
from amecodes.cli import main
from amecodes.codes import GeneratorTable, find_min_undetectable
from amecodes.fields import GF
from amecodes.pauli import PauliString
from oracles import first_undetectable, rref_rows

X, Z, Y, I = (1, 0), (0, 1), (1, 1), (0, 0)

# (weight, sites) of the first undetectable error, scanned at d and at n
P2_WITNESSES = {
    "ame_2_2": (2, (Z, Z)),
    "ame_3_2": (2, (Z, Z, I)),
    "ame_5_2": (3, (Y, Z, Y, I, I)),
    "ame_6_2": (4, (Z, Z, X, Z, I, I)),
    "code_4_1_2_2": (2, (Z, Y, I, I)),
    "code_4_2_2_2": (2, (Z, X, I, I)),
    "code_5_1_3_2": (3, (Z, X, Z, I, I)),
}


@pytest.mark.parametrize("name", sorted(P2_WITNESSES))
def test_p2_catalog_witnesses_are_pinned(name):
    table = load_table(name)
    assert table.field.p == 2
    w, sites = P2_WITNESSES[name]
    for d_max in (table.claimed.d, table.n):
        hit = find_min_undetectable(table, d_max)
        assert (hit[0], hit[1].sites) == (w, sites), d_max


def test_verify_budget_refusal_is_pinned(capsys):
    code = main(["verify", str(catalog_dir() / "code_5_1_3_9.stabtab"), "--budget", "100"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ("table: [[5,1,3]]_9 (8 generators)\n"
                       "commutation: pass\nindependence: pass\n")
    assert out.err == "error: distance scan at weight 1 needs 3200 commutation tests (budget 100)\n"


def twin_graph_table(field, n, seed):
    """A random graph state on n sites in which the last site is a twin of
    site n // 2 - 1 (same neighbours, not adjacent), so the product of their
    X generators is a weight-2 stabilizer element, its rows mixed by a
    random invertible Z_p matrix.  The twins differ in parity, and the
    witness needs every word of their syndromes to agree."""
    rng = random.Random(seed)
    q, m, p = field.q, field.m, field.p
    adj = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    twin, orig = n - 1, n // 2 - 1
    for i in range(n):
        adj[i][i] = 0
        for j in range(i):
            adj[i][j] = adj[j][i]
    for j in range(n):
        adj[twin][j] = adj[j][twin] = 0 if j in (twin, orig) else adj[orig][j]
    rows = GeneratorTable(field, n, tuple(
        PauliString(field, tuple((b, 0) if j == i else (0, int(field.mul_table[b, adj[i][j]]))
                                 for j in range(n)))
        for i in range(n) for b in range(1, m + 1))).symplectic_matrix()
    while True:
        mix = np.array([[rng.randrange(p) for _ in rows] for _ in rows])
        if linalg.rank(mix, p) == len(rows):
            return GeneratorTable.from_matrix(field, n, (mix @ rows) % p)


@pytest.mark.parametrize("q, n", [(2, 66), (4, 34), (8, 22)])
def test_multiword_syndromes_match_the_exhaustive_route(q, n):
    table = twin_graph_table(GF(q), n, seed=q)
    assert len(table.gens) > 64
    want = first_undetectable(table, 2)
    assert want is not None and want[0] == 2
    # two-word keys, and under the colliding bases two-word exact checks
    for block, key_base in itertools.product((1, 97, codes._BLOCK_ROWS), (codes._KEY_BASE, 0, 1)):
        with mock.patch.object(codes, "_BLOCK_ROWS", block), \
                mock.patch.object(codes, "_KEY_BASE", key_base):
            hit = find_min_undetectable(table, 2)
        assert (hit[0], hit[1].sites) == want, (block, key_base)


@st.composite
def z2_matrices(draw):
    """A random 0/1 matrix of a drawn rank (a product of random factors),
    some of its rows then zeroed: single rows, zero rows and rows longer
    than one 64-bit word all occur."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.sampled_from([1, 5, 63, 64, 65, 130]))
    inner = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols))) % 2
    a[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0
    return a


@settings(max_examples=150, deadline=None)
@given(z2_matrices())
def test_z2_rank_matches_rref(a):
    assert linalg.rank(a, 2) == len(linalg.rref(a, 2)[1])
    assert linalg.rank(a.T, 2) == linalg.rank(a, 2)


@settings(max_examples=150, deadline=None)
@given(z2_matrices())
def test_z2_rref_matches_the_row_by_row_elimination(a):
    red, pivots = linalg.rref(a, 2)
    want, want_pivots = rref_rows(a.tolist(), 2)
    assert red.dtype == np.int64 and red.tolist() == want and pivots == want_pivots
    assert linalg.rank(a, 2) == len(want_pivots)
