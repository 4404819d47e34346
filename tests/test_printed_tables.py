"""Regression pins for the source figures that fail verification.

These tables are typed in exactly as the source prints them.  The
assertions freeze what is actually true of them, by the symplectic scan
and by the dense oracle, so any future change to the verification stack
that silently "fixes" them will show up here.  An exhaustive search
shows that no single-entry edit repairs the five-qubit parent or child.
The shipped catalog carries corrected derived tables instead; see
test_catalog and the derivation notes in the catalog index.
"""

import dataclasses
import itertools

import pytest

from amecodes import stabtab
from amecodes.catalog import load_table
from amecodes.codes import check_commutation, check_independence, compute_distance, find_min_undetectable
from amecodes.oracle import dense_distance, expand_stabilizer
from amecodes.pauli import PauliString

PRINTED_AME_5_2 = """code n=5 q=2 k=0
g1: i i x1 x1 x1
g2: i z1 z1 i z1
g3: i x1 z1 i x1z1
g4: z1 i z1 z1 i
g5: x1 i z1 x1z1 i
"""

PRINTED_4_1_2_2 = """code n=4 q=2 k=1
g1: i x1 x1 x1
g2: z1 z1 i z1
g3: x1 z1 i x1z1
"""

# row g2 site 2 as printed (x2z2); the parent-consistent entry is x2z6
PRINTED_4_2_2_9 = """code n=4 q=9 k=2
modulus: 1,1,2
g1: z1 x1z5 z5 x5z1
g2: z2 x2z2 z6 x6z2
g3: x1 z1 x5 z5
g4: x2 z2 x6 z6
"""


def test_printed_five_qubit_parent_has_distance_two():
    t = stabtab.parse(PRINTED_AME_5_2)
    assert check_commutation(t) is None
    assert check_independence(t) is None
    w, err = find_min_undetectable(t, 3)
    assert w == 2
    # the witness is exactly g4*g5 (projectively): Y on site 1, X on site 4
    assert err.sites == ((1, 1), (0, 0), (0, 0), (1, 0), (0, 0))
    rows = t.symplectic_matrix()
    assert PauliString.from_symplectic(t.field, (rows[3] + rows[4]) % 2, t.n).sites == err.sites
    assert compute_distance(t, 3) == 2  # labeled 3 in the source
    # second route: the dense oracle over all 2^5 amplitudes
    assert dense_distance(expand_stabilizer(t), t.n) == 2


def test_printed_child_4_1_2_has_distance_one():
    t = stabtab.parse(PRINTED_4_1_2_2)
    assert check_commutation(t) is None
    assert check_independence(t) is None
    w, err = find_min_undetectable(t, 2)
    assert w == 1
    assert err.sites == ((0, 0), (0, 0), (1, 0), (0, 0))  # X on site 3
    assert compute_distance(t, 2) == 1  # labeled 2 in the source
    # second route: the dense Knill-Laflamme scan over the 2-dim code space
    codewords = expand_stabilizer(t)
    assert codewords.K == 2
    assert dense_distance(codewords, t.n) == 1


def single_entry_edits(t):
    """Every table that differs from ``t`` in exactly one site entry."""
    q = t.field.q
    for row, g in enumerate(t.gens):
        for site in range(t.n):
            for entry in itertools.product(range(q), repeat=2):
                if entry == g.sites[site]:
                    continue
                sites = g.sites[:site] + (entry,) + g.sites[site + 1:]
                gens = t.gens[:row] + (dataclasses.replace(g, sites=sites),) + t.gens[row + 1:]
                yield dataclasses.replace(t, gens=gens)


def repairs(t, labelled_d):
    """Single-entry edits of ``t`` that verify at distance >= labelled_d."""
    return [
        e for e in single_entry_edits(t)
        if check_commutation(e) is None and check_independence(e) is None
        and compute_distance(e, labelled_d - 1) is None
    ]


@pytest.mark.parametrize("text, labelled_d, n_edits", [
    (PRINTED_AME_5_2, 3, 75),
    (PRINTED_4_1_2_2, 2, 36),
], ids=["parent", "child"])
def test_no_single_entry_edit_repairs_printed_five_qubit_block(text, labelled_d, n_edits):
    t = stabtab.parse(text)
    assert len(list(single_entry_edits(t))) == n_edits
    assert repairs(t, labelled_d) == []


def test_single_entry_edit_search_finds_a_known_repair():
    # the search is not vacuous: one flipped entry of the catalog's AME(5,2)
    # is found again, and nothing else repairs the damage
    good = load_table("ame_5_2")
    g = good.gens[0]  # i i x1z1 z1 x1z1; turn site 1 into z1
    broken = dataclasses.replace(
        good, gens=(dataclasses.replace(g, sites=((0, 1),) + g.sites[1:]),) + good.gens[1:]
    )
    assert check_commutation(broken) == (0, 4)
    assert [e.gens for e in repairs(broken, 3)] == [good.gens]


def test_printed_gf9_child_fails_commutation():
    t = stabtab.parse(PRINTED_4_2_2_9)
    pair = check_commutation(t)
    assert pair == (0, 1)  # g1 vs the typo'd g2
    # flipping the single entry x2z2 -> x2z6 repairs it
    fixed = stabtab.parse(PRINTED_4_2_2_9.replace("x2z2", "x2z6"))
    assert check_commutation(fixed) is None
    assert compute_distance(fixed, 2) == 2
