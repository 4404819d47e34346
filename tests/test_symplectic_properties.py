"""Property tests: the Z_p matrix of a generator table and its trace form
agree with the per-site definitions on PauliString.

The scalar ``oracles.commutation_exp`` is the reference for the matrix routes
(check_commutation, the commutation map behind the distance scan), and
the token-level child (drop site 0 and the last 2m rows) is the
reference for the matrix slice in ``child_code``.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amecodes import catalog, linalg
from amecodes.codes import GeneratorTable, _commutation_map, check_commutation
from amecodes.fields import GF
from amecodes.pauli import PauliString
from amecodes.reduction import child_code, to_reduction_friendly
from oracles import commutation_exp

FIELDS = [GF(q) for q in (2, 3, 5, 7, 4, 8, 9)]
SETTINGS = settings(max_examples=60, deadline=None)


def strings(field, n):
    pair = st.tuples(st.integers(0, field.q - 1), st.integers(0, field.q - 1))
    return st.builds(lambda s: PauliString(field, tuple(s)), st.lists(pair, min_size=n, max_size=n))


@st.composite
def tables(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    rows = field.m * draw(st.integers(1, n))
    gens = draw(st.lists(strings(field, n), min_size=rows, max_size=rows))
    return GeneratorTable(field, n, tuple(gens))


def pairwise_first_failure(table):
    gens = table.gens
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if commutation_exp(table.field, gens[i].sites, gens[j].sites):
                return (i, j)
    return None


@SETTINGS
@given(tables())
def test_matrix_commutation_finds_the_pairwise_first_pair(table):
    assert check_commutation(table) == pairwise_first_failure(table)


@SETTINGS
@given(st.data())
def test_commutation_map_columns_are_commutation_exponents(data):
    table = data.draw(tables())
    f = table.field
    a_map = _commutation_map(table)
    for err in data.draw(st.lists(strings(f, table.n), min_size=1, max_size=4)):
        row = f.coeff_matrix[np.array(err.sites)].reshape(-1)
        got = (row @ a_map) % f.p
        assert got.tolist() == [commutation_exp(f, err.sites, g.sites) for g in table.gens]


@SETTINGS
@given(tables())
def test_matrix_round_trip_drops_only_phases(table):
    mat = table.symplectic_matrix()
    assert not mat.flags.writeable
    again = GeneratorTable.from_matrix(table.field, table.n, mat)
    assert again.gens == tuple(PauliString(g.field, g.sites) for g in table.gens)
    assert np.array_equal(again.symplectic_matrix(), mat)


PARENTS = [catalog.load_table(e.id) for e in catalog.load_catalog()
           if e.file and e.params.d >= 3]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(PARENTS), st.integers(0, 2**32 - 1))
def test_child_slice_equals_token_level_child(parent, seed):
    rng = random.Random(seed)
    p, rows = parent.field.p, len(parent.gens)
    while True:
        c = np.array([[rng.randrange(p) for _ in range(rows)] for _ in range(rows)])
        if linalg.rank(c, p) == rows:
            break
    scrambled = GeneratorTable.from_matrix(
        parent.field, parent.n, (c @ parent.symplectic_matrix()) % p, parent.claimed)
    form = to_reduction_friendly(scrambled)
    child = child_code(form)
    m = parent.field.m
    keep = form.table.gens[: rows - 2 * m]
    assert child.n == parent.n - 1
    assert child.gens == tuple(PauliString(g.field, g.sites[1:]) for g in keep)
