"""Property tests: the dense oracle's batched error scan, behind
``knill_laflamme_check`` and ``dense_distance``, returns the same witness
as a walk over ``enumerate_errors`` that applies each error as a product
of ``tests/oracles.dense_pauli`` site matrices and tests one code-space
matrix at a time, whatever the block size; and it holds no more than a
few blocks in memory on a q^n = 4096 state scanned to weight n.  Calls
on one CodewordSet resume its recorded scan: they answer as on a fresh
set, and after the distance scan the Knill-Laflamme checks at d and
d + 1 on a catalog code scan no subset.  The grouped character products
equal the per-site transform, and for each q of SIZES a state whose
witness lies one weight past the largest group is scanned to it.

Inputs: the codewords of random stabilizer tables (scrambled graph states
over Z_2, Z_3, Z_5 and GF(4), cut to k = 0-2) and random orthonormal
K-dimensional subspaces, none of them stabilizer codes, with q^n <= 1024.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amecodes import linalg, oracle
from amecodes.catalog import load_catalog, load_table
from amecodes.codes import GeneratorTable
from amecodes.errors import DomainError
from amecodes.fields import GF
from amecodes.oracle import (KL_TOL, CodewordSet, dense_distance, expand_stabilizer,
                             knill_laflamme_check)
from amecodes.pauli import PauliString, StateVector, enumerate_errors, error_count
from oracles import dense_pauli
from test_distance_properties import graph_state

# (q, largest n) with q^n <= 1024
SIZES = [(2, 10), (3, 6), (5, 4), (4, 5)]
# with q^n <= 256, small enough for every call to scan to weight n
SMALL_SIZES = [(2, 8), (3, 5), (5, 3), (4, 4)]
BLOCKS = (1, 1031, oracle._BLOCK_ENTRIES)
# the catalog's k > 0 tables small enough for the dense oracle
DENSE_CODES = [e for e in load_catalog() if e.k and e.q**e.n <= oracle.DENSE_BUDGET]
# errors the reference walk may visit per check
REFERENCE_ERRORS = 3000


def reference_first_error(c, w_max, scalar):
    """First error of weight 1..w_max in enumerate_errors order whose matrix
    G = <w_m| E |w_m'> is flagged (scalar: max |G - tr G / K I| > KL_TOL;
    otherwise |G_00| > 1/2), with E applied site by site from dense_pauli."""
    f, n, K = c.field, c.n, c.K
    words = np.array([w.amplitudes for w in c.words]).reshape((K,) + (f.q,) * n)
    site_ops = {(a, b): dense_pauli(f, [(a, b)]) for a in range(f.q) for b in range(f.q)}
    for w in range(1, w_max + 1):
        for err in enumerate_errors(f, n, w):  # raises past weight n
            out = words
            for s, pair in enumerate(err.sites):
                if pair != (0, 0):
                    out = np.moveaxis(
                        np.tensordot(site_ops[pair], out, axes=([1], [s + 1])), 0, s + 1)
            g = words.reshape(K, -1).conj() @ out.reshape(K, -1).T
            if scalar:
                flagged = np.abs(g - np.trace(g) / K * np.eye(K)).max() > KL_TOL
            else:
                flagged = abs(g[0, 0]) > 0.5
            if flagged:
                return err
    return None


def fresh(c):
    """The same codewords in a new set, with no scan recorded."""
    return CodewordSet(c.field, c.n, c.words)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


def deepest(field, n):
    """Largest weight whose scan, with the lower weights, stays within
    REFERENCE_ERRORS errors."""
    total, w = 0, 0
    while w < n and total + error_count(field, n, w + 1) <= REFERENCE_ERRORS:
        w += 1
        total += error_count(field, n, w)
    return max(w, 1)


@st.composite
def table_codewords(draw, sizes=SIZES):
    """Codewords of a graph state over Z_p or GF(4), its rows mixed by a
    random invertible Z_p matrix, keeping the first m(n - k) rows."""
    q, n_max = draw(st.sampled_from(sizes))
    field = GF(q)
    n = draw(st.integers(2, n_max))
    low = draw(st.integers(0, 1))  # 1: a complete graph, of larger distance
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adjacency[i][j] = adjacency[j][i] = draw(st.integers(low, q - 1))
    state = graph_state(field, adjacency)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, rows = field.p, len(state.gens)
    c = rng.integers(0, p, size=(rows, rows))
    while linalg.rank(c, p) < rows:
        c = rng.integers(0, p, size=(rows, rows))
    k = draw(st.integers(0, min(2, n - 1)))
    mat = (c @ state.symplectic_matrix()) % p
    return expand_stabilizer(GeneratorTable.from_matrix(field, n, mat[: field.m * (n - k)]))


@st.composite
def random_subspaces(draw, sizes=SIZES):
    """An orthonormal basis of a random K-dimensional subspace (K = 1-4)."""
    q, n_max = draw(st.sampled_from(sizes))
    field = GF(q)
    n = draw(st.integers(1, n_max))
    K = draw(st.integers(1, min(4, q**n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.normal(size=(q**n, K)) + 1j * rng.normal(size=(q**n, K)))[0]
    return CodewordSet(field, n, tuple(StateVector(field, n, b) for b in basis.T))


def check_against_reference(c):
    """Both checks as deep as the reference's budget allows: past n + 1 for
    Knill-Laflamme (the range error) on inputs small enough to scan whole.
    Each block size scans a fresh set, which has no earlier scan to resume."""
    top = deepest(c.field, c.n)
    d = top + 2 if top == c.n else top + 1
    kl = outcome(reference_first_error, c, d - 1, True)
    dist = reference_first_error(c, top, c.K > 1)
    dist = None if dist is None else dist.weight()
    for block in BLOCKS:
        with mock.patch.object(oracle, "_BLOCK_ENTRIES", block):
            assert outcome(knill_laflamme_check, fresh(c), d) == kl, block
            assert dense_distance(fresh(c), top) == dist, block


# a [[3,1]]_5 code whose weight-2 witness z1 x3 i has X part (0, 3) on sites
# (0, 1), while X part (0, 1), scanned earlier, flags only the later z4 x1 i
CODE_3_1_5 = GeneratorTable(GF(5), 3, tuple(
    PauliString.from_tokens(GF(5), row.split()) for row in ("z3 x3 z3", "x3z2 x3z1 x3z2")))


@settings(max_examples=30, deadline=None)
@given(table_codewords())
@example(expand_stabilizer(CODE_3_1_5))
def test_scan_matches_the_per_error_walk_on_stabilizer_codes(c):
    check_against_reference(c)


@settings(max_examples=30, deadline=None)
@given(random_subspaces())
def test_scan_matches_the_per_error_walk_on_random_subspaces(c):
    check_against_reference(c)


@settings(max_examples=40, deadline=None)
@given(st.one_of(table_codewords(SMALL_SIZES), random_subspaces(SMALL_SIZES)), st.data())
def test_calls_on_one_set_answer_as_on_a_fresh_set(c, data):
    # d from -1 to n + 3: below 1 and past n + 1 reach the range errors
    calls = data.draw(st.lists(st.tuples(st.sampled_from([knill_laflamme_check, dense_distance]),
                                         st.integers(-1, c.n + 3)), min_size=1, max_size=6))
    for fn, d in calls:
        assert outcome(fn, c, d) == outcome(fn, fresh(c), d), (fn.__name__, d)


def group_size(q):
    """Sites in the largest grouped character product for q."""
    return max(g for g in range(1, 7) if q**g <= oracle._GROUP_ENTRIES)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_grouped_character_products_match_the_per_site_transform(q, monkeypatch):
    field = GF(q)
    char = np.exp(2j * np.pi / field.p) ** field.trmul_table
    rng = np.random.default_rng(q)
    matmul, products = np.matmul, []
    monkeypatch.setattr(np, "matmul", lambda a, b: products.append(
        (a.shape[-2], a.shape[-1], b.shape[-1])) or matmul(a, b))
    for w in range(1, group_size(q) + 3):
        for cols in (1, 4):
            g = rng.normal(size=(3, q**w, cols)) + 1j * rng.normal(size=(3, q**w, cols))
            want = g
            for s in range(w):
                want = matmul(char, want.reshape(3 * q**s, q, -1))
            products.clear()
            got = oracle._z_parts(field, g, w)
            # each 2-D product stays below the OpenBLAS threading size, as a
            # one-site product did; where that allows, the groups are whole
            assert all(r * k * c <= oracle._PRODUCT_MULADDS or k == q for r, k, c in products)
            if q ** (w + group_size(q)) * cols <= oracle._PRODUCT_MULADDS:
                assert len(products) == -(-w // group_size(q))
            assert got.shape == (3, q**w, cols)
            # the two sum q^w terms of size about 1 in different orders
            np.testing.assert_allclose(got, want.reshape(3, q**w, cols), rtol=0, atol=1e-12 * q**w)


def past_the_group(q):
    """A state on n = g + 1 sites, g = group_size(q), whose first error with
    |<E>| > 1/2 is the first of weight n, z1 on every site: a random state
    kept on the +1 eigenspace of that diagonal error."""
    field, n = GF(q), group_size(q) + 1
    rng = np.random.default_rng(q)
    v = rng.normal(size=q**n) + 1j * rng.normal(size=q**n)
    phase = field.trmul_table[1][oracle._digits(np.arange(q**n), q, n)].sum(axis=1) % field.p
    v[phase != 0] = 0
    return CodewordSet(field, n, (StateVector(field, n, v / np.linalg.norm(v)),))


@pytest.mark.parametrize("q", [q for q, _ in SIZES])
def test_scan_past_the_character_group_matches_the_per_error_walk(q):
    # K = 1, so the Knill-Laflamme scan has nothing to test; the distance
    # scan reaches weight g + 1, two grouped products, under every block size
    c = past_the_group(q)
    want = reference_first_error(c, c.n, False)
    assert want is not None and want.weight() == group_size(q) + 1
    for block in BLOCKS:
        with mock.patch.object(oracle, "_BLOCK_ENTRIES", block):
            assert oracle._first_error(fresh(c), c.n, False) == want, block


@pytest.mark.parametrize("entry", DENSE_CODES, ids=lambda e: e.id)
def test_knill_laflamme_after_the_distance_scans_no_subset(entry, monkeypatch):
    c = expand_stabilizer(load_table(entry))
    want = [knill_laflamme_check(fresh(c), d) for d in (entry.d, entry.d + 1)]
    # the probe is the Z-part transform, one call per block of each subset
    # scanned (the X-part tables of a one-block class are memoised)
    calls = []
    z_parts = oracle._z_parts
    monkeypatch.setattr(oracle, "_z_parts", lambda *args: calls.append(args) or z_parts(*args))
    assert dense_distance(c, entry.d + 1) == entry.d
    assert calls  # the distance scan itself is counted
    calls.clear()
    assert [knill_laflamme_check(c, d) for d in (entry.d, entry.d + 1)] == want
    assert want[0] is None and want[1].weight() == entry.d
    assert calls == []


def test_scan_to_weight_n_stays_within_a_few_blocks():
    # a random GF(8) state has no weight <= 4 error with |<E>| > 1/2, so the
    # scan visits all 8^8 - 1 errors; all of them at once would be 256 MiB
    field, n = GF(8), 4
    rng = np.random.default_rng(1)
    v = rng.normal(size=field.q**n) + 1j * rng.normal(size=field.q**n)
    c = CodewordSet(field, n, (StateVector(field, n, v / np.linalg.norm(v)),))
    tracemalloc.start()
    try:
        assert dense_distance(c, n) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 16 * max(oracle._BLOCK_ENTRIES, c.K * field.q**n + c.K**2)
    assert peak < 8 * block_bytes, peak
