import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amecodes import catalog, linalg, oracle, stabtab
from amecodes.codes import GeneratorTable, compute_distance
from amecodes.errors import DomainError, ResourceBudgetError
from amecodes.fields import GF
from amecodes.oracle import (CodewordSet, ame_projection_codewords, dense_distance,
                             expand_stabilizer, knill_laflamme_check, reduced_entropy)
from amecodes.pauli import PauliString, StateVector
from oracles import all_errors, dense_pauli
from test_dense_scan_properties import SIZES

LOG2_3 = math.log2(3)


def ame43_state():
    f3 = GF(3)
    amps = np.zeros(81, dtype=complex)
    for i in range(3):
        for j in range(3):
            idx = ((i * 3 + j) * 3 + (i + j) % 3) * 3 + (i + 2 * j) % 3
            amps[idx] = 1 / 3
    return StateVector(f3, 4, amps)


def qecc312_words():
    f3 = GF(3)
    words = []
    for i in range(3):
        w = np.zeros(27, dtype=complex)
        for j in range(3):
            w[(j * 3 + (i + j) % 3) * 3 + (i + 2 * j) % 3] = 1 / math.sqrt(3)
        words.append(StateVector(f3, 3, w))
    return CodewordSet(f3, 3, tuple(words))


AME_4_3 = """code n=4 q=3 k=0 d=3
g1: i z1 z1 z2
g2: i x1 x1 x2
g3: z1 i z1 z1
g4: x1 i x1 x1
"""


def same_span(a: CodewordSet, b: CodewordSet) -> bool:
    if a.K != b.K:
        return False
    overlaps = np.array(
        [[wb.inner(wa) for wa in a.words] for wb in b.words]
    )
    return np.allclose(np.linalg.svd(overlaps, compute_uv=False), 1.0, atol=1e-9)


# -- expansion ------------------------------------------------------------------


def test_expand_bell_pair():
    t = stabtab.parse("code n=2 q=2 k=0 d=2\ng1: z1 z1\ng2: x1 x1\n")
    cw = expand_stabilizer(t)
    assert cw.K == 1
    target = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    overlap = np.vdot(target, cw.words[0].amplitudes)
    assert abs(abs(overlap) - 1) < 1e-10


def test_expand_ame43_matches_explicit_state():
    cw = expand_stabilizer(stabtab.parse(AME_4_3))
    overlap = cw.words[0].inner(ame43_state())
    assert abs(abs(overlap) - 1) < 1e-9


def test_expand_child_code_spans_projection_codewords():
    t = stabtab.parse("code n=3 q=3 k=1 d=2\ng1: z1 z1 z2\ng2: x1 x1 x2\n")
    cw = expand_stabilizer(t)
    assert cw.K == 3
    assert same_span(cw, qecc312_words())


def test_expand_rejects_inconsistent_phases():
    # strings carry no phase, so {-II} with its empty +1 eigenspace cannot be
    # written; the identity generator is the zero vector, which
    # require_stabilizer refuses as dependent before any projection
    f2 = GF(2)
    t = GeneratorTable(f2, 2, (PauliString(f2, ((0, 0), (0, 0))),))
    with pytest.raises(DomainError, match="dependent"):
        expand_stabilizer(t)


DENSE_TABLES = [catalog.load_table(e.id) for e in catalog.load_catalog()
                if e.file and e.params.q**e.params.n <= oracle.DENSE_BUDGET]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DENSE_TABLES), st.integers(0, 2**32 - 1))
def test_any_generating_set_gives_a_q_to_the_k_code_space(table, seed):
    # commuting, independent generators of order p have a q**k-dimensional
    # joint +1 eigenspace, so expand_stabilizer needs no empty-eigenspace
    # error; checked on a random invertible row mix of each table
    rng = random.Random(seed)
    f, rows = table.field, len(table.gens)
    p = f.p
    while True:
        c = np.array([[rng.randrange(p) for _ in range(rows)] for _ in range(rows)])
        if linalg.rank(c, p) == rows:
            break
    mixed = GeneratorTable.from_matrix(f, table.n, (c @ table.symplectic_matrix()) % p)
    cw = expand_stabilizer(mixed)
    assert cw.K == f.q**table.k
    for g in mixed.gens:
        (perm,), (factor,) = oracle._lifted_actions(g.field, g.n, [g])
        for w in cw.words:
            image = np.zeros_like(w.amplitudes)
            image[perm] = factor * w.amplitudes
            assert np.allclose(image, w.amplitudes, atol=1e-10)


def test_expand_budget():
    t = stabtab.parse(
        "code n=13 q=2 k=0\n" + "\n".join(
            f"g{i+1}: " + " ".join("z1" if j == i else "i" for j in range(13))
            for i in range(13)
        ) + "\n"
    )
    with pytest.raises(ResourceBudgetError):
        expand_stabilizer(t)


def test_expand_projects_one_seed_per_coset(monkeypatch):
    # the 10-site ring graph state without vertex 0's generator: the X parts
    # span {x : x_0 = 0}, so index order reaches the second coset only at
    # basis state 2^9; one projected seed per coset is 2 seeds, not 2^9 + 1
    f2 = GF(2)
    gens = []
    for v in range(1, 10):
        tokens = ["i"] * 10
        tokens[v] = "x1"
        tokens[v - 1] = tokens[(v + 1) % 10] = "z1"
        gens.append(PauliString.from_tokens(f2, tokens))
    calls = []
    project = oracle._project_plus_one
    monkeypatch.setattr(oracle, "_project_plus_one",
                        lambda *args: calls.append(args) or project(*args))
    cw = expand_stabilizer(GeneratorTable(f2, 10, tuple(gens)))
    assert cw.K == 2
    assert len(calls) == 2 * len(gens)
    starts = [int(np.flatnonzero(w.amplitudes)[0]) for w in cw.words]
    assert starts == [0, 2**9]


def test_expand_skips_seeds_that_a_z_only_generator_zeroes(monkeypatch):
    # code_3_1_2_3's g1 = z1 z1 z2 has no X part and phase 1 on one basis
    # state in three, so 3 of its 9 seeds are projected, 2 calls each
    calls = []
    project = oracle._project_plus_one
    monkeypatch.setattr(oracle, "_project_plus_one",
                        lambda *args: calls.append(args) or project(*args))
    t = catalog.load_table("code_3_1_2_3")
    cw = expand_stabilizer(t)
    assert cw.K == 3
    assert len(calls) == 6
    for g in t.gens:
        (perm,), (factor,) = oracle._lifted_actions(g.field, g.n, [g])
        for w in cw.words:
            image = np.zeros_like(w.amplitudes)
            image[perm] = factor * w.amplitudes
            assert np.allclose(image, w.amplitudes, atol=1e-10)


# -- projection codewords --------------------------------------------------------


def test_projection_codewords_reproduce_explicit_words():
    cw = ame_projection_codewords(ame43_state(), 1)
    ref = qecc312_words()
    for got, want in zip(cw.words, ref.words):
        overlap = got.inner(want)
        assert abs(abs(overlap) - 1) < 1e-10


def test_projection_of_bell_state():
    f2 = GF(2)
    bell = StateVector(f2, 2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    cw = ame_projection_codewords(bell, 1)
    assert cw.K == 2
    assert np.allclose(cw.words[0].amplitudes, [1, 0])
    assert np.allclose(cw.words[1].amplitudes, [0, 1])


def test_projection_unsupported_symbol():
    f2 = GF(2)
    product = StateVector(f2, 2, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(DomainError, match="not supported on message symbol"):
        ame_projection_codewords(product, 1)


# -- Knill-Laflamme ----------------------------------------------------------------


def test_kl_pass_and_fail_with_weight_two_witness():
    cw = qecc312_words()
    assert knill_laflamme_check(cw, 2) is None
    witness = knill_laflamme_check(cw, 3)
    assert witness is not None and witness.weight() == 2
    assert dense_distance(cw, 3) == 2


def test_kl_refuses_d_below_one():
    cw = qecc312_words()
    for d in (0, -3):
        with pytest.raises(DomainError, match=f"d must be at least 1, got {d}"):
            knill_laflamme_check(cw, d)
    assert knill_laflamme_check(cw, 1) is None


def test_kl_single_codeword_is_scalar_by_construction():
    t = stabtab.parse(AME_4_3)
    cw = expand_stabilizer(t)
    assert knill_laflamme_check(cw, 3) is None
    # the k=0 content lives in dense_distance: stabilizer weight
    assert dense_distance(cw, 4) == 3


def test_dense_distance_matches_symplectic_on_small_tables():
    sources = [
        "code n=2 q=2 k=0 d=2\ng1: z1 z1\ng2: x1 x1\n",
        "code n=3 q=2 k=0 d=2\ng1: i z1 z1\ng2: z1 i z1\ng3: x1 x1 x1\n",
        AME_4_3,
        "code n=3 q=3 k=1 d=2\ng1: z1 z1 z2\ng2: x1 x1 x2\n",
        "code n=4 q=2 k=2 d=2\ng1: z1 x1 z1 z1\ng2: x1 z1 x1z1 x1z1\n",
    ]
    for src in sources:
        t = stabtab.parse(src)
        cw = expand_stabilizer(t)
        sym = compute_distance(t, t.n)
        assert dense_distance(cw, t.n) == sym


# -- entropies -------------------------------------------------------------------------


def test_reduced_entropy_examples():
    psi = ame43_state()
    assert reduced_entropy(psi, [0]) == pytest.approx(LOG2_3, abs=1e-9)
    for pair in itertools.combinations(range(4), 2):
        assert reduced_entropy(psi, pair) == pytest.approx(2 * LOG2_3, abs=1e-9)
    assert reduced_entropy(psi, range(4)) == pytest.approx(0.0, abs=1e-12)


def test_pure_reduced_state_has_positive_zero_entropy():
    # |00>: each site is pure; -0.0 would print as -0.000000
    psi = StateVector(GF(2), 2, np.eye(4)[0])
    for sites in ([0], [1], [0, 1]):
        got = reduced_entropy(psi, sites)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8).filter(
    lambda v: np.linalg.norm(v[:4]) > 1e-3 and np.linalg.norm(v[4:]) > 1e-3))
def test_product_states_have_nonnegative_entropy_on_every_cut(v):
    # a pure cut's one eigenvalue can round to just above 1, where
    # -p log2 p would be about -1e-15 without the clamp
    a = np.array(v[0:2]) + 1j * np.array(v[2:4])
    b = np.array(v[4:6]) + 1j * np.array(v[6:8])
    psi = StateVector(GF(2), 2, np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
    for sites in ([0], [1], [0, 1]):
        got = reduced_entropy(psi, sites)
        assert 0.0 <= got < 1e-9 and math.copysign(1.0, got) == 1.0, (sites, got)


def svd_entropy(amps, q, n, sites):
    """The entropy on ``sites`` from the singular values of the bipartition,
    with reduced_entropy's clamp to 1 and its 1e-12 floor."""
    rest = [s for s in range(n) if s not in sites]
    m = np.transpose(amps.reshape([q] * n), list(sites) + rest).reshape(q ** len(sites), -1)
    probs = np.minimum(np.linalg.svd(m, compute_uv=False) ** 2, 1.0)
    probs = probs[probs > 1e-12]
    return 0.0 - float((probs * np.log2(probs)).sum())


# with q^n = 4096 the half cuts' Gram takes more than one product
@pytest.mark.parametrize("q, n", SIZES + [(2, 12), (4, 6), (8, 4)])
def test_reduced_entropy_matches_the_singular_values_on_every_cut(q, n):
    # every cut size, so that the smaller side is the subset or the rest; a
    # product across the cut is pure on it, where the entropy is +0.0 up to
    # the rounding of its one eigenvalue below 1
    field, rng = GF(q), np.random.default_rng(q * 100 + n)

    def unit(size):
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        return v / np.linalg.norm(v)

    for size in range(1, n):
        sites = sorted(rng.choice(n, size, replace=False).tolist())
        order = sites + [s for s in range(n) if s not in sites]
        product = np.transpose(np.outer(unit(q**size), unit(q ** (n - size))).reshape([q] * n),
                               np.argsort(order)).ravel()
        for amps in (unit(q**n), product):
            got = reduced_entropy(StateVector(field, n, amps), sites)
            assert got == pytest.approx(svd_entropy(amps, q, n, sites), abs=1e-12), (sites, got)
        assert 0.0 <= got < 1e-12 and math.copysign(1.0, got) == 1.0, (sites, got)


def test_bipartition_rejects_sites_out_of_range():
    psi = ame43_state()
    with pytest.raises(DomainError, match="out of range"):
        reduced_entropy(psi, [7])


def test_reduced_entropy_agrees_with_symplectic_rank_method():
    from amecodes.catalog import load_catalog, load_table
    from amecodes.codes import subsystem_entropy
    for entry in load_catalog():
        if entry.file is None or entry.k != 0 or entry.q ** entry.n > 4096:
            continue
        t = load_table(entry.id)
        cw = expand_stabilizer(t)
        for size in range(1, t.n):
            for subset in itertools.combinations(range(t.n), size):
                dense = reduced_entropy(cw.words[0], subset)
                rank = subsystem_entropy(t, subset)
                assert dense == pytest.approx(rank, abs=1e-9), (entry.id, subset)


def test_projection_codewords_pass_kl_at_family_parameters():
    # projecting m message sites off a verified AME state leaves a code
    # passing the scalar condition at d = floor(n/2) + 1 - m
    from amecodes.catalog import load_table
    for eid in ("ame_4_3", "ame_5_2", "ame_6_2"):
        t = load_table(eid)
        cw = expand_stabilizer(t)
        state = cw.words[0]
        for msg in (1, 2):
            d = t.n // 2 + 1 - msg
            if d < 2:
                continue
            words = ame_projection_codewords(state, msg)
            assert knill_laflamme_check(words, d) is None, (eid, msg)


def test_codeword_set_validates_orthonormality():
    f2 = GF(2)
    w = StateVector(f2, 1, np.array([1, 0], dtype=complex))
    with pytest.raises(DomainError, match="not orthonormal"):
        CodewordSet(f2, 1, (w, w))


def test_knill_laflamme_flags_a_deviation_between_1e_9_and_1e_3():
    # one codeword of [[4,1,2]]_2 turned by 1e-6 toward a unit vector
    # orthogonal to the code space: still orthonormal, but each weight-1
    # error now acts on the code space as a scalar only up to about 1e-6
    cw = expand_stabilizer(catalog.load_table("code_4_1_2_2"))
    assert cw.K == 2 and knill_laflamme_check(cw, 2) is None
    basis = np.array([w.amplitudes for w in cw.words])
    away = np.random.default_rng(27).standard_normal(16).astype(complex)
    away -= basis.T @ (basis.conj() @ away)
    away /= np.linalg.norm(away)
    theta = 1e-6
    turned = np.cos(theta) * basis[0] + np.sin(theta) * away
    tilted = CodewordSet(cw.field, 4, (StateVector(cw.field, 4, turned), cw.words[1]))
    words = np.array([turned, basis[1]])
    deviation = 0.0
    for sites in all_errors(2, 4, 1):
        g = words.conj() @ dense_pauli(cw.field, sites) @ words.T
        deviation = max(deviation, np.abs(g - np.trace(g) / 2 * np.eye(2)).max())
    assert 1e-9 < deviation < 1e-3
    assert knill_laflamme_check(tilted, 2) is not None
