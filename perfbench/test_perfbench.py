"""Tests of the benchmark's reference routes, input generator and tracer.

    python3 -m pytest perfbench -q

The reference routes are checked against facts known in closed form and
against the program itself on random codes, so that a disagreement in a
benchmark run points at the program rather than at the reference.
"""

import itertools
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calib  # noqa: E402
import gen  # noqa: E402
import ref  # noqa: E402
from spans import OpFailed, Tracer  # noqa: E402

from amecodes import codes, oracle, repeater, stabtab  # noqa: E402
from amecodes.pauli import enumerate_errors  # noqa: E402


def random_code(rng, n, k, p):
    rows = gen.scramble(gen.graph_state_rows(gen.random_graph(n, p, rng), p), p, rng)
    return ref.RefCode(n, k, None, ref.RefField(p), rows[: n - k])


def brute_distance(code, d_max):
    """Smallest weight of an undetectable error, by enumerating errors."""
    p, n = code.f.p, code.n
    pairs = [(a, b) for a in range(p) for b in range(p) if a or b]
    for w in range(1, d_max + 1):
        for subset in itertools.combinations(range(n), w):
            for assign in itertools.product(pairs, repeat=w):
                sites = [(0, 0)] * n
                for s, ab in zip(subset, assign):
                    sites[s] = ab
                if ref.check_witness(code, sites, w):
                    return w
    return None


def text_of(code):
    return gen.emit(code.rows, code.f.q, 1)


# -- linear algebra -------------------------------------------------------------


def test_rank_and_nullspace_mod_p():
    rng = random.Random(1)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            a = np.array([[rng.randrange(p) for _ in range(6)] for _ in range(4)])
            r = ref.rank_mod_p(a, p)
            null = ref.nullspace_mod_p(a, p)
            assert len(null) == 6 - r
            assert not np.any((a @ null.T) % p)
            if len(null):
                assert ref.rank_mod_p(null, p) == len(null)
    assert ref.rank_mod_p(np.array([[1, 2], [2, 4]]), 7) == 1
    assert ref.rank_mod_p(np.array([[1, 2], [2, 4]]), 2) == 1
    assert ref.det_mod_p([[1, 2], [3, 4]], 5) == (1 * 4 - 2 * 3) % 5


def test_gf9_trace_form_matches_the_program():
    # tr(x^i x^j) on the basis {1, x} of GF(9) = Z_3[x]/(x^2 + x + 2)
    from amecodes.fields import GF
    f = ref.RefField(9, (1, 1, 2))
    assert np.array_equal(f.gram, GF(9, (1, 1, 2)).gram)


# -- distance and entropy -----------------------------------------------------------


def test_rank_distance_of_catalog_tables():
    for path in sorted(gen.CATALOG.glob("*.stabtab")):
        code = ref.parse_stabtab(path.read_text())
        assert ref.is_valid_code(code), path.name
        assert ref.rank_distance(code, code.n)[0] == code.d, path.name


def test_rank_distance_matches_enumeration_and_program():
    rng = random.Random(7)
    cases = 0
    for p, n in ((2, 5), (2, 6), (3, 4), (3, 5), (5, 4)):
        for k in (0, 1, 2):
            for _ in range(4):
                code = random_code(rng, n, k, p)
                d = ref.rank_distance(code, n)[0]
                assert d == brute_distance(code, n)
                table = stabtab.parse(text_of(code))
                assert codes.compute_distance(table, n) == d
                cases += 1
    assert cases == 60


def test_entropies_match_program_and_dense_oracle():
    rng = random.Random(3)
    for p, n in ((2, 6), (3, 4), (5, 3)):
        code = random_code(rng, n, 0, p)
        table = stabtab.parse(text_of(code))
        words = oracle.expand_stabilizer(table)
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                want = code.entropy(subset)
                assert abs(codes.subsystem_entropy(table, subset) - want) < 1e-12
                assert abs(oracle.reduced_entropy(words.words[0], subset) - want) < 1e-8


def test_first_codeword_entropy_of_a_subcode():
    rng = random.Random(4)
    for p, n in ((2, 5), (3, 4)):
        code = random_code(rng, n, 1, p)
        full = ref.z_completion(code)
        assert full.N == n and ref.is_valid_code(full)
        word = oracle.expand_stabilizer(stabtab.parse(text_of(code))).words[0]
        for subset in itertools.combinations(range(n), 2):
            assert abs(oracle.reduced_entropy(word, subset) - full.entropy(subset)) < 1e-8


def test_first_hit_is_the_program_witness():
    rng = random.Random(5)
    for p, n, k in ((2, 6, 1), (3, 4, 1), (2, 5, 0)):
        code = random_code(rng, n, k, p)
        d = ref.rank_distance(code, n)[0]
        pos, sites = ref.first_hit(code, d)
        assert ref.check_witness(code, sites, d)
        w, err = codes.find_min_undetectable(stabtab.parse(text_of(code)), n)
        assert (w, err.sites) == (d, sites)
        errors = list(itertools.islice(enumerate_errors(err.field, n, d), pos + 1))
        assert errors[pos].sites == sites


# -- repeater -----------------------------------------------------------------------


def test_closed_form_reproduces_the_reference_cells():
    for (n, q), (k_1000, _) in ref.REFERENCE_CELLS.items():
        best, costs = ref.closed_form_optimal_k(n, q, 1000.0)
        assert best == {k_1000}
    best, _ = ref.closed_form_optimal_k(5, 2, 10000.0)
    assert best == {ref.REFERENCE_CELLS[(5, 2)][1]}
    # the model's k = 2 beats the source's printed k = 3 by over 15%
    for cell in ((12, 7), (13, 7)):
        _, costs = ref.closed_form_optimal_k(*cell, 1000.0)
        assert costs[2] < 0.85 * costs[3]


def test_closed_form_matches_cost_report():
    code = codes.CodeParams(5, 1, 3, 2)
    rows = ref.closed_form_costs(5, 1, 3, 2, 700.0, l_att=18.0, eta_c=0.95)
    r = repeater.cost_report(code, 700.0, repeater.ChannelParams(l_att=18.0, eta_c=0.95))
    best = min(rows, key=lambda row: row[2])
    assert r.plan.links == best[0]
    assert ref.close(r.c_lt, best[2]) and ref.close(r.c_st, best[1])
    assert ref.close(r.c_st / r.c_lt, math.log2(2) / 2, 1e-12)


# -- generator ------------------------------------------------------------------------


def test_ame_states_are_ame():
    rng = random.Random(11)
    for p in (5, 7):
        a = gen.superregular(3, p, rng)
        for size in (1, 2, 3):
            for rows in itertools.combinations(range(3), size):
                for cols in itertools.combinations(range(3), size):
                    assert ref.det_mod_p([[a[i][j] for j in cols] for i in rows], p)
        code = ref.parse_stabtab(gen.ame_state(6, p, rng))
        assert ref.is_valid_code(code) and code.d == 4
        assert ref.rank_distance(code, 6)[0] == 4
        assert all(abs(code.entropy(s) - 3 * math.log2(p)) < 1e-12
                   for s in itertools.combinations(range(6), 3))


def test_memory_cap_refuses_gigabyte_scans():
    rng = random.Random(0)
    with pytest.raises(gen.MemoryCapError):
        gen.ame_state(6, 11, rng)
    with pytest.raises(gen.MemoryCapError):
        gen.ame_state(8, 7, rng)
    assert gen.weight_class_bytes(7, 6, 4) <= gen.MEMORY_CAP_BYTES


def test_fixed_distance_codes_stop_in_the_first_subset():
    rng = random.Random(2)
    for n, k, d, p in ((10, 0, 3, 2), (9, 1, 3, 2), (5, 0, 3, 3), (5, 1, 2, 3)):
        code = ref.RefCode(n, k, d, ref.RefField(p), gen.fixed_distance_code(n, k, d, p, rng,
                                                                             local=k > 0))
        assert ref.is_valid_code(code)
        assert ref.rank_distance(code, n) == (d, tuple(range(d)))
        pos, _ = ref.first_hit(code, d)
        assert pos < (p * p - 1) ** (d - 1)


def test_expansion_depth_predicts_where_expand_stabilizer_stops():
    # every word of an [[n,1]]_p code lives on one coset of the X parts' row
    # space; the coset reached last starts at basis index (p-1) p^depth
    rng = random.Random(3)
    for n, q, d, d_sub, depth in ((10, 2, 3, 3, 6), (6, 3, 3, 2, 0), (4, 5, 2, 2, 0)):
        state = gen.fixed_distance_code(n, 0, d, q, rng, local=False)
        rows = gen.subcode(state, d_sub, q, rng, depth)
        assert gen.expansion_depth(rows, q) == depth
        words = oracle.expand_stabilizer(stabtab.parse(gen.emit(rows, q, d_sub))).words
        starts = [int(np.flatnonzero(np.abs(w.amplitudes) > 1e-9)[0]) for w in words]
        assert max(starts) == (q - 1) * q**depth


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_depend_on_the_seed_only(workload):
    a, b = gen.make_inputs(workload, 1), gen.make_inputs(workload, 1)
    assert a == b
    assert gen.make_inputs(workload, 2) != a


# -- tracer ---------------------------------------------------------------------------


def test_tracer_self_times_and_failures():
    tr = Tracer()
    tr.enabled = True
    with tr.span("pass"):
        tr.call("layer.a", time.sleep, 0.01)
        with tr.span("item"):
            tr.call("layer.b", time.sleep, 0.02)
        with pytest.raises(OpFailed):
            tr.call("layer.c", math.sqrt, -1.0)
    times = tr.self_times(0)
    assert times["layer.a"] >= 0.01 and times["layer.b"] >= 0.02
    # self times partition the root span
    _, start, end, _ = tr.spans[0]
    assert math.isclose(sum(times.values()), end - start, rel_tol=1e-9)
    assert (tr.attempted, tr.failed) == (3, 1)


def test_normalised_divides_by_the_run_calibration():
    assert calib.trimmed_mean([1.0, 2.0, 2.0, 2.0, 100.0]) == 2.0
    steady = calib.normalised([0.5] * 5, [0.05] * 5)
    assert steady == pytest.approx(10 * calib.REFERENCE_S)
    # a host twice as slow doubles both times and leaves the figure alone
    assert calib.normalised([1.0] * 5, [0.1] * 5) == pytest.approx(steady)
    assert 0 < calib.calibrate() < 5
