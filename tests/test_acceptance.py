"""Acceptance criteria, one test per criterion, one printed verdict line each.

Two criteria rest on source material that is itself defective, and the
tests pin what is true of it, each checked by two independent routes:

* criterion 1's printed five-qubit figures: the ``[[5,0,3]]_2`` table
  has distance 2 (g4*g5 is a weight-2 group element) and its
  ``[[4,1,2]]_2`` child has distance 1 (X on site 3 is a logical), by
  the symplectic scan and by the dense oracle alike.  The catalog's
  derived replacements reach the labelled 3 and 2 by both routes.
* criterion 6's (12,7) and (13,7) cells at 1000 km: the source prints
  k=3, but the cost model gives k=2 by about 18% and 20% of the k=3
  cost, both in the library and in a closed-form recomputation here.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import itertools
import math
import random
import time

import numpy as np

from amecodes import linalg, stabtab
from amecodes.catalog import load_catalog, load_table
from amecodes.codes import (CodeParams, GeneratorTable, _commutation_map,
                            check_commutation, check_independence,
                            compute_distance, find_min_undetectable)
from amecodes.fields import GF
from amecodes.oracle import (ame_projection_codewords, dense_distance,
                             expand_stabilizer, knill_laflamme_check,
                             reduced_entropy)
from amecodes.pauli import PauliString, StateVector, sites_from_matrix
from amecodes.reduction import derive_family, to_reduction_friendly
from amecodes.repeater import (ChannelParams, LinkPlan, cost_report,
                               optimal_k_table, p_success, rate)
from oracles import repeater_costs

CH = ChannelParams()
LOG2_3 = math.log2(3)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] acceptance {num}: {name}{suffix}")
    return ok


def catalog_table(eid):
    return load_table(eid)


def scramble(t, rng):
    p = t.field.p
    n_rows = len(t.gens)
    while True:
        c = np.array([[rng.randrange(p) for _ in range(n_rows)] for _ in range(n_rows)])
        if linalg.rank(c, p) == n_rows:
            break
    mat = (c @ t.symplectic_matrix()) % p
    return GeneratorTable.from_matrix(t.field, t.n, mat, t.claimed)


def ame43_state():
    f3 = GF(3)
    amps = np.zeros(81, dtype=complex)
    for i in range(3):
        for j in range(3):
            amps[((i * 3 + j) * 3 + (i + j) % 3) * 3 + (i + 2 * j) % 3] = 1 / 3
    return StateVector(f3, 4, amps)


# -- criterion 1: catalog verification ------------------------------------------


def test_criterion_1_catalog_verification():
    t0 = time.perf_counter()
    problems = []
    for entry in load_catalog():
        if entry.file is None:
            continue
        table = catalog_table(entry.id)
        if check_commutation(table) is not None:
            problems.append(f"{entry.id}: commutation")
        if check_independence(table) is not None:
            problems.append(f"{entry.id}: independence")
        d = compute_distance(table, entry.d)
        if d != entry.d:
            problems.append(f"{entry.id}: distance {d} != {entry.d}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    assert report(
        1, "catalog verification (11 tables, brute-force distance)",
        ok, f"{elapsed:.2f}s" + ("; " + "; ".join(problems) if problems else ""),
    )


def two_route_distance(table):
    """(brute-force symplectic distance, dense Knill-Laflamme distance)."""
    return (compute_distance(table, table.n),
            dense_distance(expand_stabilizer(table), table.n))


def test_criterion_1_literal_five_qubit_figures():
    # the printed [[5,0,3]]_2 and [[4,1,2]]_2 figures, transcribed verbatim.
    # As printed they have distance 2 and 1 by both routes; the catalog's
    # replacements reach the labelled 3 and 2 by both routes, and the
    # replacement child is derived from the replacement parent
    parent = stabtab.parse(
        "code n=5 q=2 k=0\n"
        "g1: i i x1 x1 x1\ng2: i z1 z1 i z1\ng3: i x1 z1 i x1z1\n"
        "g4: z1 i z1 z1 i\ng5: x1 i z1 x1z1 i\n"
    )
    child = stabtab.parse(
        "code n=4 q=2 k=1\n"
        "g1: i x1 x1 x1\ng2: z1 z1 i z1\ng3: x1 z1 i x1z1\n"
    )
    printed = (two_route_distance(parent), two_route_distance(child))
    _, parent_witness = find_min_undetectable(parent, 3)
    _, child_witness = find_min_undetectable(child, 2)
    rows = parent.symplectic_matrix()
    g4g5 = sites_from_matrix(parent.field, (rows[3] + rows[4]) % 2, parent.n)[0]
    witnesses = (
        parent_witness.sites == g4g5
        and child_witness.sites == ((0, 0), (0, 0), (1, 0), (0, 0))  # X on site 3
    )
    ame, kid = catalog_table("ame_5_2"), catalog_table("code_4_1_2_2")
    shipped = (two_route_distance(ame), two_route_distance(kid))
    labels = (ame.claimed.d, kid.claimed.d)
    derived = [str(g) for g in derive_family(ame)[1][1].gens] == [str(g) for g in kid.gens]
    ok = report(
        1, "printed five-qubit figures pinned, catalog replacements verified",
        printed == ((2, 2), (1, 1)) and witnesses
        and labels == (3, 2) and shipped == ((3, 3), (2, 2)) and derived,
        f"printed [[5,0,3]]_2 / [[4,1,2]]_2 give d={printed} (symplectic, "
        f"dense); catalog ame_5_2 / code_4_1_2_2 give d={shipped}",
    )
    assert ok, (
        "expected the printed parent at d=2 (witness g4*g5) and the printed "
        "child at d=1 (witness X on site 3) by both routes, and the catalog "
        "replacements at d=3 and d=2 by both routes with the child derived "
        "from the parent"
    )


# -- criterion 2: family derivation -----------------------------------------------


def test_criterion_2_family_derivation():
    fam = derive_family(catalog_table("ame_6_2"))
    printed_513 = catalog_table("code_5_1_3_2")
    printed_422 = catalog_table("code_4_2_2_2")
    literal = (
        [str(g) for g in fam[1][1].gens] == [str(g) for g in printed_513.gens]
        and [str(g) for g in fam[2][1].gens] == [str(g) for g in printed_422.gens]
    )
    span = all(
        linalg.same_row_span(a.symplectic_matrix(), b.symplectic_matrix(), 2)
        for a, b in ((fam[1][1], printed_513), (fam[2][1], printed_422))
    )
    fam9 = derive_family(catalog_table("code_5_1_3_9"))
    shipped_4229 = catalog_table("code_4_2_2_9")
    span9 = linalg.same_row_span(
        fam9[1][1].symplectic_matrix(), shipped_4229.symplectic_matrix(), 3
    )
    literal9 = [str(g) for g in fam9[1][1].gens] == [str(g) for g in shipped_4229.gens]
    # the literal printed child differs in one entry (x2z2 vs x2z6) and
    # fails commutation; documented in the catalog note and regression test
    assert report(
        2, "children of [[6,0,4]]_2 and [[5,1,3]]_9 match printed/shipped tables",
        literal and span and span9 and literal9,
        "row-literal for the qubit family; GF(9) child literal vs the "
        "parent-consistent table (printed child has a verified typo)",
    )


# -- criterion 3: scramble robustness -----------------------------------------------


def test_criterion_3_scramble_robustness():
    rng = random.Random(20240801)
    t0 = time.perf_counter()
    failures = []
    for eid in ("ame_2_2", "ame_3_2", "ame_5_2", "ame_6_2", "ame_4_3"):
        base = catalog_table(eid)
        n = base.n
        for trial in range(100):
            s = scramble(base, rng)
            try:
                form = to_reduction_friendly(s)
                form.validate()  # left block bit-exact against the layout
                if not linalg.same_row_span(
                    form.table.symplectic_matrix(), base.symplectic_matrix(),
                    base.field.p,
                ):
                    failures.append(f"{eid}#{trial}: span changed")
                fam = derive_family(s)  # verifies child distances exactly
                expect = [(n - k, k, n // 2 + 1 - k) for k in range(n // 2)]
                if [(p.n, p.k, p.d) for p, _ in fam] != expect:
                    failures.append(f"{eid}#{trial}: family {fam}")
            except Exception as exc:  # noqa: BLE001 - report and fail below
                failures.append(f"{eid}#{trial}: {exc}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    assert report(
        3, "100 scrambles per catalog AME table, canonicalize + children",
        ok, f"{elapsed:.1f}s" + ("; " + failures[0] if failures else ""),
    )


# -- criterion 4: dense oracle reproduction -------------------------------------------


def test_criterion_4_projection_codewords_and_entropies():
    psi = ame43_state()
    cw = ame_projection_codewords(psi, 1)
    ok = cw.K == 3
    for i in range(3):
        want = np.zeros(27, dtype=complex)
        for j in range(3):
            want[(j * 3 + (i + j) % 3) * 3 + (i + 2 * j) % 3] = 1 / math.sqrt(3)
        overlap = np.vdot(want, cw.words[i].amplitudes)
        # amplitude match to 1e-10 up to a global phase per word
        ok = ok and abs(abs(overlap) - 1) < 1e-10
        ok = ok and np.allclose(cw.words[i].amplitudes, overlap * want, atol=1e-10)
    ok = ok and knill_laflamme_check(cw, 2) is None
    witness = knill_laflamme_check(cw, 3)
    ok = ok and witness is not None and witness.weight() == 2
    ents1 = [reduced_entropy(psi, [a]) for a in range(4)]
    ents2 = [reduced_entropy(psi, pair) for pair in itertools.combinations(range(4), 2)]
    ok = ok and all(abs(e - LOG2_3) < 1e-9 for e in ents1)
    ok = ok and all(abs(e - 2 * LOG2_3) < 1e-9 for e in ents2)
    assert report(
        4, "projection codewords, KL pass@2 / weight-2 witness@3, entropies",
        ok, f"witness {witness}",
    )


# -- criterion 5: cross-oracle distance agreement ----------------------------------------


def test_criterion_5_cross_oracle_distance():
    checked = []
    for entry in load_catalog():
        if entry.file is None or entry.q ** entry.n > 4096:
            continue
        table = catalog_table(entry.id)
        sym = compute_distance(table, table.n)
        dense = dense_distance(expand_stabilizer(table), table.n)
        checked.append((entry.id, sym, dense))
    ok = bool(checked) and all(s == d for _, s, d in checked)
    assert report(
        5, "stabilizer-side distance == dense KL distance (q^n <= 4096)",
        ok, f"{len(checked)} tables",
    )


# -- criterion 6: repeater optimal-k table ----------------------------------------------


def closed_form_c_lt(n, k, d, q, l_tot, ch):
    """min over integer link counts r of n q / (L0 R t0), written out from
    the model's equations with scalar math, independent of the library."""
    best = math.inf
    for r in range(1, int(l_tot / 0.1) + 1):
        l0 = l_tot / r
        p_l = 1.0 - ch.eta_c * math.exp(-l0 / ch.l_att)
        ps = min(math.fsum(math.comb(n, j) * p_l**j * (1.0 - p_l) ** (n - j)
                           for j in range(d)), 1.0)
        rt0 = k * math.log2(q) * ps**r
        if rt0 > 0:
            best = min(best, n * q / (l0 * rt0))
    return best


def test_criterion_6_optimal_k_cells():
    # optimal k at (1000 km, 10000 km); every value matches the source's
    # table except the two 1000 km cells listed in source_disputed
    expected = {
        (5, 2): (1, 1), (6, 2): (1, 1), (6, 3): (1, 1), (10, 3): (2, 1),
        (10, 4): (2, 1), (11, 7): (2, 1), (12, 7): (2, 2), (13, 7): (2, 2),
        (14, 7): (3, 2), (14, 8): (3, 2),
    }
    # the source prints k=3 at 1000 km for these; the model gives k=2
    source_disputed = {(12, 7): (3, 2), (13, 7): (3, 2)}
    # C_LT of the k=2 and k=3 children at 1000 km, to two decimals
    disputed_costs = {(12, 7): (10.56, 12.81), (13, 7): (13.58, 16.94)}
    t0 = time.perf_counter()
    table = optimal_k_table([(n, q, "exists") for n, q in expected], [1000.0, 10000.0], CH)
    computed = {cell: tuple(int(k) for k in table[cell]) for cell in expected}
    elapsed = time.perf_counter() - t0
    source = {**expected, **source_disputed}
    disagreeing = {c for c in source if computed[c] != source[c]}
    ok = computed == expected and disagreeing == set(source_disputed) and elapsed < 10.0
    margins = {}
    for (n, q), (c2, c3) in disputed_costs.items():
        costs = {k: closed_form_c_lt(n - k, k, n // 2 + 1 - k, q, 1000.0, CH)
                 for k in range(1, n // 2)}
        margin = 1.0 - costs[2] / costs[3]
        margins[(n, q)] = round(margin, 3)
        ok = (ok and min(costs, key=costs.get) == computed[(n, q)][0] == 2
              and (round(costs[2], 2), round(costs[3], 2)) == (c2, c3)
              and margin >= 0.15)
    assert report(
        6, "optimal-k table cells at 1000/10000 km", ok,
        f"{elapsed:.1f}s; computed {computed}; source differs at "
        f"{sorted(disagreeing)}; closed-form k=2 margin over k=3 {margins}",
    ), (
        "expected the model's optimal k in every cell, disagreeing with the "
        "source's table only at (12,7) and (13,7) at 1000 km, where the "
        "closed-form recomputation must give k=2 with C_LT at least 15% "
        "below k=3"
    )


# -- criterion 7: figure orderings -----------------------------------------------------


def test_criterion_7_figure_orderings():
    trio = [CodeParams(5, 1, 3, 2), CodeParams(4, 2, 2, 2), CodeParams(7, 1, 3, 2)]
    ranked = sorted(trio, key=lambda c: cost_report(c, 1000.0, CH).c_st)
    best_is_513 = ranked[0].label() == "[[5,1,3]]_2"
    kids = [CodeParams(14 - k, k, 8 - k, 7) for k in range(1, 7)]
    max_d_not_best = True
    for l_tot in (1000.0, 2000.0, 5000.0, 10000.0):
        rates = {c.k: rate(c, LinkPlan(l_tot, int(l_tot)), CH) for c in kids}
        if max(rates, key=rates.get) == 1:
            max_d_not_best = False
    assert report(
        7, "C_ST puts [[5,1,3]]_2 first at 1000 km; [[13,1,7]]_7 never "
           "rate-optimal at L0=1 km beyond 1000 km",
        best_is_513 and max_d_not_best,
    )


# -- criterion 8: property suites ---------------------------------------------------------


def commutation_form(f, rows, column):
    """The commutation exponents of the site tuples ``rows`` against
    ``column``, from ``codes._commutation_map`` of a table holding
    ``column`` (m times: a table has a multiple of m rows)."""
    table = GeneratorTable(f, len(column), (PauliString(f, column),) * f.m)
    vecs = f.coeff_matrix[np.array(rows)].reshape(len(rows), -1)
    return ((vecs @ _commutation_map(table)[:, 0]) % f.p).tolist()


def test_criterion_8_property_suites():
    ok = True
    # field axioms, exhaustive for q <= 9
    for q in (2, 3, 4, 5, 7, 8, 9):
        add, mul = GF(q).add_table, GF(q).mul_table
        for a, b, c in itertools.product(range(q), repeat=3):
            if mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]:
                ok = False
            if add[add[a, b], c] != add[a, add[b, c]]:
                ok = False
    # antisymmetry / bilinearity of the trace-symplectic form on 10^4 random
    # triples
    rng = random.Random(606)
    fields = [GF(2), GF(3), GF(9)]
    for _ in range(10_000):
        f = rng.choice(fields)
        n = rng.randrange(1, 5)
        mk = lambda: tuple((rng.randrange(f.q), rng.randrange(f.q)) for _ in range(n))
        a, b, c = mk(), mk(), mk()
        ac = tuple((int(f.add_table[x, y]), int(f.add_table[z, w]))
                   for (x, z), (y, w) in zip(a, c))
        s_ab, s_cb, s_acb = commutation_form(f, [a, c, ac], b)
        if s_ab != (-commutation_form(f, [b], a)[0]) % f.p:
            ok = False
        if s_acb != (s_ab + s_cb) % f.p:
            ok = False
    # p_success monotone in p_l and in d
    code_grid = [CodeParams(10, 2, d, 3) for d in (2, 3, 4)]
    for lo, hi in zip(code_grid, code_grid[1:]):
        for pl in np.linspace(0, 1, 21):
            if p_success(hi, float(pl)) < p_success(lo, float(pl)) - 1e-12:
                ok = False
    for code in code_grid:
        vals = [p_success(code, float(pl)) for pl in np.linspace(0, 1, 21)]
        if any(a < b - 1e-12 for a, b in zip(vals, vals[1:])):
            ok = False
    # C_LT / C_ST = q / log2(q) on 100 random configurations
    for _ in range(100):
        n = rng.randrange(4, 15)
        k = rng.randrange(1, n // 2 + 1)
        d_cap = (n - k) // 2 + 1
        if d_cap < 2:
            continue
        d = rng.randrange(2, d_cap + 1)
        q = rng.choice([2, 3, 4, 5, 7, 8])
        code = CodeParams(n, k, d, q)
        l_tot = rng.choice([300.0, 1000.0, 4000.0])
        rep = cost_report(code, l_tot, CH)
        (c_st, r_st, _), (c_lt, r_lt, _) = repeater_costs(
            n, k, d, q, l_tot, CH.l_att, CH.eta_c, [n * math.log2(q), n * q])
        if (r_lt != r_st
                or (rep.c_st, rep.c_lt, rep.plan) != (c_st, c_lt, LinkPlan(l_tot, r_st))
                or abs(rep.c_lt / rep.c_st - q / math.log2(q)) > 1e-9):
            ok = False
    assert report(8, "field axioms, commutation properties, repeater identities", ok)
