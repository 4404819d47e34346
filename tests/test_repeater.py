import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amecodes import repeater
from amecodes.catalog import catalog_grid
from amecodes.codes import CodeParams
from amecodes.errors import DomainError
from amecodes.repeater import (ChannelParams, LinkPlan, _optimal_ks, _screen, _screened_curves,
                               children_params, cost_report, figure_rows, link_grid,
                               loss_probability, optimal_k_table, p_success, rate)
from oracles import repeater_costs, repeater_rate, repeater_window

CH = ChannelParams()
GRID = [(n, q, existence) for (n, q), existence in sorted(catalog_grid().items())]


def test_loss_probability():
    assert loss_probability(0.0, CH) == 0.0
    assert loss_probability(20.0, CH) == pytest.approx(1 - math.exp(-1))
    assert loss_probability(7.0, ChannelParams(eta_c=0.0)) == 1.0
    with pytest.raises(DomainError):
        loss_probability(-1.0, CH)
    with pytest.raises(DomainError):
        ChannelParams(l_att=0.0)
    with pytest.raises(DomainError):
        ChannelParams(eta_c=1.5)


def test_p_success_edges_and_value():
    code = CodeParams(5, 1, 3, 2)
    assert p_success(code, 0.0) == 1.0
    # full binomial sum (hypothetical d = n+1, not a legal code) is 1 always
    import types
    full = types.SimpleNamespace(n=5, d=6)
    assert p_success(full, 0.37) == pytest.approx(1.0)
    p = 1 - math.exp(-1 / 20)
    expected = math.fsum(
        math.comb(5, j) * p**j * (1 - p) ** (5 - j) for j in range(3)
    )
    assert p_success(code, p) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DomainError):
        p_success(code, 1.2)


def test_p_success_monte_carlo_cross_check():
    code = CodeParams(5, 1, 3, 2)
    p = 1 - math.exp(-1 / 20)
    rng = np.random.default_rng(12345)
    trials = 1_000_000
    losses = rng.binomial(code.n, p, size=trials)
    estimate = float(np.mean(losses <= code.d - 1))
    exact = p_success(code, p)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(estimate - exact) < 3 * sigma + 1e-12


def test_p_success_monotonicity_grid():
    for n, q in ((5, 2), (10, 3), (13, 7)):
        for k in (1, 2):
            prev_in_d = None
            for d in range(1, (n - k) // 2 + 2):
                code = CodeParams(n, k, d, q)
                vals = [p_success(code, pl) for pl in np.linspace(0, 1, 21)]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))  # in p_l
                if prev_in_d is not None:
                    assert all(
                        hi >= lo - 1e-12 for hi, lo in zip(vals, prev_in_d)
                    )  # in d
                prev_in_d = vals


def test_rate_edges_and_geometric_decay():
    code = CodeParams(2, 1, 1, 2)
    lossless = ChannelParams(l_att=20.0, eta_c=1.0)
    tiny = LinkPlan(1e-9, 1)
    assert rate(code, tiny, lossless) == pytest.approx(1.0)  # k log2 q at P=1
    code9 = CodeParams(4, 2, 2, 9)
    assert rate(code9, tiny, lossless) == pytest.approx(2 * math.log2(9))
    # R(2 L_tot) = R(L_tot)^2 / (k log2 q) at fixed L0 (r doubles)
    code = CodeParams(5, 1, 3, 2)
    r1 = rate(code, LinkPlan(1000.0, 1000), CH)
    r2 = rate(code, LinkPlan(2000.0, 2000), CH)
    assert r2 == pytest.approx(r1**2 / (code.k * math.log2(code.q)), rel=1e-9)


def test_rate_monotone_in_ltot_at_fixed_l0():
    code = CodeParams(5, 1, 3, 2)
    rates = [rate(code, LinkPlan(float(lt), lt), CH) for lt in (100, 500, 1000, 5000)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_cost_ratio_identity_random_configs():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randrange(4, 15)
        k = rng.randrange(1, max(2, n // 2))
        d_max = (n - k) // 2 + 1
        d = rng.randrange(2, max(3, d_max + 1))
        d = min(d, d_max)
        if d < 2:
            continue
        q = rng.choice([2, 3, 4, 5, 7, 8])
        code = CodeParams(n, k, d, q)
        l_tot = rng.choice([200.0, 1000.0, 5000.0])
        rep = cost_report(code, l_tot, CH)
        assert_both_argmins(rep, code, l_tot, CH)
        assert rep.c_lt / rep.c_st == pytest.approx(q / math.log2(q), rel=1e-12)


def test_long_term_prefactor_minimized_at_q_three():
    # q / log2(q) over integers >= 2 dips at q = 3 and climbs after
    vals = {q: q / math.log2(q) for q in range(2, 12)}
    assert min(vals, key=vals.get) == 3
    assert all(vals[q] < vals[q + 1] for q in range(3, 11))


def test_cost_improves_with_distance():
    # a larger d at fixed (n, k, q) never increases C_ST
    for d_lo, d_hi in ((2, 3), (3, 4)):
        lo = cost_report(CodeParams(9, 1, d_lo, 3), 1000.0, CH).c_st
        hi = cost_report(CodeParams(9, 1, d_hi, 3), 1000.0, CH).c_st
        assert hi <= lo + 1e-12


def test_link_grid():
    grid = link_grid(1.0)
    assert grid[0] == 1 and grid[-1] == 10  # down to 0.1 km links
    with pytest.raises(DomainError):
        link_grid(0.0)


def test_link_grid_refuses_beyond_bound():
    # raised before np.arange, so nothing of this size is allocated
    for l_tot in (1e12, math.inf):
        with pytest.raises(DomainError, match="100000 km bound"):
            link_grid(l_tot)


def test_children_params():
    kids = children_params(6, 2)
    assert [(c.n, c.k, c.d) for c in kids] == [(5, 1, 3), (4, 2, 2)]
    assert children_params(4, 3) == [CodeParams(3, 1, 2, 3)]
    assert children_params(2, 2) == []


def test_cost_report_fields():
    rep = cost_report(CodeParams(5, 1, 3, 2), 1000.0, CH)
    assert 0 <= rep.p_success <= 1
    assert rep.c_st > 0 and rep.c_lt > 0
    assert rep.plan.l0 == pytest.approx(1000.0 / rep.plan.links)
    assert rep.c_lt / rep.c_st == pytest.approx(2 / math.log2(2))


def test_cost_report_reads_both_costs_off_one_curve():
    rng = random.Random(3)
    for _ in range(20):
        code = rng.choice(children_params(rng.randrange(4, 15), rng.choice([2, 3, 5, 7, 8])))
        l_tot = rng.choice([100.0, 730.0, 1000.0, 5000.0])
        ch = ChannelParams(rng.uniform(15, 25), rng.uniform(0.9, 1.0))
        assert_both_argmins(cost_report(code, l_tot, ch), code, l_tot, ch)


def test_cost_report_refuses_infinite_costs():
    with pytest.raises(DomainError, match="no finite cost"):
        cost_report(CodeParams(5, 1, 3, 2), 1000.0, ChannelParams(eta_c=0.0))
    # optimal_k_table still ranks a child with no finite cost as a loser
    ch = ChannelParams(20.0, 0.98)
    last = children_params(14, 7)[-1]
    assert last.label() == "[[8,6,2]]_7"
    assert reference_costs(last, 10000.0, ch)[1][0] == math.inf
    with pytest.raises(DomainError):
        cost_report(last, 10000.0, ch)
    assert optimal_k_table([(14, 7, "exists")], [10000.0], ch) == {(14, 7): ["2"]}


def test_optimal_k_forced_single_child():
    assert optimal_k_table([(4, 3, "exists")], [1000.0, 10000.0], CH) == {(4, 3): ["1", "1"]}
    with pytest.raises(DomainError, match=re.escape("AME(2,2) has no children")):
        optimal_k_table([(2, 2, "exists")], [1000.0], CH)


@pytest.mark.parametrize("l_tot", [10.0, 1000.0, 1234.5, 10000.0])
def test_optimal_k_ties_pick_the_smaller_k_in_either_order(l_tot):
    # C_LT of [[5,1,2]]_2 and [[5,2,2]]_16 ties exactly: 16 / (2 log2 16) = 2 / 1,
    # and both scalings are powers of two
    k1, k2 = CodeParams(5, 1, 2, 2), CodeParams(5, 2, 2, 16)
    assert reference_costs(k1, l_tot, CH)[1][0] == reference_costs(k2, l_tot, CH)[1][0]
    for kids in ([k1, k2], [k2, k1]):
        assert _optimal_ks({(6, 2): kids}, l_tot, CH) == {(6, 2): 1}


def test_optimal_k_table_markers_and_values():
    cells = [(6, 2, "exists"), (4, 2, "not-exists"), (8, 6, "unknown")]
    out = optimal_k_table(cells, [1000.0, 10000.0], CH)
    assert out[(6, 2)] == ["1", "1"]
    assert out[(4, 2)] == ["-", "-"]
    assert out[(8, 6)] == ["?", "?"]
    with pytest.raises(DomainError):
        optimal_k_table([(6, 2, "maybe")], [1000.0], CH)


def test_figure_rows_schema_and_monotone_rate():
    codes = [CodeParams(5, 1, 3, 2)]
    rows = figure_rows(codes, [500.0, 1000.0], CH)
    assert len(rows) == 2
    assert list(rows[0]) == ["ltot_km", "code", "rate_t0_fixed_l0", "c_st", "opt_l0_km"]
    assert rows[0]["rate_t0_fixed_l0"] >= rows[1]["rate_t0_fixed_l0"]


def test_figure_rows_refuses_a_nonpositive_link_length():
    with pytest.raises(DomainError, match="--l0 must be a positive link length in km, got 0"):
        figure_rows([CodeParams(5, 1, 3, 2)], [1000.0], CH, rate_l0=0.0)


def test_non_finite_channel_and_distance_refused():
    for kwargs in ({"l_att": math.nan}, {"l_att": math.inf}):
        with pytest.raises(DomainError, match="positive and finite"):
            ChannelParams(**kwargs)
    with pytest.raises(DomainError, match="total distance must be positive, got nan"):
        link_grid(math.nan)  # before int(), which raised a bare ValueError


def test_figure_rows_refuses_a_nan_link_length():
    # round(nan) raised an untyped ValueError; the CLI rejects nan before this
    with pytest.raises(DomainError, match="--l0 must be a positive link length in km, got nan"):
        figure_rows([CodeParams(5, 1, 3, 2)], [1000.0], CH, rate_l0=math.nan)


def test_a_table_of_markers_takes_any_distance():
    cells = [(4, 2, "not-exists"), (8, 6, "unknown")]
    out = optimal_k_table(cells, [math.nan, -1.0, 0.0, 1e12], CH)
    assert out == {(4, 2): ["-"] * 4, (8, 6): ["?"] * 4}


@pytest.mark.parametrize("l_tot, message", [
    (math.nan, "total distance must be positive, got nan"),
    (0.0, "total distance must be positive, got 0"),
    (-3.0, "total distance must be positive, got -3"),
    (1e12, "exceeds the 100000 km bound"),
])
def test_every_optimizer_entry_refuses_what_link_grid_refuses(l_tot, message):
    code = CodeParams(5, 1, 3, 2)
    calls = [lambda: optimal_k_table([(6, 2, "exists")], [1000.0, l_tot], CH),
             lambda: cost_report(code, l_tot, CH),
             lambda: figure_rows([code], [1000.0, l_tot], CH)]
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()


def test_optimal_k_table_streams_its_curves():
    # one (n, d) survival curve of the 10^5-point 10000 km column at a time;
    # holding the column's 21 curves at once would take about 17 MB
    tracemalloc.start()
    try:
        optimal_k_table(GRID, [1000.0, 10000.0], CH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# -- the shared-curve optimizer against one full curve per code ----------------


def reference_children(n, q):
    return [CodeParams(n - k, k, n // 2 + 1 - k, q) for k in range(1, n // 2)]


def reference_costs(code, l_tot, ch):
    """(C_ST, its link count, L0 R t0 there), (C_LT, its link count, ...)"""
    return repeater_costs(code.n, code.k, code.d, code.q, l_tot, ch.l_att, ch.eta_c,
                          [code.n * math.log2(code.q), code.n * code.q])


def assert_both_argmins(rep, code, l_tot, ch):
    """``rep`` holds both reference minima at their shared link count."""
    (c_st, r_st, _), (c_lt, r_lt, _) = reference_costs(code, l_tot, ch)
    assert r_lt == r_st
    assert (rep.c_st, rep.c_lt, rep.plan) == (c_st, c_lt, LinkPlan(l_tot, r_st))


def reference_optimal_k(kids, costs):
    """The k of the first child of least C_LT, or "refuse" when two or more
    children all have an infinite C_LT, so that no comparison picks one."""
    best_k, best_c = None, None
    for code in kids:
        c = costs[code][1][0]
        if best_c is None or c < best_c:
            best_k, best_c = code.k, c
    return "refuse" if len(kids) > 1 and best_c == math.inf else best_k


def refusal(cell, l_tot):
    n, q = cell
    return re.escape(f"every child of AME({n},{q}) over {l_tot:g} km has no finite cost")


def assert_optimal_k(cell, l_tot, ch, want):
    table = lambda: optimal_k_table([(*cell, "exists")], [l_tot], ch)
    if want == "refuse":
        with pytest.raises(DomainError, match=refusal(cell, l_tot)):
            table()
    else:
        assert table() == {cell: [str(want)]}


@settings(max_examples=15, deadline=None)
@given(ch=st.builds(ChannelParams, st.floats(5.0, 50.0), st.floats(0.5, 1.0)),
       distances=st.lists(st.floats(0.1, 20000.0), min_size=1, max_size=2),
       cells=st.lists(st.sampled_from(GRID), min_size=1, max_size=3, unique=True),
       pick=st.integers(0, 100))
@example(ch=ChannelParams(eta_c=0.0), distances=[0.1, 1000.0],
         cells=[(14, 7, "exists"), (6, 2, "exists"), (7, 4, "unknown"), (4, 2, "not-exists")],
         pick=4)
@example(ch=ChannelParams(20.0, 0.98), distances=[10000.0],
         cells=[(14, 7, "exists"), (12, 7, "exists")], pick=5)
@example(ch=CH, distances=[1000.0, 10000.0], cells=[(12, 7, "exists"), (13, 7, "exists")],
         pick=0)
def test_optimizer_matches_one_full_curve_per_code(ch, distances, cells, pick):
    families = {(n, q): reference_children(n, q) for n, q, e in sorted(cells) if e == "exists"}
    kids = [code for family in families.values() for code in family]
    costs = [{code: reference_costs(code, l_tot, ch) for code in kids} for l_tot in distances]

    want = {(n, q): {"not-exists": ["-"], "unknown": ["?"]}[e] * len(distances)
            for n, q, e in cells if e != "exists"}
    ks = {cell: [reference_optimal_k(family, col) for col in costs]
          for cell, family in families.items()}
    for cell, cell_ks in ks.items():
        for l_tot, k in zip(distances, cell_ks):
            assert_optimal_k(cell, l_tot, ch, k)
        want[cell] = [str(k) for k in cell_ks]
    # the table refuses the first such cell by distance, then by cell as given
    refused = [refusal((n, q), l_tot) for i, l_tot in enumerate(distances)
               for n, q, e in cells if e == "exists" and ks[(n, q)][i] == "refuse"]
    if refused:
        with pytest.raises(DomainError, match=refused[0]):
            optimal_k_table(cells, distances, ch)
    else:
        assert optimal_k_table(cells, distances, ch) == want

    if kids:
        code = kids[pick % len(kids)]
        for l_tot, col in zip(distances, costs):
            (c_st, r_st, throughput), (c_lt, r_lt, _) = col[code]
            assert r_lt == r_st
            if c_st == math.inf:
                with pytest.raises(DomainError, match="no finite cost"):
                    cost_report(code, l_tot, ch)
                continue
            ps, rt0 = repeater_rate(code.n, code.k, code.d, code.q, l_tot, r_st,
                                    ch.l_att, ch.eta_c)
            rep = cost_report(code, l_tot, ch)
            assert (rep.c_st, rep.plan, rep.c_lt) == (
                c_st, LinkPlan(l_tot, r_st), float(code.n * code.q / throughput))
            assert rep.c_lt == c_lt
            assert (rep.p_success, rep.rate_t0) == (ps, rt0)

    rows, first_inf = [], None
    for l_tot, col in zip(distances, costs):
        links = max(1, round(l_tot / 1.0))
        for code in kids:
            (c_st, r_st, _), _ = col[code]
            if c_st == math.inf and first_inf is None:
                first_inf = f"{code.label()} over {l_tot:g} km has no finite cost"
            rows.append({"ltot_km": l_tot, "code": code.label(),
                         "rate_t0_fixed_l0": repeater_rate(code.n, code.k, code.d, code.q,
                                                           links * 1.0, links,
                                                           ch.l_att, ch.eta_c)[1],
                         "c_st": c_st, "opt_l0_km": l_tot / r_st})
    if first_inf:
        with pytest.raises(DomainError, match=re.escape(first_inf)):
            figure_rows(kids, distances, ch)
    else:
        assert figure_rows(kids, distances, ch) == rows


# -- the screen's edge paths, and the few link counts it evaluates -------------


EDGE_CASES = {
    "10^6 links, one curve evaluated on every link count": (
        [(14, 7)], 100000.0, ChannelParams(eta_c=0.99999)),
    "[[8,6,2]]_7 at 10^6 links, screened above the normal floor": ([(14, 7)], 100000.0, CH),
    "p_l = 0 exactly": ([(6, 2), (9, 3)], 1000.0, ChannelParams(l_att=1e300)),
    "l_att = 1e-3": ([(6, 2)], 1000.0, ChannelParams(l_att=1e-3)),
    "eta_c = 1e-3": ([(6, 2), (14, 7)], 1000.0, ChannelParams(eta_c=1e-3)),
    "l_att = eta_c = 1e-3": ([(6, 2)], 1000.0, ChannelParams(l_att=1e-3, eta_c=1e-3)),
    "eta_c = 0": ([(6, 2)], 1000.0, ChannelParams(eta_c=0.0)),
    "one link": ([(6, 2), (14, 7)], 0.05, CH),
    "rho overflows at small r": ([(14, 7), (12, 7)], 10000.0, ChannelParams(20.0, 0.98)),
}


@pytest.mark.parametrize("cells, l_tot, ch", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_screen_edge_paths_match_the_full_grid(cells, l_tot, ch):
    families = {cell: reference_children(*cell) for cell in cells}
    kids = [code for family in families.values() for code in family]
    costs = {code: reference_costs(code, l_tot, ch) for code in kids}
    for cell, family in families.items():
        assert_optimal_k(cell, l_tot, ch, reference_optimal_k(family, costs))
    rows, first_inf = [], None
    for code in kids:
        (c_st, r_st, throughput), (c_lt, r_lt, _) = costs[code]
        assert r_lt == r_st
        if c_st == math.inf:
            with pytest.raises(DomainError, match="no finite cost"):
                cost_report(code, l_tot, ch)
            first_inf = first_inf or f"{code.label()} over {l_tot:g} km has no finite cost"
            continue
        rep = cost_report(code, l_tot, ch)
        assert (rep.c_st, rep.plan, rep.c_lt) == (
            c_st, LinkPlan(l_tot, r_st), float(code.n * code.q / throughput))
        assert rep.c_lt == c_lt
        links = max(1, round(l_tot))
        rows.append({"ltot_km": l_tot, "code": code.label(),
                     "rate_t0_fixed_l0": repeater_rate(code.n, code.k, code.d, code.q, links,
                                                       links, ch.l_att, ch.eta_c)[1],
                     "c_st": c_st, "opt_l0_km": l_tot / r_st})
    if first_inf:
        with pytest.raises(DomainError, match=re.escape(first_inf)):
            figure_rows(kids, [l_tot], ch)
    else:
        assert figure_rows(kids, [l_tot], ch) == rows


@pytest.mark.parametrize("l_tot", [1000.0, 10000.0])
def test_screen_evaluates_a_few_link_counts_on_the_catalog_grid(l_tot):
    # at most 8 of the 10^4 or 10^5 link counts per (n, d), so never the
    # all-indices path, and every code's full-grid argmin among them
    kids = [code for n, q, e in GRID if e == "exists" for code in reference_children(n, q)]
    pairs = sorted({(code.n, code.d) for code in kids})
    for pair, (links, _) in zip(pairs, _screened_curves(l_tot, CH, pairs), strict=True):
        assert 1 <= len(links) <= 8, (pair, len(links))
        for code in kids:
            if (code.n, code.d) == pair:
                (_, r_st, _), (_, r_lt, _) = reference_costs(code, l_tot, CH)
                assert {r_st, r_lt} <= set(links.tolist()), (code, r_st, r_lt)


def test_screen_floor_follows_the_smallest_normal_double():
    # [[8,6,2]]_7 at 100,000 km: P_success^r is about 2.4e-296 at the optimum,
    # a normal double, so the screen applies; at eta_c = 0.99999 it is about
    # 1.6e-298, below the floor, and every link count is evaluated
    (links, _), = _screened_curves(100000.0, CH, [(8, 2)])
    assert len(links) < 10**6
    (links, _), = _screened_curves(100000.0, ChannelParams(eta_c=0.99999), [(8, 2)])
    assert len(links) == 10**6


def test_screen_takes_in_link_counts_where_poly_overflows():
    # d = 21: C(44,20) rho^20 overflows at r = 14 of 10000 km, where 1 - p_l
    # is a few ulps, not 0; s is +inf there and the window keeps it
    code = CodeParams(44, 2, 21, 2)
    links, _ = next(_screened_curves(10000.0, CH, [(44, 21)]))
    assert 14 in links.tolist()
    assert_both_argmins(cost_report(code, 10000.0, CH), code, 10000.0, CH)


PAIRS = st.integers(2, 44).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, min(21, n // 2 + 1))))


@settings(max_examples=40, deadline=None)
@given(l_tot=st.floats(0.05, 100000.0, exclude_min=True),
       l_att=st.one_of(st.just(20.0), st.floats(1e-3, 1e4)),
       eta_c=st.one_of(st.sampled_from([0.0, 1e-3, 1.0]), st.floats(1e-3, 1.0)),
       pairs=st.lists(PAIRS, min_size=1, max_size=3, unique=True))
@example(l_tot=10000.0, l_att=20.0, eta_c=1.0, pairs=[(44, 21), (14, 7)])
@example(l_tot=100000.0, l_att=20.0, eta_c=0.99999, pairs=[(8, 2)])
@example(l_tot=100000.0, l_att=20.0, eta_c=1.0, pairs=[(8, 2), (44, 21)])
@example(l_tot=10000.0, l_att=20.0, eta_c=0.98, pairs=[(12, 7), (14, 7)])
@example(l_tot=1000.0, l_att=1e-3, eta_c=1e-3, pairs=[(6, 2)])
@example(l_tot=1000.0, l_att=1e300, eta_c=1.0, pairs=[(6, 2), (9, 3)])
@example(l_tot=3000.0, l_att=20.0, eta_c=0.0, pairs=[(6, 2)])
def test_screen_windows_match_the_full_grid(l_tot, l_att, eta_c, pairs):
    # the coarse-to-fine screen gives each (n, d) the window, or the floor's
    # None, of one screen over every link count; and the channel's bound on
    # -r log q holds on that grid
    pairs = sorted(pairs)
    got = _screen(l_tot, ChannelParams(l_att, eta_c), pairs, len(link_grid(l_tot)))
    for pair, window in zip(pairs, got, strict=True):
        want, bound, observed = repeater_window(*pair, l_tot, l_att, eta_c)
        assert observed <= bound
        if want is None:
            assert window is None, pair
        else:
            assert window is not None and window[0].tolist() == want.tolist(), pair


def test_screen_evaluates_a_small_fraction_of_the_catalog_grid(monkeypatch):
    # every (n, d) of the catalog's children at 10,000 km: 21 x 10^5 link
    # counts on the full grid
    kids = [code for n, q, e in GRID if e == "exists" for code in reference_children(n, q)]
    pairs = sorted({(code.n, code.d) for code in kids})
    evaluated = []

    def counting(*args, screen_points=repeater._screen_points):
        out = screen_points(*args)
        evaluated.append(out[0].size)
        return out

    monkeypatch.setattr(repeater, "_screen_points", counting)
    assert len(pairs) == 21
    windows = list(_screened_curves(10000.0, CH, pairs))
    assert len(windows) == 21 and len(evaluated) > 1
    assert sum(evaluated) < 21 * 10**5 // 20, sum(evaluated)
