"""The benchmark's workloads: one pass over each fixed batch, and the checks.

A workload is a list of input items.  Running an item calls the public
functions of ``amecodes`` through ``Tracer.call`` and returns what they
returned; checking an item compares those outputs with the reference
routes of ``ref``, which share no code with the program, and returns the
failures found and the work counts of the pass (commutation tests,
dense errors scanned, repeater link counts).

Every pass ends with the same small probe: one item per pipeline on the
smallest catalog tables and a single grid cell.  It costs a few
milliseconds, and it gives every layer a measured span on every
workload, so an idle layer reads as a small time rather than nothing.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from amecodes import catalog, codes, oracle, reduction, repeater, stabtab
from amecodes.codes import CodeParams

import gen
import ref
from spans import OpFailed

DEFAULT_CHANNEL = {"l_att": 20.0, "eta_c": 1.0}
GRID_SAMPLE = 3  # closed-form checks per grid table


def _witness(hit):
    return None if hit is None else (hit[0], hit[1].sites)


def _report(r):
    return (r.code.label(), r.l_tot, r.plan.links, r.c_st, r.c_lt, r.p_success, r.rate_t0)


def _as_ref(rc: ref.RefCode, table) -> ref.RefCode:
    """A table the program returned, read as a RefCode from its site pairs."""
    rows = np.array([ref.error_vector(rc, g.sites) for g in table.gens])
    claimed = table.claimed
    return ref.RefCode(table.n, table.k, claimed.d if claimed else None, rc.f, rows)


def _distance_failures(label, rc: ref.RefCode, hit, want_d) -> list[str]:
    got = ref.rank_distance(rc, rc.n)
    if hit is None or got is None or hit[0] != got[0] or hit[0] != want_d:
        return [f"{label}: distance {hit and hit[0]}, rank route {got and got[0]}, "
                f"expected {want_d}"]
    if not ref.check_witness(rc, hit[1].sites, hit[0]):
        return [f"{label}: witness {hit[1]} is not an undetectable weight-{hit[0]} error"]
    return []


def _tests(rc: ref.RefCode, d: int) -> int:
    """Commutation tests of the weight classes 1..d, the scan's budget unit."""
    per_class = sum(math.comb(rc.n, w) * (rc.f.q**2 - 1) ** w for w in range(1, d + 1))
    return per_class * rc.N


def _cost_failures(label, r) -> tuple[list[str], int]:
    n, k, d, q = r.code.n, r.code.k, r.code.d, r.code.q
    rows = ref.closed_form_costs(n, k, d, q, r.l_tot)
    best = min(row[2] for row in rows)
    r_, c_st, c_lt, ps, rt0 = rows[r.plan.links - 1]
    ok = (ref.close(c_lt, best) and ref.close(r.c_lt, c_lt) and ref.close(r.c_st, c_st)
          and ref.close(r.p_success, ps) and ref.close(r.rate_t0, rt0)
          and ref.close(r.c_st / r.c_lt, math.log2(q) / q, 1e-12))
    fails = [] if ok else [f"{label}: cost_report {_report(r)} disagrees with the closed "
                           f"form (C_LT {c_lt} at r={r_}, best {best})"]
    return fails, len(rows)


# -- family: verify a parent, derive and verify its children, cost them -----


def family_item(tr, text: str, distances: list[float]) -> dict:
    out = {"text": text, "distances": distances}
    t = tr.call("stabtab.parse", stabtab.parse, text)
    out["commutation"] = tr.call("codes.commutation", codes.check_commutation, t)
    out["independence"] = tr.call("codes.independence", codes.check_independence, t)
    out["hit"] = tr.call("codes.distance", codes.find_min_undetectable, t, t.claimed.d)
    form = tr.call("reduction.canonicalize", reduction.to_reduction_friendly, t)
    out["canonical"] = form.table
    out["children"] = []
    m = t.field.m
    while form.table.claimed.d - 1 >= 2 and len(form.table.gens) > 2 * m:
        child = tr.call("reduction.extract", reduction.child_code, form)
        width = reduction.block_width(child)
        layout = reduction.ODD if len(child.gens) > 2 * m * width else reduction.EVEN
        form = reduction.ReductionFriendlyForm(child, width, layout)
        out["children"].append({
            "table": child,
            "commutation": tr.call("codes.commutation", codes.check_commutation, child),
            "independence": tr.call("codes.independence", codes.check_independence, child),
            "hit": tr.call("codes.distance", codes.find_min_undetectable, child,
                           child.claimed.d),
            "text": tr.call("stabtab.emit", stabtab.emit, child),
        })
    members = [out["canonical"]] + [c["table"] for c in out["children"]]
    out["costs"] = [
        tr.call("repeater.cost_report", repeater.cost_report, table.claimed, l_tot,
                repeater.ChannelParams(**DEFAULT_CHANNEL))
        for table in members if table.k >= 1 for l_tot in distances
    ]
    return out


def family_summary(out):
    return (_witness(out["hit"]), str(out["canonical"].gens),
            [(c["text"], _witness(c["hit"])) for c in out["children"]],
            [_report(r) for r in out["costs"]])


def family_check(out):
    rc = ref.parse_stabtab(out["text"])
    label = f"[[{rc.n},{rc.k},{rc.d}]]_{rc.f.q}"
    fails, counts = [], Counter()
    if not ref.is_valid_code(rc) or out["commutation"] or out["independence"] is not None:
        fails.append(f"{label}: commutation/independence verdict disagrees")
    if rc.k == 0 and rc.d != rc.n // 2 + 1:
        fails.append(f"{label}: an AME parent needs d = n/2 + 1")
    fails += _distance_failures(label, rc, out["hit"], rc.d)
    counts["codes.distance_tests"] += _tests(rc, rc.d)
    prev = _as_ref(rc, out["canonical"])
    if not ref.same_group(rc, prev):
        fails.append(f"{label}: canonicalization changed the group")
    n0 = rc.n + rc.k
    for i, c in enumerate(out["children"], start=1):
        k = rc.k + i
        want = (rc.n - i, k, n0 // 2 + 1 - k)
        crc = ref.parse_stabtab(c["text"])
        clabel = f"child [[{crc.n},{crc.k},{crc.d}]]_{crc.f.q} of {label}"
        if (crc.n, crc.k, crc.d) != want or not ref.is_valid_code(crc):
            fails.append(f"{clabel}: expected [[{want[0]},{want[1]},{want[2]}]], a valid code")
        if c["commutation"] or c["independence"] is not None:
            fails.append(f"{clabel}: commutation/independence verdict disagrees")
        # each child generator, with the identity on the dropped site, is in
        # the group of the member it was extracted from
        lifted = np.hstack([np.zeros((crc.N, 2 * crc.f.m), dtype=np.int64), crc.rows])
        if any(not prev.in_group(row) for row in lifted):
            fails.append(f"{clabel}: not a subcode of its parent on the remaining sites")
        fails += _distance_failures(clabel, crc, c["hit"], want[2])
        counts["codes.distance_tests"] += _tests(crc, want[2])
        prev = crc
    for r in out["costs"]:
        f, points = _cost_failures(label, r)
        fails += f
        counts["repeater.grid_points"] += points
    return fails, counts


# -- qubit distance: verify random qubit codes, entropies on sampled subsets --


def qubit_item(tr, text: str, subsets: list[list[int]]) -> dict:
    out = {"text": text, "subsets": subsets}
    t = tr.call("stabtab.parse", stabtab.parse, text)
    out["commutation"] = tr.call("codes.commutation", codes.check_commutation, t)
    out["independence"] = tr.call("codes.independence", codes.check_independence, t)
    out["hit"] = hit = tr.call("codes.distance", codes.find_min_undetectable, t,
                               t.n // 2 + 1)
    out["entropies"] = [tr.call("codes.entropy", codes.subsystem_entropy, t, a)
                        for a in subsets]
    found = t.relabel(CodeParams(t.n, t.k, hit[0], t.field.q)) if hit else t
    out["emitted"] = tr.call("stabtab.emit", stabtab.emit, found)
    return out


def qubit_summary(out):
    return (_witness(out["hit"]), out["entropies"], out["emitted"])


def qubit_check(out):
    rc = ref.parse_stabtab(out["text"])
    label = f"[[{rc.n},{rc.k},{rc.d}]]_{rc.f.q}"
    fails, counts = [], Counter()
    if not ref.is_valid_code(rc) or out["commutation"] or out["independence"] is not None:
        fails.append(f"{label}: commutation/independence verdict disagrees")
    fails += _distance_failures(label, rc, out["hit"], rc.d)
    counts["codes.distance_tests"] += _tests(rc, rc.d)
    for a, s in zip(out["subsets"], out["entropies"]):
        if abs(s - rc.entropy(a)) > 1e-9:
            fails.append(f"{label}: entropy on {a} is {s}, rank formula {rc.entropy(a)}")
    erc = ref.parse_stabtab(out["emitted"])
    if not ref.same_group(rc, erc) or erc.d != rc.d:
        fails.append(f"{label}: emitted table differs from the input group or distance")
    return fails, counts


# -- dense cross-check: expansion, dense distance, Knill-Laflamme, entropies --


def dense_item(tr, text: str, subsets: list[list[int]]) -> dict:
    out = {"text": text, "subsets": subsets}
    t = tr.call("stabtab.parse", stabtab.parse, text)
    d = t.claimed.d
    out["words"] = c = tr.call("oracle.expand", oracle.expand_stabilizer, t)
    out["dense_distance"] = tr.call("oracle.dense_distance", oracle.dense_distance, c, d + 1)
    out["kl_pass"] = tr.call("oracle.kl", oracle.knill_laflamme_check, c, d)
    out["kl_fail"] = (tr.call("oracle.kl", oracle.knill_laflamme_check, c, d + 1)
                      if t.k else None)
    out["entropies"] = [tr.call("oracle.entropy", oracle.reduced_entropy, c.words[0], a)
                        for a in subsets]
    return out


def dense_summary(out):
    kl = out["kl_fail"]
    return (out["words"].K, out["dense_distance"], out["kl_pass"] is None,
            kl and kl.sites, out["entropies"])


def _words_failures(label, rc: ref.RefCode, codewords) -> list[str]:
    words = np.array([w.amplitudes for w in codewords.words])
    if len(words) != rc.f.q**rc.k or not np.allclose(
            words.conj() @ words.T, np.eye(len(words)), atol=1e-9):
        return [f"{label}: expansion gave {len(words)} words, expected "
                f"{rc.f.q ** rc.k} orthonormal ones"]
    return []


def dense_check(out):
    rc = ref.parse_stabtab(out["text"])
    label = f"[[{rc.n},{rc.k},{rc.d}]]_{rc.f.q}"
    fails, counts = _words_failures(label, rc, out["words"]), Counter()
    got = ref.rank_distance(rc, rc.n)
    if out["dense_distance"] != got[0] or got[0] != rc.d:
        fails.append(f"{label}: dense distance {out['dense_distance']}, rank route {got[0]}")
    if out["kl_pass"] is not None:
        fails.append(f"{label}: Knill-Laflamme fails below d at {out['kl_pass']}")
    first = ref.first_hit(rc, rc.d)
    below = sum(math.comb(rc.n, w) * (rc.f.q**2 - 1) ** w for w in range(1, rc.d))
    counts["oracle.errors_scanned"] += 2 * below + first[0] + 1
    if rc.k:
        kl = out["kl_fail"]
        if kl is None or kl.sites != first[1] or not ref.check_witness(rc, kl.sites, rc.d):
            fails.append(f"{label}: Knill-Laflamme at d+1 gave {kl}, expected the "
                         f"weight-{rc.d} logical {first[1]}")
        counts["oracle.errors_scanned"] += below + first[0] + 1
    state = rc if rc.k == 0 else ref.z_completion(rc)
    for a, s in zip(out["subsets"], out["entropies"]):
        if abs(s - state.entropy(a)) > 1e-8:
            fails.append(f"{label}: reduced entropy on {a} is {s}, rank formula "
                         f"{state.entropy(a)}")
    return fails, counts


def expand_item(tr, text: str) -> dict:
    t = tr.call("stabtab.parse", stabtab.parse, text)
    return {"text": text, "words": tr.call("oracle.expand", oracle.expand_stabilizer, t)}


def expand_summary(out):
    return out["words"].K


def expand_check(out):
    rc = ref.parse_stabtab(out["text"])
    return _words_failures(f"[[{rc.n},{rc.k},{rc.d}]]_{rc.f.q}", rc, out["words"]), Counter()


# -- optimal-k grid ---------------------------------------------------------------


def grid_item(tr, cells, distances: list[float], channel: dict, sample_seed=None) -> dict:
    ch = repeater.ChannelParams(**channel)
    table = tr.call("repeater.table", repeater.optimal_k_table, cells, distances, ch)
    return {"cells": cells, "distances": distances, "channel": channel, "table": table,
            "sample_seed": sample_seed}


def grid_summary(out):
    return sorted(out["table"].items())


def grid_check(out):
    fails, counts = [], Counter()
    table, distances, channel = out["table"], out["distances"], out["channel"]
    markers = {"not-exists": "-", "unknown": "?"}
    for n, q, existence in out["cells"]:
        got = table.get((n, q))
        if got is None or len(got) != len(distances):
            fails.append(f"cell ({n},{q}) missing from the table")
            continue
        if existence != "exists":
            if got != [markers[existence]] * len(distances):
                fails.append(f"cell ({n},{q}) {existence} printed as {got}")
            continue
        counts["repeater.grid_points"] += sum(
            len(ref.children_params(n, q)) * max(1, int(l / ref.MIN_LINK_KM))
            for l in distances)
    if channel == DEFAULT_CHANNEL and list(distances[:2]) == list(ref.REFERENCE_DISTANCES):
        for cell, want in ref.REFERENCE_CELLS.items():
            if tuple(int(v) for v in table[cell][:2]) != want:
                fails.append(f"cell {cell}: optimal k {table[cell][:2]}, reference {want}")
    exists = [c[:2] for c in out["cells"] if c[2] == "exists"]
    if out["sample_seed"] is None:
        checks = [(cell, 0) for cell in exists]
    else:
        # seeded cells outside the reference ones, at distances of at most
        # 5000 km, where the scalar closed form stays quick
        rng = random.Random(out["sample_seed"])
        cols = [i for i, l in enumerate(distances) if l <= 5000.0]
        others = [c for c in exists if c not in ref.REFERENCE_CELLS]
        checks = [(rng.choice(others), rng.choice(cols)) for _ in range(GRID_SAMPLE)]
    for (n, q), col in checks:
        best, costs = ref.closed_form_optimal_k(n, q, distances[col], **channel)
        if int(table[(n, q)][col]) not in best:
            fails.append(f"cell ({n},{q}) at {distances[col]} km: optimal k "
                         f"{table[(n, q)][col]}, closed form {sorted(best)} of {costs}")
    return fails, counts


# -- workloads -----------------------------------------------------------------

KINDS = {
    "family": (family_item, family_summary, family_check),
    "qubit": (qubit_item, qubit_summary, qubit_check),
    "dense": (dense_item, dense_summary, dense_check),
    "expand": (expand_item, expand_summary, expand_check),
    "grid": (grid_item, grid_summary, grid_check),
}


def probe_items() -> list[tuple]:
    return [
        ("family", (gen.catalog_text("ame_5_2"), [10.0])),
        ("qubit", (gen.catalog_text("ame_3_2"), [[0]])),
        ("dense", (gen.catalog_text("code_4_1_2_2"), [[0], [0, 1]])),
        ("grid", ([(5, 2, "exists")], [10.0], DEFAULT_CHANNEL)),
    ]


def grid_cells() -> list[tuple[int, int, str]]:
    return [(n, q, e) for (n, q), e in sorted(catalog.catalog_grid().items())]


def build(workload: str, inputs: dict) -> "Workload":
    items = []
    if workload == "family-large-q":
        for name, text in inputs["tables"].items():
            items.append(("family", (text, inputs["distances"][name])))
    elif workload == "qubit-distance":
        for name, text in inputs["tables"].items():
            items.append(("qubit", (text, inputs["entropy_subsets"].get(name, []))))
    elif workload == "dense-crosscheck":
        for name, text in inputs["tables"].items():
            items.append(("dense", (text, inputs["entropy_subsets"][name])))
        for text in inputs["expand_tables"].values():
            items.append(("expand", (text,)))
    elif workload == "optimal-k-grid":
        cells, seed = grid_cells(), inputs["sample_seed"]
        items.append(("grid", (cells, inputs["distances"], DEFAULT_CHANNEL, seed)))
        items.append(("grid", (cells, inputs["seeded_distances"], inputs["channel"], seed + 1)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Workload(items + probe_items())


class Workload:
    def __init__(self, items):
        self.items = items

    def run_pass(self, tr) -> list:
        """One pass over the batch; None stands for an item whose operation
        failed."""
        outs = []
        with tr.span("pass"):
            for kind, args in self.items:
                with tr.span(kind):
                    try:
                        outs.append(KINDS[kind][0](tr, *args))
                    except OpFailed:
                        outs.append(None)
        return outs

    def summary(self, outs) -> list:
        return [None if o is None else KINDS[kind][1](o)
                for (kind, _), o in zip(self.items, outs)]

    def check(self, outs) -> tuple[list[str], Counter]:
        fails, counts = [], Counter()
        for (kind, _), out in zip(self.items, outs):
            if out is None:
                continue
            f, c = KINDS[kind][2](out)
            fails += f
            counts += c
        return fails, counts

