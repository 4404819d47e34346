"""Seeded inputs for the benchmark workloads.

Every input is made from the workload seed alone, by code that does not
import ``amecodes``; the program only ever sees the generated stabilizer
table texts, distances and channel settings.  Regenerate a workload's
inputs into a directory with

    python3 perfbench/gen.py --workload family-large-q --seed 1 --out DIR

The AME(2t, p) parents are bipartite graph states built from a random
superregular t x t matrix A over Z_p (every square submatrix of A is
nonsingular, checked here with mod-p determinants): the graph state with
adjacency [[0, A], [A^T, 0]] is then t-uniform, i.e. AME (Helwig et al.,
PRA 86, 052335 (2012)).  The other stabilizer codes are random graph
states over Z_p, optionally with random local symplectic maps; an
[[n, k]] subcode keeps all but k generators of a random generating set.

Work per seed is held nearly fixed so that runs with different seeds
measure the same amount of work: each code slot has a fixed (n, k, d),
drawn by rejection until the rank criterion gives that d, and the sites
are then relabelled so that a minimum-weight undetectable error is
supported on sites 0..d-1 (see ``relabelled``).  Both distance scans
(symplectic and dense) enumerate site subsets lexicographically, so they
stop in their first weight-d subset on every seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np

import ref

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "src" / "amecodes" / "catalog"

# Refuse any input whose brute-force distance scan would build a weight-class
# array larger than this: (q^2 - 1)^w rows x N generators of int64 per site
# subset.  The scan's peak memory is about twice this array.
MEMORY_CAP_BYTES = 320 * 2**20

WORKLOADS = ("family-large-q", "qubit-distance", "dense-crosscheck", "optimal-k-grid")


class MemoryCapError(ValueError):
    pass


def weight_class_bytes(q: int, n_gens: int, w: int) -> int:
    return (q * q - 1) ** w * n_gens * 8


def check_memory(name: str, q: int, n_gens: int, w: int) -> None:
    need = weight_class_bytes(q, n_gens, w)
    if need > MEMORY_CAP_BYTES:
        raise MemoryCapError(
            f"{name}: the weight-{w} class needs a {need / 2**20:.0f} MiB array per "
            f"site subset, over the {MEMORY_CAP_BYTES // 2**20} MiB cap"
        )


# -- constructions over Z_p ------------------------------------------------------


def superregular(t: int, p: int, rng: random.Random) -> list[list[int]]:
    """A random t x t matrix over Z_p whose square submatrices are all
    nonsingular."""
    for _ in range(100_000):
        a = [[rng.randrange(1, p) for _ in range(t)] for _ in range(t)]
        if all(
            ref.det_mod_p([[a[i][j] for j in cols] for i in rows], p)
            for size in range(1, t + 1)
            for rows in itertools.combinations(range(t), size)
            for cols in itertools.combinations(range(t), size)
        ):
            return a
    raise ValueError(f"no superregular {t}x{t} matrix over Z_{p} found")


def graph_state_rows(adj: np.ndarray, p: int) -> np.ndarray:
    """Generators X on vertex v times Z^adj[v,u] on every u, as rows with
    per-site (x, z) columns."""
    n = len(adj)
    rows = np.zeros((n, 2 * n), dtype=np.int64)
    for v in range(n):
        rows[v, 2 * v] = 1
        rows[v, 1::2] = adj[v] % p
    return rows


def random_graph(n: int, p: int, rng: random.Random) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in itertools.combinations(range(n), 2):
        adj[i, j] = adj[j, i] = rng.randrange(p)
    return adj


def local_symplectic(rows: np.ndarray, p: int, rng: random.Random) -> np.ndarray:
    """Apply a random determinant-one 2x2 map to every site's (x, z)."""
    out = rows.copy()
    for s in range(rows.shape[1] // 2):
        while True:
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if a:  # d fixed by det = 1
                d = (1 + b * c) * pow(a, -1, p) % p
                break
        x, z = rows[:, 2 * s], rows[:, 2 * s + 1]
        out[:, 2 * s], out[:, 2 * s + 1] = (a * x + b * z) % p, (c * x + d * z) % p
    return out


def scramble(rows: np.ndarray, p: int, rng: random.Random) -> np.ndarray:
    """Replace the generators by a random invertible combination of them."""
    n_rows = len(rows)
    while True:
        c = np.array([[rng.randrange(p) for _ in range(n_rows)] for _ in range(n_rows)])
        if ref.rank_mod_p(c, p) == n_rows:
            return (c @ rows) % p


def permute_sites(rows: np.ndarray, order) -> np.ndarray:
    """New site i is old site order[i]."""
    cols = [2 * s + t for s in order for t in range(2)]
    return rows[:, cols]


def emit(rows: np.ndarray, q: int, d: int) -> str:
    """Stabilizer-table text of a prime-field table."""
    n = rows.shape[1] // 2
    lines = ["# stabtab v1", f"code n={n} q={q} k={n - len(rows)} d={d}"]
    for i, row in enumerate(rows, start=1):
        toks = []
        for s in range(n):
            a, b = int(row[2 * s]), int(row[2 * s + 1])
            toks.append("i" if not (a or b) else (f"x{a}" if a else "") + (f"z{b}" if b else ""))
        lines.append(f"g{i}: " + " ".join(toks))
    return "\n".join(lines) + "\n"


def ame_state(n: int, p: int, rng: random.Random) -> str:
    """A scrambled AME(n, p) bipartite graph state, n even."""
    t = n // 2
    check_memory(f"AME({n},{p})", p, n, t + 1)
    a = np.array(superregular(t, p, rng), dtype=np.int64)
    adj = np.zeros((n, n), dtype=np.int64)
    adj[:t, t:] = a
    adj[t:, :t] = a.T
    return emit(scramble(graph_state_rows(adj, p), p, rng), p, t + 1)


def min_weight_error(code: ref.RefCode, subset) -> np.ndarray:
    """An undetectable error supported on ``subset``: a nonzero group
    element for k = 0, a logical outside the group for k > 0."""
    p = code.f.p
    if code.k == 0:
        outside = code.columns([s for s in range(code.n) if s not in subset])
        combo = ref.nullspace_mod_p(code.rows[:, outside].T, p)[0]
        return (combo @ code.rows) % p
    cols = code.columns(subset)
    for v in ref.nullspace_mod_p((code.rows @ code.form)[:, cols], p):
        vec = np.zeros(2 * code.n, dtype=np.int64)
        vec[cols] = v
        if not code.in_group(vec):
            return vec
    raise ValueError("subset supports no logical")


def relabelled(rows: np.ndarray, n: int, k: int, d: int, p: int, rng: random.Random):
    """The table made to stop both distance scans at a fixed point, or None
    when its distance is not d.

    A weight-d undetectable error E is found on the first supporting site
    subset.  On each of its sites a local map that keeps the X part
    (z -> z + c x, then x -> s x, z -> z / s) turns E's factor into X or
    Z, and the sites are relabelled with E's Z sites first, then its X
    sites, then the rest.  A scan over weight-d errors in lexicographic
    order then finds E, or an earlier error, within the first
    (q^2 - 1)^(d - 1) errors of the class, because E has a Z site: a
    draw whose E has none returns None too.
    """
    code = ref.RefCode(n, k, None, ref.RefField(p), rows)
    hit = ref.rank_distance(code, d)
    if hit is None or hit[0] != d:
        return None
    err = min_weight_error(code, hit[1])
    out = rows.copy()
    z_sites, x_sites = [], []
    for s in hit[1]:
        a, b = int(err[2 * s]), int(err[2 * s + 1])
        x, z = out[:, 2 * s], out[:, 2 * s + 1]
        if a:  # shear to (a, 0), then scale to (1, 0)
            c = (-b * pow(a, -1, p)) % p
            z = (z + c * x) % p
            out[:, 2 * s], out[:, 2 * s + 1] = (x * pow(a, -1, p)) % p, (z * a) % p
            x_sites.append(s)
        else:  # (0, b): scale to (0, 1)
            out[:, 2 * s], out[:, 2 * s + 1] = (x * b) % p, (z * pow(b, -1, p)) % p
            z_sites.append(s)
    if not z_sites:  # the scan would not be bounded; draw again
        return None
    order = z_sites + x_sites + [s for s in range(n) if s not in hit[1]]
    return scramble(permute_sites(out, order), p, rng)


def fixed_distance_code(n: int, k: int, d: int, p: int, rng: random.Random,
                        local: bool) -> np.ndarray:
    """Rows of a random [[n, k, d]]_p code: all but k generators of a
    random generating set of a graph state, drawn until its distance is d."""
    check_memory(f"[[{n},{k},{d}]]_{p}", p, n - k, d)
    for _ in range(10_000):
        rows = graph_state_rows(random_graph(n, p, rng), p)
        if local:
            rows = local_symplectic(rows, p, rng)
        out = relabelled(scramble(rows, p, rng)[: n - k], n, k, d, p, rng)
        if out is not None:
            return out
    raise ValueError(f"no [[{n},{k},{d}]]_{p} code found")


def expansion_depth(rows: np.ndarray, p: int) -> int:
    """How far ``oracle.expand_stabilizer`` searches on an [[n, 1]]_p code
    whose generators' X parts are independent, as n - 1 - j.

    It projects the basis states |0>, |1>, ... in index order (site n-1
    the last digit) until it has a word in each coset of the X parts' row
    space.  That space is {x : c.x = 0} for one vector c, and j is the
    last site where c is nonzero, so it tries (p - 1) p^(n-1-j) + 1 states.
    """
    c = ref.nullspace_mod_p(rows[:, 0::2], p)
    if len(c) != 1:
        raise ValueError("the X parts of the generators are not independent")
    return len(c[0]) - 1 - int(np.flatnonzero(c[0])[-1])


def subcode(state: np.ndarray, d: int, p: int, rng: random.Random, depth: int = 0) -> np.ndarray:
    """Rows of an [[n, 1, d]]_p subcode of a k = 0 state: all but one of a
    random generating set, drawn until the distance is d and the expansion
    depth is ``depth``."""
    n = len(state)
    check_memory(f"[[{n},1,{d}]]_{p}", p, n - 1, d)
    for _ in range(10_000):
        out = relabelled(scramble(state, p, rng)[:-1], n, 1, d, p, rng)
        if out is not None and expansion_depth(out, p) == depth:
            return out
    raise ValueError(f"no [[{n},1,{d}]]_{p} subcode found")


# -- workloads -------------------------------------------------------------------

# (n, k, d) slots of the qubit-distance workload.  Each d is a common
# distance of such random codes, so the rejection draws stay few; the
# [[16,0,5]] slots carry most of the scan work.
QUBIT_SLOTS = [(16, 0, 5)] * 3 + [(16, 2, 4), (16, 1, 4), (15, 1, 4), (14, 0, 4), (12, 0, 4),
                                  (13, 1, 3)] * 2
QUBIT_ENTROPY_SUBSETS_PER_SIZE = 2

# (n, q, d) graph states of the dense-crosscheck workload (q^n <= 4096); each
# also yields an [[n, 1, d_sub]] subcode.
DENSE_SLOTS = [(10, 2, 3, 3), (9, 2, 3, 3), (6, 3, 3, 2), (5, 3, 3, 2), (4, 5, 2, 2)]
DENSE_ENTROPY_SUBSETS_PER_SIZE = 2
# expand_stabilizer's search depth (see expansion_depth) is fixed so that it
# does the same work on every seed: 0, the commonest, on the seeded
# subcodes, and 6 on one more [[10,1,3]]_2 subcode that is the same on
# every seed, where the in-order search tries 65 basis states instead of 2.
# That one is only expanded.
DENSE_DEEP_SLOT = (10, 2, 3, 3, 6)  # (n, q, d of the state, d_sub, depth)
DENSE_CATALOG = ["ame_2_2", "ame_3_2", "ame_4_3", "ame_5_2", "ame_6_2", "code_3_1_2_3",
                 "code_4_1_2_2", "code_4_2_2_2", "code_5_1_3_2"]


def catalog_text(entry: str) -> str:
    return (CATALOG / f"{entry}.stabtab").read_text()


def family_large_q(rng: random.Random) -> dict:
    tables = {"ame_6_5": ame_state(6, 5, rng), "ame_6_7": ame_state(6, 7, rng),
              "code_5_1_3_9": catalog_text("code_5_1_3_9")}
    # three cost queries per code, one in each band, so the summed link
    # count (the repeater's work) varies little between seeds
    distances = {name: [round(rng.uniform(lo, lo + 200.0), 1) for lo in (400.0, 900.0, 1400.0)]
                 for name in tables}
    return {"tables": tables, "distances": distances}


def qubit_distance(rng: random.Random) -> dict:
    tables, subsets = {}, {}
    for i, (n, k, d) in enumerate(QUBIT_SLOTS):
        name = f"q{i}_{n}_{k}_{d}"
        tables[name] = emit(fixed_distance_code(n, k, d, 2, rng, local=True), 2, d)
        if k == 0:
            subsets[name] = [sorted(rng.sample(range(n), size))
                             for size in range(1, n)
                             for _ in range(QUBIT_ENTROPY_SUBSETS_PER_SIZE)]
    return {"tables": tables, "entropy_subsets": subsets}


def dense_crosscheck(rng: random.Random) -> dict:
    tables = {name: catalog_text(name) for name in DENSE_CATALOG}
    for n, q, d, d_sub in DENSE_SLOTS:
        state = fixed_distance_code(n, 0, d, q, rng, local=False)
        tables[f"g_{n}_{q}"] = emit(state, q, d)
        tables[f"g_{n}_{q}_sub"] = emit(subcode(state, d_sub, q, rng), q, d_sub)
    subsets = {}
    for name, text in tables.items():
        n = ref.parse_stabtab(text).n
        subsets[name] = [sorted(rng.sample(range(n), size)) for size in range(1, n)
                         for _ in range(DENSE_ENTROPY_SUBSETS_PER_SIZE)]
    n, q, d, d_sub, depth = DENSE_DEEP_SLOT
    fixed = random.Random("dense-crosscheck/deep-expansion")
    state = fixed_distance_code(n, 0, d, q, fixed, local=False)
    deep = {f"g_{n}_{q}_sub_deep": emit(subcode(state, d_sub, q, fixed, depth), q, d_sub)}
    return {"tables": tables, "entropy_subsets": subsets, "expand_tables": deep}


def optimal_k_grid(rng: random.Random) -> dict:
    # The table at the default channel carries the reference cells.  The
    # seeded channel stays near it and is used at two distances of fixed
    # sum, because the table's time depends on the channel as well as on
    # the link count, and a wide range would vary it by seed.
    extra = round(rng.uniform(1000.0, 2000.0), 1)
    return {
        "distances": [1000.0, 10000.0],
        "seeded_distances": [extra, 3000.0 - extra],
        "channel": {"l_att": round(rng.uniform(19.0, 21.0), 3),
                    "eta_c": round(rng.uniform(0.97, 1.0), 4)},
        "sample_seed": rng.randrange(2**31),
    }


INPUT_MAKERS = {"family-large-q": family_large_q, "qubit-distance": qubit_distance,
            "dense-crosscheck": dense_crosscheck, "optimal-k-grid": optimal_k_grid}


def make_inputs(workload: str, seed: int) -> dict:
    return INPUT_MAKERS[workload](random.Random(f"{workload}/{seed}"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.pop("tables", {}).items():
        (args.out / f"{name}.stabtab").write_text(text)
    (args.out / "inputs.json").write_text(json.dumps(inputs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
