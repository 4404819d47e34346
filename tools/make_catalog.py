#!/usr/bin/env python3
"""Regenerate the shipped catalog from first principles.

Source-figure tables are typed in verbatim; derived tables are produced
by the package's own machinery (canonicalization of the AME(4,3)
stabilizers, checked against the explicit state by the dense oracle, and
of the textbook five-qubit state; child extraction, with the AME(4,3)
child checked against the state's projection codewords) and re-verified
before writing.  The printed five-qubit figure and its child, which the
catalog replaces, are typed in too and checked for the defects that the
catalog notes name.  Run from the repository root:

    python tools/make_catalog.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from amecodes import stabtab
from amecodes.codes import (CodeParams, GeneratorTable, compute_distance, find_min_undetectable,
                            require_stabilizer)
from amecodes.fields import GF
from amecodes.oracle import ame_projection_codewords, expand_stabilizer
from amecodes.pauli import PauliString, StateVector, sites_from_matrix
from amecodes.reduction import derive_family, to_reduction_friendly

OUT = Path(__file__).resolve().parents[1] / "src" / "amecodes" / "catalog"

# the source optimal-k reference table, n = 4..14 by q = 2..8; a k-pair cell means the AME exists
SOURCE_GRID = {
    4:  ["-", "1,1", "1,1", "1,1", "?", "1,1", "1,1"],
    5:  ["1,1"] * 7,
    6:  ["1,1"] * 7,
    7:  ["-", "1,1", "?", "1,1", "?", "1,1", "1,1"],
    8:  ["-", "-", "?", "1,1", "?", "1,1", "1,1"],
    9:  ["-", "1,1", "1,1", "1,1", "?", "1,1", "1,1"],
    10: ["-", "2,1", "2,1", "2,1", "?", "2,1", "2,1"],
    11: ["-", "?", "?", "?", "?", "2,1", "?"],
    12: ["-", "-", "-", "?", "?", "3,2", "3,2"],
    13: ["-", "-", "?", "?", "?", "3,2", "?"],
    14: ["-", "-", "?", "?", "?", "3,2", "3,2"],
}


def table_from(rows, n, q, k, d, modulus=None):
    field = GF(q, modulus)
    gens = tuple(PauliString.from_tokens(field, r.split()) for r in rows)
    return GeneratorTable(field, n, gens, CodeParams(n, k, d, q))


def verified(table):
    require_stabilizer(table)
    assert compute_distance(table, table.claimed.d) == table.claimed.d
    return table


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    entries = []

    def add(eid, table, source, note=None):
        verified(table)
        stabtab.write_file(table, OUT / f"{eid}.stabtab")
        c = table.claimed
        entries.append((eid, f"{c.n} {c.k} {c.d} {c.q}", source, "exists",
                        f"{eid}.stabtab", note))

    # printed qubit figures
    add("ame_2_2", table_from(["z1 z1", "x1 x1"], 2, 2, 0, 2), "paper-figure")
    add("ame_3_2", table_from(["i z1 z1", "z1 i z1", "x1 x1 x1"], 3, 2, 0, 2),
        "paper-figure")
    add("ame_6_2", table_from([
        "i i z1 x1 z1 z1",
        "i i x1 z1 x1z1 x1z1",
        "i z1 i z1 x1 z1",
        "i x1 i x1z1 z1 x1z1",
        "z1 i i z1 z1 x1",
        "x1 i i x1z1 x1z1 z1"], 6, 2, 0, 4), "paper-figure")
    add("code_5_1_3_2", table_from([
        "i z1 x1 z1 z1",
        "i x1 z1 x1z1 x1z1",
        "z1 i z1 x1 z1",
        "x1 i x1z1 z1 x1z1"], 5, 2, 1, 3), "paper-figure")
    add("code_4_2_2_2", table_from(
        ["z1 x1 z1 z1", "x1 z1 x1z1 x1z1"], 4, 2, 2, 2), "paper-figure")

    # the printed five-qubit figure is not a distance-3 table (its rows 4,5
    # multiply to the weight-2 element y x on sites 1,4), and its printed
    # child has a weight-1 logical x on site 3: the notes below say so
    printed52 = table_from([
        "i i x1 x1 x1",
        "i z1 z1 i z1",
        "i x1 z1 i x1z1",
        "z1 i z1 z1 i",
        "x1 i z1 x1z1 i"], 5, 2, 0, 3)
    printed412 = table_from(["i x1 x1 x1", "z1 z1 i z1", "x1 z1 i x1z1"], 4, 2, 1, 2)
    for printed in (printed52, printed412):
        require_stabilizer(printed)
    w, err = find_min_undetectable(printed52, 3)
    rows = printed52.symplectic_matrix()
    g4g5 = sites_from_matrix(printed52.field, (rows[3] + rows[4]) % 2, 5)[0]
    assert (w, err.sites) == (2, g4g5), \
        "the printed AME(5,2) figure's first weight-2 element is not g4*g5"
    w, err = find_min_undetectable(printed412, 2)
    assert (w, err.sites) == (1, ((0, 0), (0, 0), (1, 0), (0, 0))), \
        "the printed [[4,1,2]]_2 child has no weight-1 logical x on site 3"
    # derived AME(5,2): canonicalize the textbook five-qubit state instead
    perfect = table_from([
        "x1 z1 z1 x1 i",
        "i x1 z1 z1 x1",
        "x1 i x1 z1 z1",
        "z1 x1 i x1 z1",
        "z1 z1 z1 z1 z1"], 5, 2, 0, 3)
    ame52 = to_reduction_friendly(perfect).table
    add("ame_5_2", ame52, "derived",
        "canonicalized five-qubit perfect-code state; the printed figure fails "
        "distance (g4*g5 has weight 2), see the verification suite")
    fam52 = derive_family(ame52)
    add("code_4_1_2_2", fam52[1][1], "derived",
        "child of ame_5_2; the printed child inherits the figure defect "
        "(weight-1 logical x on site 3) and is pinned by a regression test")

    # derived AME(4,3): stabilizers of (1/3) sum |i,j,i+j,i+2j>; the dense
    # oracle's expansion of their reduction-friendly form is that state
    raw43 = table_from(
        ["x1 i x1 x1", "i x1 x1 x2", "z2 z2 z1 i", "z2 z1 i z1"], 4, 3, 0, 3)
    ame43 = to_reduction_friendly(raw43).table
    explicit = np.zeros(81, dtype=complex)
    for i in range(3):
        for j in range(3):
            explicit[((i * 3 + j) * 3 + (i + j) % 3) * 3 + (i + 2 * j) % 3] = 1 / 3
    overlap = np.vdot(explicit, expand_stabilizer(ame43).words[0].amplitudes)
    assert abs(abs(overlap) - 1) < 1e-9, "ame_4_3 does not stabilize the explicit state"
    add("ame_4_3", ame43, "derived",
        "dense-oracle stabilizers of the AME(4,3) superposition state, "
        "canonicalized; verified to stabilize the explicit amplitudes")
    child43 = derive_family(ame43)[1][1]
    # its code space is spanned by the projections <i|_0 |AME(4,3)>: two
    # orthonormal triples span one space when their overlaps are unitary
    words = expand_stabilizer(child43).words
    projections = ame_projection_codewords(StateVector(GF(3), 4, explicit), 1).words
    overlaps = [[np.vdot(a.amplitudes, b.amplitudes) for b in words] for a in projections]
    assert np.allclose(np.linalg.svd(overlaps, compute_uv=False), 1, atol=1e-9), \
        "code_3_1_2_3 does not span the projection codewords"
    add("code_3_1_2_3", child43, "derived",
        "child of ame_4_3; code space equals the span of the projection codewords")

    # printed GF(9) figure, re-verified under the pinned modulus x^2+x+2
    code5139 = table_from([
        "i z1 x1z5 z5 x5z1",
        "i z2 x2z6 z6 x6z2",
        "i x1 z1 x5 z5",
        "i x2 z2 x6 z6",
        "z1 i z5 x1z5 x5z1",
        "z2 i z6 x2z6 x6z2",
        "x1 i x5 z1 z5",
        "x2 i x6 z2 z6"], 5, 9, 1, 3, modulus=(1, 1, 2))
    add("code_5_1_3_9", code5139, "paper-figure",
        "verified under the pinned GF(9) modulus 1,1,2")
    fam9 = derive_family(code5139)
    add("code_4_2_2_9", fam9[1][1], "derived",
        "parent-consistent child of code_5_1_3_9; the printed child's row g2 "
        "site 2 (x2z2) fails commutation and is a typo for x2z6")

    # existence grid from the source reference table
    grid_lines = []
    for n in sorted(SOURCE_GRID):
        for qi, cell in enumerate(SOURCE_GRID[n]):
            q = 2 + qi
            marker = {"-": "not-exists", "?": "unknown"}.get(cell, "exists")
            grid_lines.append((f"grid_{n}_{q}", f"{n} {q}", marker))

    lines = ["# amecodes catalog index v1",
             "# entries: params = n k d q (tables) or n q (grid cells)"]
    for eid, params, source, existence, fname, note in entries:
        lines += ["", f"[{eid}]", f"params = {params}", f"source = {source}",
                  f"existence = {existence}", f"file = {fname}"]
        if note:
            lines.append(f"note = {note}")
    for eid, params, marker in grid_lines:
        lines += ["", f"[{eid}]", f"params = {params}", f"existence = {marker}"]
    (OUT / "index.toml").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(entries)} tables + {len(grid_lines)} grid cells to {OUT}")


if __name__ == "__main__":
    main()
