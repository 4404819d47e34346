"""Dense linear algebra over the prime field Z_p.

Matrices are numpy integer arrays with entries reduced mod p.  These
routines back independence checks, span comparisons, distance kernels
and the canonicalization row operations; p is always small (<= 61), so
plain Gaussian elimination is all that is needed, one per p.

Odd p: :func:`rref` eliminates column by column on the numpy matrix,
and :func:`rank` counts its pivots.  :func:`nullspace` reads the
:func:`rref` of either p.

p = 2: a row is a bit vector, so adding two rows is one XOR.
:func:`pack_bits` stores bit j of a row as bit j % 64 of word j // 64
(little-endian ``uint64``), the layout of the distance scan's syndromes.
The elimination packs each row into one Python integer (bit j = column
j) and makes one forward pass: each row is reduced by the basis rows
kept so far (XOR with a basis row whose pivot, its lowest set bit, the
row still holds), and joins the basis when a nonzero remainder is left.
:func:`rank` is the number of basis rows.  :func:`rref` sorts them by
pivot and clears each pivot bit from the other rows; basis rows have
distinct lowest bits, so these are the pivots of the reduced row echelon
form, which is unique.
"""

from __future__ import annotations

import numpy as np


def _as_matrix(mat, p: int) -> np.ndarray:
    return np.array(mat, dtype=np.int64) % p


def _z2_basis(a: np.ndarray) -> list[tuple[int, int]]:
    """The Z_2 forward pass of the module docstring: (pivot bit, row) of
    each basis row, in the order the rows joined."""
    basis: list[tuple[int, int]] = []
    for packed in np.packbits(a, axis=-1, bitorder="little"):
        row = int.from_bytes(packed.tobytes(), "little")
        for pivot, b in basis:
            if row & pivot:
                row ^= b
        if row:
            basis.append((row & -row, row))
    return basis


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.

    Returns (R, pivot_columns).  R has the same shape as the input;
    zero rows sink to the bottom.
    """
    a = _as_matrix(mat, p)
    rows, cols = a.shape
    if p == 2:
        red = [row for _, row in sorted(_z2_basis(a))]
        # a row holds no bit below its pivot, so only rows above hold it
        for j in range(len(red) - 1, 0, -1):
            pivot = red[j] & -red[j]
            for i in range(j):
                if red[i] & pivot:
                    red[i] ^= red[j]
        out = np.zeros((rows, cols), dtype=np.int64)
        if red:
            packed = b"".join(r.to_bytes(-(-cols // 8), "little") for r in red)
            bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")
            out[: len(red)] = bits.reshape(len(red), -1)[:, :cols]
        return out, [(r & -r).bit_length() - 1 for r in red]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def pack_bits(bits) -> np.ndarray:
    """0/1 vectors along the last axis as ceil(len / 64) little-endian
    ``uint64`` words each: bit j goes to bit j % 64 of word j // 64."""
    bits = np.asarray(bits)
    width = -(-bits.shape[-1] // 64) * 64
    padded = np.zeros(bits.shape[:-1] + (width,), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def rank(mat, p: int) -> int:
    if p == 2:
        return len(_z2_basis(_as_matrix(mat, p)))
    return len(rref(mat, p)[1])


def nullspace(mat, p: int) -> np.ndarray:
    """Basis of the right kernel mod p, one vector per row (may be empty)."""
    a = _as_matrix(mat, p)
    red, pivots = rref(a, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red[: len(pivots), free].T) % p
    return basis


def same_row_span(a, b, p: int) -> bool:
    """True when the two matrices generate identical row spaces mod p."""
    a = _as_matrix(a, p)
    b = _as_matrix(b, p)
    ra, rb = rank(a, p), rank(b, p)
    if ra != rb:
        return False
    return rank(np.vstack([a, b]), p) == ra
