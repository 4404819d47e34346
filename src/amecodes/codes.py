"""Generator tables, code verification, brute-force distance, entropies.

A code is described by an ordered list of Pauli strings claimed to
generate its stabilizer group.  Verification covers the three generator
conditions: independence (symplectic rank over Z_p), mutual commutation,
and distance (a scan over weighted errors).  Distance semantics:

* k = 0: the distance is the smallest weight of a nonzero element of
  the projective stabilizer group itself, i.e. of any error commuting
  with every generator;
* k > 0: errors inside the projective group are degenerate and do not
  count; the distance is the smallest weight of an error commuting with
  every generator that lies outside the group (a nontrivial logical).

Scans partition cleanly by weight class and are deterministic: errors
are visited in the error order stated in :mod:`amecodes.pauli`.
A syndrome is the vector of commutation exponents against the N
generators, summed over an error's sites.  For p = 2 (q = 2, 4, 8) it is
a bit vector, packed by :func:`~amecodes.linalg.pack_bits` into
ceil(N / 64) ``uint64`` words, and syndromes add by XOR (the tableau
packing of Aaronson and Gottesman, PRA 70, 052328 (2004)); for p > 2 they
are Z_p vectors added as integers and reduced mod p.  A weight-w class
whose subsets each hold at most 4 * ``_BLOCK_ROWS`` errors is scanned in
chunks of as many consecutive subsets as fill that many errors, by a
join: an error has zero syndrome exactly when the sum over its leading
ceil(w/2) sites (the head) is minus the sum over its trailing floor(w/2)
(the tail).  A chunk builds (q^2-1)^ceil(w/2) head rows and
(q^2-1)^floor(w/2) negated tail rows per subset, not (q^2-1)^w whole
syndromes, keys each row by a linear hash into one ``uint64``, and
matches keys in one broadcast comparison of shape (subsets, head rows,
tail rows), a byte an error.  An error's flat row is its head index times
the tail rows plus its tail index, so matches come in (subset, flat row)
order; each is compared exactly, which drops hash collisions, and the
first that counts is the first witness.  A larger class is screened,
where one kernel a subset costs less than a join: each subset A is
decided by the Z_p kernel of the syndrome map restricted to it
(``site_map[A]``, 2m|A| rows, N columns).  Lighter classes are clear
by then, so every error inside A that counts lies in that kernel with
full support on A, and A holds one exactly when some row of the
kernel's nullspace basis counts.  The kernel of the
first such subset is read off that basis, at most ``_BLOCK_ROWS``
combinations at a time; the witness is the least full-support element
that counts, the one the unscreened scan finds.  For k > 0 an error
counts when it lies outside the group, the row span of M, the table
matrix; dependent or not, that span is exactly the vectors orthogonal to
ker M, so one mask against ker M (split per site, computed once per
scan) decides whole arrays of errors.  Commuting or not, a table gets
the same result at every block size.  The budget counts brute-force
commutation tests per class, screened or not, charged before the class
starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import linalg
from .errors import DomainError, ResourceBudgetError
from .fields import Field
from .pauli import PauliString, error_count, error_on, sites_from_matrix

DEFAULT_DISTANCE_BUDGET = 10**9
# kernel combinations a distance scan holds at once; a join holds four
# times as many errors, and classes whose subsets each hold more are
# screened (see the module docstring)
_BLOCK_ROWS = 2**12
# the key hash's base, odd so that a one-word key is a bijection of the
# word (Knuth's multiplicative constant, 2**64 over the golden ratio)
_KEY_BASE = 0x9E3779B97F4A7C15

QMDS = "QMDS"
SUBOPTIMAL_QMDS = "suboptimal-QMDS"
BELOW_BOUND = "below-bound"


@dataclass(frozen=True)
class CodeParams:
    """The tuple [[n, k, d]]_q, validated against the quantum Singleton bound."""

    n: int
    k: int
    d: int
    q: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.q < 2:
            raise DomainError(f"q must be >= 2, got {self.q}")
        if not 0 <= self.k <= self.n:
            raise DomainError(f"k must lie in [0, n], got k={self.k}, n={self.n}")
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if self.n - self.k < 2 * (self.d - 1):
            raise DomainError(
                f"[[{self.n},{self.k},{self.d}]]_{self.q} violates the quantum "
                f"Singleton bound n-k >= 2(d-1)"
            )

    def label(self) -> str:
        return f"[[{self.n},{self.k},{self.d}]]_{self.q}"


def classify_singleton(params: CodeParams) -> str:
    """QMDS / suboptimal-QMDS / below-bound per the Singleton-bound gap.

    QMDS codes meet n-k = 2(d-1) exactly; when n and k have different
    parity the bound cannot be met and the best possible gap is one,
    which classifies as suboptimal-QMDS.
    """
    gap = params.n - params.k - 2 * (params.d - 1)
    if gap == 0:
        return QMDS
    if gap == 1:
        return SUBOPTIMAL_QMDS
    return BELOW_BOUND


@dataclass(frozen=True)
class GeneratorTable:
    """An ordered generator list claiming to define an [[n,k,d]]_q code.

    The expected generator count is m*(n-k) (m = 1 for prime q); k is
    recovered from the count.  ``claimed`` carries the parameters stated
    by the source, if any.  The rows' Z_p symplectic matrix is built once,
    here, and is what every kernel reads; the strings keep the text form.
    """

    field: Field
    n: int
    gens: tuple[PauliString, ...]
    claimed: CodeParams | None = None

    def __post_init__(self):
        for g in self.gens:
            if g.field != self.field or g.n != self.n:
                raise DomainError("all generators must share the table's field and length")
        m = self.field.m
        if len(self.gens) % m or not 0 < len(self.gens) <= m * self.n:
            raise DomainError(
                f"generator count {len(self.gens)} is not m*(n-k) for m={m}, n={self.n}"
            )
        if self.claimed is not None:
            expect = m * (self.n - self.claimed.k)
            if len(self.gens) != expect:
                raise DomainError(
                    f"{self.claimed.label()} needs {expect} generators, got {len(self.gens)}"
                )
        pairs = np.array([g.sites for g in self.gens], dtype=np.int64)
        mat = self.field.coeff_matrix[pairs].reshape(len(self.gens), 2 * m * self.n)
        mat.flags.writeable = False
        object.__setattr__(self, "_matrix", mat)  # not a field: eq/hash/repr unchanged

    @classmethod
    def from_matrix(
        cls, field: Field, n: int, mat, claimed: CodeParams | None = None
    ) -> "GeneratorTable":
        """The table whose rows are the Z_p vectors of ``mat``."""
        gens = tuple(PauliString(field, sites) for sites in sites_from_matrix(field, mat, n))
        return cls(field, n, gens, claimed)

    @property
    def k(self) -> int:
        return self.n - len(self.gens) // self.field.m

    def symplectic_matrix(self) -> np.ndarray:
        """Read-only N x 2mn matrix over Z_p, one generator per row,
        per-site blocks [x coeffs | z coeffs]."""
        return self._matrix

    def relabel(self, claimed: CodeParams | None) -> "GeneratorTable":
        return GeneratorTable(self.field, self.n, self.gens, claimed)


def _commutation_map(table: GeneratorTable) -> np.ndarray:
    """Omega M^T mod p: the commutation exponent s of E against g_j, with
    E g_j = omega**s g_j E, is E's Z_p row @ column j.

    Omega is the trace-symplectic form (Ketkar, Klappenecker, Kumar,
    Sarvepalli, IEEE TIT 2006, quant-ph/0508070): over the sites,
    tr(b*c - a*d) for E = (a, b) and g_j = (c, d).  With G = field.gram,
    column j holds -G z_j on each site's x coordinates and G x_j on its z
    coordinates, where (x_j, z_j) are g_j's coefficient vectors there.
    """
    f = table.field
    cols = table.symplectic_matrix().T.reshape(table.n, 2, f.m, -1)  # site, x|z, coeff, g_j
    omega_mt = np.concatenate([-f.gram @ cols[:, 1], f.gram @ cols[:, 0]], axis=1)
    return omega_mt.reshape(-1, cols.shape[-1]) % f.p


def check_commutation(table: GeneratorTable) -> tuple[int, int] | None:
    """None when all generator pairs commute, else the first failing pair
    as 0-based row indices (row-major in the strict upper triangle)."""
    phases = (table.symplectic_matrix() @ _commutation_map(table)) % table.field.p
    failing = np.argwhere(np.triu(phases, 1))
    return (int(failing[0, 0]), int(failing[0, 1])) if len(failing) else None


def check_independence(table: GeneratorTable) -> np.ndarray | None:
    """None when the generators are independent, else a dependency witness.

    The witness is a nonzero coefficient vector c over Z_p with
    sum_i c_i * row_i = 0 in the symplectic representation.
    """
    mat = table.symplectic_matrix()
    p = table.field.p
    if linalg.rank(mat, p) == len(table.gens):
        return None
    # left-kernel rows, i.e. row combinations; rank < N leaves one
    return linalg.nullspace(mat.T, p)[0]


def require_stabilizer(table: GeneratorTable) -> None:
    """DomainError unless the generators commute and are independent, naming g1, g2, ..."""
    pair = check_commutation(table)
    if pair is not None:
        raise DomainError(f"generators g{pair[0] + 1} and g{pair[1] + 1} do not commute")
    if check_independence(table) is not None:
        raise DomainError("generators are dependent")


# -- distance ----------------------------------------------------------------


def require_budget(budget: int) -> None:
    """DomainError unless the distance budget is at least 0."""
    if budget < 0:
        raise DomainError(f"budget must be at least 0, got {budget}")


def find_min_undetectable(
    table: GeneratorTable, d_max: int, budget: int = DEFAULT_DISTANCE_BUDGET
) -> tuple[int, PauliString] | None:
    """First (by weight, then lexicographic order) undetectable error.

    Returns (weight, error) or None when nothing undetectable exists at
    weight <= d_max.  Raises DomainError for a negative budget, and
    ResourceBudgetError before a weight class that would push the
    commutation-test count past it.  A subset of a screened class is
    decided by the kernel of its syndrome map.  For k > 0 errors in the
    group do not count (see the module docstring); commuting or not, the
    result depends neither on ``_BLOCK_ROWS`` nor on the key hash.
    """
    require_budget(budget)
    f = table.field
    p, m, n, q = f.p, f.m, table.n, f.q
    n_pairs = q * q - 1
    n_gens = len(table.gens)
    # Z_p blocks of the nonzero site pairs (a, b), digit t = a*q + b - 1 as in
    # pauli's error order, and the syndrome of each on each site: site_syn[s, t, generator]
    pairs = [(a, b) for a in range(q) for b in range(q) if a or b]
    pair_vecs = f.coeff_matrix[np.array(pairs)].reshape(n_pairs, 2 * m)
    site_map = _commutation_map(table).reshape(n, 2 * m, n_gens)
    site_syn = (pair_vecs @ site_map) % p
    # the same as uint64 rows, and their negatives: for p = 2 packed bit
    # vectors added by XOR (-s = s), for p > 2 Z_p vectors added as integers
    if p == 2:
        syn = neg_syn = linalg.pack_bits(site_syn)
        add = np.bitwise_xor
    else:
        syn, neg_syn, add = site_syn.astype(np.uint64), (-site_syn % p).astype(np.uint64), np.add
    width = syn.shape[-1]
    # a row's key is sum_j row_j * _KEY_BASE**(j + 1) mod 2**64 (wrapping array products)
    mult = np.cumprod(np.full(width, _KEY_BASE, dtype=np.uint64))

    # for k > 0, ker M split per site like site_map: ker[s, coordinate, basis vector]
    ker = linalg.nullspace(table.symplectic_matrix(), p).T.reshape(n, 2 * m, -1) if table.k else None

    def counts(sites, vecs):
        """Which of the errors ``vecs`` (rows, w, 2m Z_p blocks) on ``sites``
        (w, or one row of w per error) count."""
        if ker is None:
            return np.ones(len(vecs), dtype=bool)
        return (np.einsum("...sc,...scj->...j", vecs, ker[sites]) % p).any(axis=-1)

    def reduced_sums(site_rows, sites):
        """The reduced sums of ``site_rows`` (syn or neg_syn) over every
        error on ``sites`` (one row of sites per subset), in flat order:
        (subsets, n_pairs**len(row), width), one zero row each for no sites."""
        if not sites.shape[1]:
            return np.zeros((len(sites), 1, width), dtype=np.uint64)
        block = site_rows[sites[:, 0]]
        for s in sites[:, 1:].T:
            block = add(block[:, :, None], site_rows[s][:, None]).reshape(len(sites), -1, width)
        return block if p == 2 else block % p

    def kernel_witness(sites, basis):
        """First undetectable error, in flat order, with full support on
        ``sites``, in the span of ``basis``: the kernel of the syndrome map
        restricted there."""
        n_combos, powers = p ** len(basis), p ** np.arange(len(basis))
        best = np.empty((0, len(sites)), dtype=np.int64)  # the least digits so far, if any
        for start in range(0, n_combos, _BLOCK_ROWS):
            combos = np.arange(start, min(start + _BLOCK_ROWS, n_combos))
            vecs = ((combos[:, None] // powers % p) @ basis % p).reshape(len(combos), -1, 2 * m)
            ab = f.index_of_coeffs(vecs.reshape(len(combos), -1, 2, m))
            digits = ab[..., 0] * q + ab[..., 1] - 1  # (a, b)'s index in pairs
            rows = np.vstack([best, digits[(digits >= 0).all(axis=1) & counts(sites, vecs)]])
            best = rows[np.lexsort(rows.T[::-1])[:1]]  # digits, not flat indices: q**2w overflows
        return error_on(f, n, sites, best[0])

    tests_done = 0
    for w in range(1, min(d_max, n) + 1):
        tests_done += error_count(f, n, w) * n_gens
        if tests_done > budget:
            raise ResourceBudgetError(
                f"distance scan at weight {w} needs {tests_done} commutation tests "
                f"(budget {budget})"
            )
        subsets = itertools.combinations(range(n), w)
        # a chunk joins as many consecutive subsets as fill 4 * _BLOCK_ROWS
        # errors (its key match takes a byte an error); a class whose
        # subsets each hold more is screened
        per_chunk, head = 4 * _BLOCK_ROWS // n_pairs**w, (w + 1) // 2
        if not per_chunk:
            for sites in map(list, subsets):
                basis = linalg.nullspace(site_map[sites].reshape(-1, n_gens).T, p)
                if len(basis) and counts(sites, basis.reshape(-1, w, 2 * m)).any():
                    return w, kernel_witness(sites, basis)
            continue
        for chunk in iter(lambda: list(itertools.islice(subsets, per_chunk)), []):
            sites = np.fromiter(itertools.chain.from_iterable(chunk), np.int64).reshape(-1, w)
            # zero syndrome: the head's sum is minus the tail's; keys match
            # in (subset, head row, tail row) = (subset, flat row) order
            heads, tails = reduced_sums(syn, sites[:, :head]), reduced_sums(neg_syn, sites[:, head:])
            match = np.flatnonzero((heads @ mult)[:, :, None] == (tails @ mult)[:, None])
            if len(match):
                i, flat = np.divmod(match, n_pairs**w)
                h, t = np.divmod(flat, tails.shape[1])
                exact = (heads[i, h] == tails[i, t]).all(axis=-1)  # not a key collision
                i, flat = i[exact], flat[exact]
                digits = np.stack(np.unravel_index(flat, (n_pairs,) * w), axis=1)
                hit = counts(sites[i], pair_vecs[digits])
                if hit.any():
                    j = hit.argmax()
                    return w, error_on(f, n, chunk[i[j]], digits[j])
    return None


def compute_distance(
    table: GeneratorTable, d_max: int, budget: int = DEFAULT_DISTANCE_BUDGET
) -> int | None:
    """Brute-force code distance, or None when it exceeds d_max.

    Deterministic regardless of how the scan is partitioned: each
    screened subset is decided by its own kernel.
    """
    hit = find_min_undetectable(table, d_max, budget)
    return hit[0] if hit else None


# -- subsystem entropies and the AME check -------------------------------------


def subsystem_entropy(table: GeneratorTable, sites: Iterable[int]) -> float:
    """Entropy (bits) of the reduced state of a stabilizer state on ``sites``.

    Only meaningful for k = 0 tables.  Computed from symplectic rank:
    with S_A the projective stabilizer elements supported inside the
    subset, S = (|A| - log_q |S_A|) * log2(q).  Scales to n = 14, no
    dense vectors involved.
    """
    if table.k != 0:
        raise DomainError("subsystem entropy is defined for k = 0 tables only")
    subset = sorted(set(sites))
    if not subset:
        raise DomainError("subset must be nonempty")
    if not all(0 <= s < table.n for s in subset):
        raise DomainError(f"sites out of range for n={table.n}")
    f = table.field
    outside = np.ones(table.n, dtype=bool)
    outside[subset] = False
    # log_p |S_A|: N minus the rank of the matrix on the columns outside A
    dim_inside = len(table.gens) - linalg.rank(
        table.symplectic_matrix()[:, np.repeat(outside, 2 * f.m)], f.p)
    return (len(subset) - dim_inside / f.m) * math.log2(f.q)


def is_ame(table: GeneratorTable, budget: int = DEFAULT_DISTANCE_BUDGET) -> bool:
    """True when the k = 0 table has distance floor(n/2) + 1.

    Cross-checkable against subsystem_entropy over balanced subsets.
    """
    if table.k != 0:
        raise DomainError("the AME check applies to k = 0 tables")
    target = table.n // 2 + 1
    return compute_distance(table, target, budget) == target
