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
are visited in the lexicographic order of :func:`~amecodes.pauli.enumerate_errors`.
A syndrome is the vector of commutation exponents against the N
generators, summed over an error's sites.  For p = 2 (q = 2, 4, 8) it is
a bit vector, packed by :func:`~amecodes.linalg.pack_bits` into
ceil(N / 64) ``uint64`` words, and syndromes add by XOR (the tableau
packing of Aaronson and Gottesman, PRA 70, 052328 (2004)); for p > 2 they
are Z_p vectors added as integers and reduced mod p.  A weight class
whose subsets each hold at most ``_BLOCK_ROWS`` errors is scanned in
chunks of as many consecutive subsets as fill ``_BLOCK_ROWS`` rows, their
syndrome sums built by broadcasting; zero rows are taken in (subset, flat
row) order, so the first one that counts is the first witness.  A larger
class is screened: each subset A is decided by the Z_p kernel of the
syndrome map restricted to it (``site_map[A]``, 2m|A| rows, N columns).
Lighter classes are clear by then, so every error inside A that counts
lies in that kernel with full support on A, and A holds one exactly when
the kernel is nonzero (k = 0) or not inside the stabilizer group (k > 0).
The kernel of the first such subset is read off a nullspace basis, at
most ``_BLOCK_ROWS`` combinations at a time; the witness is the first
element in flat order that counts, the one the unscreened scan finds.
For k > 0, vectors lie in the group exactly when M, the table matrix,
keeps its rank with them appended; M's rows need not be independent.
Commuting or not, a table gets the same result at every block size.  The
budget counts brute-force commutation tests per class, screened or not,
charged before the class starts.
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
from .pauli import PauliString, error_count, sites_from_matrix

DEFAULT_DISTANCE_BUDGET = 10**9
# errors, or kernel combinations, a distance scan holds at once; classes
# whose subsets each hold more are screened (see the module docstring)
_BLOCK_ROWS = 2**12

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
    if gap == 1 and (params.n - params.k) % 2 == 1:
        return SUBOPTIMAL_QMDS
    return BELOW_BOUND


@dataclass(frozen=True)
class GeneratorTable:
    """An ordered generator list claiming to define an [[n,k,d]]_q code.

    The expected generator count is m*(n-k) (m = 1 for prime q); k is
    recovered from the count.  ``claimed`` carries the parameters stated
    by the source, if any.  The rows' Z_p symplectic matrix is built once,
    here, and is what every kernel reads; the strings keep text and phases.
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
        """The table whose rows are the Z_p vectors of ``mat``, as phase-0 strings."""
        gens = tuple(PauliString(field, sites) for sites in sites_from_matrix(field, mat, n))
        return cls(field, n, gens, claimed)

    @property
    def k(self) -> int:
        return self.n - len(self.gens) // self.field.m

    def symplectic_matrix(self) -> np.ndarray:
        """Read-only N x 2mn matrix over Z_p, one generator per row (phases
        dropped), per-site blocks [x coeffs | z coeffs]."""
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
    decided by the kernel of its syndrome map.  For k > 0 degenerate errors
    are found by rank; commuting or not, the result does not depend on
    ``_BLOCK_ROWS``.
    """
    require_budget(budget)
    f = table.field
    p, m, n, q = f.p, f.m, table.n, f.q
    n_pairs = q * q - 1
    n_gens = len(table.gens)
    # Z_p blocks of the nonzero site pairs (a, b), in enumerate_errors order,
    # and the syndrome of each on each site: site_syn[s, pair, generator]
    pairs = [(a, b) for a in range(q) for b in range(q) if a or b]
    pair_vecs = f.coeff_matrix[np.array(pairs)].reshape(n_pairs, 2 * m)
    site_map = _commutation_map(table).reshape(n, 2 * m, n_gens)
    site_syn = (pair_vecs @ site_map) % p
    if p == 2:
        # bit vectors: one XOR per 64 generators adds two syndromes
        syn, add = linalg.pack_bits(site_syn), np.bitwise_xor
    else:
        syn, add = site_syn, np.add
    mat, k = table.symplectic_matrix(), table.k
    group_rank = linalg.rank(mat, p) if k else 0  # log_p of the group's order

    def spread(sites, vecs):
        """Z_p rows on ``sites`` as rows over all n sites, zero elsewhere."""
        full = np.zeros((len(vecs), n, 2 * m), dtype=np.int64)
        full[:, list(sites)] = vecs.reshape(len(vecs), len(sites), 2 * m)
        return full.reshape(len(vecs), -1)

    def degenerate(sites, vecs) -> bool:
        """Every row of ``vecs`` (on ``sites``) lies in the stabilizer group:
        M with them appended keeps the group's rank."""
        return linalg.rank(np.vstack([mat, spread(sites, vecs)]), p) == group_rank

    def undetectable(sites, digits):
        """The zero-syndrome error of pair digits ``digits`` on ``sites``, if it
        counts: always for k = 0, outside the stabilizer group for k > 0."""
        vec = pair_vecs[np.asarray(digits)].reshape(1, -1)
        if k > 0 and degenerate(sites, vec):
            return None  # a stabilizer element: degenerate, not a logical
        return PauliString.from_symplectic(f, spread(sites, vec)[0], n)

    def kernel_witness(sites, basis):
        """First undetectable error, in flat order, with full support on
        ``sites``, in the span of ``basis``: the kernel of the syndrome map
        restricted there."""
        n_combos, powers = p ** len(basis), p ** np.arange(len(basis))
        best = (n_pairs,) * len(sites), None  # (digits, error), digits past every row
        for start in range(0, n_combos, _BLOCK_ROWS):
            combos = np.arange(start, min(start + _BLOCK_ROWS, n_combos))
            vecs = ((combos[:, None] // powers % p) @ basis) % p
            ab = f.index_of_coeffs(vecs.reshape(len(combos), len(sites), 2, m))
            digits = ab[..., 0] * q + ab[..., 1] - 1  # (a, b)'s index in pairs
            digits = digits[(digits >= 0).all(axis=1)]  # full support
            for row in map(tuple, digits[np.lexsort(digits.T[::-1])]):
                if row >= best[0]:
                    break
                hit = undetectable(sites, row)
                if hit is not None:
                    best = row, hit
                    break
        return best[1]

    width = syn.shape[-1]
    tests_done = 0
    for w in range(1, min(d_max, n) + 1):
        tests_done += error_count(f, n, w) * n_gens
        if tests_done > budget:
            raise ResourceBudgetError(
                f"distance scan at weight {w} needs {tests_done} commutation tests "
                f"(budget {budget})"
            )
        subsets = itertools.combinations(range(n), w)
        if n_pairs**w > _BLOCK_ROWS:
            for sites in subsets:
                basis = linalg.nullspace(site_map[list(sites)].reshape(-1, n_gens).T, p)
                if len(basis) and (k == 0 or not degenerate(sites, basis)):
                    return w, kernel_witness(sites, basis)
            continue
        # as many consecutive subsets as fill a block
        per_chunk = _BLOCK_ROWS // n_pairs**w
        for chunk in iter(lambda: list(itertools.islice(subsets, per_chunk)), []):
            sites = np.array(chunk)
            block = syn[sites[:, 0]]
            for s in sites[:, 1:].T:
                block = add(block[:, :, None], syn[s][:, None]).reshape(len(chunk), -1, width)
            zero = ~(block if p == 2 else block % p).any(axis=-1)
            for i, row in zip(*np.nonzero(zero)):
                hit = undetectable(chunk[i], np.unravel_index(row, (n_pairs,) * w))
                if hit is not None:
                    return w, hit
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
