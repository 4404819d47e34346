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
are Z_p vectors added as integers and reduced mod p.  Every weight class
is scanned by one block loop.  Its trailing sites are the most whose
product holds at most ``_BLOCK_ROWS`` errors; their syndrome sums are
built by broadcasting, and each tuple of digits on the leading sites
adds its syndrome to them to make one block, so blocks follow the flat
order.  Without leading sites a chunk is as many consecutive subsets of
the lexicographic order as fill ``_BLOCK_ROWS`` rows; zero rows are taken
in (subset, flat row) order, so the first one that counts is the first
witness.  With leading sites a chunk is one subset that passes a rank
screen (Scott, PRA 69, 052330 (2004)): with M the table matrix, N its row
count, Omega the trace form and r_out the rank of M on the columns
outside a subset A, A supports an undetectable error when N - r_out > 0
(k = 0) or 2m|A| - rank((M Omega) on A's columns) > N - r_out (k > 0).
The first passing subset is scanned up to its first undetectable error.
Lighter classes are clear by then, so that error has full support on A,
and the witness is the one the unscreened scan finds.  For k > 0 a
zero-syndrome error e is degenerate, a group element, exactly when M with
e appended still has rank N.  The budget counts brute-force commutation
tests per class, screened or not, charged before the class starts.
"""

from __future__ import annotations

import functools
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
# errors a distance scan holds at once; weight classes whose subsets each
# hold more are rank-screened (see the module docstring)
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


@functools.lru_cache(maxsize=None)
def _trace_form(field: Field, n: int) -> np.ndarray:
    """Omega = I_n (x) [[0, -G], [G, 0]] mod p, with G = field.gram.

    For Z_p rows u, v of strings E, F, u @ Omega @ v = sum over sites of
    tr(b*c - a*d) = E.commutation_exp(F) mod p (the trace-symplectic form
    of Ketkar, Klappenecker, Kumar, Sarvepalli, IEEE TIT 2006,
    quant-ph/0508070).  Cached per (field, n), hence read-only.
    """
    m = field.m
    site = np.zeros((2 * m, 2 * m), dtype=np.int64)
    site[:m, m:] = -field.gram
    site[m:, :m] = field.gram
    omega = np.kron(np.eye(n, dtype=np.int64), site) % field.p
    omega.flags.writeable = False
    return omega


def _commutation_map(table: GeneratorTable) -> np.ndarray:
    """Omega @ M^T mod p: commutation_exp(E, g_j) = E's Z_p row @ column j."""
    return (_trace_form(table.field, table.n) @ table.symplectic_matrix().T) % table.field.p


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
    kernel = linalg.nullspace(mat.T, p)
    # nullspace of the transpose gives left-kernel rows, i.e. row combinations
    return kernel[0] if len(kernel) else None


def require_stabilizer(table: GeneratorTable) -> None:
    """DomainError unless the generators commute and are independent, naming g1, g2, ..."""
    pair = check_commutation(table)
    if pair is not None:
        raise DomainError(f"generators g{pair[0] + 1} and g{pair[1] + 1} do not commute")
    if check_independence(table) is not None:
        raise DomainError("generators are dependent")


# -- distance ----------------------------------------------------------------


def _outside_rank(table: GeneratorTable, sites: Iterable[int]) -> int:
    """Rank of the table matrix restricted to the columns of the sites not
    in ``sites``; N minus it is log_p of the group elements inside them."""
    outside = np.ones(table.n, dtype=bool)
    outside[list(sites)] = False
    return linalg.rank(
        table.symplectic_matrix()[:, np.repeat(outside, 2 * table.field.m)], table.field.p
    )


def find_min_undetectable(
    table: GeneratorTable, d_max: int, budget: int = DEFAULT_DISTANCE_BUDGET
) -> tuple[int, PauliString] | None:
    """First (by weight, then lexicographic order) undetectable error.

    Returns (weight, error) or None when nothing undetectable exists at
    weight <= d_max.  Raises ResourceBudgetError before starting a
    weight class that would push the commutation-test count past the
    budget.  Requires a table that already passes check_commutation and
    check_independence: the rank screen assumes both.
    """
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

    def undetectable(sites, row):
        """The error of flat row ``row`` of ``sites``, a zero-syndrome row, if
        it counts: always for k = 0, outside the stabilizer group for k > 0."""
        combo = np.unravel_index(row, (n_pairs,) * len(sites))
        err_vec = np.zeros((n, 2 * m), dtype=np.int64)
        err_vec[list(sites)] = pair_vecs[list(combo)]
        err_vec = err_vec.reshape(-1)
        if k > 0 and linalg.rank(np.vstack([mat, err_vec]), p) == n_gens:
            return None  # a stabilizer element: degenerate, not a logical
        return PauliString.from_symplectic(f, err_vec, n)

    def is_zero(block):
        return ~(block if p == 2 else block % p).any(axis=-1)

    def supports_undetectable(sites) -> bool:
        """Rank screen: some undetectable error is supported inside ``sites``."""
        in_group = n_gens - _outside_rank(table, sites)  # log_p |S_A|
        if k == 0:
            return in_group > 0
        commuting = 2 * m * len(sites) - linalg.rank(site_map[list(sites)].reshape(-1, n_gens), p)
        return commuting > in_group

    width = syn.shape[-1]
    tests_done = 0
    for w in range(1, min(d_max, n) + 1):
        tests_done += error_count(f, n, w) * n_gens
        if tests_done > budget:
            raise ResourceBudgetError(
                f"distance scan at weight {w} needs {tests_done} commutation tests "
                f"(budget {budget})"
            )
        # trailing sites whose product fits in one block; each tuple of
        # leading digits is one block, so blocks follow the flat order
        tail_w = w
        while n_pairs**tail_w > _BLOCK_ROWS:
            tail_w -= 1
        lead_w, tail_rows = w - tail_w, n_pairs**tail_w
        subsets = itertools.combinations(range(n), w)
        if lead_w == 0:
            # as many consecutive subsets as fill a block
            per_chunk = _BLOCK_ROWS // tail_rows
            chunks = iter(lambda: list(itertools.islice(subsets, per_chunk)), [])
        else:
            # one screened subset; every lighter class is clear, so the
            # error inside it has full support there
            chunks = ([sites] for sites in subsets if supports_undetectable(sites))
        for chunk in chunks:
            sites = np.array(chunk)
            tail = syn[sites[:, lead_w]] if tail_w else np.zeros((1, 1, width), syn.dtype)
            for s in sites[:, lead_w + 1 :].T:
                tail = add(tail[:, :, None], syn[s][:, None]).reshape(len(chunk), -1, width)
            for b, digits in enumerate(itertools.product(range(n_pairs), repeat=lead_w)):
                block = add(tail, add.reduce(syn[sites[0, :lead_w], digits])) if lead_w else tail
                for i, row in zip(*np.nonzero(is_zero(block))):
                    hit = undetectable(chunk[i], b * tail_rows + row)
                    if hit is not None:
                        return w, hit
            if lead_w:
                raise DomainError(
                    f"rank screen passed sites {chunk[0]} but the scan found no error: "
                    "the table must pass check_commutation and check_independence"
                )
    return None


def compute_distance(
    table: GeneratorTable, d_max: int, budget: int = DEFAULT_DISTANCE_BUDGET
) -> int | None:
    """Brute-force code distance, or None when it exceeds d_max.

    Requires a table that already passes commutation and independence.
    Deterministic regardless of how the scan is partitioned.
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
    dim_inside = len(table.gens) - _outside_rank(table, subset)  # log_p |S_A|
    return (len(subset) - dim_inside / f.m) * math.log2(f.q)


def is_ame(table: GeneratorTable, budget: int = DEFAULT_DISTANCE_BUDGET) -> bool:
    """True when the k = 0 table has distance floor(n/2) + 1.

    Cross-checkable against subsystem_entropy over balanced subsets.
    """
    if table.k != 0:
        raise DomainError("the AME check applies to k = 0 tables")
    target = table.n // 2 + 1
    return compute_distance(table, target, budget) == target
