"""Canonicalization into the reduction-friendly form and child-code extraction.

A reduction-friendly table carries a fixed staircase on its left block:
site j (1-based, j = 1..B) is held by a group of 2m adjacent rows near
the bottom, the Z-type rows Z_{alpha^k} above the X-type rows
X_{alpha^k}, and every other row shows the identity there.  With
B = min(floor(n/2), N/(2m)) for an N-generator table, row indices
(0-based) are

    Z_{alpha^k} on site j  ->  row  extra + 2m*(B - j) + k
    X_{alpha^k} on site j  ->  row  extra + 2m*(B - j) + m + k

where extra = N - 2m*B rows (present exactly when n is odd for a full
stabilizer table) sit at the top with all-identity left blocks.  A child
code follows by deleting the last 2m rows and the first column, turning
[[n,k,d]]_q into [[n-1,k+1,d-1]]_q; iterating yields the whole family.

Canonicalization performs only legal row operations (replacing a row by
a product of powers of rows with an invertible coefficient matrix, plus
permutations), so the generated projective group never changes.
The elimination is sequential per column by nature; canonicalize many
tables in parallel from the caller if needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import (DEFAULT_DISTANCE_BUDGET, CodeParams, GeneratorTable,
                    compute_distance, require_budget, require_stabilizer)
from .errors import DomainError, ReductionError

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class ReductionFriendlyForm:
    """A generator table whose left block carries the extraction staircase."""

    table: GeneratorTable
    block_width: int
    layout: str  # EVEN, or ODD when extra all-identity-left rows exist

    @property
    def extra_rows(self) -> int:
        return len(self.table.gens) - 2 * self.table.field.m * self.block_width

    def validate(self) -> None:
        """Check the left block bit-exactly against the staircase pattern."""
        t = self.table
        expected = _pattern_matrix(t.field.m, len(t.gens), self.block_width)
        actual = t.symplectic_matrix()[:, : 2 * t.field.m * self.block_width]
        if not np.array_equal(actual, expected):
            raise DomainError("left block does not match the reduction-friendly pattern")
        if (self.layout == ODD) != (self.extra_rows > 0):
            raise DomainError(f"layout tag {self.layout} inconsistent with row count")


def block_width(table: GeneratorTable) -> int:
    return min(table.n // 2, len(table.gens) // (2 * table.field.m))


def _as_form(table: GeneratorTable) -> ReductionFriendlyForm:
    """The form tag of a table assumed to carry the staircase."""
    width = block_width(table)
    extra = len(table.gens) - 2 * table.field.m * width
    return ReductionFriendlyForm(table, width, ODD if extra else EVEN)


def _pattern_matrix(m: int, n_rows: int, width: int) -> np.ndarray:
    """Left-block target: the staircase in symplectic coefficients, site j's
    block on the anti-diagonal below the extra all-identity rows.  A site's
    block has rows Z_{alpha^k} then X_{alpha^k}; alpha^k (k < m) has
    coefficient row e_k, so the block is the x/z swap."""
    swap = np.roll(np.eye(2 * m, dtype=np.int64), m, axis=1)
    stairs = np.kron(np.eye(width, dtype=np.int64)[::-1], swap)
    extra = np.zeros((n_rows - len(stairs), stairs.shape[1]), dtype=np.int64)
    return np.vstack([extra, stairs])


def _greedy_pivots(mat: np.ndarray, rows: list[int], site: int, m: int, p: int,
                   uniform: int) -> list[int]:
    """Lowest-index subset of ``rows`` whose restrictions to ``site`` span Z_p^2m:
    the pivot columns of one ``rref`` of the restrictions' transpose, since
    column c is a pivot exactly when row c is outside the span of the rows
    before it (a zero row never is).

    When none exists, ``site`` together with the sites that ``rows`` are
    cleared on is not maximally mixed: the table is not ``uniform``-uniform.
    """
    pivots = linalg.rref(mat[rows, 2 * m * site: 2 * m * (site + 1)].T, p)[1]
    if len(pivots) == 2 * m:
        return [rows[c] for c in pivots]
    raise ReductionError(
        f"no independent pivot on site {site}: fewer than the required {2 * m} "
        f"generators act there independently, so the table is not {uniform}-uniform"
    )


def to_reduction_friendly(table: GeneratorTable) -> ReductionFriendlyForm:
    """Bring a table to the reduction-friendly form by legal row operations.

    The input must pass commutation and independence and have the
    generator count of a full (k=0) stabilizer table, or more generally
    of a table already shaped like an extracted child (N a multiple of
    2m down to 2m).  Already-canonical tables come back unchanged.
    """
    require_stabilizer(table)
    f = table.field
    p, m = f.p, f.m
    mat = table.symplectic_matrix().copy()
    n_rows = len(table.gens)
    width = block_width(table)
    if width < 1:
        raise DomainError("table too small to canonicalize (needs at least 2m generators)")

    active = list(range(n_rows))
    stairs: list[int] = []  # pivot rows, last site's first, as they end up
    for j in range(width):
        cols = slice(2 * m * j, 2 * m * (j + 1))
        # the active rows are cleared on sites 0..j-1: sites 0..j are tested
        sel = _greedy_pivots(mat, active, j, m, p, j + 1)
        # the pivot rows are zero on sites 0..j-1 and independent on site j, so
        # their (unique) rref is inv(mat[sel][:, cols]) @ mat[sel]; clearing j
        # from all other rows, earlier pivots included, regresses no site < j
        piv = linalg.rref(mat[sel], p)[0]
        rest = [r for r in range(n_rows) if r not in sel]
        mat[rest] = (mat[rest] - mat[rest][:, cols] @ piv) % p
        mat[sel] = np.roll(piv, m, axis=0)  # x/z swap: Z rows above X rows
        stairs = sel + stairs
        active = [r for r in active if r not in sel]

    out_mat = mat[active + stairs]  # leftover rows on top: identity left blocks
    if not linalg.same_row_span(out_mat, table.symplectic_matrix(), p):
        raise AssertionError("row operations changed the generated group")  # pragma: no cover
    form = _as_form(GeneratorTable.from_matrix(f, table.n, out_mat, table.claimed))
    form.validate()
    return form


def child_code(form: ReductionFriendlyForm) -> GeneratorTable:
    """Drop the last 2m rows and the first site's 2m columns of the matrix:
    [[n-1, k+1, d-1]]_q.

    Raises DomainError when no step remains (either no rows would be
    left or the child's claimed distance would drop below 2).
    """
    form.validate()
    t = form.table
    m = t.field.m
    if len(t.gens) <= 2 * m or form.block_width < 1:
        raise DomainError("no reduction steps remaining for this table")
    claimed = None
    if t.claimed is not None:
        if t.claimed.d - 1 < 2:
            raise DomainError(
                f"child of {t.claimed.label()} would have distance {t.claimed.d - 1}; "
                "the family stops at distance 2"
            )
        claimed = CodeParams(t.n - 1, t.claimed.k + 1, t.claimed.d - 1, t.field.q)
    rows = t.symplectic_matrix()[: len(t.gens) - 2 * m, 2 * m :]
    return GeneratorTable.from_matrix(t.field, t.n - 1, rows, claimed)


def derive_family(
    table: GeneratorTable,
    verify: bool = True,
    budget: int = DEFAULT_DISTANCE_BUDGET,
) -> list[tuple[CodeParams, GeneratorTable]]:
    """Canonicalize and extract the full child family.

    Returns [(params, table)] starting with the canonicalized input and
    continuing while the child distance stays >= 2, i.e. children
    k+1 .. floor(n0/2)-1 for a parent AME table.  When ``verify`` is on,
    every member is checked: commutation, independence, and brute-force
    distance equal to the parameter formula (within ``budget``); a member
    that fails raises ReductionError.  A negative budget raises DomainError
    first, whether or not ``verify`` is on.
    """
    require_budget(budget)
    form = to_reduction_friendly(table)
    if table.claimed is not None:
        params = table.claimed
    else:
        n0 = form.table.n + form.table.k  # parent AME size for the formula
        params = CodeParams(
            form.table.n, form.table.k, n0 // 2 + 1 - form.table.k, table.field.q
        )
        form = _as_form(form.table.relabel(params))
    out = [(params, form.table)]
    while params.d - 1 >= 2:
        form = _as_form(child_code(form))
        params = form.table.claimed
        out.append((params, form.table))
    if verify:
        assumed = "" if table.claimed else " (no d= given: the parent was taken as AME)"
        for params, t in out:
            require_stabilizer(t)  # construction guarantees it
            d = compute_distance(t, params.d, budget)
            if d != params.d:
                measured = d if d is not None else f">{params.d}"
                raise ReductionError(
                    f"family member {params.label()} has distance {measured}, "
                    f"expected {params.d}{assumed}"
                )
    return out
