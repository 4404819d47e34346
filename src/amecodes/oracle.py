"""Dense, exponential-cost ground truth for small instances.

Everything here works on explicit amplitude vectors (budget: q**n up to
4096 amplitudes), independent of the symplectic machinery, so it can
cross-check it: stabilizer-state expansion, projection codewords,
Knill-Laflamme verification, reduced-state entropies.

Conventions: omega = exp(2*pi*i/p); summation order over basis indices
is ascending, making results bit-stable.  Inside the eigenspace
projector, p = 2 generators with mixed X/Z sites are lifted by
i**tr(a*b) per site (the Hermitian convention) so that every generator
has order p, which the projector formula (1/p) * sum_s g**s requires;
this does not change the projective group and is invisible to every
other operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import GeneratorTable, check_commutation, check_independence
from .errors import DomainError, PhaseConsistencyError, ResourceBudgetError
from .fields import Field
from .pauli import PauliString, StateVector, dense_action, enumerate_errors

DENSE_BUDGET = 4096
KL_TOL = 1e-9
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class CodewordSet:
    """An orthonormal list of K codewords spanning a code space."""

    field: Field
    n: int
    words: tuple[StateVector, ...]

    def __post_init__(self):
        for w in self.words:
            if w.field != self.field or w.n != self.n:
                raise DomainError("codeword shape mismatch")
        for i, wi in enumerate(self.words):
            for j in range(i, len(self.words)):
                g = wi.inner(self.words[j])
                expect = 1.0 if i == j else 0.0
                if abs(g - expect) > ORTHO_TOL:
                    raise DomainError(
                        f"codewords {i},{j} not orthonormal: <i|j> = {g:.3e}"
                    )

    @property
    def K(self) -> int:
        return len(self.words)


def _check_budget(field: Field, n: int) -> int:
    dim = field.q**n
    if dim > DENSE_BUDGET:
        raise ResourceBudgetError(
            f"dense oracle needs {dim} amplitudes, budget is {DENSE_BUDGET}"
        )
    return dim


def _project_plus_one(perm: np.ndarray, factor: np.ndarray, p: int,
                      vec: np.ndarray) -> np.ndarray:
    """(1/p) sum_s g**s applied to vec, for the order-p g with dense
    action (perm, factor)."""
    acc = vec.copy()
    cur = vec
    for _ in range(p - 1):
        nxt = np.zeros_like(cur)
        nxt[perm] = factor * cur
        acc += nxt
        cur = nxt
    return acc / p


def expand_stabilizer(table: GeneratorTable) -> CodewordSet:
    """Orthonormal basis of the joint +1 eigenspace of all generators.

    Dimension q**k for a consistent table; raises
    PhaseConsistencyError when the phase assignment admits no codeword.
    """
    pair = check_commutation(table)
    if pair is not None:
        raise DomainError(f"generators {pair[0]} and {pair[1]} do not commute")
    if check_independence(table) is not None:
        raise DomainError("generators are dependent")
    dim = _check_budget(table.field, table.n)
    K = table.field.q**table.k
    p = table.field.p
    actions = [dense_action(g, hermitian_lift=True) for g in table.gens]
    basis: list[np.ndarray] = []
    for seed in range(dim):
        v = np.zeros(dim, dtype=np.complex128)
        v[seed] = 1.0
        for perm, factor in actions:
            v = _project_plus_one(perm, factor, p, v)
        for b in basis:
            v = v - np.vdot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
            if len(basis) == K:
                break
    if len(basis) < K:
        raise PhaseConsistencyError(
            f"inconsistent phases: +1 eigenspace has dimension {len(basis)}, "
            f"expected {K}"
        )
    words = tuple(StateVector(table.field, table.n, b) for b in basis)
    return CodewordSet(table.field, table.n, words)


def ame_projection_codewords(state: StateVector, message_sites: int) -> CodewordSet:
    """Codewords from projecting the leading sites onto each basis symbol.

    Word i is the renormalized projection <i|_message |psi> living on
    the remaining sites; a zero projection raises DomainError.
    """
    _check_budget(state.field, state.n)
    if not 0 < message_sites < state.n:
        raise DomainError(f"message_sites must be in (0, n), got {message_sites}")
    q = state.field.q
    rest = state.n - message_sites
    blocks = state.amplitudes.reshape(q**message_sites, q**rest)
    words = []
    for i in range(q**message_sites):
        norm = np.linalg.norm(blocks[i])
        if norm < 1e-12:
            raise DomainError(f"state not supported on message symbol {i}")
        words.append(StateVector(state.field, rest, blocks[i] / norm))
    return CodewordSet(state.field, rest, tuple(words))


def _gram_matrix(words: np.ndarray, op: PauliString) -> np.ndarray:
    """K x K matrix of <w_m| op |w_m'> for the K codewords as rows of ``words``."""
    perm, factor = dense_action(op)
    applied = np.zeros_like(words)
    applied[:, perm] = factor * words
    return words.conj() @ applied.T


def _scalar_deviation(mat: np.ndarray) -> float:
    """Infinity-norm distance from the nearest scalar multiple of identity."""
    c = np.trace(mat) / mat.shape[0]
    return float(np.max(np.abs(mat - c * np.eye(mat.shape[0]))))


def _first_error(c: CodewordSet, w_max: int, flags) -> PauliString | None:
    """The first error of weight 1..w_max, in enumerate_errors order, whose
    code-space matrix <w_m| E |w_m'> satisfies ``flags``; None if none does."""
    _check_budget(c.field, c.n)
    words = np.array([w.amplitudes for w in c.words])
    for w in range(1, w_max + 1):
        for err in enumerate_errors(c.field, c.n, w):
            if flags(_gram_matrix(words, err)):
                return err
    return None


def knill_laflamme_check(
    c: CodewordSet, d: int, tol: float = KL_TOL
) -> PauliString | None:
    """None when every error product of weight < d acts as a scalar on
    the code space; otherwise the first violating operator.

    Products E†F of two errors with wt(E†F) < d range exactly over
    single operators of weight < d, so the scan enumerates those; the
    returned witness G stands for any pair with E†F = G.
    """
    return _first_error(c, d - 1, lambda m: _scalar_deviation(m) > tol)


def dense_distance(c: CodewordSet, d_max: int, tol: float = KL_TOL) -> int | None:
    """Distance seen by the dense oracle, or None if above d_max.

    K > 1: the smallest weight at which the Knill-Laflamme scalar
    condition breaks.  K = 1 (a stabilizer state): the smallest weight
    of an operator with nonzero expectation value, i.e. of a stabilizer
    element, matching the k = 0 distance convention.
    """
    if c.K == 1:
        err = _first_error(c, min(d_max, c.n), lambda m: abs(m[0, 0]) > 0.5)
    else:
        err = _first_error(c, min(d_max, c.n), lambda m: _scalar_deviation(m) > tol)
    return None if err is None else err.weight()


def _bipartition(state: StateVector, sites) -> np.ndarray:
    """Amplitudes as a q^|A| x q^(n-|A|) matrix, rows indexed by ``sites``."""
    _check_budget(state.field, state.n)
    subset = sorted(set(sites))
    if not all(0 <= s < state.n for s in subset):
        raise DomainError(f"sites out of range for n={state.n}")
    q, n = state.field.q, state.n
    psi = state.amplitudes.reshape([q] * n)
    order = subset + [s for s in range(n) if s not in subset]
    return np.transpose(psi, order).reshape(q ** len(subset), -1)


def reduced_entropy(state: StateVector, sites) -> float:
    """Von Neumann entropy (bits) of the reduced state on ``sites``.

    Eigenvalues below 1e-12 count as zero.
    """
    sing = np.linalg.svd(_bipartition(state, sites), compute_uv=False)
    probs = sing**2
    probs = probs[probs > 1e-12]
    return float(-(probs * np.log2(probs)).sum())


def reduced_density_matrix(state: StateVector, sites) -> np.ndarray:
    """Reduced density matrix on ``sites`` (partial trace over the rest)."""
    psi = _bipartition(state, sites)
    return psi @ psi.conj().T


def stabilizing_paulis(state: StateVector, tol: float = 1e-9):
    """Yield (operator, eigenvalue) for every Pauli with state as eigenvector.

    Exhaustive over all q**(2n) phase-free strings; the eigenvalue is
    the exact complex scalar (an omega power times possibly i for p=2
    mixed sites).  This is the oracle behind derived catalog tables.
    """
    dim = _check_budget(state.field, state.n)
    q, n = state.field.q, state.n
    for site_pairs in itertools.product(
        ((a, b) for a in range(q) for b in range(q)), repeat=n
    ):
        op = PauliString(state.field, tuple(site_pairs))
        perm, factor = dense_action(op)
        out = np.zeros(dim, dtype=np.complex128)
        out[perm] = factor * state.amplitudes
        lam = np.vdot(state.amplitudes, out)
        if abs(abs(lam) - 1.0) < tol and np.linalg.norm(out - lam * state.amplitudes) < tol:
            yield op, complex(lam)
