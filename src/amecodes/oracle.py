"""Dense, exponential-cost ground truth for small instances.

Everything here works on explicit amplitude vectors (budget: q**n up to
4096 amplitudes), independent of the symplectic machinery, so it can
cross-check it: stabilizer-state expansion, projection codewords,
Knill-Laflamme verification, reduced-state entropies.

Conventions: omega = exp(2*pi*i/p).  The Knill-Laflamme and distance
scans batch the errors of one site subset, so a code-space matrix
element may differ from a one-error-at-a-time sum in its last bits;
what is stable is the witness, the first flagged error in
enumerate_errors order, under fixed tolerances (KL_TOL for the scalar
test, 1/2 for a state's expectation value).  A CodewordSet records, per
test, the weights its scans have cleared and the witness they found, so
Knill-Laflamme checks and the dense distance on one set share one scan:
each call resumes at the first weight not yet scanned.  The record is
sound because the set is frozen and its words' amplitudes read-only.

Inside the eigenspace projector, p = 2 generators with mixed X/Z sites
are lifted by i**tr(a*b) per site (the Hermitian convention) so that
every generator has order p, which the projector formula
(1/p) * sum_s g**s requires; this does not change the projective group
and is invisible to every other operation.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .codes import GeneratorTable, require_stabilizer
from .errors import DomainError, ResourceBudgetError
from .fields import Field
from .pauli import PauliString, StateVector, dense_action

DENSE_BUDGET = 4096
KL_TOL = 1e-9
ORTHO_TOL = 1e-10
_BLOCK_ENTRIES = 2**16


@dataclasses.dataclass(frozen=True)
class CodewordSet:
    """An orthonormal list of K codewords spanning a code space."""

    field: Field
    n: int
    words: tuple[StateVector, ...]
    # _first_error's record, per scan mode: (highest weight cleared, witness or None)
    _scans: dict = dataclasses.field(default_factory=dict, init=False, compare=False,
                                     repr=False)

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


def _lifted_action(g: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """dense_action of g, lifted by i**tr(a*b) per site when p = 2 to order p."""
    perm, factor = dense_action(g)
    if g.field.p == 2:
        factor = factor * (1j) ** sum(g.field.trace_mul(a, b) for a, b in g.sites)
    return perm, factor


def expand_stabilizer(table: GeneratorTable) -> CodewordSet:
    """Orthonormal basis of the joint +1 eigenspace of all generators.

    Dimension q**k whatever the generators' phases, once require_stabilizer
    has passed: N commuting, independent order-p generators hold no scalar
    but 1 in their group, whose projector has trace q**n / p**N
    (Gottesman, arXiv:quant-ph/9705052).
    Basis states |s> are projected in index order, skipping any inside an
    accepted word's support: P|s> fills the coset of s modulo the X parts,
    P|s'> is a phase times P|s> on it (P g = P), and cosets are disjoint.
    """
    require_stabilizer(table)
    dim = _check_budget(table.field, table.n)
    K = table.field.q**table.k
    p = table.field.p
    actions = [_lifted_action(g) for g in table.gens]
    basis: list[np.ndarray] = []
    covered = np.zeros(dim, dtype=bool)
    for seed in range(dim):
        if covered[seed]:
            continue
        v = np.zeros(dim, dtype=np.complex128)
        v[seed] = 1.0
        for perm, factor in actions:
            v = _project_plus_one(perm, factor, p, v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            covered |= v != 0
            basis.append(v / norm)
            if len(basis) == K:
                break
    if len(basis) < K:
        raise AssertionError("the +1 eigenspace is smaller than q**k")  # pragma: no cover
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


def _digits(index, q: int, w: int) -> np.ndarray:
    """Base-q digits of each index, w to a row, site 0 most significant."""
    return np.asarray(index)[:, None] // q ** np.arange(w - 1, -1, -1) % q


def _x_block(field: Field, w: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the X parts lo..hi-1 on w sites: ``lp[x, a]``, the index of
    a + x, and ``valid[x, z]``, true when X_x Z_z acts on all w sites.  Built
    one site at a time from ``add_table``, as ``dense_action`` builds its
    permutation."""
    q = field.q
    lp = np.zeros((hi - lo, 1), dtype=np.int64)
    valid = np.ones((hi - lo, 1), dtype=bool)
    for x in _digits(np.arange(lo, hi), q, w).T:
        lp = (lp[:, :, None] * q + field.add_table[x][:, None, :]).reshape(hi - lo, -1)
        valid = (valid[:, :, None] & ((x != 0)[:, None, None] | (np.arange(q) != 0))
                 ).reshape(hi - lo, -1)
    return lp, valid


def _first_error(c: CodewordSet, w_max: int, scalar: bool) -> PauliString | None:
    """The first error of weight 1..w_max, in enumerate_errors order, whose
    code-space matrix G = <w_m| E |w_m'> is flagged, or None.  With
    ``scalar`` G is flagged when max |G - (tr G / K) I| > KL_TOL, which a
    1 x 1 matrix never is; otherwise when |G_00| > 1/2.

    The scan resumes where the last one on ``c`` in the same mode stopped.
    ``c._scans[scalar]`` holds the highest weight cleared and the first
    witness, or None: a witness of weight <= w_max is returned as it
    stands, a cleared weight >= w_max gives None, and otherwise the scan
    goes on from the next weight and records what it finds.  Each weight
    class is scanned whole and in order whatever w_max is, so the record
    answers every later call as a scan from weight 1 would; the words it
    depends on cannot change, as CodewordSet is frozen and a StateVector's
    amplitudes are a read-only copy.

    The errors on one site subset A are one batch.  Write the codewords
    as W[a, m, r], a the digits on A and r those on the other sites.  An
    error with X part x and Z part z on A has G = sum_a omega**tr(z.a)
    D_x[a], where D_x[a, m, m'] = sum_r conj(W[a + x, m, r]) W[a, m', r].
    So a block of X parts costs one gather of W and one batched product,
    and all their Z parts one q x q character transform per site.  The
    subset's flagged error first in enumerate_errors order is the witness.

    Memory: a block of X parts is sized so that no array exceeds
    max(_BLOCK_ENTRIES, K q^n + K^2) entries, the larger being a per-error
    Gram computation's working set; a block holds at least one X part,
    whose q^w K^2 Gram stack is within K q^n at every weight the scan
    reaches when K <= q^(n-1), by the quantum Singleton bound.
    """
    _check_budget(c.field, c.n)
    cleared, witness = c._scans.get(scalar, (0, None))
    if witness is not None and witness.weight() <= w_max:
        return witness
    if cleared >= w_max:
        return None
    f, n, K = c.field, c.n, c.K
    q = f.q
    words = np.array([w.amplitudes for w in c.words]).reshape((K,) + (q,) * n)
    char = np.exp(2j * np.pi / f.p) ** f.trmul_table  # char[z, a] = omega**tr(z a)
    cap = max(_BLOCK_ENTRIES, K * q**n + K * K)
    for w in range(cleared + 1, w_max + 1):
        if w > n:
            raise DomainError(f"weight {w} out of range for n={n}")
        if scalar and K == 1:
            c._scans[scalar] = (w, None)
            continue
        step = max(1, cap // max(K * q**n, q**w * K * K))
        blocks = [(lo, min(lo + step, q**w)) for lo in range(0, q**w, step)]
        tables = _x_block(f, w, *blocks[0]) if len(blocks) == 1 else None
        for sites in itertools.combinations(range(n), w):
            a_axes = [s + 1 for s in sites]
            r_axes = [s + 1 for s in range(n) if s not in sites]
            wc = np.transpose(words, a_axes + [0] + r_axes).reshape(q**w, K, -1).conj()
            wt = np.transpose(words, a_axes + r_axes + [0]).reshape(q**w, -1, K)
            best = None
            for lo, hi in blocks:
                lp, valid = tables or _x_block(f, w, lo, hi)
                # g[x, a, m, m'] = D_x[a, m, m'], then site by site a -> z
                # into g[x, z, m, m'] by one small product per X part and
                # leading digits: OpenBLAS runs complex products above about
                # 64k multiply-adds on more threads, which made them up to
                # 40 times slower on a 2-core VM
                g = np.matmul(wc[lp.T].reshape(q**w, -1, q ** (n - w)), wt)
                g = g.reshape(q**w, hi - lo, K * K).transpose(1, 0, 2)
                for s in range(w):
                    g = np.matmul(char, g.reshape((hi - lo) * q**s, q, -1))
                g = g.reshape(hi - lo, q**w, K, K)
                if scalar:
                    dev = g - np.einsum("xzmm->xz", g)[:, :, None, None] / K * np.eye(K)
                    hit = np.abs(dev).max(axis=(2, 3)) > KL_TOL
                else:
                    hit = np.abs(g[:, :, 0, 0]) > 0.5
                xs, zs = np.nonzero(hit & valid)
                if len(xs):
                    pairs = _digits(lo + xs, q, w) * q + _digits(zs, q, w) - 1
                    flat = pairs @ (q * q - 1) ** np.arange(w - 1, -1, -1)
                    i = int(np.argmin(flat))
                    if best is None or flat[i] < best[0]:
                        best = flat[i], pairs[i]
            if best is not None:
                full = [(0, 0)] * n
                for s, pair in zip(sites, best[1].tolist()):
                    full[s] = divmod(pair + 1, q)
                witness = PauliString(f, tuple(full))
                c._scans[scalar] = (w - 1, witness)
                return witness
        c._scans[scalar] = (w, None)
    return None


def knill_laflamme_check(c: CodewordSet, d: int) -> PauliString | None:
    """None when every error product of weight < d acts as a scalar on
    the code space; otherwise the first violating operator.

    Products E†F of two errors with wt(E†F) < d range exactly over
    single operators of weight < d, so the scan enumerates those; the
    returned witness G stands for any pair with E†F = G.
    """
    if d < 1:
        raise DomainError(f"d must be at least 1, got {d}")
    return _first_error(c, d - 1, True)


def dense_distance(c: CodewordSet, d_max: int) -> int | None:
    """Distance seen by the dense oracle, or None if above d_max.

    K > 1: the smallest weight at which the Knill-Laflamme scalar
    condition breaks.  K = 1 (a stabilizer state): the smallest weight
    of an operator with nonzero expectation value, i.e. of a stabilizer
    element, matching the k = 0 distance convention.
    """
    err = _first_error(c, min(d_max, c.n), c.K > 1)
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

    Eigenvalues below 1e-12 count as zero.  A pure reduced state gives
    +0.0: 0.0 - x is -x for x != 0, where negating 0.0 would give -0.0.
    """
    sing = np.linalg.svd(_bipartition(state, sites), compute_uv=False)
    probs = sing**2
    probs = probs[probs > 1e-12]
    return 0.0 - float((probs * np.log2(probs)).sum())
