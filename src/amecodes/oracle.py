"""Dense, exponential-cost ground truth for small instances.

Everything here works on explicit amplitude vectors (budget: q**n up to
4096 amplitudes), independent of the symplectic machinery, so it can
cross-check it: stabilizer-state expansion, projection codewords,
Knill-Laflamme verification, reduced-state entropies.

Conventions: omega = exp(2*pi*i/p).  The Knill-Laflamme and distance
scans take a chunk of site subsets at a time, so a code-space matrix
element may differ from a one-error-at-a-time sum in its last bits;
what is stable is the witness, the first flagged error in the error
order stated in ``pauli``, under fixed tolerances (KL_TOL for the scalar
test, 1/2 for a state's expectation value).  A CodewordSet records, per
test, the weights its scans have cleared and the witness they found, so
Knill-Laflamme checks and the dense distance on one set share one scan:
each call resumes at the first weight not yet scanned.  The record is
sound because the set is frozen and its words' amplitudes read-only.
A scan takes the code-space matrices of all X parts on each subset of a
chunk from one Gram product of its codewords (of a block of X parts,
where that Gram would not fit), and all Z parts from one character
transform, one product per group of g sites with the g-th Kronecker
power of the q x q character table, q^g <= 64 (up to 6 qubit sites a
product).  A reduced-state entropy comes from the eigenvalues of the
Gram of the bipartition's smaller side.  The Gram and character
products keep to _PRODUCT_MULADDS multiply-adds each where their shapes
allow.

Inside the eigenspace projector, p = 2 generators with mixed X/Z sites
are lifted by i**tr(a*b) per site (the Hermitian convention) so that
every generator has order p, which the projector formula
(1/p) * sum_s g**s requires; this does not change the projective group
and is invisible to every other operation.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .codes import GeneratorTable, require_stabilizer
from .errors import DomainError, ResourceBudgetError
from .fields import Field
from .pauli import PauliString, StateVector, error_on

DENSE_BUDGET = 4096
KL_TOL = 1e-9
ORTHO_TOL = 1e-10
_BLOCK_ENTRIES = 2**16
# one grouped character product covers sites up to q**g <= _GROUP_ENTRIES,
# and has at most _PRODUCT_MULADDS multiply-adds where it can: OpenBLAS runs
# complex products above about 64k multiply-adds on more threads, which
# made them up to 40 times slower on a 2-core VM
_GROUP_ENTRIES = 64
_PRODUCT_MULADDS = 2**16


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
        _check_budget(self.field, self.n)
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


def _lifted_actions(field: Field, n: int, gens) -> tuple[np.ndarray, np.ndarray]:
    """The dense actions of the n-site strings ``gens`` as rows of one
    (N, q^n) pair (perm, factor), (g_i v)[perm[i, j]] = factor[i, j] * v[j],
    lifted by i**tr(a*b) per site when p = 2 so that each g_i has order p.
    Built one site at a time for all N strings at once, site 0 ending up
    the most significant digit; a phase is looked up in omega**arange(p)."""
    q, p, N = field.q, field.p, len(gens)
    pairs = np.array([g.sites for g in gens], dtype=np.int64).reshape(N, n, 2)
    perm = np.zeros((N, 1), dtype=np.int64)
    phase = np.zeros((N, 1), dtype=np.int64)
    for a, b in pairs.transpose(1, 2, 0):
        perm = (perm[:, :, None] * q + field.add_table[a][:, None, :]).reshape(N, -1)
        phase = (phase[:, :, None] + field.trmul_table[b][:, None, :]).reshape(N, -1)
    factor = (np.exp(2j * np.pi / p) ** np.arange(p))[phase % p]
    if p == 2:
        lift = field.trmul_table[pairs[:, :, 0], pairs[:, :, 1]].sum(axis=1)
        factor = factor * np.array([(1j) ** int(e) for e in lift])[:, None]
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
    Also skipped are the seeds that a generator with no X part (identity
    perm) maps to a phase other than 1: P|s> = 0 there.
    """
    require_stabilizer(table)
    dim = _check_budget(table.field, table.n)
    K = table.field.q**table.k
    p = table.field.p
    perms, factors = _lifted_actions(table.field, table.n, table.gens)
    basis: list[np.ndarray] = []
    covered = (factors[(perms == np.arange(dim)).all(axis=1)] != 1).any(axis=0)
    for seed in range(dim):
        if covered[seed]:
            continue
        v = np.zeros(dim, dtype=np.complex128)
        v[seed] = 1.0
        for perm, factor in zip(perms, factors):
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


@functools.lru_cache(maxsize=None)
def _site_tables(q: int, n: int, w: int) -> tuple[np.ndarray, ...]:
    """The w-subsets of n sites, one a row in lexicographic order, and the
    flat amplitude offsets that gather a subset's codewords: ``heads[s, a]``,
    the index of digits a on subset s and 0 elsewhere, and the tail offsets
    ``places[s] @ tails``, the place values q**(n-1-t) of the other sites t
    times the digit table of the q^(n-w) tails.  Those two are floats,
    exact below 2^53, so that the tail offsets of a chunk, built per chunk,
    cost one BLAS product.  Read-only, as they are shared."""
    subsets = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64).reshape(-1, w)
    others = np.array([[t for t in range(n) if t not in s] for s in subsets.tolist()],
                      dtype=np.int64).reshape(len(subsets), n - w)
    tables = (subsets, q ** (n - 1 - subsets) @ _digits(np.arange(q**w), q, w).T,
              (q ** (n - 1 - others)).astype(float),
              np.ascontiguousarray(_digits(np.arange(q ** (n - w)), q, n - w).T, dtype=float))
    for t in tables:
        t.flags.writeable = False
    return tables


def _x_block(field: Field, w: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the X parts lo..hi-1 on w sites: ``lp[x, a]``, the index of
    a + x, and ``valid[x, z]``, true when X_x Z_z acts on all w sites.  Built
    one site at a time from ``add_table``, as ``_lifted_actions`` builds its
    permutations."""
    q = field.q
    lp = np.zeros((hi - lo, 1), dtype=np.int64)
    valid = np.ones((hi - lo, 1), dtype=bool)
    for x in _digits(np.arange(lo, hi), q, w).T:
        lp = (lp[:, :, None] * q + field.add_table[x][:, None, :]).reshape(hi - lo, -1)
        valid = (valid[:, :, None] & ((x != 0)[:, None, None] | (np.arange(q) != 0))
                 ).reshape(hi - lo, -1)
    return lp, valid


@functools.lru_cache(maxsize=None)
def _x_class(field: Field, w: int) -> tuple[np.ndarray, np.ndarray]:
    """``_x_block`` of all q^w X parts on w sites, memoised per (field, w)
    for the chunks of whole subsets; read-only, as it is shared."""
    lp, valid = _x_block(field, w, 0, field.q**w)
    lp.flags.writeable = valid.flags.writeable = False
    return lp, valid


@functools.lru_cache(maxsize=None)
def _characters(field: Field, g: int) -> np.ndarray:
    """The g-th Kronecker power of char[z, a] = omega**tr(z a): entry
    [z, a] is omega**tr(z.a) for digit tuples on g sites, site 0 most
    significant.  Read-only, as it is shared."""
    power = functools.reduce(np.kron, [np.exp(2j * np.pi / field.p) ** field.trmul_table] * g)
    power.flags.writeable = False
    return power


def _z_parts(field: Field, g: np.ndarray, w: int) -> np.ndarray:
    """g[x, a, c] -> sum_a omega**tr(z.a) g[x, a, c] as [x, z, c], for a and
    z digit tuples on w sites, by one ``_characters`` product per group of
    sites.  A group starting at site s takes the most sites g with
    q^g <= _GROUP_ENTRIES whose 2-D products, q^(w - s + g) times the
    trailing size multiply-adds, stay within _PRODUCT_MULADDS, and at
    least one site."""
    q, rows, cols = field.q, g.shape[0], g.shape[2]
    s = 0
    while s < w:
        size = 1
        while (size < w - s and q ** (size + 1) <= _GROUP_ENTRIES
               and q ** (w - s + size + 1) * cols <= _PRODUCT_MULADDS):
            size += 1
        g = np.matmul(_characters(field, size), g.reshape(rows * q**s, q**size, -1))
        s += size
    return g.reshape(rows, q**w, cols)


def _gram(a: np.ndarray) -> np.ndarray:
    """conj(a) @ a.T over the last two axes, by blocks of the result's rows
    so that each 2-D product has at most _PRODUCT_MULADDS multiply-adds (a
    block holds at least one row).  Row blocks keep both operands in BLAS
    layout and write disjoint parts of the result."""
    rows, cols = a.shape[-2:]
    step = max(1, _PRODUCT_MULADDS // (rows * cols))
    left, right = a.conj(), np.swapaxes(a, -1, -2)
    if step >= rows:
        return np.matmul(left, right)
    g = np.empty(a.shape[:-2] + (rows, rows), dtype=a.dtype)
    for lo in range(0, rows, step):
        np.matmul(left[..., lo : lo + step, :], right, out=g[..., lo : lo + step, :])
    return g


def _chunks(count: int, xs: int, words: int, pair: int, cap: int):
    """The chunks of a weight class in scan order, (s0, s1, lo, hi): the
    subsets s0..s1-1 of ``count`` with X parts lo..hi-1 of ``xs``, where a
    subset's codewords are ``words`` entries and an error's matrix
    ``pair``.  Where a subset's Gram, xs^2 pair entries, fits ``cap``, a
    chunk is 1, 2, 4, ... whole subsets whose codewords, or Grams, take at
    most a quarter of ``cap``: a chunk holds its codewords, their conjugates
    and their gather index at once, and whole-cap chunks ran no faster on
    10-qubit scans but raised peak RSS by 0.3-0.6 MB.  Otherwise a chunk
    is one subset and a block of X parts."""
    if xs * xs * pair <= cap:
        most, s, size = max(1, cap // (4 * max(words, xs * xs * pair))), 0, 1
        while s < count:
            yield s, min(s + size, count), 0, xs
            s, size = s + size, min(2 * size, most)
    else:
        step = max(1, cap // max(words, xs * pair))
        for s in range(count):
            for lo in range(0, xs, step):
                yield s, s + 1, lo, min(lo + step, xs)


def _first_error(c: CodewordSet, w_max: int, scalar: bool) -> PauliString | None:
    """The first error of weight 1..w_max, in ``pauli``'s error order, whose
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

    A weight class is one loop over chunks (``_chunks``) of its w-subsets
    in lexicographic order.  Write the codewords on subset A as W[a, m, r],
    a the digits on A and r those on the other sites, gathered for a chunk
    by flat offsets, head plus tail.  An error with X part x and Z part z
    on A has G = sum_a omega**tr(z.a) D_x[a], where D_x[a, m, m'] =
    sum_r conj(W[a + x, m, r]) W[a, m', r].  A chunk of whole subsets takes
    D from one stacked Gram product per subset, G_A = conj(W) @ W.T over
    the rows (a, m), as D_x[a] = G_A[a + x, a]; a chunk of one subset and
    a block of X parts, where that Gram would not fit, gathers W[a + x]
    for the block and takes one batched product.  Either way, all Z parts
    come from one character transform per group of sites (``_z_parts``):
    a product with a Kronecker power of the q x q character table, up to 6
    qubit sites at once.  The witness is the flagged error first in that
    order on the first subset with one; chunk sizes double from 1, so a
    witness on the first subset costs one subset.

    Memory: a chunk is sized so that no array exceeds
    max(_BLOCK_ENTRIES, K q^n + K^2) entries, the larger being what one
    error's matrix needs.  A chunk of whole subsets counts each one's
    codewords, K q^n, and Gram, q^(2w) K^2, the size of the transform's
    arrays; a block holds at least one X part, whose q^w K^2 matrices are
    within K q^n at every weight the scan reaches when K <= q^(n-1), by
    the quantum Singleton bound.  Memoised for the life of the process:
    the character powers, each at most _GROUP_ENTRIES^2 entries and under
    4/3 of that per field; the X-part tables of each (field, w) whose
    subset Gram fits, q^(2w) indices and flags; and ``_site_tables`` per
    (q, n, w), C(n, w) (q^w + n) + q^(n-w) (n-w) numbers, 27,050 for
    weights 1-5 on 10 qubits.  The tail offsets, C(n, w) q^(n-w) per
    class, are built per chunk.
    """
    cleared, witness = c._scans.get(scalar, (0, None))
    if witness is not None and witness.weight() <= w_max:
        return witness
    if cleared >= w_max:
        return None
    f, n, K = c.field, c.n, c.K
    q = f.q
    amps = np.array([w.amplitudes for w in c.words]).ravel()  # word m from m q^n
    cap = max(_BLOCK_ENTRIES, K * q**n + K * K)
    for w in range(cleared + 1, w_max + 1):
        if w > n:
            raise DomainError(f"weight {w} out of range for n={n}")
        if scalar and K == 1:
            c._scans[scalar] = (w, None)
            continue
        subsets, heads, places, tails = _site_tables(q, n, w)
        # row a K + m of a subset's W: digits a on the subset, codeword m
        heads = (heads[:, :, None] + q**n * np.arange(K)).reshape(len(subsets), -1)
        best = None
        for s0, s1, lo, hi in _chunks(len(subsets), q**w, K * q**n, K * K, cap):
            ob = (places[s0:s1] @ tails).astype(np.int64)
            wd = amps[heads[s0:s1, :, None] + ob[:, None, :]]
            if hi - lo == q**w:
                lp, valid = _x_class(f, w)
                # g[s, x, a, m, m'] = G_A[(a + x) K + m, a K + m'] on subset s
                g = _gram(wd).reshape(s1 - s0, q**w, K, q**w, K).transpose(0, 1, 3, 2, 4)
                g = g[:, lp, np.arange(q**w)]
            else:
                lp, valid = _x_block(f, w, lo, hi)
                wd = wd.reshape(q**w, K, -1)
                g = np.matmul(wd.conj()[lp.T].reshape(q**w, (hi - lo) * K, -1),
                              wd.transpose(0, 2, 1))
                g = g.reshape(q**w, hi - lo, K, K).transpose(1, 0, 2, 3)
            # a -> z: g[(s, x), z, m m']
            g = _z_parts(f, g.reshape(-1, q**w, K * K), w)
            if scalar:
                # exactly the entries of G - (tr G / K) I
                diag = g[:, :, :: K + 1]
                diag -= diag.sum(axis=2, keepdims=True) / K
                hit = (np.abs(g) > KL_TOL).any(axis=2)
            else:
                hit = np.abs(g[:, :, 0]) > 0.5
            ss, xs, zs = np.nonzero(hit.reshape(s1 - s0, hi - lo, q**w) & valid)
            if len(ss):
                # the first flagged subset of the chunk, as nonzero runs in order
                first = ss == ss[0]
                pairs = _digits(lo + xs[first], q, w) * q + _digits(zs[first], q, w) - 1
                flat = pairs @ (q * q - 1) ** np.arange(w - 1, -1, -1)
                i = int(np.argmin(flat))
                if best is None or flat[i] < best[0]:
                    best = flat[i], pairs[i], s0 + int(ss[0])
            if best is not None and hi == q**w:
                witness = error_on(f, n, subsets[best[2]], best[1])
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

    The spectrum is that of ``eigvalsh`` of the Gram of the bipartition's
    smaller side: M M^dagger and M^dagger M share their nonzero
    eigenvalues, and the smaller Gram costs q^n times its side in
    multiply-adds, taken in row blocks by ``_gram`` past _PRODUCT_MULADDS.
    Eigenvalues below 1e-12 count as zero, and each is clamped to at most
    1, so that no term -p log2 p is negative: a pure cut, whose one
    eigenvalue may round to just above 1, gives +0.0 (0.0 - x is -x for
    x != 0, where negating 0.0 would give -0.0).
    """
    m = _bipartition(state, sites)
    gram = _gram(m if m.shape[0] <= m.shape[1] else m.T)
    probs = [min(p, 1.0) for p in np.linalg.eigvalsh(gram).tolist() if p > 1e-12]
    return 0.0 - sum(p * math.log2(p) for p in probs)
