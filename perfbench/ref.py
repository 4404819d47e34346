"""Reference routes that share no code with ``amecodes``.

Every output the benchmark times is checked against a value computed
here from the definitions: the stabilizer-table text is parsed again by
a parser of its own, field arithmetic is polynomial arithmetic over Z_p,
ranks come from Gaussian elimination written here, and the repeater cost
is a scalar loop over every integer link count.  Nothing in this module
imports ``amecodes``.

Distance by rank (Scott, PRA 69, 052330 (2004)).  For a code with N
independent generators over GF(p^m) in Z_p coordinates and a site set A,
the errors supported on A that commute with every generator form a space
of dimension 2m|A| - rank(S|A), and the group elements supported on A one
of dimension N - rank(S|complement of A).  So A supports an undetectable
error exactly when

* k = 0: rank(S|complement of A) < N  (a nonzero group element on A);
* k > 0: 2m|A| - rank(S|A) > N - rank(S|complement of A)  (a logical).

Both are monotone in A, so the distance is the smallest |A| passing.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

# -- finite fields: Z_p and GF(p^m) as polynomials in x modulo the modulus ---


def factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            m, r = 0, q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


def _poly_mulmod(a, b, mod_low, p):
    """Product of two low-degree-first coefficient lists modulo a monic
    polynomial (low-degree-first, leading 1 included)."""
    deg = len(mod_low) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, deg - 1, -1):
        c = prod[top]
        if c:
            for t in range(deg + 1):
                prod[top - deg + t] = (prod[top - deg + t] - c * mod_low[t]) % p
    return (prod + [0] * deg)[:deg]


@dataclass
class RefField:
    """GF(q) with element indices as the stabilizer-table text uses them:
    for prime q the index is the value; for q = p^m, index 0 is zero and
    index e+1 is x^e modulo the table's modulus."""

    q: int
    modulus: tuple[int, ...] | None = None  # high-degree first, as in the file
    p: int = field(init=False)
    m: int = field(init=False)
    coeffs: list = field(init=False)  # index -> low-degree-first Z_p tuple
    gram: np.ndarray = field(init=False)  # tr(x^i x^j) on the basis 1, x, ...

    def __post_init__(self):
        self.p, self.m = factor_prime_power(self.q)
        p, m = self.p, self.m
        if m == 1:
            self.coeffs = [(i,) for i in range(self.q)]
            self.gram = np.ones((1, 1), dtype=np.int64)
            return
        mod_low = list(reversed(self.modulus))
        self.coeffs = [(0,) * m]
        cur = [1] + [0] * (m - 1)
        for _ in range(self.q - 1):
            self.coeffs.append(tuple(cur))
            cur = _poly_mulmod(cur, [0, 1], mod_low, p)
        if len(set(self.coeffs)) != self.q:
            raise ValueError("x is not primitive modulo the given modulus")

        def trace(a):
            total, term = [0] * m, list(a)
            for _ in range(m):
                total = [(s + t) % p for s, t in zip(total, term)]
                nxt = [1] + [0] * (m - 1)
                for _ in range(p):
                    nxt = _poly_mulmod(nxt, term, mod_low, p)
                term = nxt
            if any(total[1:]):
                raise ValueError("trace left the prime field")
            return total[0]

        basis = [[int(i == j) for j in range(m)] for i in range(m)]
        self.gram = np.array(
            [[trace(_poly_mulmod(a, b, mod_low, p)) for b in basis] for a in basis],
            dtype=np.int64,
        )


# -- linear algebra over Z_p -------------------------------------------------


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over Z_p."""
    a = np.array(mat, dtype=np.int64) % p
    if a.size == 0:
        return 0
    if p == 2:
        return _rank_gf2([int("".join(map(str, row)), 2) for row in a])
    return a.shape[1] - len(nullspace_mod_p(a, p))


def _rank_gf2(masks: list[int]) -> int:
    """Rank over Z_2 of rows packed into integers."""
    basis: dict[int, int] = {}  # leading bit -> basis row
    for v in masks:
        while v:
            lead = v.bit_length()
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {v : mat @ v = 0 mod p}, by Gaussian elimination."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        for j in range(rows):
            if j != r and a[j, c]:
                a[j] = (a[j] - a[j, c] * a[r]) % p
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for t, fc in enumerate(free):
        out[t, fc] = 1
        for i, pc in enumerate(pivots):
            out[t, pc] = (-a[i, fc]) % p
    return out


def det_mod_p(mat, p: int) -> int:
    """Determinant over Z_p by cofactor expansion (the matrices are tiny)."""
    mat = [list(row) for row in mat]
    if len(mat) == 1:
        return mat[0][0] % p
    total = 0
    for j, a in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * a * det_mod_p(minor, p)
    return total % p


# -- stabilizer tables -------------------------------------------------------

_TOKEN = re.compile(r"^(?:i|(?:x(\d+))?(?:z(\d+))?)$")


@dataclass
class RefCode:
    """A generator table as a Z_p matrix: per site [x coeffs | z coeffs]."""

    n: int
    k: int
    d: int | None
    f: RefField
    rows: np.ndarray

    def __post_init__(self):
        m, p = self.f.m, self.f.p
        self._block = 2 * m
        # the trace-symplectic form: u J v = sum_sites z_u G x_v - x_u G z_v
        j = np.zeros((self._block * self.n,) * 2, dtype=np.int64)
        for s in range(self.n):
            b = self._block * s
            j[b + m : b + 2 * m, b : b + m] = self.f.gram
            j[b : b + m, b + m : b + 2 * m] = -self.f.gram
        self.form = j % p
        self._packed = None
        if p == 2:
            self._packed = [int("".join(map(str, r)), 2) for r in self.rows]

    @property
    def N(self) -> int:
        return len(self.rows)

    def columns(self, sites) -> list[int]:
        return [self._block * s + t for s in sites for t in range(self._block)]

    def rank_on(self, sites) -> int:
        """rank of the generator matrix restricted to ``sites``."""
        sites = list(sites)
        if not sites:
            return 0
        if self._packed is not None:
            width = self._block * self.n
            mask = 0
            for c in self.columns(sites):
                mask |= 1 << (width - 1 - c)
            return _rank_gf2([r & mask for r in self._packed])
        return rank_mod_p(self.rows[:, self.columns(sites)], self.f.p)

    def commutes_with_all(self, vec) -> bool:
        return not np.any((self.rows @ self.form @ np.asarray(vec)) % self.f.p)

    def in_group(self, vec) -> bool:
        return rank_mod_p(np.vstack([self.rows, vec]), self.f.p) == self.N

    def supports_undetectable(self, subset) -> bool:
        subset = set(subset)
        outside = [s for s in range(self.n) if s not in subset]
        inside_group = self.N - self.rank_on(outside)
        if self.k == 0:
            return inside_group > 0
        return self._block * len(subset) - self.rank_on(subset) > inside_group

    def entropy(self, subset) -> float:
        """Bits of entanglement of a k = 0 state across ``subset``."""
        subset = set(subset)
        outside = [s for s in range(self.n) if s not in subset]
        inside_group = self.N - self.rank_on(outside)
        return (len(subset) - inside_group / self.f.m) * math.log2(self.f.q)


def parse_stabtab(text: str) -> RefCode:
    """Parse the stabilizer-table text format into a RefCode."""
    head, modulus, gens = None, None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("code "):
            head = dict(kv.split("=") for kv in line.split()[1:])
        elif line.startswith("modulus:"):
            modulus = tuple(int(c) for c in line[len("modulus:"):].split(","))
        elif re.match(r"^g\d+:", line):
            gens.append(line.split(":", 1)[1].split())
        else:
            raise ValueError(f"unrecognized line {line!r}")
    n, q = int(head["n"]), int(head["q"])
    f = RefField(q, modulus)
    rows = np.zeros((len(gens), 2 * f.m * n), dtype=np.int64)
    for i, tokens in enumerate(gens):
        if len(tokens) != n:
            raise ValueError(f"generator {i + 1} has {len(tokens)} sites, expected {n}")
        for s, tok in enumerate(tokens):
            mt = _TOKEN.match(tok.lower())
            if not mt:
                raise ValueError(f"bad token {tok!r}")
            a = int(mt.group(1) or 0)
            b = int(mt.group(2) or 0)
            base = 2 * f.m * s
            rows[i, base : base + f.m] = f.coeffs[a]
            rows[i, base + f.m : base + 2 * f.m] = f.coeffs[b]
    k = n - len(gens) // f.m
    if "k" in head and int(head["k"]) != k:
        raise ValueError(f"code line says k={head['k']}, generator count gives k={k}")
    return RefCode(n, k, int(head["d"]) if "d" in head else None, f, rows)


def is_valid_code(code: RefCode) -> bool:
    """Generators commute pairwise and are independent over Z_p."""
    p = code.f.p
    if np.any((code.rows @ code.form @ code.rows.T) % p):
        return False
    return rank_mod_p(code.rows, p) == code.N


def same_group(a: RefCode, b: RefCode) -> bool:
    p = a.f.p
    return (a.N == b.N and rank_mod_p(a.rows, p) == a.N
            and rank_mod_p(np.vstack([a.rows, b.rows]), p) == a.N)


def rank_distance(code: RefCode, d_max: int):
    """(distance, first supporting site subset) by the rank criterion, or
    None when no subset of size <= d_max supports an undetectable error."""
    for w in range(1, min(d_max, code.n) + 1):
        for subset in itertools.combinations(range(code.n), w):
            if code.supports_undetectable(subset):
                return w, subset
    return None


def error_vector(code: RefCode, pauli_sites) -> np.ndarray:
    """Z_p vector of a string given as per-site (x index, z index) pairs."""
    f = code.f
    out = np.zeros(2 * f.m * code.n, dtype=np.int64)
    for s, (a, b) in enumerate(pauli_sites):
        base = 2 * f.m * s
        out[base : base + f.m] = f.coeffs[a]
        out[base + f.m : base + 2 * f.m] = f.coeffs[b]
    return out


def check_witness(code: RefCode, pauli_sites, weight: int) -> bool:
    """An undetectable error of the stated weight: it commutes with every
    generator and, for k > 0, lies outside the stabilizer group."""
    vec = error_vector(code, pauli_sites)
    if sum(1 for ab in pauli_sites if ab != (0, 0)) != weight:
        return False
    if not code.commutes_with_all(vec):
        return False
    return code.k == 0 or not code.in_group(vec)


def first_hit(code: RefCode, w: int):
    """Position (0-based, in the lexicographic scan order of weight-w
    errors: site subsets, then per-site (x, z) index pairs) and site pairs
    of the first undetectable weight-w error, or None."""
    q, n = code.f.q, code.n
    pairs = [(a, b) for a in range(q) for b in range(q) if a or b]
    per_subset = len(pairs) ** w
    for rank_idx, subset in enumerate(itertools.combinations(range(n), w)):
        if not code.supports_undetectable(subset):
            continue
        for j, assign in enumerate(itertools.product(pairs, repeat=w)):
            sites = [(0, 0)] * n
            for s, ab in zip(subset, assign):
                sites[s] = ab
            if check_witness(code, sites, w):
                return rank_idx * per_subset + j, tuple(sites)
    return None


def z_completion(code: RefCode) -> RefCode:
    """The k = 0 group of the first projected codeword of a prime-field
    code: the generators plus every Z-type string commuting with them.
    Projecting a computational basis state onto the code space keeps
    exactly these stabilizers."""
    p, n = code.f.p, code.n
    x_part = code.rows[:, 0::2]
    z_ops = nullspace_mod_p(x_part, p)
    extra = np.zeros((len(z_ops), 2 * n), dtype=np.int64)
    extra[:, 1::2] = z_ops
    full = np.vstack([code.rows, extra])
    # keep an independent basis
    basis = []
    for row in full:
        if rank_mod_p(np.array(basis + [row]), p) > len(basis):
            basis.append(row)
    return RefCode(n, 0, None, code.f, np.array(basis))


# -- repeater cost: scalar closed form over every integer link count ---------

MIN_LINK_KM = 0.1


def closed_form_costs(n, k, d, q, l_tot, l_att=20.0, eta_c=1.0):
    """[(r, C_ST, C_LT, P_success, R t0)] for r = 1..floor(L_tot / 0.1 km),
    written out from the model's equations (Muralidharan et al.,
    PRL 112, 250501 (2014))."""
    out = []
    for r in range(1, max(1, int(l_tot / MIN_LINK_KM)) + 1):
        l0 = l_tot / r
        p_l = 1.0 - eta_c * math.exp(-l0 / l_att)
        ps = min(math.fsum(math.comb(n, j) * p_l**j * (1.0 - p_l) ** (n - j)
                           for j in range(min(d - 1, n) + 1)), 1.0)
        rt0 = k * math.log2(q) * ps**r
        per_km = l0 * rt0  # underflows to 0 where the chain never succeeds
        if per_km > 0:
            out.append((r, n * math.log2(q) / per_km, n * q / per_km, ps, rt0))
        else:
            out.append((r, math.inf, math.inf, ps, rt0))
    return out


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel)


def children_params(n: int, q: int):
    """[[n-k, k, floor(n/2)+1-k]]_q for k = 1..floor(n/2)-1."""
    return [(n - k, k, n // 2 + 1 - k, q) for k in range(1, n // 2)]


def closed_form_optimal_k(n, q, l_tot, l_att=20.0, eta_c=1.0):
    """(set of k whose minimal C_LT is within 1e-9 of the best, costs)."""
    costs = {}
    for nn, k, d, qq in children_params(n, q):
        costs[k] = min(row[2] for row in closed_form_costs(nn, k, d, qq, l_tot, l_att, eta_c))
    best = min(costs.values())
    return {k for k, c in costs.items() if close(c, best)}, costs


# The optimal k of the source's table at (1000 km, 10000 km) with
# L_att = 20 km and eta_c = 1.  At (12,7) and (13,7) the source prints
# k = 3 at 1000 km; the model's own equations give k = 2 there by about
# 18% and 20% of the k = 3 cost, so the model's value is the reference.
REFERENCE_CELLS = {
    (5, 2): (1, 1), (6, 2): (1, 1), (6, 3): (1, 1), (10, 3): (2, 1),
    (10, 4): (2, 1), (11, 7): (2, 1), (12, 7): (2, 2), (13, 7): (2, 2),
    (14, 7): (3, 2), (14, 8): (3, 2),
}
REFERENCE_DISTANCES = (1000.0, 10000.0)
