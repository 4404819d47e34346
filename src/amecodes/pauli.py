"""Generalized Pauli strings over Z_p and GF(p^m) in symplectic form.

A string is a per-site pair of field elements (a, b) standing for the
site operator X_a Z_b, together with a global phase exponent t, the
whole operator being omega**t * prod_i X_{a_i} Z_{b_i} for
omega = exp(2*pi*i/p).  Each site is stored X-part before Z-part.
Group-level comparisons elsewhere in the package are projective (phases
ignored); the exponent is kept for the text form and the dense action.

Site token grammar, shared with the stabilizer-table file format:
``i`` is the identity, ``x<e>``, ``z<e>`` and ``x<e>z<e>`` carry the
element index ``<e>`` in decimal (for prime q the index equals the
exponent, so ``x1`` is X and ``z2`` is Z squared).  Parsing is
case-insensitive; emission is lowercase.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .fields import Field

_TOKEN_RE = re.compile(r"^(?:i|(?=[xz])(?:x(\d+))?(?:z(\d+))?)$")


@dataclass(frozen=True)
class PauliString:
    """An n-site generalized Pauli operator in symplectic representation.

    ``sites`` holds per-site element-index pairs (x_part, z_part);
    ``phase_exp`` is the exponent of omega = exp(2*pi*i/p).
    """

    field: Field
    sites: tuple[tuple[int, int], ...]
    phase_exp: int = 0

    def __post_init__(self):
        q = self.field.q
        for a, b in self.sites:
            if not (0 <= a < q and 0 <= b < q):
                raise DomainError(f"site pair ({a},{b}) out of range for q={q}")
        object.__setattr__(self, "phase_exp", self.phase_exp % self.field.p)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_tokens(cls, field: Field, tokens: Sequence[str], phase_exp: int = 0) -> "PauliString":
        return cls(field, tuple(parse_site_token(t, field.q) for t in tokens), phase_exp)

    @classmethod
    def from_symplectic(cls, field: Field, vec: Sequence[int], n: int) -> "PauliString":
        """The phase-free string with Z_p coefficients ``vec``, per-site blocks [x | z]."""
        return cls(field, sites_from_matrix(field, vec, n)[0])

    # -- basics ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.sites)

    def weight(self) -> int:
        """Number of sites acting non-trivially."""
        return sum(1 for a, b in self.sites if a or b)

    # -- text form ---------------------------------------------------------------

    def to_tokens(self) -> list[str]:
        return [emit_site_token(a, b) for a, b in self.sites]

    def __str__(self) -> str:
        return " ".join(self.to_tokens())


def sites_from_matrix(field: Field, mat, n: int) -> list[tuple[tuple[int, int], ...]]:
    """Site pairs of each row of a Z_p coefficient matrix (one vector or an
    N x 2mn array); the inverse of looking the pairs up in coeff_matrix."""
    pairs = field.index_of_coeffs(np.asarray(mat, dtype=np.int64).reshape(-1, n, 2, field.m))
    return [tuple(map(tuple, row)) for row in pairs.tolist()]


def parse_site_token(token: str, q: int) -> tuple[int, int]:
    """Parse one site token into an (x_index, z_index) pair."""
    m = _TOKEN_RE.match(token.strip().lower())
    if not m:
        raise DomainError(f"bad site token {token!r}")
    a, b = (int(e) if e else 0 for e in m.groups())
    if a >= q or b >= q:
        raise DomainError(f"site token {token!r} has element index >= q={q}")
    return (a, b)


def emit_site_token(a: int, b: int) -> str:
    if a == 0 and b == 0:
        return "i"
    if b == 0:
        return f"x{a}"
    if a == 0:
        return f"z{b}"
    return f"x{a}z{b}"


def enumerate_errors(field: Field, n: int, weight: int) -> Iterator[PauliString]:
    """All phase-free strings of exactly the given weight, each once.

    Deterministic lexicographic order over (site subset, element pairs),
    so scans are reproducible and resumable; the count is
    C(n, weight) * (q**2 - 1)**weight.
    """
    if weight < 0 or weight > n:
        raise DomainError(f"weight {weight} out of range for n={n}")
    if weight == 0:
        yield PauliString(field, ((0, 0),) * n)
        return
    q = field.q
    pairs = [(a, b) for a in range(q) for b in range(q) if a or b]
    for sites in itertools.combinations(range(n), weight):
        for assignment in itertools.product(pairs, repeat=weight):
            full = [(0, 0)] * n
            for s, ab in zip(sites, assignment):
                full[s] = ab
            yield PauliString(field, tuple(full))


def error_count(field: Field, n: int, weight: int) -> int:
    return math.comb(n, weight) * (field.q**2 - 1) ** weight


@dataclass(frozen=True)
class StateVector:
    """A dense state on n q-dimensional sites.

    Amplitudes are indexed by base-q digit strings, site 0 most
    significant; digit values are element indices of the field.  They are
    held as a read-only copy of the array passed in.
    """

    field: Field
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.field.q**self.n,):
            raise DomainError(
                f"state needs q**n = {self.field.q**self.n} amplitudes, got {amps.shape}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
            raise DomainError("state is not normalized: |norm - 1| > 1e-10")

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def dense_action(op: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """The exact dense action, global phase included: (perm, factor) with
    (U v)[perm[j]] = factor[j] * v[j], arrays of length q**n that the caller bounds.
    """
    f = op.field
    # one site at a time, site 0 ending up the most significant digit
    perm = np.zeros(1, dtype=np.int64)
    phase = np.zeros(1, dtype=np.int64)
    for a, b in op.sites:
        perm = np.add.outer(perm * f.q, f.add_table[a]).ravel()
        phase = np.add.outer(phase, f.trmul_table[b]).ravel()
    omega = np.exp(2j * np.pi / f.p)
    return perm, omega ** (phase % f.p) * omega**op.phase_exp
