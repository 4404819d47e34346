"""Generalized Pauli strings over Z_p and GF(p^m) in symplectic form.

A string is a per-site pair of field elements (a, b) standing for the
site operator X_a Z_b, X-part before Z-part, with no global phase: the
package's tables carry no signs, and the group algebra runs on the
tables' Z_p matrices.  A string is kept for the text form and for
witnesses.

Error order, the one every scan's witness follows: by weight, then site
subsets in lexicographic order, then the digit tuples on a subset in
lexicographic order, its lowest site first.  Digit t on a site stands
for the nonzero pair (a, b) with t = a*q + b - 1; ``error_on`` is the one
place that turns digits into a string.

Site token grammar, shared with the stabilizer-table file format:
``i`` is the identity, ``x<e>``, ``z<e>`` and ``x<e>z<e>`` carry the
element index ``<e>`` in decimal (for prime q the index equals the
exponent, so ``x1`` is X and ``z2`` is Z squared).  Parsing is
case-insensitive; emission is lowercase.
"""

from __future__ import annotations

import functools
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
    """An n-site generalized Pauli operator in symplectic representation:
    ``sites`` holds per-site element-index pairs (x_part, z_part)."""

    field: Field
    sites: tuple[tuple[int, int], ...]

    def __post_init__(self):
        q = self.field.q
        for a, b in self.sites:
            if not (0 <= a < q and 0 <= b < q):
                raise DomainError(f"site pair ({a},{b}) out of range for q={q}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_tokens(cls, field: Field, tokens: Sequence[str]) -> "PauliString":
        return cls(field, tuple(parse_site_token(t, field.q) for t in tokens))

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


# bounded, as tokens come from input files; q <= 64 gives at most 64**2 pairs
@functools.lru_cache(maxsize=4096)
def parse_site_token(token: str, q: int) -> tuple[int, int]:
    """Parse one site token into an (x_index, z_index) pair; a refusal
    raises, so it is never cached."""
    m = _TOKEN_RE.match(token.strip().lower())
    if not m:
        raise DomainError(f"bad site token {token!r}")
    try:
        a, b = (int(e) if e else 0 for e in m.groups())
    except ValueError:  # past Python's int() digit limit, so past q too
        a = b = q
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


def error_on(field: Field, n: int, sites: Sequence[int], digits: Sequence[int]) -> PauliString:
    """The n-site string with pair digit ``digits[i]`` on ``sites[i]`` and
    the identity elsewhere; digit t stands for (a, b) = divmod(t + 1, q)."""
    full = [(0, 0)] * n
    for s, t in zip(sites, digits):
        full[s] = divmod(int(t) + 1, field.q)
    return PauliString(field, tuple(full))


def enumerate_errors(field: Field, n: int, weight: int) -> Iterator[PauliString]:
    """All strings of exactly the given weight, each once, in the error
    order of the module docstring; the count is
    C(n, weight) * (q**2 - 1)**weight."""
    if weight < 0 or weight > n:
        raise DomainError(f"weight {weight} out of range for n={n}")
    for sites in itertools.combinations(range(n), weight):
        for digits in itertools.product(range(field.q**2 - 1), repeat=weight):
            yield error_on(field, n, sites, digits)


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

