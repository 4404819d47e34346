"""Exact arithmetic in prime fields Z_p and extension fields GF(p^m), as tables.

Every element is referred to by an integer *index* in [0, q):

* prime fields (m = 1): the index is the element's value in Z_p, so
  arithmetic is ordinary modular arithmetic and the site-token grammar
  reads naturally (``x2`` is the square of the shift operator);
* extension fields (m > 1): index 0 is the zero element and index
  e >= 1 stands for alpha**(e-1), where alpha is the class of x modulo
  the pinned field polynomial.

A field is its numpy tables, indexed by element indices.  One array holds
the coefficients: row i of ``coeff_matrix`` lists the Z_p coefficients of
element i over {1, alpha, ..., alpha^(m-1)}, and ``coeff_index`` inverts
it, keyed by the base-p value sum_k c_k p**k; ``index_of_coeffs`` does
that lookup for any array of coefficient vectors.  For GF(p^m) the rows
are the successive powers of x reduced by the monic modulus.  Every other
table is derived from these two arrays with numpy: ``add_table`` adds
coefficient rows and looks the sum up through ``index_of_coeffs``;
``mul_table`` is the product mod p for prime fields and adds logs mod q-1
for extension fields; ``trace_table`` sums the coefficient rows of the
Frobenius images x, x^p, ..., x^(p^(m-1)); ``trmul_table`` is the trace
of each product; ``gram`` is the trace form tr(x*y) on the coefficient
basis, the one form through which the rest of the package reads the
trace-symplectic product.

Pinned field polynomials (coefficients highest degree first), chosen
once so that element indices and every table built from them are
reproducible:

    GF(4): x^2 + x + 1     GF(8): x^3 + x + 1     GF(9): x^2 + x + 2

Supported sizes: q <= 64 for prime fields, q <= 9 for extension fields.
Fields are immutable after construction, safe to share across workers.
"""

from __future__ import annotations

import functools
import warnings
from typing import Sequence

import numpy as np

from .errors import DomainError

MAX_PRIME_Q = 64
MAX_EXTENSION_Q = 9

PINNED_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 1, 2),
}


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with p prime, q = p**m."""
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    # far past every supported size: refused before trial division, linear in q
    if q > 4096:
        raise DomainError(f"fields supported up to q={MAX_PRIME_Q}, got {q}")
    p = 2
    while q % p:
        p += 1
    m = 0
    r = q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise DomainError(f"{q} is not a prime power")
    return p, m


class Field:
    """A prime field Z_p or extension field GF(p^m) with precomputed tables.

    Prefer the :func:`GF` factory, which caches instances.  Elements are
    plain integer indices into the numpy tables (``coeff_matrix``,
    ``coeff_index``, ``add_table``, ``mul_table``, ``trace_table``,
    ``trmul_table``, ``gram``), which the rest of the package vectorizes
    over.
    """

    def __init__(self, q: int, modulus: Sequence[int] | None = None):
        p, m = factor_prime_power(q)
        if m == 1 and q > MAX_PRIME_Q:
            raise DomainError(f"prime fields supported up to q={MAX_PRIME_Q}, got {q}")
        if m > 1 and q > MAX_EXTENSION_Q:
            raise DomainError(f"extension fields supported up to q={MAX_EXTENSION_Q}, got {q}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus: tuple[int, ...] | None = None
            # element index == value
            coeffs = np.arange(q, dtype=np.int64)[:, None]
        else:
            mod = tuple(int(c) % p for c in (modulus if modulus is not None else PINNED_MODULI[q]))
            if len(mod) != m + 1 or mod[0] != 1:
                raise DomainError(f"modulus must be a monic degree-{m} coefficient list, got {mod}")
            self.modulus = mod
            # row e+1 = x * row e: shift up one degree, then fold the top
            # coefficient back in through x**m = -(monic tail)
            tail = np.array(mod[:0:-1], dtype=np.int64)
            coeffs = np.zeros((q, m), dtype=np.int64)
            coeffs[1, 0] = 1
            for e in range(2, q):
                coeffs[e, 1:] = coeffs[e - 1, :-1]
                coeffs[e] = (coeffs[e] - coeffs[e - 1, -1] * tail) % p
        keys = coeffs @ p ** np.arange(m)
        if len(set(keys.tolist())) != q:
            # Distinct rows 0, 1, x, ..., x^(q-2) are all q classes of
            # Z_p[x]/(f).  If f(0) != 0, x is a unit, so all q-1 nonzero
            # classes are units: the ring is a field and x is primitive.  If
            # f(0) = 0, x is not a unit and 1 is the only unit left, which
            # forces p = 2 and a product of copies of F_2, where x^2 = x;
            # that contradicts distinct 1, x, x^2 (q >= 4).  So this one
            # check refuses both reducible and non-primitive moduli.
            raise DomainError(
                f"modulus {self.modulus} is reducible over Z_{p} or x is not primitive modulo it; "
                "choose a primitive polynomial"
            )
        # column k of coeff_matrix = coefficient of alpha**k in each element
        self.coeff_matrix = coeffs
        # inverse of coeff_matrix, keyed by the base-p value sum_k c_k p**k
        self.coeff_index = np.zeros(q, dtype=np.int64)
        self.coeff_index[keys] = np.arange(q)
        self.add_table = self.index_of_coeffs(coeffs[:, None] + coeffs[None])
        i = np.arange(q)
        if m == 1:
            self.mul_table = np.multiply.outer(i, i) % p
        else:
            # index e+1 is alpha**e, so nonzero products add logs mod q-1
            self.mul_table = np.where(
                np.multiply.outer(i, i) > 0, np.add.outer(i - 1, i - 1) % (q - 1) + 1, 0
            )
        # trace(x) = x + x^p + ... + x^(p^(m-1)): the Frobenius image x^(p^k)
        # multiplies the log by p^k (k = 0 alone, the identity, for m = 1)
        frobenius = [np.concatenate(([0], (i[1:] - 1) * p**k % (q - 1) + 1)) for k in range(m)]
        tr = sum(coeffs[f] for f in frobenius) % p
        if tr[:, 1:].any():
            raise DomainError("trace left the prime subfield; broken tables")
        self.trace_table = tr[:, 0]
        # trace of a product; backs commutation phases and the dense Z action
        self.trmul_table = self.trace_table[self.mul_table]
        # Gram matrix of the trace form on the coefficient basis {1, alpha, ...},
        # whose element alpha**k has coefficient vector e_k
        basis = self.index_of_coeffs(np.eye(m, dtype=np.int64))
        self.gram = self.trmul_table[np.ix_(basis, basis)]
        if m > 1 and self.trace_table[1] == 0:
            warnings.warn(
                f"in GF({q}) the trace of 1 vanishes (p divides m), so single-site "
                "X and Z operators commute; some weight-1 errors are detectable "
                "only through their other tensor factors",
                stacklevel=3,
            )

    def index_of_coeffs(self, coeffs) -> np.ndarray:
        """Indices of the elements whose coefficient vectors (read mod p) lie
        along the last axis: the input's shape less that axis."""
        c = np.asarray(coeffs, dtype=np.int64)
        if c.shape[-1:] != (self.m,):
            raise DomainError(f"bad coefficient vector {c.tolist()} for {self!r}")
        return self.coeff_index[(c % self.p) @ self.p ** np.arange(self.m)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q};{','.join(str(c) for c in self.modulus)})"


@functools.lru_cache(maxsize=None)
def _cached_field(q: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(q, modulus)


def GF(q: int, modulus: Sequence[int] | None = None) -> Field:
    """Field factory with instance caching.

    ``modulus`` (highest degree first) overrides the pinned polynomial
    for extension fields; it is ignored for prime q.
    """
    p, m = factor_prime_power(q)
    key = None if m == 1 or modulus is None else tuple(int(c) % p for c in modulus)
    return _cached_field(q, key)
