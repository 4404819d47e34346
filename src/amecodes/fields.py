"""Exact arithmetic in prime fields Z_p and extension fields GF(p^m).

Every element is referred to by an integer *index* in [0, q):

* prime fields (m = 1): the index is the element's value in Z_p, so
  arithmetic is ordinary modular arithmetic and the site-token grammar
  reads naturally (``x2`` is the square of the shift operator);
* extension fields (m > 1): index 0 is the zero element and index
  e >= 1 stands for alpha**(e-1), where alpha is the class of x modulo
  the pinned field polynomial.

One array holds the coefficients: row i of ``coeff_matrix`` lists the
Z_p coefficients of element i over {1, alpha, ..., alpha^(m-1)}, and
``coeff_index`` inverts it, keyed by the base-p value sum_k c_k p**k;
``index_of_coeffs`` does that lookup for any array of coefficient
vectors.  For GF(p^m) the rows are the successive powers of x reduced by
the monic modulus.  Every other table is derived from these two arrays
with numpy: addition adds coefficient rows and looks the sum up through
``index_of_coeffs``; multiplication is the product mod p for prime fields
and adds logs mod q-1 for extension fields; negation and inversion are
read off those tables; the trace sums the coefficient rows of the
Frobenius images x, x^p, ..., x^(p^(m-1)).

Pinned field polynomials (coefficients highest degree first), chosen
once so that element indices and every table built from them are
reproducible:

    GF(4): x^2 + x + 1     GF(8): x^3 + x + 1     GF(9): x^2 + x + 2

Supported sizes: q <= 64 for prime fields, q <= 9 for extension fields.
Fields and elements are immutable after construction; all operations
are pure functions, safe to share across workers.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .errors import DomainError, FieldMismatchError

MAX_PRIME_Q = 64
MAX_EXTENSION_Q = 9

PINNED_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 1, 2),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with p prime, q = p**m."""
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
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
    handled either as plain indices through the integer-level methods
    (``add``, ``mul``, ...) or wrapped in :class:`FieldElement` for
    operator syntax.  The numpy tables (``add_table``, ``mul_table``,
    ``trmul_table``, ``coeff_matrix``, ``coeff_index``, ``gram``) are
    the kernels the rest of the package vectorizes over.
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
            # element index == value; alpha is the smallest primitive root
            self.alpha_index = next(
                (g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1), 1
            )
            coeffs = np.arange(q, dtype=np.int64)[:, None]
        else:
            mod = tuple(int(c) % p for c in (modulus if modulus is not None else PINNED_MODULI[q]))
            if len(mod) != m + 1 or mod[0] != 1:
                raise DomainError(f"modulus must be a monic degree-{m} coefficient list, got {mod}")
            self.modulus = mod
            self.alpha_index = 2  # alpha**1
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
        self.neg_table = (self.add_table == 0).argmax(axis=1)
        self.inv_table = (self.mul_table == self.one_index).argmax(axis=1)
        # trace(x) = x + x^p + ... + x^(p^(m-1)): the Frobenius image x^(p^k)
        # multiplies the log by p^k (k = 0 alone, the identity, for m = 1)
        frobenius = [np.concatenate(([0], (i[1:] - 1) * p**k % (q - 1) + 1)) for k in range(m)]
        tr = sum(coeffs[f] for f in frobenius) % p
        if tr[:, 1:].any():
            raise DomainError("trace left the prime subfield; broken tables")
        self.trace_table = tr[:, 0]
        # trace of a product; backs commutation phases and the dense Z action
        self.trmul_table = self.trace_table[self.mul_table]
        # the element with coefficient vector e_k is alpha**k
        self.coeff_basis = self.index_of_coeffs(np.eye(m, dtype=np.int64)).tolist()
        # Gram matrix of the trace form on the coefficient basis {1, alpha, ...}
        self.gram = self.trmul_table[np.ix_(self.coeff_basis, self.coeff_basis)]
        if m > 1 and self.trace(self.one_index) == 0:
            warnings.warn(
                f"in GF({q}) the trace of 1 vanishes (p divides m), so single-site "
                "X and Z operators commute; some weight-1 errors are detectable "
                "only through their other tensor factors",
                stacklevel=3,
            )

    def _pow_raw(self, i: int, s: int) -> int:
        i, s = int(i), int(s)
        if self.m == 1:
            return pow(i, s, self.p)
        if s == 0:
            return self.one_index
        return 0 if i == 0 else (i - 1) * s % (self.q - 1) + 1

    # -- integer-index operations -------------------------------------------

    @property
    def one_index(self) -> int:
        return 1 % self.q

    def add(self, i: int, j: int) -> int:
        return int(self.add_table[i, j])

    def sub(self, i: int, j: int) -> int:
        return int(self.add_table[i, self.neg_table[j]])

    def neg(self, i: int) -> int:
        return int(self.neg_table[i])

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def inv(self, i: int) -> int:
        if i == 0:
            raise DomainError("zero has no multiplicative inverse")
        return int(self.inv_table[i])

    def pow(self, i: int, s: int) -> int:
        if s < 0:
            return self._pow_raw(self.inv(i), -s)
        return self._pow_raw(i, s)

    def trace(self, i: int) -> int:
        return int(self.trace_table[i])

    def trace_mul(self, i: int, j: int) -> int:
        return int(self.trmul_table[i, j])

    def coeffs(self, i: int) -> tuple[int, ...]:
        """Coefficients of the element over {1, alpha, ..., alpha^(m-1)}."""
        return tuple(int(c) for c in self.coeff_matrix[i])

    def index_of_coeffs(self, coeffs) -> int | np.ndarray:
        """Index of the element with these coefficients (read mod p), or an
        array of indices for coefficient vectors along the last axis."""
        c = np.asarray(coeffs, dtype=np.int64)
        if c.shape[-1:] != (self.m,):
            raise DomainError(f"bad coefficient vector {c.tolist()} for {self!r}")
        idx = self.coeff_index[(c % self.p) @ self.p ** np.arange(self.m)]
        return idx if c.ndim > 1 else int(idx)

    # -- element wrappers -----------------------------------------------------

    def element(self, index: int) -> "FieldElement":
        if not 0 <= index < self.q:
            raise DomainError(f"element index {index} out of range [0, {self.q})")
        return FieldElement(self, int(index))

    @property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @property
    def one(self) -> "FieldElement":
        return self.element(self.one_index)

    @property
    def alpha(self) -> "FieldElement":
        return self.element(self.alpha_index)

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.q):
            yield self.element(i)

    # -- bases ------------------------------------------------------------------

    def dual_basis(self, basis: Sequence["FieldElement | int"]) -> list["FieldElement"]:
        """The trace-dual basis {b_j} with trace(basis[i] * b_j) = delta_ij."""
        idx = self._basis_indices(basis)
        t = self.trmul_table[np.ix_(idx, self.coeff_basis)]
        try:
            c = linalg.inv(t, self.p)
        except DomainError:
            raise DomainError("input elements are linearly dependent over Z_p") from None
        # column j of c holds the coefficients of b_j over {alpha**k}
        return [self.element(i) for i in self.index_of_coeffs(c.T).tolist()]

    def decompose(self, x: "FieldElement | int", basis: Sequence["FieldElement | int"]) -> list[int]:
        """Coordinates of x over the given Z_p-basis: sum_i out[i]*basis[i] = x,
        read off the trace-dual basis {b_i} as out[i] = trace(x * b_i)."""
        dual = self.dual_basis(basis)
        xi = x.index if isinstance(x, FieldElement) else int(x)
        return [self.trace_mul(xi, b.index) for b in dual]

    def _basis_indices(self, basis: Sequence["FieldElement | int"]) -> list[int]:
        if len(basis) != self.m:
            raise DomainError(f"basis must have {self.m} elements, got {len(basis)}")
        idx = []
        for b in basis:
            if isinstance(b, FieldElement):
                if b.field != self:
                    raise FieldMismatchError("basis element from a different field")
                idx.append(b.index)
            else:
                idx.append(int(b))
        return idx

    # -- identity ------------------------------------------------------------------

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


@dataclass(frozen=True)
class FieldElement:
    """A single field element, identified by its index.

    Thin operator sugar over the integer-level :class:`Field` methods;
    mixed-field arithmetic raises :class:`FieldMismatchError`.
    """

    field: Field
    index: int

    def _peer(self, other: "FieldElement") -> int:
        if not isinstance(other, FieldElement):
            raise FieldMismatchError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields {self.field!r} and {other.field!r}")
        return other.index

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.index, self._peer(other)))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.index, self._peer(other)))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.index, self._peer(other)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.index))

    def __pow__(self, s: int):
        return FieldElement(self.field, self.field.pow(self.index, s))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.index))

    def trace(self) -> int:
        return self.field.trace(self.index)

    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.index)

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return f"{self.field!r}[{self.index}]"
