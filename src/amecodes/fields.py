"""Exact arithmetic in prime fields Z_p and extension fields GF(p^m).

Every element is referred to by an integer *index* in [0, q):

* prime fields (m = 1): the index is the element's value in Z_p, so
  arithmetic is ordinary modular arithmetic and the site-token grammar
  reads naturally (``x2`` is the square of the shift operator);
* extension fields (m > 1): index 0 is the zero element and index
  e >= 1 stands for alpha**(e-1), where alpha is the class of x modulo
  the pinned field polynomial.  Multiplication runs on log/antilog
  tables, addition on coefficient vectors over Z_p.

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


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers (coefficients highest degree first) -----------------

def _poly_mod(coeffs: list[int], modulus: Sequence[int], p: int) -> list[int]:
    c = [x % p for x in coeffs]
    deg = len(modulus) - 1
    while len(c) > deg:
        lead = c[0]
        if lead:
            for i in range(len(modulus)):
                c[i] = (c[i] - lead * modulus[i]) % p
        c.pop(0)
    while len(c) < deg:
        c.insert(0, 0)
    return c


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modulus, p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, modulus, p)


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    num = [x % p for x in num]
    lead_inv = pow(den[0], -1, p)
    while len(num) >= len(den):
        if num[0]:
            f = (num[0] * lead_inv) % p
            for i in range(len(den)):
                num[i] = (num[i] - f * den[i]) % p
        num.pop(0)
    return num


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Exhaustive factor search; fine for the supported degrees (m <= 4)."""
    m = len(modulus) - 1
    if m < 1 or modulus[0] % p != 1:
        return False
    for deg in range(1, m // 2 + 1):
        for tail in range(p**deg):
            digits = []
            t = tail
            for _ in range(deg):
                digits.append(t % p)
                t //= p
            trial = [1] + list(reversed(digits))
            if not any(_poly_rem(list(modulus), trial, p)):
                return False
    return True


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
            self._coeffs = [(i,) for i in range(q)]
            self.alpha_index = 1
            for g in range(2, p):
                if all(pow(g, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1)):
                    self.alpha_index = g
                    break
        else:
            mod = tuple(int(c) % p for c in (modulus if modulus is not None else PINNED_MODULI[q]))
            if len(mod) != m + 1 or mod[0] != 1:
                raise DomainError(f"modulus must be a monic degree-{m} coefficient list, got {mod}")
            if not _is_irreducible(mod, p):
                raise DomainError(f"modulus {mod} is reducible over Z_{p}")
            self.modulus = mod
            # antilog table: coefficient tuples of alpha**e (lowest degree last)
            coeffs: list[tuple[int, ...]] = [(0,) * m, (0,) * (m - 1) + (1,)]
            cur = list(coeffs[1])
            for _ in range(q - 2):
                cur = _poly_mul_mod(cur, [1, 0], mod, p)
                coeffs.append(tuple(cur))
            if len(set(coeffs)) != q:
                raise DomainError(
                    f"x is not primitive modulo {mod}; choose a primitive polynomial"
                )
            self._coeffs = coeffs
            self.alpha_index = 2  # alpha**1
        self._build_tables()
        self._check_alpha_order()
        if self.m > 1 and self.trace(self.one_index) == 0:
            warnings.warn(
                f"in GF({q}) the trace of 1 vanishes (p divides m), so single-site "
                "X and Z operators commute; some weight-1 errors are detectable "
                "only through their other tensor factors",
                stacklevel=3,
            )

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        self._index_of = {c: i for i, c in enumerate(self._coeffs)}
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for i in range(q):
            for j in range(q):
                if self.m == 1:
                    add[i, j] = (i + j) % p
                    mul[i, j] = (i * j) % p
                else:
                    s = tuple((a + b) % p for a, b in zip(self._coeffs[i], self._coeffs[j]))
                    add[i, j] = self._index_of[s]
                    if i and j:
                        mul[i, j] = (i - 1 + j - 1) % (q - 1) + 1
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.array(
            [next(j for j in range(q) if add[i, j] == 0) for i in range(q)], dtype=np.int64
        )
        inv = np.zeros(q, dtype=np.int64)
        for i in range(1, q):
            inv[i] = next(j for j in range(1, q) if mul[i, j] == self.one_index)
        self.inv_table = inv
        # trace(x) = x + x^p + ... + x^(p^(m-1)), landing in the prime subfield
        tr = np.zeros(q, dtype=np.int64)
        for i in range(q):
            total = 0
            term = i
            for _ in range(self.m):
                total = int(add[total, term])
                term = self._pow_raw(term, p)
            tr[i] = self._subfield_value(total)
        self.trace_table = tr
        # trace of a product; backs commutation phases and the dense Z action
        self.trmul_table = tr[mul]
        # column k of coeff_matrix = coefficient of alpha**k in each element
        self.coeff_matrix = np.array(
            [list(reversed(self._coeffs[i])) for i in range(q)], dtype=np.int64
        )
        # inverse of coeff_matrix, keyed by the base-p value sum_k c_k p**k
        self.coeff_index = np.zeros(q, dtype=np.int64)
        self.coeff_index[self.coeff_matrix @ p ** np.arange(self.m)] = np.arange(q)
        self.coeff_basis = [self._alpha_power(k) for k in range(self.m)]
        # Gram matrix of the trace form on the coefficient basis {1, alpha, ...}
        self.gram = np.array(
            [[int(self.trmul_table[a, b]) for b in self.coeff_basis] for a in self.coeff_basis],
            dtype=np.int64,
        )

    def _alpha_power(self, k: int) -> int:
        if self.m == 1:
            return pow(self.alpha_index, k, self.p)
        return (k % (self.q - 1)) + 1 if k else self.one_index

    def _pow_raw(self, i: int, s: int) -> int:
        r = self.one_index
        b = i
        while s:
            if s & 1:
                r = int(self.mul_table[r, b])
            b = int(self.mul_table[b, b])
            s >>= 1
        return r

    def _subfield_value(self, i: int) -> int:
        if self.m == 1:
            return i
        c = self._coeffs[i]
        if any(c[:-1]):
            raise DomainError("trace left the prime subfield; broken tables")
        return c[-1]

    def _check_alpha_order(self) -> None:
        seen = self.one_index
        for s in range(1, self.q - 1):
            seen = self.mul(seen, self.alpha_index)
            if seen == self.one_index:
                raise DomainError("designated alpha does not have order q-1")
        if self.mul(seen, self.alpha_index) != self.one_index:
            raise DomainError("alpha**(q-1) != 1; broken tables")

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

    def index_of_coeffs(self, coeffs: Sequence[int]) -> int:
        key = tuple(int(c) % self.p for c in reversed(list(coeffs)))
        try:
            return self._index_of[key]
        except KeyError:
            raise DomainError(f"bad coefficient vector {list(coeffs)} for {self!r}") from None

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
        t = np.array(
            [[self.trace_mul(i, g) for g in self.coeff_basis] for i in idx], dtype=np.int64
        )
        try:
            c = linalg.inv(t, self.p)
        except DomainError:
            raise DomainError("input elements are linearly dependent over Z_p") from None
        out = []
        for j in range(self.m):
            acc = 0
            for k, g in enumerate(self.coeff_basis):
                acc = self.add(acc, self.mul(self._lift_scalar(int(c[k, j])), g))
            out.append(self.element(acc))
        return out

    def decompose(self, x: "FieldElement | int", basis: Sequence["FieldElement | int"]) -> list[int]:
        """Coordinates of x over the given Z_p-basis: sum_i out[i]*basis[i] = x."""
        idx = self._basis_indices(basis)
        b = np.array([list(self.coeffs(i)) for i in idx], dtype=np.int64).T
        if linalg.rank(b, self.p) < self.m:
            raise DomainError("input elements are linearly dependent over Z_p")
        xi = x.index if isinstance(x, FieldElement) else int(x)
        sol = linalg.solve(b, np.array(self.coeffs(xi), dtype=np.int64), self.p)
        return [int(v) for v in sol]

    def _lift_scalar(self, c: int) -> int:
        """Index of the prime-subfield element with value c."""
        if self.m == 1:
            return c % self.p
        return self.index_of_coeffs([c % self.p] + [0] * (self.m - 1))

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
    if m == 1:
        return _cached_field(q, None)
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
    else:
        mod = PINNED_MODULI.get(q)
        if mod is None:
            raise DomainError(f"no pinned modulus for GF({q}); pass one explicitly")
    return _cached_field(q, mod)


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
