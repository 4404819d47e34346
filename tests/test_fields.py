import itertools
import random
import warnings

import numpy as np
import pytest

from amecodes.errors import DomainError
from amecodes.fields import GF, Field, factor_prime_power

from oracles import (
    exhaustive_inverse,
    is_primitive_modulus,
    poly_add,
    poly_mul_mod,
    poly_pow,
    poly_trace,
    smallest_primitive_root,
)

SMALL_FIELDS = [GF(q) for q in (2, 3, 4, 5, 7, 8, 9)]
PRIMES = [q for q in range(2, 65) if all(q % d for d in range(2, q))]
SUPPORTED_FIELDS = [GF(q) for q in PRIMES] + [GF(4), GF(8), GF(9)]
PINNED_LOW_FIRST = {4: [1, 1, 1], 8: [1, 1, 0, 1], 9: [2, 1, 1]}


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(DomainError):
        factor_prime_power(12)
    with pytest.raises(DomainError):
        factor_prime_power(1)


def test_construction_guards():
    with pytest.raises(DomainError):
        Field(67)  # beyond the prime cap
    with pytest.raises(DomainError, match="supported up to q=9"):
        GF(16)  # beyond the extension cap
    with pytest.raises(DomainError, match=f"^fields supported up to q=64, got {2**127 - 1}$"):
        GF(2**127 - 1)  # refused before trial division, which is linear in q
    with pytest.raises(DomainError):
        Field(4, modulus=(1, 0, 1))  # x^2 + 1 reducible over Z_2
    with pytest.raises(DomainError):
        Field(9, modulus=(1, 0, 1))  # x^2 + 1 irreducible but x not primitive


def test_gf4_commuting_xz_warning():
    with pytest.warns(UserWarning, match="trace of 1 vanishes"):
        Field(4)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(field):
    q, add, mul = field.q, field.add_table, field.mul_table
    for a in range(q):
        assert add[a, 0] == a
        assert mul[a, 1] == a  # index 1 is the unit
        assert list(add[a]).count(0) == 1  # one negative
        if a:
            assert list(mul[a]).count(1) == 1  # one inverse
    for a, b in itertools.product(range(q), repeat=2):
        assert add[a, b] == add[b, a]
        assert mul[a, b] == mul[b, a]
    for a, b, c in itertools.product(range(q), repeat=3):
        assert add[add[a, b], c] == add[a, add[b, c]]
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


def test_field_axioms_randomized_larger_primes():
    rng = random.Random(7)
    for q in (13, 31, 61):
        add, mul = GF(q).add_table, GF(q).mul_table
        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
            assert add[a, b] == (a + b) % q
            assert mul[a, b] == (a * b) % q


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_index_coeff_round_trip(field):
    for i in range(field.q):
        assert field.index_of_coeffs(field.coeff_matrix[i]) == i
    # coefficient vectors along the last axis, read mod p
    stacked = np.stack([field.coeff_matrix, field.coeff_matrix + field.p])
    assert field.index_of_coeffs(stacked).tolist() == [list(range(field.q))] * 2
    with pytest.raises(DomainError, match="bad coefficient vector"):
        field.index_of_coeffs([0] * (field.m + 1))


def test_prime_inverse_matches_exhaustive_search():
    # each nonzero row of mul_table holds the unit once, at the inverse
    assert exhaustive_inverse(2, 5) == 3
    for q in (3, 5, 7):
        mul = GF(q).mul_table
        assert 1 not in mul[0]
        for x in range(1, q):
            assert np.flatnonzero(mul[x] == 1).tolist() == [exhaustive_inverse(x, q)]


def test_gf4_addition_against_polynomial_oracle():
    # alpha + 1 = alpha^2 under x^2 + x + 1
    f = GF(4)
    mod = [1, 1, 1]  # low-first: 1 + x + x^2
    alpha = [0, 1]
    one = [1, 0]
    s = [(x + y) % 2 for x, y in zip(alpha, one)]
    assert s == list(poly_mul_mod(alpha, alpha, mod, 2))  # alpha^2 = alpha + 1
    assert f.add_table[2, 1] == 3  # alpha + 1 is alpha^2 (indices 2, 1 and 3)


def test_gf9_power_against_polynomial_oracle():
    mod = [2, 1, 1]  # 2 + x + x^2, low-first
    f = GF(9)
    assert poly_pow([0, 1], 8, mod, 3) == [1, 0]  # alpha^8 = 1
    power = 1
    for _ in range(8):
        power = f.mul_table[power, 2]  # times alpha, index 2
    assert power == 1


@pytest.mark.parametrize("q,m,mod", [(4, 2, [1, 1, 1]), (8, 3, [1, 1, 0, 1]), (9, 2, [2, 1, 1])])
def test_trace_against_polynomial_oracle(q, m, mod):
    f = GF(q)
    for i in range(q):
        assert f.trace_table[i] == poly_trace(f.coeff_matrix[i].tolist(), mod, f.p, m)


@pytest.mark.parametrize("field", SUPPORTED_FIELDS, ids=lambda f: f"q{f.q}")
def test_alpha_has_order_q_minus_1(field):
    # alpha is index 2 in extension fields; a prime field's multiplication
    # table must give its smallest primitive root the same order
    alpha = smallest_primitive_root(field.p) if field.m == 1 else 2
    seen = 1
    for _ in range(field.q - 2):
        seen = field.mul_table[seen, alpha]
        assert seen != 1
    assert field.mul_table[seen, alpha] == 1


@pytest.mark.parametrize("q", [4, 8, 9])
def test_tables_against_polynomial_oracle(q):
    f, mod = GF(q), PINNED_LOW_FIRST[q]
    p, m = f.p, f.m
    coeffs = f.coeff_matrix.tolist()
    assert coeffs[0] == [0] * m
    for e in range(q - 1):  # index e+1 is alpha**e
        assert coeffs[e + 1] == poly_pow([0, 1], e, mod, p)
    for i, j in itertools.product(range(q), repeat=2):
        a, b = coeffs[i], coeffs[j]
        assert coeffs[f.add_table[i, j]] == poly_add(a, b, p)
        prod = poly_mul_mod(a, b, mod, p)
        assert coeffs[f.mul_table[i, j]] == prod
        assert f.trmul_table[i, j] == poly_trace(prod, mod, p, m)
    for i in range(q):
        assert f.trace_table[i] == poly_trace(coeffs[i], mod, p, m)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_modulus_accepted_exactly_when_primitive(q):
    # one distinct-powers check in Field stands for irreducible and primitive
    p, m = factor_prime_power(q)
    verdicts = []
    for tail in itertools.product(range(p), repeat=m):
        modulus = (1,) + tail  # highest degree first
        expected = is_primitive_modulus(list(reversed(modulus)), p)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                Field(q, modulus)
            accepted = True
        except DomainError as exc:
            assert "reducible" in str(exc) and "not primitive" in str(exc)
            accepted = False
        assert accepted == expected, modulus
        verdicts.append(accepted)
    assert sum(verdicts) == {4: 1, 8: 2, 9: 2}[q]


def test_trace_examples():
    assert GF(4).trace_table[1] == 0  # 1 + 1^2 over Z_2
    assert GF(9).trace_table[1] == 2  # 1 + 1 mod 3
    for f in SMALL_FIELDS:
        assert f.trace_table[0] == 0
    assert GF(7).trace_table.tolist() == list(range(7))  # identity on prime fields


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_trace_linear_and_nondegenerate(field):
    p, tr = field.p, field.trace_table
    for c in range(p):
        c_idx = field.index_of_coeffs([c] + [0] * (field.m - 1))
        for x, y in itertools.product(range(field.q), repeat=2):
            lhs = tr[field.add_table[field.mul_table[c_idx, x], y]]
            assert lhs == (c * tr[x] + tr[y]) % p
    for x in range(1, field.q):
        assert field.trmul_table[x].any(), "degenerate trace"


def test_field_identity_and_caching():
    assert GF(9) is GF(9)
    assert GF(9) == Field(9, (1, 1, 2))
    assert GF(4) != GF(8)
    assert repr(GF(9)) == "GF(9;1,1,2)"
