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
    with pytest.raises(DomainError):
        Field(4, modulus=(1, 0, 1))  # x^2 + 1 reducible over Z_2
    with pytest.raises(DomainError):
        Field(9, modulus=(1, 0, 1))  # x^2 + 1 irreducible but x not primitive


def test_gf4_commuting_xz_warning():
    with pytest.warns(UserWarning, match="trace of 1 vanishes"):
        Field(4)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(field):
    q = field.q
    for a, b in itertools.product(range(q), repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(a, 0) == a
        assert field.mul(a, field.one_index) == a
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == field.one_index
    for a, b, c in itertools.product(range(q), repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_field_axioms_randomized_larger_primes():
    rng = random.Random(7)
    for q in (13, 31, 61):
        f = GF(q)
        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, b) == (a + b) % q
            assert f.mul(a, b) == (a * b) % q


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_index_coeff_round_trip(field):
    for i in range(field.q):
        assert field.index_of_coeffs(field.coeffs(i)) == i
    # coefficient vectors along the last axis, read mod p
    stacked = np.stack([field.coeff_matrix, field.coeff_matrix + field.p])
    assert field.index_of_coeffs(stacked).tolist() == [list(range(field.q))] * 2
    with pytest.raises(DomainError, match="bad coefficient vector"):
        field.index_of_coeffs([0] * (field.m + 1))


def test_prime_inverse_matches_exhaustive_search():
    f = GF(5)
    assert f.inv(2) == exhaustive_inverse(2, 5) == 3
    for q in (3, 5, 7):
        f = GF(q)
        for x in range(1, q):
            assert f.inv(x) == exhaustive_inverse(x, q)
    with pytest.raises(DomainError):
        GF(7).inv(0)


def test_gf4_addition_against_polynomial_oracle():
    # alpha + 1 = alpha^2 under x^2 + x + 1
    f = GF(4)
    mod = [1, 1, 1]  # low-first: 1 + x + x^2
    alpha = [0, 1]
    one = [1, 0]
    s = [(x + y) % 2 for x, y in zip(alpha, one)]
    assert s == list(poly_mul_mod(alpha, alpha, mod, 2))  # alpha^2 = alpha + 1
    assert f.add(f.alpha_index, f.one_index) == 3  # index 3 <-> alpha^2


def test_gf9_power_against_polynomial_oracle():
    mod = [2, 1, 1]  # 2 + x + x^2, low-first
    f = GF(9)
    assert poly_pow([0, 1], 8, mod, 3) == [1, 0]  # alpha^8 = 1
    assert f.pow(f.alpha_index, 8) == f.one_index


@pytest.mark.parametrize("q,m,mod", [(4, 2, [1, 1, 1]), (8, 3, [1, 1, 0, 1]), (9, 2, [2, 1, 1])])
def test_trace_against_polynomial_oracle(q, m, mod):
    f = GF(q)
    for i in range(q):
        coeffs = list(f.coeffs(i))
        assert f.trace(i) == poly_trace(coeffs, mod, f.p, m)


@pytest.mark.parametrize("field", SUPPORTED_FIELDS, ids=lambda f: f"q{f.q}")
def test_alpha_has_order_q_minus_1(field):
    seen = field.one_index
    for _ in range(field.q - 2):
        seen = field.mul(seen, field.alpha_index)
        assert seen != field.one_index
    assert field.mul(seen, field.alpha_index) == field.one_index


@pytest.mark.parametrize("q", [4, 8, 9])
def test_tables_against_polynomial_oracle(q):
    f, mod = GF(q), PINNED_LOW_FIRST[q]
    p, m = f.p, f.m
    assert f.coeffs(0) == (0,) * m
    for e in range(q - 1):  # index e+1 is alpha**e
        assert list(f.coeffs(e + 1)) == poly_pow([0, 1], e, mod, p)
    for i, j in itertools.product(range(q), repeat=2):
        a, b = list(f.coeffs(i)), list(f.coeffs(j))
        assert list(f.coeffs(f.add_table[i, j])) == poly_add(a, b, p)
        prod = poly_mul_mod(a, b, mod, p)
        assert list(f.coeffs(f.mul_table[i, j])) == prod
        assert f.trmul_table[i, j] == poly_trace(prod, mod, p, m)
    for i in range(q):
        assert f.trace_table[i] == poly_trace(list(f.coeffs(i)), mod, p, m)


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
    assert GF(4).trace(1) == 0  # 1 + 1^2 over Z_2
    assert GF(9).trace(1) == 2  # 1 + 1 mod 3
    for f in SMALL_FIELDS:
        assert f.trace(0) == 0
    f7 = GF(7)
    for x in range(7):
        assert f7.trace(x) == x  # identity on prime fields


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_trace_linear_and_nondegenerate(field):
    p = field.p
    for c in range(p):
        c_idx = field.index_of_coeffs([c] + [0] * (field.m - 1))
        for x, y in itertools.product(range(field.q), repeat=2):
            lhs = field.trace(field.add(field.mul(c_idx, x), y))
            assert lhs == (c * field.trace(x) + field.trace(y)) % p
    for x in range(1, field.q):
        assert any(field.trace_mul(x, y) for y in range(field.q)), "degenerate trace"


def test_field_identity_and_caching():
    assert GF(9) is GF(9)
    assert GF(9) == Field(9, (1, 1, 2))
    assert GF(4) != GF(8)
    assert repr(GF(9)) == "GF(9;1,1,2)"
