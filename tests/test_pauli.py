import random

import numpy as np
import pytest

from amecodes.errors import DomainError
from amecodes.fields import GF
from amecodes.oracle import _lifted_actions
from amecodes.pauli import (PauliString, StateVector, emit_site_token, enumerate_errors,
                            error_count, parse_site_token)

from oracles import (all_errors, commutation_exp, dense_pauli, lifted_pauli, pauli_mul,
                     pauli_pow)


def P(field, tokens):
    return PauliString.from_tokens(field, tokens.split())


def el(field, tokens, phase=0):
    """The (sites, phase) element of the scalar algebra in ``oracles``."""
    return P(field, tokens).sites, phase


def identity(n):
    return ((0, 0),) * n, 0


def random_element(field, n, rng):
    sites = tuple(
        (rng.randrange(field.q), rng.randrange(field.q)) for _ in range(n)
    )
    return sites, rng.randrange(field.p)


# -- the scalar product and phases, against Kronecker matrices -----------------------


def test_identity_is_neutral():
    f = GF(3)
    q = el(f, "x1z2 i z1", 2)
    assert pauli_mul(f, identity(3), q) == q
    assert pauli_mul(f, q, identity(3)) == q


def test_qubit_zx_reordering_phase():
    f = GF(2)
    z, x = el(f, "z1"), el(f, "x1")
    assert pauli_mul(f, z, x) == (((1, 1),), 1)  # ZX = omega XZ
    assert pauli_mul(f, x, z) == (((1, 1),), 0)
    mz, mx = dense_pauli(f, z[0]), dense_pauli(f, x[0])
    assert np.allclose(mz @ mx, dense_pauli(f, ((1, 1),), 1), atol=1e-10)


def test_qutrit_x_squared_times_x_squared():
    f = GF(3)
    x2 = el(f, "x2")
    assert pauli_mul(f, x2, x2) == (((1, 0),), 0)  # X^4 = X


def test_pow():
    f3 = GF(3)
    s = el(f3, "x1z1 z2")
    assert pauli_pow(f3, s, 1) == s
    assert pauli_pow(f3, s, 0) == identity(2)
    f2 = GF(2)
    assert pauli_pow(f2, el(f2, "x1"), 2) == identity(1)
    # q=3 single site: (XZ)^3 = I up to phase; dense oracle for the phase
    xz = el(f3, "x1z1")
    sites, phase = pauli_pow(f3, xz, 3)
    assert sites == ((0, 0),)
    m = dense_pauli(f3, xz[0])
    assert np.allclose(m @ m @ m, dense_pauli(f3, sites, phase), atol=1e-10)


# -- commutation ------------------------------------------------------------------


def test_commutation_examples():
    f2 = GF(2)
    assert commutation_exp(f2, P(f2, "x1 i").sites, P(f2, "x1 i").sites) == 0
    assert commutation_exp(f2, P(f2, "x1 i").sites, P(f2, "z1 i").sites) == 1
    f9 = GF(9)
    xa, za = P(f9, "x2").sites, P(f9, "z2").sites
    # the exponent is -tr(alpha^2) = tr(alpha^2) = 0 in the pinned GF(9)
    assert commutation_exp(f9, xa, za) == (-f9.trmul_table[2, 2]) % 3 == 0
    # dense cross-check on a non-commuting pair
    xb, zb = P(f9, "x1").sites, P(f9, "z1").sites
    s = commutation_exp(f9, xb, zb)
    mx, mz = dense_pauli(f9, xb), dense_pauli(f9, zb)
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(mx @ mz, omega**s * mz @ mx, atol=1e-10)
    assert s == 1  # -tr(1) = -2 = 1 mod 3


def test_commutation_antisymmetry_and_bilinearity_random():
    rng = random.Random(2024)
    fields = [GF(2), GF(3), GF(9)]
    for _ in range(10_000):
        f = rng.choice(fields)
        n = rng.randrange(1, 5)
        a, b, c = (random_element(f, n, rng) for _ in range(3))
        s_ab = commutation_exp(f, a[0], b[0])
        assert s_ab == (-commutation_exp(f, b[0], a[0])) % f.p
        lhs = commutation_exp(f, pauli_mul(f, a, c)[0], b[0])
        assert lhs == (s_ab + commutation_exp(f, c[0], b[0])) % f.p


def test_matrix_faithfulness_small_fields():
    # dense matrices of products agree entrywise with matrix products,
    # including phases, for q <= 4 and n <= 3; and the oracle's dense action
    # of each factor and of the product is its Kronecker-built matrix, lifted
    # by i**tr(a*b) per site when p = 2
    rng = random.Random(5)
    for q in (2, 3, 4):
        f = GF(q)
        for n in (1, 2, 3):
            for _ in range(8):
                a, b = random_element(f, n, rng), random_element(f, n, rng)
                prod = pauli_mul(f, a, b)
                mprod = dense_pauli(f, *prod)
                assert np.allclose(mprod, dense_pauli(f, *a) @ dense_pauli(f, *b), atol=1e-10)
                amps = rng_state(f, n, rng)
                for sites, _ in (a, b, prod):
                    assert np.allclose(apply_dense(PauliString(f, sites), amps),
                                       lifted_pauli(f, sites) @ amps, atol=1e-10)


def apply_dense(op, amps):
    (perm,), (factor,) = _lifted_actions(op.field, op.n, [op])
    out = np.zeros_like(amps)
    out[perm] = factor * amps
    return out


def rng_state(f, n, rng):
    dim = f.q**n
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)])


# -- weight and enumeration ---------------------------------------------------------


def test_weight():
    f2 = GF(2)
    assert PauliString(f2, ((0, 0),) * 4).weight() == 0
    assert P(f2, "i x1 i").weight() == 1
    assert P(f2, "i i z1 x1 z1 z1").weight() == 4


def test_weight_subadditive_under_products():
    rng = random.Random(41)
    for _ in range(500):
        f = rng.choice([GF(2), GF(3), GF(9)])
        a, b = random_element(f, 4, rng), random_element(f, 4, rng)
        prod = pauli_mul(f, a, b)
        assert PauliString(f, prod[0]).weight() <= sum(
            PauliString(f, sites).weight() for sites, _ in (a, b))


def test_enumerate_counts_and_order():
    f2 = GF(2)
    errs = list(enumerate_errors(f2, 2, 1))
    assert len(errs) == error_count(f2, 2, 1) == 6
    assert [e.sites for e in errs[:3]] == [
        (((0, 1)) , (0, 0)),
        (((1, 0)) , (0, 0)),
        (((1, 1)) , (0, 0)),
    ]
    assert len(list(enumerate_errors(GF(3), 2, 0))) == 1
    assert error_count(GF(3), 5, 2) == 640
    assert sum(1 for _ in enumerate_errors(GF(3), 3, 2)) == error_count(GF(3), 3, 2)
    seen = set(e.sites for e in enumerate_errors(GF(3), 3, 2))
    assert len(seen) == error_count(GF(3), 3, 2)  # each exactly once
    with pytest.raises(DomainError):
        next(enumerate_errors(f2, 2, 3))


def test_enumerate_follows_the_stated_order_in_every_field():
    # the scans' witness order, in full: against the nested-pairs reference
    # at every weight, n sized to about 10^4 strings (q**(2n)) per field
    for q, n in ((2, 7), (3, 4), (4, 3), (5, 3), (8, 2), (9, 2)):
        f = GF(q)
        for w in range(n + 1):
            assert [e.sites for e in enumerate_errors(f, n, w)] == all_errors(q, n, w)


# -- tokens ------------------------------------------------------------------------


def test_token_grammar():
    assert parse_site_token("i", 9) == (0, 0)
    assert parse_site_token("X2Z6", 9) == (2, 6)  # case-insensitive
    assert parse_site_token("z5", 9) == (0, 5)
    assert emit_site_token(0, 0) == "i"
    assert emit_site_token(2, 0) == "x2"
    assert emit_site_token(0, 3) == "z3"
    assert emit_site_token(1, 1) == "x1z1"
    for bad in ("y1", "xz", "x", "z", "", "x9", "z1x1", "z" + "1" * 5000):  # past int()'s limit
        with pytest.raises(DomainError):
            parse_site_token(bad, 9)
    f9 = GF(9)
    s = P(f9, "i x2 z5 x1z8")
    assert PauliString.from_tokens(f9, s.to_tokens()) == s


# -- dense action -----------------------------------------------------------------


def test_apply_examples():
    f3 = GF(3)
    out = apply_dense(P(f3, "x1"), np.array([0, 0, 1], dtype=complex))
    assert np.allclose(out, [1, 0, 0])  # X|2> = |0>
    f2 = GF(2)
    v = np.array([0, 1], dtype=complex)
    assert np.allclose(apply_dense(P(f2, "z1"), v), [0, -1])  # Z|1> = -|1>
    ident = PauliString(f2, ((0, 0),))
    assert np.allclose(apply_dense(ident, v), v)


def test_apply_galois_phase():
    # Z_a |j> picks up omega**tr(a*j)
    f4 = GF(4)
    out = apply_dense(P(f4, "z3"), np.eye(4, dtype=complex)[2])
    expect = np.exp(2j * np.pi / 2) ** int(f4.trmul_table[3, 2])
    assert np.allclose(out[2], expect)


def test_state_vector_validation():
    f2 = GF(2)
    with pytest.raises(DomainError):
        StateVector(f2, 2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(DomainError):
        StateVector(f2, 1, np.array([1.0, 1.0]))  # not normalized


def test_state_vector_holds_a_read_only_copy():
    amps = np.array([0.6, 0.8j])
    v = StateVector(GF(2), 1, amps)
    assert not v.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        v.amplitudes[0] = 1.0
    assert amps.flags.writeable
    amps[0] = 0.8  # the caller's array is neither frozen nor shared
    assert v.amplitudes[0] == 0.6
