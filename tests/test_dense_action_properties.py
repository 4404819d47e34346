"""Property tests: the oracle's dense action ``_lifted_actions`` against the
Kronecker-built matrices of ``tests/oracles.dense_pauli``, lifted by
i**tr(a*b) per site when p = 2, and the order p and Hermiticity that the
eigenspace projector relies on.

Covers every field family the package ships (prime fields and GF(4),
GF(8), GF(9)) at every dimension the dense oracle accepts, q^n <= 4096.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amecodes.fields import GF
from amecodes.oracle import DENSE_BUDGET, _lifted_actions
from amecodes.pauli import PauliString
from oracles import lifted_pauli

FIELDS = [GF(q) for q in (2, 3, 5, 7, 4, 8, 9)]
SETTINGS = settings(max_examples=60, deadline=None)
FULL_MATRIX_DIM = 256


@st.composite
def operators(draw, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 4).filter(lambda n: field.q**n <= DENSE_BUDGET))
    pair = st.tuples(st.integers(0, field.q - 1), st.integers(0, field.q - 1))
    sites = draw(st.lists(pair, min_size=n, max_size=n))
    return PauliString(field, tuple(sites))


def kron_apply(op, vec):
    """lifted_pauli(op.field, op.sites) @ vec, applying one single-site
    factor per axis of vec reshaped to (q,) * n (site 0 first)."""
    f = op.field
    out = vec.reshape((f.q,) * op.n)
    for axis, site in enumerate(op.sites):
        out = np.moveaxis(np.tensordot(lifted_pauli(f, [site]), out, axes=([1], [axis])), 0, axis)
    return out.reshape(-1)


def apply_action(perm, factor, vec):
    out = np.zeros_like(vec)
    out[perm] = factor * vec
    return out


@SETTINGS
@given(operators())
def test_dense_action_is_the_kronecker_matrix(op):
    dim = op.field.q**op.n
    # source j carries amplitude j + 1, so the reference image names, at each
    # target, the source that moved there and the phase it picked up
    src = np.arange(1, dim + 1, dtype=np.complex128)
    image = kron_apply(op, src)
    if dim <= FULL_MATRIX_DIM:
        full = lifted_pauli(op.field, op.sites)
        assert np.allclose(image, full @ src, atol=1e-10)
    moved = np.rint(np.abs(image)).astype(np.int64) - 1
    (perm,), (factor,) = _lifted_actions(op.field, op.n, [op])
    assert np.array_equal(perm[moved], np.arange(dim))
    assert np.allclose(factor[moved], image / (moved + 1), atol=1e-10)


@SETTINGS
@given(operators())
def test_lifted_action_has_order_p(op):
    (perm,), (factor,) = _lifted_actions(op.field, op.n, [op])
    vec = np.random.default_rng(0).standard_normal(len(perm)) + 0j
    cur = vec
    for _ in range(op.field.p):
        cur = apply_action(perm, factor, cur)
    assert np.allclose(cur, vec, atol=1e-10)


@SETTINGS
@given(operators([f for f in FIELDS if f.p == 2]))
def test_lifted_action_is_hermitian_for_p_2(op):
    # U[perm[j], j] = factor[j]; U = U^dagger iff perm is an involution and
    # the entry mirrored across the diagonal is the conjugate
    (perm,), (factor,) = _lifted_actions(op.field, op.n, [op])
    assert np.array_equal(perm[perm], np.arange(len(perm)))
    assert np.allclose(factor[perm], factor.conj(), atol=1e-12)
