"""Property tests of ``linalg``: ``rref`` gives the reduced row echelon
form and pivots of a one-row-at-a-time elimination, and ``nullspace``'s
rows are an independent basis of the right kernel mod p, for tall, wide
and all-zero matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amecodes import linalg
from oracles import rref_rows


@st.composite
def matrices(draw, primes=(2, 3, 5, 7), largest=9):
    """(matrix, p): a product of random factors, so its rank is drawn too;
    rank 0 gives the zero matrix."""
    p = draw(st.sampled_from(primes))
    rows, cols = draw(st.integers(1, largest)), draw(st.integers(1, largest))
    inner = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.integers(0, p, (rows, inner)) @ rng.integers(0, p, (inner, cols))) % p, p


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_is_a_basis_of_the_kernel(case):
    mat, p = case
    basis = linalg.nullspace(mat, p)
    assert basis.shape == (mat.shape[1] - linalg.rank(mat, p), mat.shape[1])
    assert not ((mat @ basis.T) % p).any()
    assert linalg.rank(basis, p) == len(basis)


@settings(max_examples=200, deadline=None)
@given(matrices(primes=(3, 5, 7, 13), largest=16))
def test_rref_matches_the_row_by_row_elimination(case):
    mat, p = case
    red, pivots = linalg.rref(mat, p)
    want, want_pivots = rref_rows(mat.tolist(), p)
    assert red.tolist() == want and pivots == want_pivots
