"""Property tests of ``linalg``: ``rref`` gives the reduced row echelon
form and pivots of a one-row-at-a-time elimination, ``nullspace``'s
rows are an independent basis of the right kernel mod p, for tall, wide
and all-zero matrices, and ``same_row_span`` agrees with comparing the
two matrices' reduced forms."""

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


@st.composite
def span_pairs(draw, primes=(2, 3, 5, 7), largest=8):
    """(a, b, p, same): a spans rows 0..r-1 of a random invertible matrix M
    and b spans the rows of M in a drawn subset S, each padded with random
    combinations of its rows and shuffled; ``same`` is S == {0..r-1}.  So
    the spans differ at equal rank when |S| = r and S is another subset, and
    the ranks differ otherwise."""
    p = draw(st.sampled_from(primes))
    cols = draw(st.integers(1, largest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        basis = rng.integers(0, p, (cols, cols))
        if len(rref_rows(basis.tolist(), p)[1]) == cols:
            break
    r = draw(st.integers(0, cols))
    size = draw(st.one_of(st.just(r), st.integers(0, cols)))  # equal rank half the time
    rows = sorted(draw(st.sets(st.integers(0, cols - 1), min_size=size, max_size=size)))

    def spanning(sel):
        gens = basis[sel]
        mixed = rng.integers(0, p, (draw(st.integers(1, 3)), len(sel))) @ gens
        return rng.permutation(np.vstack([gens, mixed]) % p)

    return spanning(list(range(r))), spanning(rows), p, rows == list(range(r))


@settings(max_examples=300, deadline=None)
@given(span_pairs())
def test_same_row_span_is_equality_of_the_reduced_forms(case):
    a, b, p, same = case
    def span(mat):
        return [row for row in rref_rows(mat.tolist(), p)[0] if any(row)]
    assert linalg.same_row_span(a, b, p) == same == (span(a) == span(b))
    assert linalg.same_row_span(b, a, p) == same
