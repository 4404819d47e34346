import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amecodes import linalg, stabtab
from amecodes.codes import (GeneratorTable, check_commutation,
                            check_independence, compute_distance, subsystem_entropy)
from amecodes.errors import DomainError, ReductionError
from amecodes.fields import GF
from amecodes.pauli import PauliString
from amecodes.reduction import (ReductionFriendlyForm, _greedy_pivots, block_width,
                                child_code, derive_family, to_reduction_friendly)
from oracles import greedy_pivot_rows

AME_2_2 = "code n=2 q=2 k=0 d=2\ng1: z1 z1\ng2: x1 x1\n"
AME_3_2 = "code n=3 q=2 k=0 d=2\ng1: i z1 z1\ng2: z1 i z1\ng3: x1 x1 x1\n"
AME_6_2 = """code n=6 q=2 k=0 d=4
g1: i i z1 x1 z1 z1
g2: i i x1 z1 x1z1 x1z1
g3: i z1 i z1 x1 z1
g4: i x1 i x1z1 z1 x1z1
g5: z1 i i z1 z1 x1
g6: x1 i i x1z1 x1z1 z1
"""
AME_5_2_DERIVED = """code n=5 q=2 k=0 d=3
g1: i i x1z1 z1 x1z1
g2: i z1 x1z1 x1z1 z1
g3: i x1 z1 z1 x1
g4: z1 i z1 x1z1 x1z1
g5: x1 i x1 z1 z1
"""
AME_4_3 = """code n=4 q=3 k=0 d=3
g1: i z1 z1 z2
g2: i x1 x1 x2
g3: z1 i z1 z1
g4: x1 i x1 x1
"""
CODE_5_1_3_9 = """code n=5 q=9 k=1 d=3
modulus: 1,1,2
g1: i z1 x1z5 z5 x5z1
g2: i z2 x2z6 z6 x6z2
g3: i x1 z1 x5 z5
g4: i x2 z2 x6 z6
g5: z1 i z5 x1z5 x5z1
g6: z2 i z6 x2z6 x6z2
g7: x1 i x5 z1 z5
g8: x2 i x6 z2 z6
"""

ALL_AME = [AME_2_2, AME_3_2, AME_5_2_DERIVED, AME_6_2, AME_4_3]


def rows(t):
    return [str(g) for g in t.gens]


def scramble(t, rng):
    p = t.field.p
    n_rows = len(t.gens)
    while True:
        c = np.array([[rng.randrange(p) for _ in range(n_rows)] for _ in range(n_rows)])
        if linalg.rank(c, p) == n_rows:
            break
    mat = (c @ t.symplectic_matrix()) % p
    gens = tuple(PauliString.from_symplectic(t.field, mat[i], t.n) for i in range(n_rows))
    return GeneratorTable(t.field, t.n, gens, t.claimed)


# -- fixed points -------------------------------------------------------------


@pytest.mark.parametrize("src,layout", [
    (AME_2_2, "even"), (AME_3_2, "odd"), (AME_5_2_DERIVED, "odd"),
    (AME_6_2, "even"), (AME_4_3, "even"), (CODE_5_1_3_9, "even"),
])
def test_canonical_tables_are_fixed_points(src, layout):
    t = stabtab.parse(src)
    form = to_reduction_friendly(t)
    assert rows(form.table) == rows(t)
    assert form.layout == layout
    form.validate()


def test_idempotence():
    t = stabtab.parse(AME_6_2)
    once = to_reduction_friendly(t)
    twice = to_reduction_friendly(once.table)
    assert rows(twice.table) == rows(once.table)


# -- pivots ------------------------------------------------------------------------


def find_pivot_rows(table, site):
    """The pivots that canonicalization picks on ``site`` before any row is
    cleared: the 2m lowest-index rows spanning its single-site space."""
    f = table.field
    return _greedy_pivots(table.symplectic_matrix(), list(range(len(table.gens))), site,
                          f.m, f.p, 1)


def test_find_pivot_rows():
    t22 = stabtab.parse(AME_2_2)
    assert find_pivot_rows(t22, 0) == [0, 1]
    t52 = stabtab.parse(AME_5_2_DERIVED)
    assert find_pivot_rows(t52, 0) == [3, 4]  # the z.../x... rows
    t9 = stabtab.parse(CODE_5_1_3_9)
    assert find_pivot_rows(t9, 0) == [4, 5, 6, 7]


@st.composite
def pivot_tables(draw):
    field = draw(st.sampled_from([GF(3), GF(5), GF(4), GF(9)]))
    n = draw(st.integers(1, 5))
    pair = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, field.q - 1),
                                                st.integers(0, field.q - 1)))
    n_rows = field.m * draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(pair, min_size=n, max_size=n),
                         min_size=n_rows, max_size=n_rows))
    gens = tuple(PauliString(field, tuple(r)) for r in rows)
    return GeneratorTable(field, n, gens), draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(pivot_tables())
def test_find_pivot_rows_is_the_greedy_incremental_rank_rule(case):
    table, site = case
    expected = greedy_pivot_rows(table, site)
    if expected is None:
        with pytest.raises(ReductionError, match=f"no independent pivot on site {site}"):
            find_pivot_rows(table, site)
    else:
        assert find_pivot_rows(table, site) == expected


def test_pivot_deficiency_is_distance_one_signal():
    # no generator touches site 0: canonicalization must refuse
    f2 = GF(2)
    t = GeneratorTable(f2, 3, (
        PauliString.from_tokens(f2, ["i", "z1", "z1"]),
        PauliString.from_tokens(f2, ["i", "x1", "x1"]),
    ))
    with pytest.raises(ReductionError, match="no independent pivot"):
        to_reduction_friendly(t)
    with pytest.raises(ReductionError, match="no independent pivot"):
        find_pivot_rows(t, 0)


def test_pivot_failure_names_the_site_that_is_not_uniform():
    # distance 2, yet S({0,1}) = 1 bit: not 2-uniform, so site 1 has no pivot
    t = stabtab.parse(
        "code n=4 q=2\ng1: x1 z1 i z1\ng2: z1 x1 i z1\ng3: i i x1 z1\ng4: z1 z1 z1 x1\n"
    )
    assert compute_distance(t, 3) == 2
    assert subsystem_entropy(t, [0, 1]) == 1.0
    with pytest.raises(ReductionError, match="on site 1: .* not 2-uniform"):
        to_reduction_friendly(t)
    assert find_pivot_rows(t, 1) == [0, 1]  # site 1 alone is maximally mixed


def test_family_distance_miss_raises_reduction_error():
    # two Bell pairs: with no d= the parent is taken as AME [[4,0,3]]_2
    t = stabtab.parse("code n=4 q=2\ng1: x1 i i z1\ng2: i x1 z1 i\ng3: i z1 x1 i\ng4: z1 i i x1\n")
    with pytest.raises(ReductionError, match=r"\[\[4,0,3\]\]_2 has distance 2, expected 3"):
        derive_family(t)
    assert len(derive_family(t, verify=False)) == 2


@pytest.mark.parametrize("verify", [True, False])
def test_family_refuses_a_negative_budget_before_canonicalizing(verify):
    # the table does not commute: the budget is checked before the form is built
    t = stabtab.parse("code n=2 q=2 k=0\ng1: x1 i\ng2: z1 i\n")
    with pytest.raises(DomainError, match=r"^budget must be at least 0, got -7$"):
        derive_family(t, verify=verify, budget=-7)


def test_to_reduction_friendly_rejects_broken_tables():
    f2 = GF(2)
    anti = GeneratorTable(f2, 2, (
        PauliString.from_tokens(f2, ["x1", "i"]),
        PauliString.from_tokens(f2, ["z1", "i"]),
    ))
    with pytest.raises(DomainError, match="do not commute"):
        to_reduction_friendly(anti)


# -- children ---------------------------------------------------------------------------


def test_children_of_ame_6_2_match_printed_tables():
    fam = derive_family(stabtab.parse(AME_6_2))
    assert [p.label() for p, _ in fam] == ["[[6,0,4]]_2", "[[5,1,3]]_2", "[[4,2,2]]_2"]
    assert rows(fam[1][1]) == [
        "i z1 x1 z1 z1",
        "i x1 z1 x1z1 x1z1",
        "z1 i z1 x1 z1",
        "x1 i x1z1 z1 x1z1",
    ]
    assert rows(fam[2][1]) == ["z1 x1 z1 z1", "x1 z1 x1z1 x1z1"]


def test_children_of_gf9_code():
    fam = derive_family(stabtab.parse(CODE_5_1_3_9))
    assert [p.label() for p, _ in fam] == ["[[5,1,3]]_9", "[[4,2,2]]_9"]
    child = fam[1][1]
    # parent-consistent rows: column 1 deleted from g1..g4
    assert rows(child) == [
        "z1 x1z5 z5 x5z1",
        "z2 x2z6 z6 x6z2",
        "x1 z1 x5 z5",
        "x2 z2 x6 z6",
    ]
    assert compute_distance(child, 2) == 2


def test_family_parameter_ladder():
    from amecodes.codes import QMDS, SUBOPTIMAL_QMDS, classify_singleton
    for src in ALL_AME:
        t = stabtab.parse(src)
        n = t.n
        fam = derive_family(t)
        expect = [(n - k, k, n // 2 + 1 - k) for k in range(n // 2)]
        assert [(p.n, p.k, p.d) for p, _ in fam] == expect
        for p, child in fam:
            assert check_commutation(child) is None
            assert check_independence(child) is None
            assert compute_distance(child, p.d) == p.d
            # even gaps saturate the Singleton bound, odd gaps get within one
            want = QMDS if (p.n - p.k) % 2 == 0 else SUBOPTIMAL_QMDS
            assert classify_singleton(p) == want


def test_no_children_below_distance_two():
    fam = derive_family(stabtab.parse(AME_2_2))
    assert len(fam) == 1
    form = to_reduction_friendly(stabtab.parse(AME_2_2))
    with pytest.raises(DomainError, match="distance 1|no reduction steps"):
        child_code(form)


def test_child_code_requires_remaining_rows():
    t = stabtab.parse("code n=4 q=2 k=2 d=2\ng1: z1 x1 z1 z1\ng2: x1 z1 x1z1 x1z1\n")
    form = to_reduction_friendly(t)
    with pytest.raises(DomainError):
        child_code(form)


# -- span preservation and scrambles -----------------------------------------------------


@pytest.mark.parametrize("src", ALL_AME + [CODE_5_1_3_9])
def test_span_preserved(src):
    t = stabtab.parse(src)
    out = to_reduction_friendly(t).table
    assert linalg.same_row_span(out.symplectic_matrix(), t.symplectic_matrix(), t.field.p)


def test_scramble_robustness_sample():
    # acceptance runs 100 per table; a smaller deterministic sample here
    rng = random.Random(314)
    for src in ALL_AME:
        t = stabtab.parse(src)
        for _ in range(10):
            s = scramble(t, rng)
            form = to_reduction_friendly(s)
            form.validate()
            assert linalg.same_row_span(
                form.table.symplectic_matrix(), t.symplectic_matrix(), t.field.p
            )
            fam = derive_family(s)
            assert [(p.n, p.k, p.d) for p, _ in fam] == \
                [(t.n - k, k, t.n // 2 + 1 - k) for k in range(t.n // 2)]


def test_scrambled_gf9_table_recanonicalizes():
    rng = random.Random(1)
    t = stabtab.parse(CODE_5_1_3_9)
    for _ in range(5):
        s = scramble(t, rng)
        form = to_reduction_friendly(s)
        form.validate()
        assert block_width(form.table) == 2
        assert linalg.same_row_span(
            form.table.symplectic_matrix(), t.symplectic_matrix(), 3
        )


def test_layout_validation_catches_wrong_blocks():
    t = stabtab.parse(AME_6_2)
    bad = ReductionFriendlyForm(t, 3, "odd")
    with pytest.raises(DomainError):
        bad.validate()
    shuffled = GeneratorTable(t.field, t.n, tuple(reversed(t.gens)), t.claimed)
    with pytest.raises(DomainError):
        ReductionFriendlyForm(shuffled, 3, "even").validate()
