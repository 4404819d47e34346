import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

from amecodes import codes, linalg, stabtab
from amecodes.codes import (BELOW_BOUND, QMDS, SUBOPTIMAL_QMDS, CodeParams,
                            GeneratorTable, check_commutation, check_independence,
                            classify_singleton, compute_distance,
                            find_min_undetectable, is_ame, subsystem_entropy)
from amecodes.errors import DomainError, ParseError, ResourceBudgetError
from amecodes.fields import GF
from amecodes.pauli import PauliString

from oracles import commutation_exp, min_group_weight, projective_group

AME_6_2 = """# stabtab v1
code n=6 q=2 k=0 d=4
g1: i i z1 x1 z1 z1
g2: i i x1 z1 x1z1 x1z1
g3: i z1 i z1 x1 z1
g4: i x1 i x1z1 z1 x1z1
g5: z1 i i z1 z1 x1
g6: x1 i i x1z1 x1z1 z1
"""

CODE_5_1_3_9 = """# stabtab v1
code n=5 q=9 k=1 d=3
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


def table(src):
    return stabtab.parse(src)


# -- CodeParams / classification ----------------------------------------------------


def test_code_params_validation():
    CodeParams(5, 1, 3, 2)
    with pytest.raises(DomainError):
        CodeParams(5, 1, 4, 2)  # violates the Singleton bound
    with pytest.raises(DomainError):
        CodeParams(0, 0, 1, 2)
    with pytest.raises(DomainError):
        CodeParams(3, 4, 1, 2)


def test_classify_singleton():
    assert classify_singleton(CodeParams(5, 1, 3, 2)) == QMDS
    assert classify_singleton(CodeParams(7, 1, 3, 2)) == BELOW_BOUND  # Steane
    assert classify_singleton(CodeParams(4, 1, 2, 2)) == SUBOPTIMAL_QMDS
    assert classify_singleton(CodeParams(6, 0, 4, 2)) == QMDS
    assert classify_singleton(CodeParams(5, 0, 3, 2)) == SUBOPTIMAL_QMDS


# -- stabtab format -------------------------------------------------------------------


def test_stabtab_round_trip():
    t = table(AME_6_2)
    assert stabtab.emit(t) == AME_6_2
    t9 = table(CODE_5_1_3_9)
    assert stabtab.emit(t9) == CODE_5_1_3_9
    assert t9.field.modulus == (1, 1, 2)


def test_stabtab_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=":3:"):
        stabtab.parse("# stabtab v1\ncode n=2 q=2\ngX: z1 z1\n")
    with pytest.raises(ParseError, match="expects 2 generators"):
        stabtab.parse("code n=2 q=2 k=0\ng1: z1 z1\n")
    with pytest.raises(ParseError, match="expected 2 site tokens"):
        stabtab.parse("code n=2 q=2\ng1: z1\ng2: x1 x1\n")
    with pytest.raises(ParseError, match="modulus line is required"):
        stabtab.parse("code n=2 q=4\ng1: z1 z1\ng2: x1 x1\n")
    with pytest.raises(ParseError, match="rows must be g1..gN in order"):
        stabtab.parse("code n=2 q=2\ng2: z1 z1\ng1: x1 x1\n")
    with pytest.raises(ParseError, match="bad site token"):
        stabtab.parse("code n=2 q=2\ng1: z1 y1\ng2: x1 x1\n")
    for code_line, line, message in [
        ("code n=2 q=2 foo=1", 2, "unknown code attribute 'foo'; expected n, q, k or d"),
        ("code n=2 q=2 k=0 d=2 d=3", 2, "repeated code attribute 'd'"),
        ("code n=2 q=2 k=3", 2, r"k=3 lies outside \[0, n\] for n=2"),
        ("code n=2 q=2 k=0 d=0", 2, "d must be >= 1, got 0"),
        ("code n=2 q=6 k=0 d=2", 2, "6 is not a prime power"),
        ("code n=2 q=2 k=0 d=9", 2,
         r"\[\[2,0,9\]\]_2 violates the quantum Singleton bound n-k >= 2\(d-1\)"),
        ("code n=2 q=4 k=0 d=2\nmodulus: 1,0,1", 3,
         r"modulus \(1, 0, 1\) is reducible over Z_2 .*"),
        ("code n=2 q=4 k=0", 2, "q=4 is a proper prime power; a modulus line is required"),
        ("code n=2 q=3 k=0\nmodulus: 1,0,1", 3, "q=3 is prime; modulus line not allowed"),
    ]:
        with pytest.raises(ParseError, match=f"^bad.stabtab:{line}: {message}$"):
            stabtab.parse(f"# stabtab v1\n{code_line}\ng1: z1 z1\ng2: x1 x1\n", "bad.stabtab")
    with pytest.raises(ParseError, match="^bad.stabtab:2: generator count 0 is not m"):
        stabtab.parse("# stabtab v1\ncode n=0 q=2\n", "bad.stabtab")


def test_generator_count_rules():
    f9 = GF(9)
    gens = tuple(PauliString.from_tokens(f9, ["z1"]) for _ in range(2))
    with pytest.raises(DomainError):
        GeneratorTable(f9, 1, gens[:1])  # 1 is not a multiple of m=2
    t = table(CODE_5_1_3_9)
    assert t.k == 1 and len(t.gens) == 8


# -- commutation / independence -------------------------------------------------------


def test_check_commutation():
    assert check_commutation(table(AME_6_2)) is None
    assert check_commutation(table(CODE_5_1_3_9)) is None
    f2 = GF(2)
    bad = GeneratorTable(f2, 2, (
        PauliString.from_tokens(f2, ["x1", "i"]),
        PauliString.from_tokens(f2, ["z1", "i"]),
    ))
    assert check_commutation(bad) == (0, 1)


def test_check_independence_and_witness():
    f2 = GF(2)
    zz = PauliString.from_tokens(f2, ["z1", "z1"])
    xx = PauliString.from_tokens(f2, ["x1", "x1"])
    assert check_independence(GeneratorTable(f2, 2, (zz, xx))) is None
    dup = GeneratorTable(f2, 2, (zz, zz))
    witness = check_independence(dup)
    assert witness is not None and list(witness) == [1, 1]
    mat = dup.symplectic_matrix()
    assert not np.any((witness @ mat) % 2)


@pytest.mark.parametrize("src", [AME_6_2, CODE_5_1_3_9])
def test_independence_matches_product_enumeration_oracle(src):
    # independence <=> all p**N generator products are projectively distinct
    t = table(src)
    if t.field.p ** len(t.gens) > 7000:
        t = table(AME_6_2)
    assert check_independence(t) is None
    assert len(projective_group(t)) == t.field.p ** len(t.gens)


# -- distance ---------------------------------------------------------------------------


def test_distance_catalog_examples():
    assert compute_distance(table(AME_6_2), 5) == 4
    assert compute_distance(table(CODE_5_1_3_9), 3) == 3


def test_distance_k0_matches_min_group_weight_oracle():
    for src in (AME_6_2, "code n=2 q=2 k=0\ng1: z1 z1\ng2: x1 x1\n"):
        t = table(src)
        assert compute_distance(t, t.n) == min_group_weight(t)


def test_distance_k0_counts_stabilizer_elements():
    # single generator Z on one site: Z itself is the undetectable error
    t = table("code n=1 q=2 k=0\ng1: z1\n")
    assert compute_distance(t, 1) == 1


def test_distance_k_positive_excludes_degenerate_errors():
    # [[4,2,2]]: weight-1 errors all detected, first logical at weight 2
    t = table("code n=4 q=2 k=2 d=2\ng1: z1 x1 z1 z1\ng2: x1 z1 x1z1 x1z1\n")
    w, err = find_min_undetectable(t, 3)
    assert w == 2
    assert compute_distance(t, 2) == 2
    # the witness is outside the projective group
    assert err.sites not in projective_group(t)


def test_distance_returns_none_above_dmax():
    t = table(AME_6_2)
    assert compute_distance(t, 3) is None


def test_kernel_witness_matches_streaming_enumeration_order():
    # the vectorized scan must report the same first undetectable error
    # as a plain walk over enumerate_errors
    from amecodes.pauli import enumerate_errors
    for src in (AME_6_2, "code n=4 q=2 k=2\ng1: z1 x1 z1 z1\ng2: x1 z1 x1z1 x1z1\n"):
        t = table(src)
        w, witness = find_min_undetectable(t, t.n)
        streamed = None
        group = projective_group(t) if t.k else None
        for err in enumerate_errors(t.field, t.n, w):
            if all(commutation_exp(t.field, err.sites, g.sites) == 0 for g in t.gens):
                if t.k and err.sites in group:
                    continue
                streamed = err
                break
        assert streamed is not None and streamed.sites == witness.sites


def test_distance_budget_guard():
    t = table(CODE_5_1_3_9)
    with pytest.raises(ResourceBudgetError):
        compute_distance(t, 3, budget=10_000)


def test_distance_refuses_a_negative_budget():
    t = table(AME_6_2)
    with pytest.raises(DomainError, match=r"^budget must be at least 0, got -1$"):
        compute_distance(t, 4, budget=-1)
    with pytest.raises(ResourceBudgetError, match=r"\(budget 0\)"):
        compute_distance(t, 4, budget=0)


def test_non_commuting_table_gives_one_witness_at_every_block_size():
    # site 0 holds group elements but no error that commutes with both
    # generators; its kernel is empty, so the screened scan moves on too
    t = table("code n=2 q=2 k=0\ng1: x1 i\ng2: z1 i\n")
    for block in (1, 97, codes._BLOCK_ROWS):
        with mock.patch.object(codes, "_BLOCK_ROWS", block):
            hit = find_min_undetectable(t, 2)
        assert (hit[0], str(hit[1])) == (1, "i z1"), block


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


def random_local_symplectic(t, rng):
    # site-wise SL(2, Z_p) maps preserve the commutation form (prime q)
    p = t.field.p
    def random_sl2():
        while True:
            m = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 1:
                return m
    maps = [random_sl2() for _ in range(t.n)]
    gens = []
    for g in t.gens:
        sites = []
        for (a, b), m in zip(g.sites, maps):
            sites.append((
                (m[0][0] * a + m[0][1] * b) % p,
                (m[1][0] * a + m[1][1] * b) % p,
            ))
        gens.append(PauliString(t.field, tuple(sites)))
    return GeneratorTable(t.field, t.n, tuple(gens), t.claimed)


def test_distance_invariance_properties():
    rng = random.Random(99)
    t = table(AME_6_2)
    base = compute_distance(t, 4)
    for _ in range(10):
        assert compute_distance(scramble(t, rng), 4) == base
        assert compute_distance(random_local_symplectic(t, rng), 4) == base
    reordered = GeneratorTable(t.field, t.n, tuple(reversed(t.gens)), t.claimed)
    assert compute_distance(reordered, 4) == base


# -- entropies and the AME check -----------------------------------------------------------


def test_subsystem_entropy_examples():
    bell = table("code n=2 q=2 k=0 d=2\ng1: z1 z1\ng2: x1 x1\n")
    assert subsystem_entropy(bell, [0]) == pytest.approx(1.0)
    t = table(AME_6_2)
    for a in itertools.combinations(range(6), 3):
        assert subsystem_entropy(t, a) == pytest.approx(3.0)
    assert subsystem_entropy(t, range(6)) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        subsystem_entropy(table("code n=4 q=2 k=2\ng1: z1 x1 z1 z1\ng2: x1 z1 x1z1 x1z1\n"), [0])
    with pytest.raises(DomainError):
        subsystem_entropy(t, [])


def test_subsystem_entropy_gf9_uses_log2q():
    f9 = GF(9)
    bell9 = GeneratorTable(f9, 2, tuple(
        PauliString.from_tokens(f9, r.split())
        for r in ("z1 z1", "z2 z2", "x1 x5", "x2 x6")
    ))
    assert check_commutation(bell9) is None
    assert subsystem_entropy(bell9, [0]) == pytest.approx(math.log2(9))


def test_is_ame():
    assert is_ame(table(AME_6_2))
    ghz = table("code n=4 q=2 k=0\ng1: z1 z1 i i\ng2: i z1 z1 i\ng3: i i z1 z1\ng4: x1 x1 x1 x1\n")
    assert not is_ame(ghz)
    product = table("code n=2 q=2 k=0\ng1: z1 i\ng2: i z1\n")
    assert not is_ame(product)
    with pytest.raises(DomainError):
        is_ame(table("code n=4 q=2 k=2\ng1: z1 x1 z1 z1\ng2: x1 z1 x1z1 x1z1\n"))


def test_subsystem_entropy_scales_to_fourteen_sites():
    # rank method needs no dense vectors: a 14-qubit GHZ-type table
    f2 = GF(2)
    rows = []
    for i in range(13):
        rows.append(PauliString.from_tokens(
            f2, ["z1" if j in (i, i + 1) else "i" for j in range(14)]))
    rows.append(PauliString.from_tokens(f2, ["x1"] * 14))
    t = GeneratorTable(f2, 14, tuple(rows))
    assert check_commutation(t) is None and check_independence(t) is None
    for size in (1, 3, 7):
        assert subsystem_entropy(t, range(size)) == pytest.approx(1.0)


def test_ame_entropy_cross_check():
    t = table(AME_6_2)
    assert is_ame(t)
    for size in (1, 2, 3):
        for a in itertools.combinations(range(6), size):
            assert subsystem_entropy(t, a) == pytest.approx(float(size))
