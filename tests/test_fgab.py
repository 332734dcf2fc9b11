from __future__ import annotations

import math
import random

import oracles
import pytest
from projd.fgab import (
    FgAbGroup,
    Subgroup,
    hnf_reduce,
    kernel_basis,
    row_hnf,
    smith_normal_form,
    solve_linear,
    subgroup_index,
    subgroup_member,
)


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _assert_snf_contract(mat):
    U, S, V = smith_normal_form(mat)
    m, n = len(mat), len(mat[0]) if mat else 0
    assert oracles.mat_mul(oracles.mat_mul(U, mat), V) == S
    assert abs(oracles.det(U)) == 1
    assert abs(oracles.det(V)) == 1
    diag = [S[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return U, S, V


def test_smith_diagonal_pair_merges():
    _, S, _ = smith_normal_form([[2, 0], [0, 3]])
    assert (S[0][0], S[1][1]) == (1, 6)


def test_smith_contract_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = _random_matrix(rng, m, n)
        _assert_snf_contract(mat)
    _assert_snf_contract([[0, 0], [0, 0]])
    _assert_snf_contract([[1]])


def test_smith_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(13)
    mats = [[[0, 0], [0, 0]], [[2, 4], [6, 8]], [[0, 0, 0], [0, 0, 2]]]
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        # a small entry range leaves many singular and repeated-factor cases
        mats.append(_random_matrix(rng, m, n, *rng.choice([(-2, 2), (-9, 9)])))
    for mat in mats:
        _, S, _ = smith_normal_form(mat)
        ours = tuple(S[i][i] for i in range(min(len(mat), len(mat[0]))))
        theirs = invariant_factors(sympy.Matrix(mat), domain=sympy.ZZ)
        assert ours == tuple(abs(int(a)) for a in theirs), mat


def test_smith_is_deterministic():
    mat = [[4, -6, 2], [6, 12, -3]]
    first = smith_normal_form(mat)
    second = smith_normal_form(mat)
    assert first == second


def test_row_hnf_is_canonical_and_spans():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = _random_matrix(rng, k, n, -5, 5)
        h = row_hnf(rows, n)
        for row in rows:
            assert oracles.in_lattice(h, row)
        for row in h:
            assert oracles.in_lattice(row_hnf(rows + [list(r) for r in h], n), row)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert row_hnf(shuffled, n) == h
        for i, row in enumerate(h):
            p = next(j for j, a in enumerate(row) if a)
            assert row[p] > 0
            for above in h[:i]:
                assert 0 <= above[p] < row[p]


def test_hnf_reduce_gives_coset_normal_form():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        basis = row_hnf(_random_matrix(rng, rng.randint(1, n), n, -4, 4), n)
        v = [rng.randint(-8, 8) for _ in range(n)]
        red = hnf_reduce(basis, v)
        assert oracles.in_lattice(basis, [a - b for a, b in zip(v, red)])
        if basis:
            shift = [a + b for a, b in zip(v, basis[0])]
            assert hnf_reduce(basis, shift) == red


def test_solve_linear_finds_witnessed_solutions():
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = _random_matrix(rng, m, n, -6, 6)
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = oracles.mat_vec(A, x0)
        x = solve_linear(A, b)
        assert x is not None
        assert oracles.mat_vec(A, x) == b


def test_solve_linear_reports_unsolvable_exactly():
    rng = random.Random(19)
    checked = 0
    while checked < 15:
        A = _random_matrix(rng, 2, 2, -3, 3)
        b = [rng.randint(-4, 4) for _ in range(2)]
        x = solve_linear(A, b)
        if x is not None:
            assert oracles.mat_vec(A, x) == b
            continue
        for cand in oracles.box(2, -30, 30):
            assert oracles.mat_vec(A, list(cand)) != b
        checked += 1


def test_kernel_basis_matches_box_enumeration():
    rng = random.Random(23)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = _random_matrix(rng, m, n, -4, 4)
        K = kernel_basis(A)
        for row in K:
            assert all(v == 0 for v in oracles.mat_vec(A, list(row)))
        for cand in oracles.box(n, -3, 3):
            if all(v == 0 for v in oracles.mat_vec(A, list(cand))):
                assert oracles.in_lattice(K, list(cand))
    assert kernel_basis([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _rank_deficient(rng, m, n, rank, lo=-3, hi=3):
    return oracles.mat_mul(_random_matrix(rng, m, rank, lo, hi),
                           _random_matrix(rng, rank, n, lo, hi))


def test_hermite_kernel_and_solve_match_the_smith_oracles():
    rng = random.Random(59)
    cases = [([], 3), ([[], [], []], 0), ([[0] * 4 for _ in range(3)], 4)]
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.3 and min(m, n) > 1:
            mat = _rank_deficient(rng, m, n, rng.randint(1, min(m, n) - 1))
        else:
            mat = _random_matrix(rng, m, n, -50, 50)
        cases.append((mat, n))
    answers = set()
    for mat, n in cases:
        assert kernel_basis(mat, n) == oracles.kernel_basis_by_smith(mat, n), mat
        m = len(mat)
        x0 = [rng.randint(-9, 9) for _ in range(n)]
        for b in (oracles.mat_vec(mat, x0), [rng.randint(-50, 50) for _ in range(m)]):
            x = solve_linear(mat, b, n)
            assert (x is None) == (oracles.solve_linear_by_smith(mat, b, n) is None), (mat, b)
            if x is not None:
                assert len(x) == n and oracles.mat_vec(mat, x) == b, (mat, b)
            answers.add(x is None)
    assert answers == {True, False}


def test_subgroup_member_witness_covers_every_generator_in_dimension_zero():
    for G in (FgAbGroup(0), FgAbGroup(0, [2])):
        gens = [G.zero(), G.zero()] + G.standard_generators()
        H = G.subgroup(gens)
        for d in [G.zero()] + G.standard_generators():
            ok, witness = subgroup_member(H, d)
            assert ok and len(witness) == len(gens)
            combo = G.zero()
            for c, g in zip(witness, gens):
                combo = combo + c * g
            assert combo == d


def test_group_torsion_normalizes_to_divisor_chain():
    assert FgAbGroup(1, [2, 3]).torsion == (6,)
    assert FgAbGroup(0, [4, 6]).torsion == (2, 12)
    assert FgAbGroup(2).torsion == ()
    assert FgAbGroup(1, [1, 2]).torsion == (2,)
    assert FgAbGroup(1, [2, 3]) == FgAbGroup(1, [6])


def test_group_element_conversion_preserves_order():
    G = FgAbGroup(0, [2, 3])
    e = G.element((), (1, 2))
    acc = e
    orders = []
    for k in range(2, 8):
        acc = acc + e
        if acc.is_zero():
            orders.append(k)
    assert orders and orders[0] == 6


def test_element_arithmetic_reduces_torsion():
    G = FgAbGroup(1, [2])
    a = G.element((1,), (1,))
    assert (a + a).torsion == (0,)
    assert (-a).torsion == (1,)
    assert (3 * a).free == (3,)
    assert str(a) == "(1 | 1 mod 2)"
    assert str(G.element((4,), (0,))) == "(4 | 0 mod 2)"
    assert str(FgAbGroup(2).element((1, -2), ())) == "(1, -2)"
    b = G.element((3,), (0,))
    assert (b - a).lift() == (2, 1)  # torsion 0 - 1 reduced mod 2
    assert a - a == G.zero()
    with pytest.raises(ValueError):
        a - FgAbGroup(1, [3]).element((1,), (1,))
    # e_i over every coordinate, free ones first
    assert [str(g) for g in G.standard_generators()] == ["(1 | 0 mod 2)", "(0 | 1 mod 2)"]


def test_subgroup_index_examples():
    G = FgAbGroup(1, [2])
    assert subgroup_index(G, G.subgroup([G.element((1,), (0,))])) == 2
    Z2 = FgAbGroup(2)
    H = Z2.subgroup([Z2.element((1, 0)), Z2.element((1, 1))])
    assert subgroup_index(Z2, H) == 1
    assert subgroup_index(Z2, Z2.subgroup([Z2.element((2, 0))])) == math.inf
    assert subgroup_index(G, G.subgroup(G.standard_generators())) == 1
    assert subgroup_index(Z2, Z2.subgroup(Z2.standard_generators())) == 1
    F = FgAbGroup(0, [2])
    assert subgroup_index(F, F.subgroup([])) == 2
    assert subgroup_index(FgAbGroup(0), FgAbGroup(0).subgroup([])) == 1


def test_subgroup_index_agrees_with_smith_oracle():
    rng = random.Random(31)
    for _ in range(40):
        rank = rng.randint(0, 2)
        torsion = rng.choice([(), (2,), (3,), (2, 4), (6,)])
        G = FgAbGroup(rank, torsion)
        if G.dim == 0:
            continue
        gens = [G.from_lift([rng.randint(-3, 3) for _ in range(G.dim)])
                for _ in range(rng.randint(0, 3))]
        H = G.subgroup(gens)
        assert subgroup_index(G, H) == oracles.subgroup_index_by_smith(G, H)


def test_subgroup_contains_agrees_with_smith_witness():
    rng = random.Random(47)
    answers = set()
    for _ in range(60):
        G = FgAbGroup(rng.randint(0, 2), rng.choice([(), (2,), (2, 4), (6,)]))
        gens = [G.from_lift([rng.randint(-3, 3) for _ in range(G.dim)])
                for _ in range(rng.randint(0, 3))]
        H = G.subgroup(gens)
        for _ in range(12):
            d = G.from_lift([rng.randint(-4, 4) for _ in range(G.dim)])
            got = H.contains(d)
            assert got == subgroup_member(H, d)[0], (G, gens, d)
            answers.add(got)
    assert answers == {True, False}


def test_subgroup_member_examples():
    G = FgAbGroup(1, [2])
    H = G.subgroup([G.element((1,), (1,))])
    ok, witness = subgroup_member(H, G.element((2,), (0,)))
    assert ok
    combo = witness[0] * H.generators[0]
    assert combo == G.element((2,), (0,))
    H2 = G.subgroup([G.element((1,), (0,))])
    ok, witness = subgroup_member(H2, G.element((1,), (1,)))
    assert not ok and witness is None


def test_subgroup_member_witness_recombines_randomly():
    rng = random.Random(37)
    for _ in range(50):
        rank = rng.randint(0, 2)
        torsion = rng.choice([(), (2,), (2, 2), (4,), (3,)])
        G = FgAbGroup(rank, torsion)
        gens = [G.from_lift([rng.randint(-3, 3) for _ in range(G.dim)])
                for _ in range(rng.randint(1, 3))]
        H = G.subgroup(gens)
        coeffs = [rng.randint(-3, 3) for _ in gens]
        target = G.zero()
        for c, g in zip(coeffs, gens):
            target = target + c * g
        ok, witness = subgroup_member(H, target)
        assert ok
        combo = G.zero()
        for c, g in zip(witness, gens):
            combo = combo + c * g
        assert combo == target


def test_subgroup_member_negative_answers_via_brute_force():
    rng = random.Random(41)
    checked = 0
    while checked < 20:
        G = FgAbGroup(1, [2])
        gens = [G.from_lift([rng.randint(-2, 2), rng.randint(0, 1)])
                for _ in range(rng.randint(1, 2))]
        H = G.subgroup(gens)
        d = G.from_lift([rng.randint(-3, 3), rng.randint(0, 1)])
        ok, witness = subgroup_member(H, d)
        lifted = [list(g.lift()) for g in gens] + G.torsion_relation_rows()
        brute = oracles.brute_combination(lifted, list(d.lift()), 6)
        if ok:
            assert brute is not None or witness is not None
        else:
            assert brute is None
            checked += 1


def test_subgroup_intersection_examples():
    G = FgAbGroup(1, [2])
    H1 = G.subgroup([G.element((1,), (0,))])
    H2 = G.subgroup([G.element((1,), (1,))])
    meet = oracles.subgroup_intersection(H1, H2)
    assert meet == G.subgroup([G.element((2,), (0,))])
    Z2 = FgAbGroup(2)
    A = Z2.subgroup([Z2.element((2, 0)), Z2.element((0, 2))])
    B = Z2.subgroup([Z2.element((1, 1))])
    assert oracles.subgroup_intersection(A, B) == Z2.subgroup([Z2.element((2, 2))])


def test_subgroup_intersection_membership_property():
    rng = random.Random(43)
    for _ in range(25):
        rank = rng.randint(1, 2)
        torsion = rng.choice([(), (2,), (3,)])
        G = FgAbGroup(rank, torsion)
        mk = lambda: G.subgroup([G.from_lift([rng.randint(-2, 2) for _ in range(G.dim)])
                                 for _ in range(rng.randint(1, 2))])
        H1, H2 = mk(), mk()
        meet = oracles.subgroup_intersection(H1, H2)
        for lift in oracles.box(G.dim, -2, 2):
            d = G.from_lift(list(lift))
            both = H1.contains(d) and H2.contains(d)
            assert meet.contains(d) == both


def test_subgroup_equality_is_mutual_membership():
    Z2 = FgAbGroup(2)
    a = Z2.subgroup([Z2.element((1, 0)), Z2.element((0, 1))])
    b = Z2.subgroup([Z2.element((1, 1)), Z2.element((0, 1))])
    assert a == b
    c = Z2.subgroup([Z2.element((2, 0)), Z2.element((0, 1))])
    assert a != c


def test_lattice_intersection_against_box():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(1, 3)
        r1 = _random_matrix(rng, rng.randint(1, 2), n, -3, 3)
        r2 = _random_matrix(rng, rng.randint(1, 2), n, -3, 3)
        meet = oracles.lattice_intersection(r1, r2, n)
        h1, h2 = row_hnf(r1, n), row_hnf(r2, n)
        for row in meet:
            assert oracles.in_lattice(h1, row) and oracles.in_lattice(h2, row)
        for cand in oracles.box(n, -4, 4):
            cand = list(cand)
            if oracles.in_lattice(h1, cand) and oracles.in_lattice(h2, cand):
                assert oracles.in_lattice(meet, cand)
