from __future__ import annotations

import inspect
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles
import projd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from projd.diophantine import (
    ConstrainedSemigroup,
    bounded_minimal_solutions,
    hilbert_basis,
    minimal_nonneg_solutions,
    semigroup_member,
    vector_key,
)
from projd.fgab import FgAbGroup, row_hnf
from projd.ringspec import RingSpec


def _grading(group, lifts, names=None):
    degrees = tuple(group.from_lift(list(v)) for v in lifts)
    names = names or [f"v{i}" for i in range(len(lifts))]
    return RingSpec(group, names, degrees, check_effective=False)


def _plane_spec():
    G = FgAbGroup(2)
    return _grading(G, [(1, 0), (0, 1), (1, 1)], ["x", "y", "z"])


def _torsion_spec():
    G = FgAbGroup(1, [2])
    return _grading(G, [(1, 0), (0, 1), (1, 1)], ["x", "y", "z"])


def _same_lattice(a, b, width):
    ha, hb = row_hnf(a, width), row_hnf(b, width)
    return ha == hb


def test_kernel_lattice_plane():
    K = _plane_spec().kernel
    assert _same_lattice(K, [(1, 1, -1)], 3)


def test_kernel_lattice_torsion():
    K = _torsion_spec().kernel
    assert _same_lattice(K, [(-1, 1, 1), (0, 2, 0)], 3)


def test_kernel_lattice_matches_degree_zero_box():
    for spec in (_plane_spec(), _torsion_spec()):
        K = spec.kernel
        for cand in oracles.box(3, -3, 3):
            deg = spec.group.zero()
            for c, d in zip(cand, spec.degrees):
                deg = deg + c * d
            assert oracles.in_lattice(K, list(cand)) == deg.is_zero()


def test_hilbert_basis_plane_charts():
    K = _plane_spec().kernel
    units, gens = hilbert_basis(ConstrainedSemigroup(3, K, frozenset({0, 1})))
    assert units == () and gens == ((-1, -1, 1),)
    units, gens = hilbert_basis(ConstrainedSemigroup(3, K, frozenset({0, 1, 2})))
    assert gens == () and _same_lattice(units, [(1, 1, -1)], 3)


def test_hilbert_basis_torsion_chart():
    K = _torsion_spec().kernel
    units, gens = hilbert_basis(ConstrainedSemigroup(3, K, frozenset({0})))
    assert units == ()
    assert set(gens) == {(-1, 1, 1), (0, 2, 0), (-2, 0, 2)}


def test_hilbert_basis_invariant_under_basis_change():
    K = _torsion_spec().kernel
    sg = ConstrainedSemigroup(3, K, frozenset({0}))
    base = hilbert_basis(sg)
    # permute and mix the presented basis; the lattice is unchanged
    K2 = (K[1], tuple(a + b for a, b in zip(K[0], K[1])))
    assert hilbert_basis(ConstrainedSemigroup(3, K2, frozenset({0}))) == base
    assert hilbert_basis(sg) == base  # determinism


def test_semigroup_member_examples():
    assert semigroup_member([(1, 1, -1)], (2, 2, -2)) == (2,)
    assert semigroup_member([(1, 1, -1)], (-1, -1, 1)) is None
    assert semigroup_member([(1, 1, -1), (0, 1, 0)], (1, 3, -1)) == (1, 2)
    assert semigroup_member([(1, 1)], (0, 0)) == (0,)
    assert semigroup_member([], (0, 0)) == ()
    assert semigroup_member([], (1, 0)) is None


def test_semigroup_member_over_constrained_semigroup():
    K = _plane_spec().kernel
    units, gens = hilbert_basis(ConstrainedSemigroup(3, K, frozenset({0, 1})))
    pool = list(gens) + list(units) + [tuple(-a for a in u) for u in units]
    got = semigroup_member(pool, (-2, -2, 2))
    assert got == (2,)
    assert semigroup_member(pool, (1, 1, -1)) is None


def _random_semigroup(rng, n):
    k = rng.randint(1, n - 1)
    basis = []
    while len(basis) < k:
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(v):
            basis.append(v)
    basis = row_hnf(basis, n)
    if not basis:
        basis = ((1,) * n,)
    free = frozenset(i for i in range(n) if rng.random() < 0.4)
    return ConstrainedSemigroup(n, tuple(basis), free)


def test_constrained_semigroup_contains_on_unreduced_bases():
    # the given basis is shuffled, mixed by row operations and padded with
    # a dependent row; membership must still be that of its lattice
    rng = random.Random(29)
    answers = set()
    for _ in range(30):
        n = rng.randint(2, 4)
        lattice = _random_semigroup(rng, n)
        rows = [list(r) for r in lattice.kernel_basis]
        rng.shuffle(rows)
        for _ in range(3):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rows.append([a - b for a, b in zip(rows[0], rows[-1])])
        sg = ConstrainedSemigroup(n, tuple(map(tuple, rows)), lattice.free_coords)
        assert sg.kernel_basis == lattice.kernel_basis
        for vec in oracles.box(n, -2, 2):
            signs = all(vec[i] >= 0 for i in sg.constrained_coords)
            want = signs and oracles.in_lattice(lattice.kernel_basis, list(vec))
            assert sg.contains(vec) == want, (rows, vec)
            answers.add((signs, want))
    assert answers == {(True, True), (True, False), (False, False)}


def test_hilbert_and_member_agree_with_box_enumeration():
    rng = random.Random(101)
    done = 0
    while done < 12:
        n = rng.randint(2, 4)
        sg = _random_semigroup(rng, n)
        units, gens = hilbert_basis(sg)
        pool = list(gens) + [list(u) for u in units] + [[-a for a in u] for u in units]
        for u in units:
            assert sg.contains(u) and sg.contains([-a for a in u])
        for g in gens:
            assert sg.contains(g)
        for cand in oracles.box(n, -2, 2):
            expected = sg.contains(cand)
            got = semigroup_member(pool, cand)
            assert (got is not None) == expected, (sg, cand, got)
            if got is not None:
                combo = [sum(c * p[i] for c, p in zip(got, pool)) for i in range(n)]
                assert tuple(combo) == tuple(cand)
        done += 1


def test_hilbert_generators_are_minimal_within_box():
    rng = random.Random(103)
    for _ in range(8):
        n = rng.randint(2, 3)
        sg = _random_semigroup(rng, n)
        units, gens = hilbert_basis(sg)
        members = [v for v in oracles.box(n, -3, 3) if sg.contains(v) and any(v)]
        nonunits = [v for v in members if not oracles.in_lattice(units, list(v))]
        for g in gens:
            for u in nonunits:
                w = tuple(a - b for a, b in zip(g, u))
                if any(w) and w in [tuple(m) for m in nonunits]:
                    raise AssertionError(f"generator {g} splits as {u} + {w}")


def test_shifted_minimal_generators_plane():
    spec = _plane_spec()
    d = spec.group.element((1, 1))
    assert oracles.shifted_generators_by_membership(spec, {0, 1}, d) == ((1, 1, 0),)


def test_shifted_minimal_generators_torsion():
    spec = _torsion_spec()
    d = spec.group.element((0,), (1,))
    got = oracles.shifted_generators_by_membership(spec, {0}, d)
    assert set(got) == {(0, 1, 0), (-1, 0, 1)}


def test_shifted_minimal_generators_zero_degree():
    spec = _plane_spec()
    assert oracles.shifted_generators_by_membership(spec, {0, 1}, spec.group.zero()) == \
        ((0, 0, 0),)


def test_shifted_minimal_generators_empty_when_unreachable():
    G = FgAbGroup(1)
    spec = _grading(G, [(2,), (2,)])
    d = G.element((1,))
    assert oracles.shifted_generators_by_membership(spec, {0}, d) == ()


def _random_gradings(rng, count):
    """Gradings of rank 1-2 with mixed-sign degrees, every other one with torsion."""
    specs = []
    while len(specs) < count:
        r = rng.randint(1, 2)
        G = FgAbGroup(r, [rng.choice([2, 3])] if len(specs) % 2 else [])
        lifts = [tuple(rng.randint(-1, 2) for _ in range(r))
                 + tuple(rng.randrange(m) for m in G.torsion)
                 for _ in range(rng.randint(r + 1, 4))]
        specs.append(_grading(G, lifts))
    return specs


def test_one_reduction_rule_matches_the_former_reductions():
    from projd.cli import fixture_text, parse_ring_spec
    from projd.ringspec import Monomial

    rng = random.Random(223)
    cases = []  # (spec, free coordinates)
    for name in FIXTURE_NAMES:
        spec = parse_ring_spec(fixture_text(name))
        n = len(spec.variables)
        for bits in itertools.product((0, 1), repeat=n):
            if spec.is_relevant(Monomial(bits)):
                free = frozenset(i for i in range(n) if bits[i])
                cases.append((spec, free))
    for spec in _random_gradings(rng, 24):
        n = len(spec.variables)
        for _ in range(3):
            cases.append((spec, frozenset(i for i in range(n) if rng.random() < 0.5)))
    for spec, free in cases:
        sg = ConstrainedSemigroup(len(spec.variables), spec.kernel, free)
        assert hilbert_basis(sg) == oracles.hilbert_basis_by_decomposition(sg), (spec, free)
    for _ in range(80):
        sg = _random_semigroup(rng, rng.randint(2, 3))
        assert hilbert_basis(sg) == oracles.hilbert_basis_by_decomposition(sg), sg
    assert len(cases) > 100


def test_hilbert_basis_matches_the_degree_row_search_on_wider_lattices():
    rng = random.Random(227)
    for _ in range(40):
        n = rng.randint(4, 5)
        sg = _random_semigroup(rng, n)
        spec = oracles.grading_of_lattice(sg.kernel_basis, n)
        assert spec.kernel == sg.kernel_basis
        assert hilbert_basis(sg) == \
            oracles.hilbert_basis_by_degree_rows(spec, sg.free_coords), sg


def test_hilbert_basis_of_a_four_coordinate_lattice():
    # the kernel-coefficient search took about a minute on this lattice
    sg = ConstrainedSemigroup(4, ((1, 0, 0, -2), (0, 1, 2, 7), (0, 0, 3, 11)),
                              frozenset({0}))
    assert hilbert_basis(sg) == ((), (
        (-1, 0, 0, 2), (-1, 3, 0, 1), (1, 2, 1, 1), (-1, 6, 0, 0), (1, 5, 1, 0),
        (3, 1, 2, 1), (3, 4, 2, 0), (5, 0, 3, 1), (5, 3, 3, 0), (7, 2, 4, 0),
        (9, 1, 5, 0), (11, 0, 6, 0)))


def test_coset_minimal_matches_the_box_enumeration():
    # the pruned runs against the former enumeration; the draws stay small
    # because the enumeration tries every multiple the starting norm allows
    from projd.diophantine import _coset_minimal
    from projd.fgab import hnf_reduce

    rng = random.Random(24)
    seen = {"moved": 0, "rank 3": 0, "n = 6": 0}
    for _ in range(300):
        n = rng.randint(2, 6)
        units = row_hnf([[rng.randint(-3, 3) for _ in range(n)]
                         for _ in range(rng.randint(1, min(3, n)))], n)
        vec = [rng.randint(-3, 3) for _ in range(n)]
        got = _coset_minimal(vec, units)
        assert got == oracles.coset_minimal_by_box(vec, units), (vec, units)
        seen["moved"] += bool(units) and got != hnf_reduce(units, vec)
        seen["rank 3"] += len(units) == 3
        seen["n = 6"] += n == 6
    assert min(seen.values()) >= 30, seen


def test_coset_minimal_visits_fewer_leaves_on_the_l8_product_charts(monkeypatch):
    # work, not time: the leaves (one vector_key each, past the starting
    # key) on the coset representatives of the 126 product charts of the L8
    # ladder rung: 7,658 here, 10,150 for the former enumeration
    import projd.diophantine as diophantine

    G = FgAbGroup(2)
    spec = _grading(G, [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)])
    kernel, calls = diophantine._coset_minimal, []

    def recording(vec, units):
        calls.append((tuple(vec), units))
        return kernel(vec, units)

    monkeypatch.setattr(diophantine, "_coset_minimal", recording)
    gens = spec.irrelevant_generators()
    supports = {f.support | g.support for f, g in itertools.combinations(gens, 2)}
    for support in supports:
        assert spec.semigroup(support).generators
    assert len(supports) == 126
    calls = [(vec, units) for vec, units in calls if units]
    keys = 0

    def counted(vec):
        nonlocal keys
        keys += 1
        return vector_key(vec)

    monkeypatch.setattr(diophantine, "vector_key", counted)
    answers, leaves = [], []
    for search in (kernel, oracles.coset_minimal_by_box):
        keys = 0
        answers.append([search(vec, units) for vec, units in calls])
        leaves.append(keys - len(calls))
    assert answers[0] == answers[1] and len(calls) == 600
    assert leaves[0] <= 8000 < leaves[1], leaves


def test_coset_minimal_stops_a_last_row_run_once_the_norm_rises(monkeypatch):
    # one unit row, so every run is on the last row.  From (0, 50) the run
    # up rises at once and stops after two leaves, where the pivot bound
    # alone let it try fifty; the run down keeps the norm at 50 for 51
    # leaves, and goes on through them, since an equal norm may still
    # bring a smaller vector
    import projd.diophantine as diophantine

    keys = 0
    key = diophantine.vector_key

    def counted(vec):
        nonlocal keys
        keys += 1
        return key(vec)

    monkeypatch.setattr(diophantine, "vector_key", counted)
    assert diophantine._coset_minimal((0, 50), ((1, 1),)) == (-50, 0)
    assert keys - 1 == 2 + 51


def test_minimal_nonneg_solutions_small_systems():
    # x - y = 0 over N^2
    sols = minimal_nonneg_solutions([[1, -1]], 2)
    assert sols == [(1, 1)]
    # x + y = 3
    sols = minimal_nonneg_solutions([[1, 1]], 2, rhs=[3])
    assert set(sols) == {(0, 3), (1, 2), (2, 1), (3, 0)}
    # infeasible
    assert minimal_nonneg_solutions([[2]], 1, rhs=[3]) == []
    # no equations: unit vectors
    assert minimal_nonneg_solutions([], 2) == [(0, 1), (1, 0)]
    # a given zero right-hand side has zero alone, not the Hilbert basis
    for rows in ([[1, -1]], [[1, -1], [2, -2]]):
        zeros = [0] * len(rows)
        assert minimal_nonneg_solutions(rows, 2, rhs=zeros) == [(0, 0)]
        assert minimal_nonneg_solutions(rows, 2, rhs=zeros, least_by=2) == [(0, 0)]
        assert bounded_minimal_solutions(rows, 2, zeros, 0) == ([(0, 0)], True)


def test_minimal_nonneg_solutions_against_box():
    rng = random.Random(107)
    for _ in range(20):
        m, n = rng.randint(1, 2), rng.randint(2, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        sols = minimal_nonneg_solutions(A, n)
        solset = set(sols)
        for s in sols:
            assert all(v == 0 for v in oracles.mat_vec(A, list(s)))
            assert all(a >= 0 for a in s) and any(s)
        # every small solution dominates a reported minimal one
        for cand in oracles.box(n, 0, 3):
            if any(cand) and all(v == 0 for v in oracles.mat_vec(A, list(cand))):
                assert any(all(a <= b for a, b in zip(s, cand)) for s in sols)
        # no reported solution strictly dominates another
        for s in sols:
            for s2 in sols:
                if s != s2:
                    assert not all(a <= b for a, b in zip(s, s2))


def _box_minimal(found):
    """The members of found that dominate no other member."""
    return {s for s in found
            if not any(o != s and all(a <= b for a, b in zip(o, s)) for o in found)}


def test_minimal_nonneg_solutions_with_rhs_against_box():
    # inside the box [0, 4]^n every minimal solution is box-minimal and
    # back, since whatever a box vector dominates lies in the box too
    rng = random.Random(109)
    for _ in range(60):
        m, n = rng.randint(1, 2), rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        sols = minimal_nonneg_solutions(A, n, rhs=rhs)
        for s in sols:
            assert oracles.mat_vec(A, list(s)) == rhs and min(s, default=0) >= 0
        in_box = {x for x in oracles.box(n, 0, 4) if oracles.mat_vec(A, list(x)) == rhs}
        assert _box_minimal(in_box) == {s for s in sols if max(s, default=0) <= 4}, (A, rhs)


def test_bounded_minimal_solutions_against_box():
    # the vectors of norm <= bound are closed under going down, so the
    # answer is exactly the minimal solutions among them; a search that
    # reports reached lost no minimal solution, and a minimal solution past
    # the bound is never reported reached
    rng = random.Random(113)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        m, n = rng.randint(1, 2), rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        bound = rng.randint(0, 5)
        sols, reached = bounded_minimal_solutions(A, n, rhs, bound)
        in_box = {x for x in oracles.box(n, 0, 5)
                  if oracles.mat_vec(A, list(x)) == rhs}
        below = _box_minimal({x for x in in_box if sum(x) <= bound})
        assert sols == sorted(below, key=lambda v: (sum(v), v)), (A, rhs, bound)
        beyond = any(sum(x) > bound for x in _box_minimal(in_box))
        assert not (reached and beyond), (A, rhs, bound)
        outcomes[reached] += 1
    assert min(outcomes.values()) >= 30, outcomes
    # the converse does not hold: this search is cut at (1, 1), a solution
    # of x - y = 0, while (1, 0) is the one minimal solution of x - y = 1
    assert bounded_minimal_solutions([[1, -1]], 2, [1], 1) == ([(1, 0)], False)


def _degree_row_systems(rng, count):
    """(rows, ncols, rhs, bound) of the shapes the library poses through
    _degree_rows, on seeded gradings with torsion [6] or [2, 2]."""
    from projd.ringspec import _degree_rows

    systems = []
    for k in range(count):
        r = rng.randint(0, 2)
        G = FgAbGroup(r, [6] if k % 2 else [2, 2])
        n = rng.randint(2, 4)
        spec = _grading(G, [tuple(rng.randint(-1, 2) for _ in range(r))
                            + tuple(rng.randrange(t) for t in G.torsion)
                            for _ in range(n)])
        d = G.from_lift([rng.randint(-1, 3) for _ in range(r)]
                        + [rng.randrange(t) for t in G.torsion])
        rows, rhs, width = _degree_rows(spec, G.zero())
        systems.append((rows, width, None, None))  # RingSpec.kernel
        rows, rhs, width = _degree_rows(spec, d)
        systems += [(rows, width, rhs, None), (rows, width, rhs, rng.randint(0, 6))]
        h, f = spec.degrees[0], sum(spec.degrees[1:], G.zero())
        # the system of degree_zero_companion, listed in full as
        # oracles.companion_by_listing lists it
        rows, rhs, width = _degree_rows(spec, -h, (-f,))
        systems.append((rows, width, rhs, None))
        if n <= 3:  # RingSpec.relations
            rows, rhs, width = _degree_rows(spec, G.zero(), [-e for e in spec.degrees])
            systems.append((rows, width, None, None))
    return systems


def test_kernel_matches_the_former_search():
    # the kernel carries the dot products of each frontier vector, where
    # the former loop carried its value, and it stops early by one cap,
    # where the former loop had a bound and least_only's level break.
    # Full listings and bounded searches must visit, prune and return the
    # same: (solutions, cut) on seeded systems of every call shape.  The
    # least mode, which needs a right-hand side, returns the first entry of
    # least_only's level, and with a lead column p the least by
    # (x_p, vector_key(x[:p])) of the listing.
    from projd.diophantine import _contejean_devie

    rng = random.Random(241)
    systems, least = [], []
    for k in range(2000):
        m, kind = rng.randint(0, 3), k % 5
        # a full search over many columns can take seconds; the least
        # mode and bound stop early, so they draw up to 7 columns at every
        # height
        n = rng.randint(0, 7 if kind >= 3 or m < 2 else 6 if m == 2 else 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        if kind == 0:
            systems.append((rows, n, None, None))
        elif kind == 1:
            systems.append((rows, n, [0] * m if k % 3 == 0 else rhs, None))
        elif kind in (2, 3):
            least.append((rows, n, rhs))
        else:
            systems.append((rows, n, rhs, rng.randint(0, 6)))
    torsion = _degree_row_systems(rng, 60)
    assert any(-6 in row for rows, *_ in torsion for row in rows)
    assert any(-2 in row for rows, *_ in torsion for row in rows)
    cuts = 0
    for rows, n, rhs, bound in systems + torsion:
        got = _contejean_devie(rows, n, rhs, bound=bound)
        assert got == oracles.contejean_devie_by_generators(rows, n, rhs, bound=bound), \
            (rows, n, rhs, bound)
        cuts += got[1]
    assert cuts >= 100
    for rows, n, rhs in least:
        want = oracles.contejean_devie_by_generators(rows, n, rhs, least_only=True)[0]
        assert _contejean_devie(rows, n, rhs, least_by=n)[0] == want[:1], (rows, n, rhs)
    found = 0
    # every draw has a right-hand side, as the least mode needs one
    for k in range(600):
        m = rng.randint(0, 3)
        n = rng.randint(1, 7 if m < 2 else 6 if m == 2 else 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        p = rng.randrange(n)
        full = oracles.contejean_devie_by_generators(rows, n, rhs)[0]
        want = [min(full, key=lambda s: (s[p], vector_key(s[:p]), s))] if full else []
        assert _contejean_devie(rows, n, rhs, least_by=p)[0] == want, (rows, n, rhs, p)
        found += bool(want) and want != full[:1]
    assert found >= 30


def _lines_run(fn, marker, call):
    """(call(), how often it ran the line of fn that contains marker)."""
    lines, start = inspect.getsourcelines(fn)
    lineno = start + next(i for i, line in enumerate(lines) if marker in line)
    code, count = fn.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == lineno
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return call(), count
    finally:
        sys.settrace(old)


def test_least_mode_builds_no_more_than_the_former_loop():
    # work, not time: the candidates the least mode builds, against the
    # former loop, which stopped at the first level holding a solution.
    # The least mode drops a step past its cap before building it once
    # the cap has cut one; building every extension of the last level
    # cost up to 867 more candidates here, 4,379 on 3,000 draws.
    from projd.diophantine import _contejean_devie

    rng = random.Random(5)
    excess, total = [], 0
    for _ in range(400):
        m, n = rng.randint(1, 3), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        if not any(rhs):
            continue
        (got, _), built = _lines_run(
            _contejean_devie, "t2 = t[:j]",
            lambda: _contejean_devie(rows, n, rhs, least_by=n))
        (want, _), built_before = _lines_run(
            oracles.contejean_devie_by_generators, "t2 = list(t)",
            lambda: oracles.contejean_devie_by_generators(rows, n, rhs, least_only=True))
        assert got == want[:1], (rows, rhs)
        excess.append(built - built_before)
        total += built_before
    assert len(excess) > 350 and total > 30000
    assert max(excess) <= 16


FIXTURE_NAMES = ["plane", "plane-b", "torsion", "quad", "five", "parity"]


def _fixture_pools():
    """Every (pool, target) pair that mu_surjective and intersect pose."""
    from projd.charts import chart_algebra
    from projd.cli import fixture_text, parse_ring_spec

    for name in FIXTURE_NAMES:
        spec = parse_ring_spec(fixture_text(name))
        gens = [g for g in spec.irrelevant_generators() if g.support]
        for f, g in itertools.permutations(gens, 2):
            chart_f = chart_algebra(spec, f)
            targets = chart_algebra(spec, f * g).pool
            inverted = [v for v in chart_f.generators
                        if all(i in (f * g).support for i, a in enumerate(v) if a)]
            for pool in (chart_f.pool + chart_algebra(spec, g).pool,
                         chart_f.pool + tuple(tuple(-a for a in v) for v in inverted)):
                for target in targets:
                    yield pool, target


def test_early_exit_member_matches_full_enumeration_on_fixtures():
    count = 0
    for pool, target in _fixture_pools():
        assert semigroup_member(pool, target) == \
            oracles.full_enumeration_member(pool, target), (pool, target)
        count += 1
    assert count > 100


_pool_cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=5),
    st.tuples(*[st.integers(-3, 3)] * n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pool_cases)
def test_early_exit_member_matches_full_enumeration_on_random_pools(case):
    pool, target = case
    assert semigroup_member(pool, target) == \
        oracles.full_enumeration_member(pool, target)


def test_pruned_member_matches_the_unpruned_search():
    # duplicate columns and sign caps give the same tuple as one search
    # over the whole pool, a target equal to a pool vector included;
    # sign-constant coordinates are planted so that the caps fire, and
    # copies so that duplicates do
    rng = random.Random(233)
    kinds = {"member": 0, "none": 0, "pool vector": 0, "zero": 0, "duplicate": 0}
    for _ in range(1000):
        n = rng.randint(1, 4)
        pool = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, 10))]
        for i in range(n):
            sign = rng.choice([-1, 0, 0, 1])
            if sign:
                pool = [g[:i] + (sign * abs(g[i]),) + g[i + 1:] for g in pool]
        pool += [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        rng.shuffle(pool)
        draw = rng.random()
        if draw < 0.25:
            target = rng.choice(pool)
        elif draw < 0.35:
            target = (0,) * n
        else:
            target = tuple(rng.randint(-4, 4) for _ in range(n))
        got = semigroup_member(pool, target)
        assert got == oracles.semigroup_member_by_search(pool, target), (pool, target)
        kinds["member" if got is not None else "none"] += 1
        kinds["pool vector"] += any(target) and target in pool
        kinds["zero"] += not any(target)
        kinds["duplicate"] += len(set(pool)) < len(pool)
    assert min(kinds.values()) >= 50, kinds


def test_cap_refuted_member_matches_the_unpruned_search(monkeypatch):
    # when the sign caps drop every column, a nonzero target is refused
    # with no search; the answer is still that of one search over the
    # whole pool.  Half the draws plant a coordinate where every vector is
    # positive and the target is 0, so the caps empty the pool there
    import projd.diophantine as diophantine

    searches = []
    search = diophantine.minimal_nonneg_solutions

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(diophantine, "minimal_nonneg_solutions", counted)
    rng = random.Random(331)
    refuted = searched = 0
    for k in range(600):
        n = rng.randint(1, 4)
        pool = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        target = [rng.randint(-3, 3) for _ in range(n)]
        if k % 2:
            i = rng.randrange(n)
            pool = [g[:i] + (rng.randint(1, 2),) + g[i + 1:] for g in pool]
            target[i] = 0
        target = tuple(target)
        searches.clear()
        got = semigroup_member(pool, target)
        assert got == oracles.semigroup_member_by_search(pool, target), (pool, target)
        if any(target) and not searches:
            assert got is None and target not in pool, (pool, target)
            refuted += 1
        searched += bool(searches)
    assert refuted >= 200 and searched >= 200, (refuted, searched)


def test_equation_free_systems_answer_the_unit_vectors():
    # with no equation every unit vector is a minimal solution, in the
    # plain and bounded modes
    from projd.diophantine import _contejean_devie

    for n in range(6):
        units = sorted(((0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)),
                       key=vector_key)
        got, _ = _contejean_devie([], n)
        assert got == units == minimal_nonneg_solutions([], n)
        assert (got, False) == oracles.contejean_devie_by_generators([], n)
        for bound in (0, 1, n + 2):
            want = oracles.contejean_devie_by_generators([], n, bound=bound)
            assert _contejean_devie([], n, bound=bound) == want, (n, bound)
            assert want == (units if bound else [], n > 0 and not bound)
            sols, reached = bounded_minimal_solutions([], n, [], bound)
            want = oracles.contejean_devie_by_generators([], n, [], bound=bound)
            assert (sols, not reached) == want == ([(0,) * n], False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_pool_cases)
def test_least_mode_is_the_first_graded_lex_solution(case):
    pool, target = case
    n = len(target)
    rows = [[g[i] for g in pool] for i in range(n)]
    full = minimal_nonneg_solutions(rows, len(pool), rhs=list(target))
    assert minimal_nonneg_solutions(rows, len(pool), rhs=list(target),
                                    least_by=len(pool)) == full[:1]


def test_least_mode_needs_a_right_hand_side():
    # the least mode serves systems with a right-hand side alone, those of
    # semigroup_member and degree_zero_companion; a homogeneous system is
    # refused, with a lead column or without, equations or none
    for rows, n in (([[1, -1]], 2), ([[1, 1, -2], [0, 1, -1]], 3), ([], 2), ([], 0)):
        for p in range(n + 1):
            with pytest.raises(ValueError, match="right-hand side"):
                minimal_nonneg_solutions(rows, n, least_by=p)


def test_member_lists_no_solutions_and_pointedness_calls_no_solver(monkeypatch):
    # semigroup_member asks for the least solution alone, and
    # sheaves._is_pointed asks the solver nothing: a search that lists
    # every minimal solution raises here, and so does any search at all
    # while pointedness is decided
    import projd.diophantine as diophantine
    import projd.sheaves as sheaves

    search = diophantine.minimal_nonneg_solutions
    pools = list(itertools.islice(_fixture_pools(), 200))
    members = [(pool, target, semigroup_member(pool, target)) for pool, target in pools]
    assert any(got is None for *_, got in members)
    assert any(got is not None and sum(got) > 1 for *_, got in members)
    G, Z6 = FgAbGroup(1), FgAbGroup(0, [6])
    gradings = [(_grading(G, [(1,), (2,), (3,)]), True),
                (_grading(G, [(1,), (-1,), (2,)]), False),
                (_grading(G, [(2,), (4,), (-1,), (-3,)]), False),  # parallel rows
                (_grading(Z6, [(1,), (2,)]), False),
                (_grading(Z6, []), True),
                (_grading(FgAbGroup(2), []), True)]
    assert [sheaves._is_pointed(spec) for spec, _ in gradings] == [w for _, w in gradings]

    def refuse_listing(rows, ncols, rhs=None, least_by=None):
        if least_by is None:
            raise AssertionError("full listing")
        return search(rows, ncols, rhs, least_by)

    def refuse_search(*args, **kwargs):
        raise AssertionError("solver search")

    monkeypatch.setattr(diophantine, "minimal_nonneg_solutions", refuse_listing)
    for pool, target, want in members:
        assert semigroup_member(pool, target) == want, (pool, target)
    monkeypatch.setattr(diophantine, "_contejean_devie", refuse_search)
    for spec, want in gradings:
        assert sheaves._is_pointed(spec) == want, spec.degrees


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    src = str(Path(projd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def test_invariant_checks_survive_optimized_mode():
    # without the unit lattice, the two signs of the unit xy/z are distinct
    # generators of the chart of xyz, whether it is searched alone or read
    # off its Hermite form
    done = _run_optimized(
        "import projd.diophantine as d\n"
        "from projd.diophantine import ConstrainedSemigroup, InvariantError\n"
        "from projd.fgab import FgAbGroup\n"
        "from projd.ringspec import RingSpec\n"
        "assert False, 'asserts must be off in this check'\n"
        "G = FgAbGroup(2)\n"
        "spec = RingSpec(G, ['x', 'y', 'z'], [G.element((1, 0)),\n"
        "                G.element((0, 1)), G.element((1, 1))])\n"
        "d.ConstrainedSemigroup.units = ()\n"
        "for call in (lambda: d.hilbert_basis(ConstrainedSemigroup(\n"
        "                 3, ((1, 1, -1),), frozenset({0, 1, 2}))),\n"
        "             lambda: spec.semigroup({0, 1, 2}).generators):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantError as exc:\n"
        "        print('raised', exc)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("raised generators") == 2, done.stdout


def test_invariant_failure_exits_4_in_optimized_mode(tmp_path):
    from projd.cli import fixture_text

    spec = tmp_path / "plane.yaml"
    spec.write_text(fixture_text("plane"), encoding="utf-8")
    # without its unit lattice the chart of xyz^2 would offer a unit as a
    # generator; the unit-rank check of its Hermite step refuses it
    done = _run_optimized(
        "import sys\n"
        "import projd.diophantine as d\n"
        "d.ConstrainedSemigroup.units = ()\n"
        "from projd.cli import main\n"
        f"sys.argv = ['projd', 'chart', 'x*y*z^2', '--spec', {str(spec)!r}]\n"
        "main()\n")
    assert done.returncode == 4, (done.returncode, done.stderr)
    assert "internal error: generator" in done.stderr


def test_a_localized_chart_checks_its_units_in_optimized_mode(tmp_path):
    # the chart of x0x1x2 on tor3 (Z^2 + Z/3): its lattice projects to the
    # constrained coordinate x3 with index 3, so its generators are not
    # read off its Hermite form but searched.  Without its unit lattice it
    # would offer no unit where it has one, which the search must refuse
    # under -O too, and the CLI exits 4
    degrees = (((1, 0), 1), ((0, 1), 2), ((1, 1), 0), ((1, 2), 1))
    spec = tmp_path / "tor3.yaml"
    spec.write_text("group: {rank: 2, torsion: [3]}\nvariables:\n" + "".join(
        f"  - {{name: x{i}, degree: {{free: {list(d)}, torsion: [{t}]}}}}\n"
        for i, (d, t) in enumerate(degrees)), encoding="utf-8")
    from projd.charts import chart_algebra
    from projd.cli import parse_ring_spec

    chart = chart_algebra(parse_ring_spec(spec.read_text(encoding="utf-8")), "x0*x1*x2")
    assert oracles.chart_index(chart) == 3
    done = _run_optimized(
        "import sys\n"
        "import projd.diophantine as d\n"
        "from projd.charts import chart_algebra\n"
        "from projd.cli import main, parse_ring_spec\n"
        "assert False, 'asserts must be off in this check'\n"
        "search = d.hilbert_basis\n"
        "def counted(sg):\n"
        "    print('searched', sorted(sg.free_coords))\n"
        "    return search(sg)\n"
        "d.hilbert_basis = counted\n"
        "d.ConstrainedSemigroup.units = ()\n"
        f"with open({str(spec)!r}, encoding='utf-8') as fh:\n"
        "    chart = chart_algebra(parse_ring_spec(fh.read()), 'x0*x1*x2')\n"
        "try:\n"
        "    chart.generators\n"
        "except d.InvariantError as exc:\n"
        "    print('raised', exc)\n"
        f"sys.argv = ['projd', 'chart', 'x0*x1*x2', '--spec', {str(spec)!r}]\n"
        "main()\n")
    assert done.returncode == 4, (done.returncode, done.stderr)
    assert done.stdout.splitlines() == [
        "searched [0, 1, 2]",
        "raised generators need a unit lattice of rank 1, got 0", "searched [0, 1, 2]"]
    assert "internal error: generators need a unit lattice of rank 1" in done.stderr
