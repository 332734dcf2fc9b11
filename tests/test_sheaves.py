from __future__ import annotations

import functools
import itertools
import random
import time

import oracles
import projd.fgab
import pytest
from oracles import shifted_generators_by_membership, twist_product_surjective
from projd.diophantine import hilbert_basis, semigroup_member
from projd.fgab import FgAbGroup, kernel_basis, solve_linear, subgroup_member
from projd.ringspec import Monomial, NotEffective, NotRelevant, RingSpec
from projd.sheaves import (
    _is_pointed,
    global_sections,
    is_free,
    is_invertible,
    unit_of_degree,
)


def plane_spec():
    G = FgAbGroup(2)
    return RingSpec(G, ["x", "y", "z"],
                    [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))])


def torsion_spec():
    G = FgAbGroup(1, [2])
    return RingSpec(G, ["x", "y", "z"],
                    [G.element((1,), (0,)), G.element((0,), (1,)),
                     G.element((1,), (1,))])


def quad_spec():
    G = FgAbGroup(2)
    return RingSpec(G, ["x", "y", "z", "w"],
                    [G.element((1, 0)), G.element((1, 0)),
                     G.element((1, 1)), G.element((0, 1))])


def weighted_spec():
    G = FgAbGroup(1)
    return RingSpec(G, ["x", "y"], [G.element((2,)), G.element((3,))])


def steep_spec():
    G = FgAbGroup(1)
    return RingSpec(G, ["x", "y"], [G.element((2,)), G.element((1,))])


def tor3_spec():
    G = FgAbGroup(2, [3])
    return RingSpec(G, ["x", "y", "z", "w"],
                    [G.element((1, 0), (1,)), G.element((0, 1), (2,)),
                     G.element((1, 1), (0,)), G.element((1, 2), (1,))])


def small_elements(group, radius):
    frees = itertools.product(range(-radius, radius + 1), repeat=group.rank)
    tors = itertools.product(*(range(m) for m in group.torsion))
    return [group.element(f, t) for f, t in itertools.product(frees, list(tors))]


def vec_degree(spec, vec):
    d = spec.group.zero()
    for e, deg in zip(vec, spec.degrees):
        d = d + e * deg
    return d


def test_unit_of_degree_examples():
    R = plane_spec()
    zero = R.group.element((0, 0))
    assert unit_of_degree(R, "xy", zero) == (0, 0, 0)
    assert unit_of_degree(R, "xy", R.group.element((1, 1))) == (1, 1, 0)
    assert unit_of_degree(R, "xz", R.group.element((1, 1))) == (0, 0, 1)
    T = torsion_spec()
    assert unit_of_degree(T, "x", T.group.element((2,), (0,))) == (2, 0, 0)
    assert unit_of_degree(T, "x", T.group.element((1,), (1,))) is None
    assert unit_of_degree(T, "x", T.group.element((1,), (0,))) == (1, 0, 0)


def test_unit_of_degree_rejects_irrelevant():
    R = plane_spec()
    with pytest.raises(NotRelevant):
        unit_of_degree(R, "z", R.group.element((1, 1)))


def test_unit_has_degree_and_support():
    rng = random.Random(11)
    for spec in (plane_spec(), torsion_spec(), quad_spec()):
        gens = spec.irrelevant_generators()
        elems = small_elements(spec.group, 3)
        for d in rng.sample(elems, min(20, len(elems))):
            for f in gens:
                u = unit_of_degree(spec, f, d)
                if u is None:
                    continue
                assert vec_degree(spec, u) == d
                assert {i for i, e in enumerate(u) if e} <= f.support


def test_unit_translation_bijection():
    # multiplication by a unit shifts degree-0 chart vectors to degree-d ones
    T = torsion_spec()
    d = T.group.element((2,), (0,))
    u = unit_of_degree(T, "x", d)
    sg = T.semigroup({0})
    for vec in itertools.product(range(-3, 4), repeat=3):
        if vec[1] < 0 or vec[2] < 0:
            continue
        shifted = tuple(a + b for a, b in zip(vec, u))
        in_zero = sg.contains(vec)
        in_d = (vec_degree(T, shifted) == d
                and shifted[1] >= 0 and shifted[2] >= 0)
        if in_zero:
            assert in_d
        if in_d and all(abs(a) <= 3 for a in vec):
            assert in_zero == sg.contains(vec)


def test_is_free_examples():
    T = torsion_spec()
    assert is_free(T, T.group.element((2,), (0,)))
    assert not is_free(T, T.group.element((1,), (0,)))
    assert not is_free(T, T.group.element((0,), (1,)))
    assert is_free(T, T.group.zero())
    R = plane_spec()
    for d in small_elements(R.group, 2):
        assert is_free(R, d)


def test_is_free_group_structure():
    T = torsion_spec()
    free = [d for d in small_elements(T.group, 4) if is_free(T, d)]
    assert free
    for d in free:
        assert is_free(T, -1 * d)
    for d, e in itertools.product(free[:6], free[:6]):
        assert is_free(T, d + e)


def test_is_free_matches_the_intersection_oracle():
    # d is in the intersection of the chart support groups iff it is in each
    rng = random.Random(211)
    answers = set()
    for _ in range(200):
        G = FgAbGroup(rng.randint(0, 3), rng.choice([[], [2], [3], [4], [6], [2, 2]]))
        n = rng.randint(1, G.rank + 2)
        degrees = [G.element(tuple(rng.randint(-1, 3) for _ in range(G.rank)),
                             tuple(rng.randrange(m) for m in G.torsion)) for _ in range(n)]
        R = RingSpec(G, [f"v{i}" for i in range(n)], degrees, check_effective=False)
        whole = G.subgroup(G.standard_generators())
        meet = functools.reduce(oracles.subgroup_intersection,
                                [R.support_group(g) for g in R.irrelevant_generators()],
                                whole)
        elems = small_elements(G, 1)
        for d in rng.sample(elems, min(6, len(elems))):
            got = is_free(R, d)
            assert got == meet.contains(d), (G, degrees, d)
            answers.add(got)
    assert answers == {True, False}


def test_kernels_witnesses_and_freeness_need_no_smith_form(monkeypatch):
    # only invariant factors need the Smith form: with it disabled, every
    # kernel, linear solve, membership witness and freeness answer still comes
    expected = [[is_free(R, d) for d in small_elements(R.group, 1)]
                for R in (plane_spec(), torsion_spec(), tor3_spec())]
    specs = [plane_spec(), torsion_spec(), tor3_spec()]

    def refuse(mat):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(projd.fgab, "smith_normal_form", refuse)
    for R, want in zip(specs, expected):
        n, dim = len(R.variables), R.group.dim
        cols = [list(d.lift()) for d in R.degrees] + R.group.torsion_relation_rows()
        A = [[c[i] for c in cols] for i in range(dim)]
        K = kernel_basis(A, len(cols))
        assert len(K) == len(cols) - dim
        assert all(not any(oracles.mat_vec(A, list(v))) for v in K)
        L = R.kernel
        assert len(L) == n - R.group.rank
        for a in L:
            assert R.degree_of(Monomial(tuple(max(c, 0) for c in a))) == \
                R.degree_of(Monomial(tuple(max(-c, 0) for c in a)))
        got = []
        for d in small_elements(R.group, 1):
            x = solve_linear(A, d.lift(), len(cols))
            assert x is not None and oracles.mat_vec(A, x) == list(d.lift())
            ok, witness = subgroup_member(R.group.subgroup(R.degrees), d)
            assert ok and len(witness) == n
            combo = R.group.zero()
            for c, g in zip(witness, R.degrees):
                combo = combo + c * g
            assert combo == d
            got.append(is_free(R, d))
        assert got == want and True in got


def test_is_invertible_plane():
    R = plane_spec()
    d = R.group.element((1, 1))
    report = is_invertible(R, d)
    assert is_free(R, d) and report.invertible and report.obstruction is None
    assert report.chart_units == ((R.monomial("yz"), (0, 0, 1)),
                                  (R.monomial("xz"), (0, 0, 1)),
                                  (R.monomial("xy"), (1, 1, 0)))


def test_is_invertible_torsion_obstruction():
    T = torsion_spec()
    d = T.group.element((1,), (0,))
    report = is_invertible(T, d)
    assert not is_free(T, d) and not report.invertible
    z, x = T.monomial("z"), T.monomial("x")
    assert report.obstruction == z
    assert report.chart_units == ((z, None), (x, (1, 0, 0)))
    e = T.group.element((2,), (0,))
    good = is_invertible(T, e)
    assert is_free(T, e) and good.invertible
    assert good.chart_units == ((z, (0, 0, 2)), (x, (2, 0, 0)))


def test_is_invertible_zero_degree():
    for spec in (plane_spec(), torsion_spec(), quad_spec()):
        report = is_invertible(spec, spec.group.zero())
        assert is_free(spec, spec.group.zero()) and report.invertible
        n = len(spec.variables)
        assert all(u == (0,) * n for _, u in report.chart_units)


def test_free_agrees_with_invertible():
    for spec in (plane_spec(), torsion_spec(), quad_spec(), steep_spec()):
        for d in small_elements(spec.group, 3):
            report = is_invertible(spec, d)
            assert is_free(spec, d) == report.invertible


def test_twist_generators_examples():
    R = plane_spec()
    assert shifted_generators_by_membership(R, {0, 1}, R.group.zero()) == ((0, 0, 0),)
    assert shifted_generators_by_membership(R, {0, 1}, R.group.element((1, 1))) == (
        (1, 1, 0),)
    T = torsion_spec()
    assert shifted_generators_by_membership(T, {0}, T.group.element((0,), (1,))) == (
        (0, 1, 0), (-1, 0, 1))
    assert shifted_generators_by_membership(T, {0}, T.group.element((2,), (0,))) == (
        (2, 0, 0),)


def drawn_gradings(rng, count):
    """Mixed-sign gradings of rank 1-2 with torsion [4], [6] or [2, 2], and
    of rank 3 without, in turn."""
    families = ((1, [4]), (1, [6]), (2, [2, 2]), (3, []))
    specs = []
    while len(specs) < count:
        r, torsion = families[len(specs) % len(families)]
        G = FgAbGroup(r, torsion)
        degrees = [G.element(tuple(rng.randint(-1, 1) for _ in range(r)),
                             tuple(rng.randrange(m) for m in torsion))
                   for _ in range(rng.randint(r + 1, r + 2))]
        try:
            specs.append(RingSpec(G, [f"v{i}" for i in range(len(degrees))], degrees))
        except NotEffective:
            continue
    return specs


def test_single_generator_in_chart_iff_unit():
    # a unit of degree d on the chart of f generates the degree-d module
    # alone, so the module has one generator inside supp f exactly when
    # such a unit exists, and that generator is the unit unit_of_degree finds
    rng = random.Random(12)
    specs = [plane_spec(), torsion_spec(), quad_spec(), steep_spec()]
    drawn = drawn_gradings(random.Random(151), 12)
    kinds = set()
    for spec in specs + drawn:
        for f in spec.irrelevant_generators():
            if not f.support:
                continue
            elems = small_elements(spec.group, 2)
            for d in rng.sample(elems, min(12, len(elems))):
                gens = shifted_generators_by_membership(spec, f.support, d)
                unit = unit_of_degree(spec, f, d)
                single_inside = (len(gens) == 1 and
                                 {i for i, e in enumerate(gens[0]) if e} <= f.support)
                assert (unit is not None) == single_inside, (spec.degrees, f, d)
                if unit is not None:
                    assert gens == (unit,), (spec.degrees, f, d)
                if spec in drawn:
                    kinds.add(unit is not None)
    assert kinds == {True, False}


def test_single_generator_outside_support_has_no_unit():
    # degree 1 on the chart of x is generated by y alone, yet carries no unit
    R = steep_spec()
    d = R.group.element((1,))
    assert shifted_generators_by_membership(R, {0}, d) == ((0, 1),)
    assert unit_of_degree(R, "x", d) is None
    assert not is_free(R, d)


def test_twist_product_examples():
    R = plane_spec()
    zero = R.group.zero()
    assert twist_product_surjective(R, "xy", zero, zero).surjective
    d = R.group.element((1, 1))
    report = twist_product_surjective(R, "xy", d, d)
    assert report.surjective
    assert report.decompositions == (((2, 2, 0), (1, 1, 0), (1, 1, 0), (0, 0, 0)),)
    T = torsion_spec()
    e = T.group.element((1,), (0,))
    assert twist_product_surjective(T, "x", e, e).surjective


def test_twist_product_can_fail():
    R = weighted_spec()
    three = R.group.element((3,))
    report = twist_product_surjective(R, "x", three, three)
    assert not report.surjective
    assert shifted_generators_by_membership(R, {0}, three) == ((0, 1),)
    assert shifted_generators_by_membership(R, {0}, three + three) == ((3, 0),)
    # on the bigger chart xy the same product map is onto
    assert twist_product_surjective(R, "xy", three, three).surjective


def test_twist_product_decompositions_verify():
    rng = random.Random(13)
    for spec in (plane_spec(), torsion_spec()):
        gens = [g for g in spec.irrelevant_generators() if g.support]
        sg_cache = {}
        for _ in range(8):
            f = rng.choice(gens)
            d, e = rng.sample(small_elements(spec.group, 2), 2)
            report = twist_product_surjective(spec, f, d, e)
            if f not in sg_cache:
                sg_cache[f] = spec.semigroup(f.support)
            for target, gd, ge, rest in report.decompositions:
                assert tuple(p + q + r for p, q, r in zip(gd, ge, rest)) == target
                assert sg_cache[f].contains(rest)


def test_global_sections_plane():
    R = plane_spec()
    report = global_sections(R, R.group.element((1, 1)), 3)
    assert [m.render(R.variables) for m in report.monomials] == ["z", "xy"]
    assert report.complete


def test_global_sections_not_pointed():
    G = FgAbGroup(0, [2])
    R = RingSpec(G, ["x"], [G.element((), (1,))])
    report = global_sections(R, G.zero(), 4)
    assert [m.render(R.variables) for m in report.monomials] == ["1", "x^2", "x^4"]
    assert not report.complete
    odd = global_sections(R, G.element((), (1,)), 4)
    assert [m.render(R.variables) for m in odd.monomials] == ["x", "x^3"]


def test_global_sections_complete_only_when_bound_reaches_the_fiber():
    R = plane_spec()
    d = R.group.element((4, 4))
    short = global_sections(R, d, 3)
    assert short.monomials == () and not short.complete
    full = global_sections(R, d, 8)
    assert [m.render(R.variables) for m in full.monomials] == \
        ["z^4", "xyz^3", "x^2y^2z^2", "x^3y^3z", "x^4y^4"]
    assert full.complete
    partial = global_sections(R, d, 6)
    assert [m.render(R.variables) for m in partial.monomials] == \
        ["z^4", "xyz^3", "x^2y^2z^2"]
    assert not partial.complete


def test_sections_listing_matches_the_bounded_scan():
    rng = random.Random(83)
    specs = [plane_spec(), quad_spec(), weighted_spec(), steep_spec()]
    while len(specs) < 12:
        r = rng.randint(1, 2)
        G = FgAbGroup(r, rng.choice([[], [2], [3]]))
        # nonzero nonnegative free parts keep the grading pointed
        degrees = [G.element(tuple(rng.randint(0, 2) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(rng.randint(r + 1, r + 2))]
        if any(not any(deg.free) for deg in degrees):
            continue
        try:
            specs.append(RingSpec(G, [f"v{i}" for i in range(len(degrees))], degrees))
        except NotEffective:
            continue
    verdicts = set()
    for spec in specs:
        assert _is_pointed(spec)
        for d in small_elements(spec.group, 2):
            # on a pointed grading these are the whole degree class
            whole = shifted_generators_by_membership(spec, (), d)
            top = max((sum(v) for v in whole), default=0)
            for bound in range(6):
                report = global_sections(spec, d, bound)
                assert [m.exponents for m in report.monomials] == \
                    oracles.bounded_degree_scan(spec, d, bound)
                # complete is never claimed while a monomial lies past the bound
                assert not (report.complete and top > bound)
                verdicts.add(report.complete)
    assert verdicts == {True, False}


def test_global_sections_cost_follows_the_bound_not_the_degree():
    G = FgAbGroup(1)
    P3 = RingSpec(G, ["x", "y", "z", "w"], [G.element((1,))] * 4)
    start = time.perf_counter()
    # the degree-200 class has over a million members; none is within 6
    report = global_sections(P3, G.element((200,)), 6)
    assert report.monomials == () and not report.complete
    assert time.perf_counter() - start < 10
    low = global_sections(P3, G.element((3,)), 6)
    assert len(low.monomials) == 20 and low.complete


def test_pointedness_matches_degree_zero_hilbert_basis():
    rng = random.Random(149)
    specs = [plane_spec(), torsion_spec(), quad_spec(), weighted_spec(), steep_spec()]
    # kept small: the reference Hilbert basis grows fast with mixed signs
    while len(specs) < 60:
        r = rng.randint(1, 2)
        G = FgAbGroup(r, rng.choice([[], [2]]))
        degrees = [G.element(tuple(rng.randint(-1, 2) for _ in range(r)),
                             tuple(rng.randint(0, 1) for _ in G.torsion))
                   for _ in range(rng.randint(r, r + 2))]
        try:
            specs.append(RingSpec(G, [f"v{i}" for i in range(len(degrees))], degrees))
        except NotEffective:
            continue
    kinds = set()
    for spec in specs:
        reference = hilbert_basis(spec.semigroup(())) == ((), ())
        assert _is_pointed(spec) == reference
        kinds.add(reference)
    assert kinds == {True, False}


def test_pointedness_matches_the_search_on_seeded_gradings():
    # the elimination answers as the least-mode search did, over every
    # rank up to 4, with torsion and with mixed signs
    rng = random.Random(31)
    answers, ranks, torsion, mixed = {True: 0, False: 0}, set(), 0, 0
    for _ in range(300):
        r = rng.randint(0, 4)
        G = FgAbGroup(r, rng.choice([[], [2], [3], [6]]))
        degrees = [G.element(tuple(rng.randint(-2, 3) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(rng.randint(1, r + 4))]
        spec = RingSpec(G, [f"v{i}" for i in range(len(degrees))], degrees,
                        check_effective=False)
        got = _is_pointed(spec)
        assert got == oracles.is_pointed_by_search(spec), degrees
        answers[got] += 1
        ranks.add(r)
        torsion += bool(G.torsion)
        # pointed, yet some degree has a negative free entry
        mixed += got and any(a < 0 for deg in degrees for a in deg.free)
    assert min(answers.values()) >= 100 and ranks == set(range(5)), (answers, ranks)
    assert torsion >= 150 and mixed >= 100, (torsion, mixed)


def test_pointed_z3_grading_decides_pointedness_with_no_search(monkeypatch):
    # work, not time: a least-mode search took 20 s to find this mixed-sign
    # Z^3 grading pointed; the elimination calls no solver at all, and the
    # sections payloads are those the search gave
    from pathlib import Path

    import projd.diophantine as diophantine
    from projd.cli import execute, parse_ring_spec

    def refuse_search(*args, **kwargs):
        raise AssertionError("solver search")

    spec = parse_ring_spec((Path(__file__).parent / "pointed-z3.yaml").read_bytes())
    assert any(a < 0 for deg in spec.degrees for a in deg.free)
    with monkeypatch.context() as patch:
        patch.setattr(diophantine, "_contejean_devie", refuse_search)
        assert _is_pointed(spec)
    # the payloads recorded from the search
    assert execute(spec, "sections", ["0,0,0"], 0) == {
        "bound": 0, "complete": True, "degree": "(0, 0, 0)", "monomials": ["1"]}
    assert execute(spec, "sections", ["1,1,1"], 2) == {
        "bound": 2, "complete": False, "degree": "(1, 1, 1)", "monomials": []}


def test_global_sections_unreachable_degree():
    R = plane_spec()
    report = global_sections(R, R.group.element((-1, 0)), 5)
    assert report.monomials == () and report.complete


def test_global_sections_of_zero_free_degree():
    # pointed, with torsion: only 1 has free degree zero, at any bound
    G = FgAbGroup(1, [2])
    R = RingSpec(G, ["x", "y"], [G.element((1,), (0,)), G.element((1,), (1,))])
    one = global_sections(R, G.zero(), 0)
    assert [m.render(R.variables) for m in one.monomials] == ["1"] and one.complete
    odd = global_sections(R, G.element((0,), (1,)), 0)
    assert odd.monomials == () and odd.complete


def test_global_sections_rejects_negative_bound():
    R = plane_spec()
    with pytest.raises(ValueError):
        global_sections(R, R.group.zero(), -1)


def test_global_sections_torsion_flag_partial():
    # y^2 has degree zero, so degree slices are infinite
    T = torsion_spec()
    report = global_sections(T, T.group.element((1,), (1,)), 2)
    assert not report.complete
    assert {m.render(T.variables) for m in report.monomials} == {"z", "xy"}


def test_global_sections_are_chart_module_numerators():
    R = plane_spec()
    d = R.group.element((2, 1))
    report = global_sections(R, d, 6)
    assert report.complete
    expected = {(2, 1, 0), (1, 0, 1)}
    assert {m.exponents for m in report.monomials} == expected
    for f in R.irrelevant_generators():
        gens = shifted_generators_by_membership(R, f.support, d)
        sg = R.semigroup(f.support)
        units, pointed = hilbert_basis(sg)
        pool = list(pointed) + [list(u) for u in units] + \
            [[-a for a in u] for u in units]
        for m in report.monomials:
            diff_ok = False
            for g in gens:
                diff = tuple(a - b for a, b in zip(m.exponents, g))
                if not any(diff) or semigroup_member(pool, diff) is not None:
                    diff_ok = True
                    break
            assert diff_ok


def test_reports_are_deterministic():
    a = is_invertible(torsion_spec(), torsion_spec().group.element((2,), (0,)))
    b = is_invertible(torsion_spec(), torsion_spec().group.element((2,), (0,)))
    assert a == b
    ga = global_sections(plane_spec(), plane_spec().group.element((1, 1)), 4)
    gb = global_sections(plane_spec(), plane_spec().group.element((1, 1)), 4)
    assert ga == gb
