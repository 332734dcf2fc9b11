"""End-to-end gate: eight exact checks, one test and one verdict line each.

Run directly for a plain PASS/FAIL summary, or through pytest as part of
the suite.  Every expectation here is either a hand-checked value or an
agreement requirement between independent code paths.
"""

from __future__ import annotations

import itertools
import random

from oracles import (box, lattice_tester, psi_collision_scan, rational_solve,
                     relevance_via_components, shifted_generators_by_membership,
                     veronese_scaled_spec)
from projd.charts import chart_algebra
from projd.diophantine import (
    ConstrainedSemigroup,
    hilbert_basis,
    semigroup_member,
)
from projd.fgab import FgAbGroup, subgroup_index
from projd.ringspec import Monomial, NotEffective, RingSpec
from projd.separation import (
    classify_dependencies,
    is_separated,
    mu_surjective,
    separated_submodels,
    weak_pairs,
)
from projd.sheaves import is_free, is_invertible


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


def five_spec():
    G = FgAbGroup(2)
    return RingSpec(G, ["x", "y", "z", "v", "w"],
                    [G.element((1, 0)), G.element((1, 0)), G.element((1, 1)),
                     G.element((0, 1)), G.element((0, 1))])


def parity_spec():
    G = FgAbGroup(0, [2])
    return RingSpec(G, ["x"], [G.element((), (1,))])


def all_fixtures():
    return [plane_spec(), torsion_spec(), quad_spec(), five_spec(),
            parity_spec()]


def renders(spec, monos):
    return {m.render(spec.variables) for m in monos}


def square_free_monomials(spec):
    n = len(spec.variables)
    return [Monomial(combo) for combo in itertools.product((0, 1), repeat=n)]


def test_criterion_1_generators():
    assert renders(plane_spec(), plane_spec().irrelevant_generators()) == \
        {"xy", "xz", "yz"}
    assert renders(torsion_spec(), torsion_spec().irrelevant_generators()) == \
        {"x", "z"}
    assert renders(quad_spec(), quad_spec().irrelevant_generators()) == \
        {"xw", "yw", "zw", "xz", "yz"}


def test_criterion_2_charts():
    spec = plane_spec()
    xy = chart_algebra(spec, "x*y")
    assert xy.units == () and xy.generators == ((-1, -1, 1),)
    xz = chart_algebra(spec, "x*z")
    yz = chart_algebra(spec, "y*z")
    assert xz.units == () and xz.generators == ((1, 1, -1),)
    assert (yz.units, yz.generators) == (xz.units, xz.generators)
    full = chart_algebra(spec, "x*y*z^2")
    assert full.units == ((1, 1, -1),) and full.generators == ()


def test_criterion_3_chart_correspondence_injectivity():
    for spec in all_fixtures():
        for f in square_free_monomials(spec):
            if f.support and spec.is_relevant(f):
                assert psi_collision_scan(spec, f) == "injective", \
                    (spec.variables, f.render(spec.variables))
    collision = psi_collision_scan(plane_spec(), "z")
    assert collision != "injective"
    assert tuple(p.variables for p in collision) == ((0,), (1,))


def test_criterion_4_separation_verdicts():
    plane = is_separated(plane_spec())
    assert not plane.separated and len(plane.weak_pairs) == 1
    assert renders(plane_spec(), plane.weak_pairs[0].pair) == {"xz", "yz"}

    assert is_separated(torsion_spec()).separated

    five = five_spec()
    found = {frozenset(renders(five, r.pair)) for r in weak_pairs(five)}
    assert found == {frozenset({"zw", "yz"}), frozenset({"zw", "xz"}),
                     frozenset({"zv", "yz"}), frozenset({"zv", "xz"})}

    subs = {frozenset(renders(plane_spec(), sub))
            for sub in separated_submodels(plane_spec())}
    assert subs == {frozenset({"xy", "xz"}), frozenset({"xy", "yz"})}


def random_torsion_free_grading(rng):
    r = rng.randint(1, 3)
    n = rng.randint(r + 1, 6)
    G = FgAbGroup(r)
    pool = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    pool += [tuple(1 if k in (i, j) else 0 for k in range(r))
             for i in range(r) for j in range(i + 1, r)]
    degrees = []
    for _ in range(n):
        if rng.random() < 0.75:
            degrees.append(rng.choice(pool))
        else:
            degrees.append(tuple(rng.randint(0, 2) for _ in range(r)))
    return RingSpec(G, [f"x{i}" for i in range(n)],
                    [G.element(d) for d in degrees])


def test_criterion_5_dependency_theorem_consistency():
    rng = random.Random(11)
    decisive = {"length-one-only": 0, "nontrivial-irreducible": 0}
    total = 0
    while total < 30:
        try:
            spec = random_torsion_free_grading(rng)
        except NotEffective:
            continue
        total += 1
        klass = classify_dependencies(spec).klass
        if klass not in decisive:
            continue
        decisive[klass] += 1
        separated = is_separated(spec).separated
        assert separated == (klass == "length-one-only"), \
            ([tuple(d.free) for d in spec.degrees], klass, separated)
    assert total >= 20
    assert all(count > 0 for count in decisive.values()), decisive


def test_criterion_6_twist_freeness_scans():
    spec = torsion_spec()
    for a in range(-6, 7):
        for t in range(2):
            d = spec.group.element((a,), (t,))
            report = is_invertible(spec, d)
            assert is_free(spec, d) == report.invertible
            assert is_free(spec, d) == (a % 2 == 0 and t == 0), (a, t)

    plane = plane_spec()
    for a in range(-4, 5):
        for b in range(-4, 5):
            d = plane.group.element((a, b))
            report = is_invertible(plane, d)
            assert is_free(plane, d) and report.invertible, (a, b)


def rational_span_member(rows, vec):
    if not rows:
        return not any(vec)
    cols = [[row[i] for row in rows] for i in range(len(vec))]
    return rational_solve(cols, list(vec)) is not None


def random_semigroup(rng):
    n = rng.choice((2, 2, 2, 3, 3, 3, 4, 4, 5))
    rows = []
    for _ in range(rng.randint(1, min(3, n - 1))):
        cand = [rng.randint(-2, 2) for _ in range(n)]
        if any(cand) and not rational_span_member(rows, cand):
            rows.append(cand)
    free = frozenset(i for i in range(n) if rng.random() < 0.3)
    return ConstrainedSemigroup(n, tuple(tuple(r) for r in rows), free)


def oracle_member(in_span, sg, vec):
    if not in_span(vec):
        return False
    return all(vec[i] >= 0 for i in range(sg.nvars) if i not in sg.free_coords)


def test_criterion_7_oracle_equivalence():
    rng = random.Random(23)
    for trial in range(50):
        sg = random_semigroup(rng)
        in_span = lattice_tester([list(r) for r in sg.kernel_basis])
        units, gens = hilbert_basis(sg)
        pool = ([list(g) for g in gens] + [list(u) for u in units]
                + [[-a for a in u] for u in units])
        for vec in pool:
            assert oracle_member(in_span, sg, vec), (sg.kernel_basis, vec)
        members, strays = [], []
        for vec in box(sg.nvars, -3, 3):
            truth = oracle_member(in_span, sg, vec)
            assert sg.contains(vec) == truth, (sg.kernel_basis, vec)
            if truth and any(vec):
                members.append(vec)
            elif not truth and in_span(vec):
                strays.append(vec)
        if len(members) > 40:
            members = rng.sample(members, 40)
        for vec in members:
            coeffs = semigroup_member(pool, vec)
            assert coeffs is not None, (sg.kernel_basis, sg.free_coords, vec)
            rebuilt = [sum(c * g[i] for c, g in zip(coeffs, pool))
                       for i in range(sg.nvars)]
            assert tuple(rebuilt) == tuple(vec)
        for vec in rng.sample(strays, min(3, len(strays))):
            assert semigroup_member(pool, vec) is None, \
                (sg.kernel_basis, sg.free_coords, vec)

    specs = [plane_spec(), torsion_spec(), quad_spec()]
    for trial in range(20):
        spec = specs[trial % len(specs)]
        n = len(spec.variables)
        f = rng.choice(spec.irrelevant_generators())
        shift = [rng.randint(0, 2) for _ in range(n)]
        d = spec.degree_of(Monomial(tuple(shift)))
        gens = shifted_generators_by_membership(spec, f.support, d)
        truth = [vec for vec in box(n, -3, 3) if _vec_degree(spec, vec) == d
                 and all(vec[i] >= 0 for i in range(n) if i not in f.support)]
        for g in gens:
            assert _vec_degree(spec, g) == d
            assert all(g[i] >= 0 for i in range(n) if i not in f.support)
        for one, other in itertools.permutations(gens, 2):
            diff = tuple(a - b for a, b in zip(one, other))
            assert any(diff[i] < 0 for i in range(n) if i not in f.support), \
                (f.render(spec.variables), one, other)
        for vec in truth:
            reachable = any(
                all(vec[i] - g[i] >= 0 for i in range(n) if i not in f.support)
                for g in gens)
            assert reachable, (f.render(spec.variables), str(d), vec)


def _vec_degree(spec, vec):
    d = spec.group.zero()
    for e, dv in zip(vec, spec.degrees):
        d = d + e * dv
    return d


def _random_element(rng, group):
    free = [rng.randint(-3, 3) for _ in range(group.rank)]
    tors = [rng.randrange(m) for m in group.torsion]
    return group.element(free, tors)


def test_criterion_8_invariant_suites():
    fixtures = all_fixtures()
    for spec in fixtures:
        for m in square_free_monomials(spec):
            by_index = subgroup_index(spec.group, spec.support_group(m)) \
                != float("inf")
            assert spec.is_relevant(m) == by_index
            assert by_index == relevance_via_components(spec, m)

    for spec in fixtures:
        for scale in (2, 3):
            scaled = veronese_scaled_spec(spec, scale)
            for m in square_free_monomials(spec):
                assert spec.is_relevant(m) == scaled.is_relevant(m)

    rng = random.Random(5)
    for spec in (plane_spec(), torsion_spec(), quad_spec()):
        for _ in range(12):
            d = _random_element(rng, spec.group)
            e = _random_element(rng, spec.group)
            free_d = is_free(spec, d)
            free_e = is_free(spec, e)
            if free_d and free_e:
                assert is_free(spec, d + e), (str(d), str(e))

    for spec in (plane_spec(), torsion_spec(), quad_spec()):
        gens = spec.irrelevant_generators()
        for f, g in itertools.combinations(gens, 2):
            assert mu_surjective(spec, f, g).weak == \
                mu_surjective(spec, g, f).weak

    parity = parity_spec()
    gens = parity.irrelevant_generators()
    assert gens == (Monomial((0,)),)
    assert len(separated_submodels(parity)) == 1


CRITERIA = [
    ("generators", test_criterion_1_generators),
    ("charts", test_criterion_2_charts),
    ("chart correspondence", test_criterion_3_chart_correspondence_injectivity),
    ("separation", test_criterion_4_separation_verdicts),
    ("dependency theorem", test_criterion_5_dependency_theorem_consistency),
    ("twist freeness", test_criterion_6_twist_freeness_scans),
    ("oracle equivalence", test_criterion_7_oracle_equivalence),
    ("invariant suites", test_criterion_8_invariant_suites),
]


def main():
    failures = 0
    for number, (label, check) in enumerate(CRITERIA, start=1):
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"criterion {number} ({label}): FAIL {exc}")
        else:
            print(f"criterion {number} ({label}): PASS")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
