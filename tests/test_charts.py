from __future__ import annotations

import itertools
import math
import random

import oracles
import pytest
from oracles import psi_collision_scan
from projd.charts import (
    MonomialPrime,
    PrimeMeetsF,
    chart_algebra,
    chart_intersection_check,
    cover_decomposition,
    psi_image,
    v_plus,
)
from projd.diophantine import ConstrainedSemigroup, hilbert_basis
from projd.fgab import FgAbGroup, subgroup_index
from projd.ringspec import (InvalidInput, Monomial, NotEffective, NotRelevant, ParseError,
                            RingSpec)
from projd.separation import classify_dependencies, is_separated
from projd.sheaves import global_sections, is_invertible, unit_of_degree


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


def all_primes(spec):
    gens = spec.irrelevant_generators()
    n = len(spec.variables)
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if gens and all(g.support & s for g in gens):
                continue
            out.append(MonomialPrime(combo))
    return out


def test_chart_algebra_plane_examples():
    R = plane_spec()
    c = chart_algebra(R, "xy")
    assert c.units == () and c.generators == ((-1, -1, 1),)
    assert c.free_coords == {0, 1}
    for f in ("xz", "yz"):
        c = chart_algebra(R, f)
        assert c.units == () and c.generators == ((1, 1, -1),)
    c = chart_algebra(R, "x*y*z^2")
    assert c.units == ((1, 1, -1),) and c.generators == ()


def test_chart_algebra_rejects_irrelevant():
    R = plane_spec()
    with pytest.raises(NotRelevant):
        chart_algebra(R, "z")


def test_chart_algebra_vectors_have_degree_zero():
    for spec in (plane_spec(), torsion_spec(), quad_spec()):
        for f in spec.irrelevant_generators():
            if not f.support:
                continue
            c = chart_algebra(spec, f)
            for v in c.pool:
                deg = spec.group.zero()
                for a, d in zip(v, spec.degrees):
                    deg = deg + a * d
                assert deg.is_zero()
                for i, a in enumerate(v):
                    if a < 0:
                        assert i in c.free_coords


def test_chart_intersection_spec_examples():
    R = plane_spec()
    rep = chart_intersection_check(R, "xy", "xz")
    chart = chart_algebra(R, "x^2*y*z")
    assert chart.units == ((1, 1, -1),) and chart.generators == ()
    assert rep.inverted == ((-1, -1, 1),)

    rep = chart_intersection_check(R, "xy", "xy")
    assert rep.inverted == ()

    rep = chart_intersection_check(R, "xz", "yz")
    assert rep.inverted == ((1, 1, -1),)
    assert chart_algebra(R, "x*y*z^2").units == ((1, 1, -1),)


def test_chart_intersection_decompositions_recombine():
    specs = [plane_spec(), torsion_spec(), quad_spec(), five_spec()]
    rng = random.Random(151)
    for spec in specs:
        gens = [g for g in spec.irrelevant_generators() if g.support]
        for _ in range(4):
            f, g = rng.choice(gens), rng.choice(gens)
            rep = chart_intersection_check(spec, f, g)
            chart_f = chart_algebra(spec, f)
            pool = chart_f.pool + tuple(tuple(-a for a in v) for v in rep.inverted)
            seen = set()
            for target, coeffs in rep.decompositions:
                combo = [0] * len(spec.variables)
                for c, vec in zip(coeffs, pool):
                    for i, a in enumerate(vec):
                        combo[i] += c * a
                assert tuple(combo) == tuple(target)
                seen.add(tuple(target))
            assert seen == set(chart_algebra(spec, f * g).pool)


def test_psi_image_examples():
    R = plane_spec()
    assert psi_image(R, "xz", MonomialPrime(())) == ()
    assert psi_image(R, "xz", "(y)") == ((1, 1, -1),)
    # irrelevant f is allowed and exhibits the collision
    assert psi_image(R, "z", "(x)") == ((1, 1, -1),)
    assert psi_image(R, "z", "(y)") == ((1, 1, -1),)
    with pytest.raises(PrimeMeetsF):
        psi_image(R, "xz", "(x)")
    # a bad prime is refused as input, and a prime is text, not a list
    with pytest.raises(InvalidInput, match="unknown variable"):
        psi_image(R, "xz", "(q)")
    with pytest.raises(ParseError):
        psi_image(R, "xz", ["y"])


def test_psi_collision_scan_examples():
    R = plane_spec()
    assert psi_collision_scan(R, "xz") == "injective"
    got = psi_collision_scan(R, "z")
    assert got == (MonomialPrime((0,)), MonomialPrime((1,)))

    G = FgAbGroup(1)
    one = RingSpec(G, ["x"], [G.element((1,))])
    assert psi_collision_scan(one, "x") == "injective"


def test_psi_injective_for_all_relevant_supports():
    for spec in (plane_spec(), torsion_spec(), quad_spec(), five_spec()):
        n = len(spec.variables)
        for bits in itertools.product((0, 1), repeat=n):
            m = Monomial(bits)
            if spec.is_relevant(m):
                assert psi_collision_scan(spec, m) == "injective", bits


def test_psi_surjective_onto_chart_generators():
    for spec in (plane_spec(), torsion_spec(), quad_spec(), five_spec()):
        for f in spec.irrelevant_generators():
            if not f.support:
                continue
            chart = chart_algebra(spec, f)
            covered = set()
            for p in all_primes(spec):
                if set(p.variables) & f.support:
                    continue
                covered |= set(psi_image(spec, f, p))
            assert covered == set(chart.generators)


def test_cover_decomposition_examples():
    R = plane_spec()
    names = lambda monos: {m.render(R.variables) for m in monos}
    assert names(cover_decomposition(R, "x")) == {"xy", "xz"}
    assert names(cover_decomposition(R, "1")) == {"xy", "xz", "yz"}
    assert names(cover_decomposition(R, "z")) == {"xz", "yz"}
    # support spanning a dependent set is covered by no single generator
    assert cover_decomposition(R, "xyz") == ()


def test_cover_decomposition_prime_avoidance():
    for spec in (plane_spec(), torsion_spec(), quad_spec(), five_spec()):
        n = len(spec.variables)
        primes = all_primes(spec)
        for bits in itertools.product((0, 1), repeat=n):
            h = Monomial(bits)
            cover = cover_decomposition(spec, h)
            for p in primes:
                avoids_some = any(not (g.support & set(p.variables)) for g in cover)
                if avoids_some:
                    assert not (h.support & set(p.variables))
            if cover:
                for p in primes:
                    if not (h.support & set(p.variables)):
                        assert any(not (g.support & set(p.variables))
                                   for g in cover), (bits, p)
            else:
                assert not any(h.support <= g.support
                               for g in spec.irrelevant_generators())


def test_v_plus_examples():
    R = plane_spec()
    assert v_plus(R, ["xy"]) == (MonomialPrime((0,)), MonomialPrime((1,)))
    assert v_plus(R, ["xy", "xz", "yz"]) == ()
    assert v_plus(R, []) == (MonomialPrime(()),)
    assert v_plus(R, ["1"]) == ()


def test_v_plus_minimality_and_membership():
    rng = random.Random(157)
    for spec in (plane_spec(), quad_spec()):
        n = len(spec.variables)
        for _ in range(10):
            k = rng.randint(1, 3)
            ideal = [Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
                     for _ in range(k)]
            ideal = [m for m in ideal if m.support] or [Monomial((1,) * n)]
            out = v_plus(spec, ideal)
            for p in out:
                s = set(p.variables)
                assert all(s & m.support for m in ideal)
                for q in out:
                    if q != p:
                        assert not set(q.variables) < s


def test_v_plus_closure_property():
    rng = random.Random(163)
    for spec in (plane_spec(), quad_spec()):
        n = len(spec.variables)
        primes = all_primes(spec)
        squarefree = [Monomial(bits) for bits in itertools.product((0, 1), repeat=n)
                      if any(bits)]
        for _ in range(8):
            Y = rng.sample(primes, rng.randint(1, min(3, len(primes))))
            hitting = [m for m in squarefree
                       if all(m.support & set(p.variables) for p in Y)]
            ideal_gens = [m for m in hitting
                          if not any(o.support < m.support for o in hitting)]
            closed = v_plus(spec, ideal_gens)
            # Y lies in the closed set defined by its vanishing ideal
            for p in Y:
                assert all(g.support & set(p.variables) for g in ideal_gens)
            # and that closed set is the smallest monomial one around Y
            for q in primes:
                in_closure = all(g.support & set(q.variables) for g in ideal_gens)
                in_every = all(m.support & set(q.variables) for m in hitting)
                assert in_closure == in_every


def test_v_plus_matches_the_subset_scan():
    rng = random.Random(167)
    drawn = set()
    cases = 0
    while cases < 300:
        r = cases % 3
        G = FgAbGroup(r, rng.choice([[], [2], [3]]))
        n = rng.randint(max(r, 1), 7)
        degrees = [G.element(tuple(rng.randint(-1, 2) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(n)]
        try:
            R = RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue
        ideal = [Monomial(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)))
                 for _ in range(rng.randint(0, 4))]
        assert v_plus(R, ideal) == oracles.v_plus_by_subset_scan(R, ideal), (G, degrees, ideal)
        drawn.add(n)
        drawn.add("unit" if any(not m.support for m in ideal) else len(ideal))
        cases += 1
    assert {0, "unit", 4, 7} <= drawn


def test_v_plus_of_eight_disjoint_edges():
    # a prime over (x0 x1, x2 x3, ..., x14 x15) picks one end of each edge
    G = FgAbGroup(1)
    R = RingSpec(G, [f"x{i}" for i in range(16)], [G.element((1,))] * 16)
    edges = [Monomial(tuple(int(i // 2 == k) for i in range(16))) for k in range(8)]
    primes = v_plus(R, edges)
    assert len(primes) == 256
    for p in primes:
        s = set(p.variables)
        assert all(s & e.support for e in edges)
        assert not any(all((s - {i}) & e.support for e in edges) for i in s)


def test_rank_zero_single_chart():
    G = FgAbGroup(0, [2])
    R = RingSpec(G, ["x"], [G.element((), (1,))])
    gens = R.irrelevant_generators()
    assert gens == (Monomial((0,)),)
    chart = chart_algebra(R, gens[0])
    assert chart.free_coords == frozenset()
    assert psi_collision_scan(R, gens[0]) == "injective"


def test_chart_algebra_deterministic():
    R = five_spec()
    a = chart_algebra(R, "xz")
    b = chart_algebra(R, "xz")
    assert a == b


def test_cached_charts_equal_fresh_ones(monkeypatch):
    from projd.cli import fixture_text, parse_ring_spec

    # every semigroup whose units, pool or sorted pool is read, so that each
    # caller can be checked to use the spec's own semigroup and to build none
    # of its own; the pool is built once, so a later call reads no units, and
    # the sorted pool once, so a later call reads no pool
    read = []
    units, pool = ConstrainedSemigroup.units, ConstrainedSemigroup.pool
    sorted_pool = ConstrainedSemigroup.sorted_pool

    def recorded(sg):
        read.append(sg)
        return units.__get__(sg, ConstrainedSemigroup)

    def recorded_pool(sg):
        read.append(sg)
        return pool.__get__(sg, ConstrainedSemigroup)

    def recorded_sorted_pool(sg):
        read.append(sg)
        return sorted_pool.__get__(sg, ConstrainedSemigroup)

    monkeypatch.setattr(ConstrainedSemigroup, "units", property(recorded))
    monkeypatch.setattr(ConstrainedSemigroup, "pool", property(recorded_pool))
    monkeypatch.setattr(ConstrainedSemigroup, "sorted_pool", property(recorded_sorted_pool))

    specs = [parse_ring_spec(fixture_text(name))
             for name in ("plane", "plane-b", "torsion", "quad", "five", "parity")]
    G = FgAbGroup(2)
    # B is checked for relevance while the spec is still being built
    specs.append(RingSpec(G, ["x", "y", "z"],
                          [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))],
                          conical_ideal=["x*y", "y*z^2"]))
    for spec in specs:
        anew = RingSpec(spec.group, spec.variables, spec.degrees)  # no shared memo
        n = len(spec.variables)
        supports = [Monomial(bits) for bits in itertools.product((0, 1), repeat=n)]
        g0 = spec.irrelevant_generators()[0]
        # visit supports twice, in two orders, so later calls are cache hits
        for m in supports + supports[::-1]:
            sg = spec.semigroup(m.support)
            fresh = ConstrainedSemigroup(n, anew.kernel, m.support)
            assert (sg.units, sg.generators) == hilbert_basis(fresh)
            del read[:]
            psi_image(spec, m, MonomialPrime(()))
            relevant = subgroup_index(spec.group, spec.support_group(m)) != math.inf
            assert spec.is_relevant(m) == relevant
            if relevant:
                assert chart_algebra(spec, m) is sg
                unit_of_degree(spec, m, spec.degree_of(m))
                chart_intersection_check(spec, m, g0)
                fg = spec.semigroup(m.support | g0.support)
                assert chart_algebra(spec, m * g0) is fg
            assert any(r is sg for r in read)
            assert all(r is spec.semigroup(r.free_coords) for r in read)
        assert spec.irrelevant_generators() == anew.irrelevant_generators()


def test_psi_collision_scan_matches_pairwise_loop():
    for spec in (plane_spec(), torsion_spec(), quad_spec(), five_spec()):
        n = len(spec.variables)
        for bits in itertools.product((0, 1), repeat=n):
            f = Monomial(bits)
            primes = [p for p in all_primes(spec)
                      if not set(p.variables) & f.support]
            images = [psi_image(spec, f, p) for p in primes]
            expected = oracles.first_equal_pair(primes, images)
            assert psi_collision_scan(spec, f) == (expected or "injective")


def _drawn_grading(rng):
    """An effective grading of rank 1-3 with torsion [], [2], [3], [4], [6]
    or [2, 2], free degree entries -1..3, on r + 1 to r + 3 variables (r +
    2 at rank 3, where six variables can keep one search for seconds);
    a draw that is not effective is drawn again."""
    while True:
        r = rng.randint(1, 3)
        G = FgAbGroup(r, rng.choice([[], [2], [3], [4], [6], [2, 2]]))
        n = rng.randint(r + 1, r + (2 if r == 3 else 3))
        degrees = [G.element(tuple(rng.randint(-1, 3) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(n)]
        try:
            return RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue


def test_localized_charts_match_the_standalone_search():
    # every chart of a relevant support past rank D, the chart of a
    # product, must equal its plain search (hilbert_basis), units and
    # generators both.  A chart whose lattice projects onto its
    # constrained coordinates (index 1 in its Smith form) reads its
    # generators off its Hermite form, and every other chart searches
    # itself, so the search is also called directly
    rng = random.Random(26)
    seen = {"torsion": set(), "rank 3": 0, "units": 0, "checks": 0,
            "index 1": 0, "index > 1": 0}
    for _ in range(150):
        spec = _drawn_grading(rng)
        n, r = len(spec.variables), spec.group.rank
        relevant = [s for k in range(r, n + 1)
                    for s in map(frozenset, itertools.combinations(range(n), k))
                    if spec.is_relevant(Monomial(tuple(int(i in s) for i in range(n))))]
        seen["torsion"].add(spec.group.torsion)
        seen["rank 3"] += r == 3
        for wide in relevant:
            if not any(s < wide for s in relevant):
                continue
            chart = spec.semigroup(wide)
            assert (chart.units, chart.generators) == hilbert_basis(chart), (spec.degrees, wide)
            seen["index 1" if oracles.chart_index(chart) == 1 else "index > 1"] += 1
            seen["units"] += bool(chart.units)
            seen["checks"] += 1
    assert seen["torsion"] == {(), (2,), (3,), (4,), (6,), (2, 2)}, seen
    assert min(seen["rank 3"], seen["units"]) >= 30, seen
    assert seen["checks"] >= 900, seen
    assert min(seen["index 1"], seen["index > 1"]) >= 300, seen


def test_units_match_the_smith_kernel_of_the_projection():
    # units are read off one Hermite form; the oracle takes the kernel of
    # the projection to the constrained coordinates from a Smith form.
    # Every support, relevant or not: those of L6 and tor3 built in two
    # orders, and those of the drawn gradings above
    G, T = FgAbGroup(2), FgAbGroup(2, [3])
    l6 = RingSpec(G, [f"x{i}" for i in range(6)], [G.element(d) for d in (
        (1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3))])
    tor3 = RingSpec(T, [f"x{i}" for i in range(4)], [T.element(f, (t,)) for f, t in (
        ((1, 0), 1), ((0, 1), 2), ((1, 1), 0), ((1, 2), 1))])
    rng = random.Random(26)
    specs = [(l6, 2), (tor3, 2)] + [(_drawn_grading(rng), 1) for _ in range(150)]
    seen = {"supports": 0, "units": 0}
    for spec, orders in specs:
        n = len(spec.variables)
        supports = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        for order in (supports, supports[::-1])[:orders]:
            if order is not supports:
                spec = RingSpec(spec.group, spec.variables, spec.degrees)
            for support in order:
                sg = spec.semigroup(support)
                assert sg.units == oracles.units_by_smith_kernel(sg), (spec.degrees, support)
                seen["supports"] += 1
                seen["units"] += bool(sg.units)
    assert seen["supports"] >= 2700, seen
    assert seen["units"] >= 1000, seen


def test_value_classes_keep_their_dataclass_semantics():
    # reprs recorded when these classes were frozen dataclasses; the reports
    # are NamedTuples and the value classes plain classes since
    spec = plane_spec()
    sg = ConstrainedSemigroup(3, ((1, 1, -1),), frozenset({0}))
    d = spec.group.element((1, 1))
    reprs = {
        Monomial((1, 0, 2)): "Monomial(exponents=(1, 0, 2))",
        MonomialPrime((2, 0, 2)): "MonomialPrime(variables=(0, 2))",
        chart_algebra(spec, "xy"):
            "ConstrainedSemigroup(nvars=3, kernel_basis=((1, 1, -1),), "
            "free_coords=frozenset({0, 1}))",
        sg:
            "ConstrainedSemigroup(nvars=3, kernel_basis=((1, 1, -1),), "
            "free_coords=frozenset({0}))",
        is_separated(spec):
            "SeparationVerdict(separated=False, weak_pairs=(WeakPairReport("
            "pair=(Monomial(exponents=(0, 1, 1)), Monomial(exponents=(1, 0, 1))), "
            "weak=True, witness=(-1, -1, 1)),), "
            "dependency_class='nontrivial-irreducible')",
        classify_dependencies(spec):
            "DependencyReport(klass='nontrivial-irreducible', witness=(1, 1, -1))",
        chart_intersection_check(spec, "xz", "yz"):
            "ChartIntersectionReport(inverted=((1, 1, -1),), "
            "decompositions=(((1, 1, -1), (1, 0)), ((-1, -1, 1), (0, 1))))",
        is_invertible(spec, d):
            "SheafReport(invertible=True, chart_units=("
            "(Monomial(exponents=(0, 1, 1)), (0, 0, 1)), "
            "(Monomial(exponents=(1, 0, 1)), (0, 0, 1)), "
            "(Monomial(exponents=(1, 1, 0)), (1, 1, 0))), obstruction=None)",
        global_sections(spec, d, 2):
            "GlobalSectionsReport(monomials=(Monomial(exponents=(0, 0, 1)), "
            "Monomial(exponents=(1, 1, 0))), complete=True)",
    }
    for value, text in reprs.items():
        assert repr(value) == text
    # equal values hash equal
    assert sg == ConstrainedSemigroup(3, ((-1, -1, 1),), frozenset({0}))
    assert hash(sg) == hash(ConstrainedSemigroup(3, ((1, 1, -1),), frozenset({0})))
    assert Monomial((1, 2)) == Monomial((1, 2)) != Monomial((2, 1))
    assert hash(Monomial((1, 2))) == hash(Monomial((1, 2)))
    assert MonomialPrime((2, 0, 2)) == MonomialPrime((0, 2))
    assert hash(MonomialPrime((2, 0, 2))) == hash(MonomialPrime((0, 2)))
    assert MonomialPrime((2, 0, 2)).variables == (0, 2)
    assert Monomial((0, 2)) != MonomialPrime((0, 2)) and Monomial((1,)) != (1,)
    # the constructors take keywords and the old defaults
    assert ConstrainedSemigroup(nvars=3, kernel_basis=((1, 1, -1),)).free_coords == frozenset()
    assert Monomial(exponents=(1,)).exponents == (1,)
    with pytest.raises(ValueError):
        Monomial((1, -1))
    # fields are read-only; cached properties still fill in
    for value, name in ((Monomial((1, 0)), "exponents"), (MonomialPrime(()), "variables"),
                        (sg, "free_coords")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert Monomial((1, 0, 2)).support == frozenset({0, 2})
    assert sg.units == ()
