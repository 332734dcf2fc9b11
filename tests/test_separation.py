from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from functools import cached_property

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from projd.charts import chart_algebra
from projd.cli import execute
from projd.diophantine import hilbert_basis, minimal_nonneg_solutions, vector_key
from projd.fgab import FgAbGroup
from projd.ringspec import Monomial, NotEffective, NotRelevant, ParseError, RingSpec
from projd.separation import (
    _chart_monomials,
    _maximal_independent_sets,
    _outside_cones,
    classify_dependencies,
    is_separated,
    mu_surjective,
    separated_submodels,
    weak_pairs,
)
from projd.sheaves import is_invertible


def plane_spec():
    G = FgAbGroup(2)
    return RingSpec(G, ["x", "y", "z"],
                    [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))])


def declaring(R, B):
    """R with the chosen ideal B as its model."""
    return RingSpec(R.group, R.variables, R.degrees, conical_ideal=B)


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


def line_spec():
    G = FgAbGroup(2)
    return RingSpec(G, ["x", "y", "z"],
                    [G.element((1, 0)), G.element((1, 0)), G.element((0, 1))])


def l6_spec():
    """The L6 rung of the bench ladder: six rank-2 degrees, 15 charts."""
    G = FgAbGroup(2)
    return RingSpec(G, [f"x{i}" for i in range(6)],
                    [G.element(d) for d in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3))])


def graded(rank, torsion, degrees):
    """Variables x0, x1, ... whose degrees list free coordinates, then torsion."""
    G = FgAbGroup(rank, torsion)
    return RingSpec(G, [f"x{i}" for i in range(len(degrees))],
                    [G.element(d[:rank], d[rank:]) for d in degrees])


def l5_spec():
    return graded(2, [], [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])


def r3a_spec():
    return graded(3, [], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)])


def tor3_spec():
    return graded(2, [3], [(1, 0, 1), (0, 1, 2), (1, 1, 0), (1, 2, 1)])


FIXTURES = ("plane", "plane-b", "torsion", "quad", "five", "parity")


def renders(spec, monos):
    return tuple(m.render(spec.variables) for m in monos)


def d_invertible(spec, m):
    """Existence of a monomial of the same degree on disjoint support."""
    m = spec.monomial(m)
    group = spec.group
    outside = [i for i in range(len(spec.variables)) if i not in m.support]
    t = len(group.torsion)
    lifts = [spec.degrees[i].lift() for i in outside]
    rows = []
    for r in range(group.dim):
        row = [lift[r] for lift in lifts]
        for k in range(t):
            mk = group.torsion[k] if r == group.rank + k else 0
            row += [mk, -mk]
        rows.append(row)
    rhs = list(spec.degree_of(m).lift())
    return bool(minimal_nonneg_solutions(rows, len(outside) + 2 * t, rhs=rhs))


def test_mu_plane_examples():
    R = plane_spec()
    report = mu_surjective(R, "xz", "yz")
    assert report.weak and report.witness == (-1, -1, 1)
    assert mu_surjective(R, "xy", "xz").weak is False
    assert mu_surjective(R, "xy", "yz").weak is False


def test_mu_parses_both_monomials_before_checking_either():
    # as intersect does: a malformed monomial is a ParseError even beside
    # an irrelevant one, and relevance is checked once, by chart_algebra
    R = plane_spec()
    with pytest.raises(ParseError):
        mu_surjective(R, "z", "q")
    with pytest.raises(NotRelevant):
        mu_surjective(R, "z", "xy")


def test_mu_self_pair_never_weak():
    for spec in (plane_spec(), quad_spec(), torsion_spec()):
        for g in spec.irrelevant_generators():
            report = mu_surjective(spec, g, g)
            assert report.weak is False and report.witness is None


def test_mu_rejects_irrelevant():
    R = plane_spec()
    with pytest.raises(NotRelevant):
        mu_surjective(R, "z", "xy")
    with pytest.raises(NotRelevant):
        mu_surjective(R, "xy", "x")


def test_mu_weak_flag_symmetric():
    for spec in (plane_spec(), quad_spec(), five_spec()):
        gens = spec.irrelevant_generators()
        for f, g in itertools.combinations(gens, 2):
            assert mu_surjective(spec, f, g).weak == mu_surjective(spec, g, f).weak


def test_mu_witness_iff_weak_and_decompositions_recombine():
    for spec in (plane_spec(), quad_spec()):
        gens = spec.irrelevant_generators()
        for f, g in itertools.combinations(gens, 2):
            report = mu_surjective(spec, f, g)
            assert report.weak == (report.witness is not None)
            weak, witness, decompositions = oracles.mu_audit_by_search(spec, f, g)
            assert (report.weak, report.witness) == (weak, witness)
            pool = chart_algebra(spec, f).pool + chart_algebra(spec, g).pool
            for target, coeffs in decompositions:
                assert len(coeffs) == len(pool)
                assert all(c >= 0 for c in coeffs)
                combined = [0] * len(target)
                for c, vec in zip(coeffs, pool):
                    for i, a in enumerate(vec):
                        combined[i] += c * a
                assert tuple(combined) == target
            if not report.weak:
                targets = {t for t, _ in decompositions}
                assert targets == set(chart_algebra(spec, f * g).pool)


def test_mu_witness_reverified():
    for spec in (plane_spec(), quad_spec(), five_spec()):
        for report in weak_pairs(spec):
            f, g = report.pair
            assert report.witness in chart_algebra(spec, f * g).pool
            pool = chart_algebra(spec, f).pool + chart_algebra(spec, g).pool
            # small-box recheck that no nonnegative combination works
            rng = range(0, 4)
            for coeffs in itertools.product(rng, repeat=len(pool)):
                if sum(coeffs) > 4:
                    continue
                combined = tuple(sum(c * vec[i] for c, vec in zip(coeffs, pool))
                                 for i in range(len(report.witness)))
                assert combined != report.witness


def test_weak_pairs_plane():
    R = plane_spec()
    reports = weak_pairs(R)
    assert len(reports) == 1
    assert renders(R, reports[0].pair) == ("yz", "xz")
    assert reports[0].witness == (-1, -1, 1)


def test_weak_pairs_torsion_empty():
    R = torsion_spec()
    assert weak_pairs(R) == ()
    verdict = is_separated(R)
    assert verdict.separated is True and verdict.weak_pairs == ()


def test_weak_pairs_quad():
    R = quad_spec()
    reports = weak_pairs(R)
    assert [renders(R, r.pair) for r in reports] == [("zw", "yz"), ("zw", "xz")]
    assert [r.witness for r in reports] == [(0, -1, 1, -1), (-1, 0, 1, -1)]


def test_weak_pairs_five():
    R = five_spec()
    reports = weak_pairs(R)
    pairs = {frozenset(renders(R, r.pair)) for r in reports}
    assert pairs == {frozenset({"zw", "yz"}), frozenset({"zw", "xz"}),
                     frozenset({"zv", "yz"}), frozenset({"zv", "xz"})}
    witnesses = {r.witness for r in reports}
    assert witnesses == {(-1, 0, 1, 0, -1), (0, -1, 1, 0, -1),
                         (-1, 0, 1, -1, 0), (0, -1, 1, -1, 0)}


def test_is_separated_plane_and_custom_ideal():
    R = plane_spec()
    assert is_separated(R).separated is False
    assert is_separated(declaring(R, ("xz", "xy"))).separated is True
    # a redundant multiple is discarded before pair scanning
    assert is_separated(declaring(R, ("xz", "xy", "x^2*z^2"))).separated is True


def test_weak_pairs_use_declared_ideal():
    G = FgAbGroup(2)
    R = RingSpec(G, ["x", "y", "z"],
                 [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))],
                 conical_ideal=("xz", "xy"))
    assert weak_pairs(R) == ()
    assert is_separated(R).separated is True
    assert is_separated(declaring(R, R.irrelevant_generators())).separated is False


def test_separated_monotone_under_smaller_ideal():
    R = plane_spec()
    gens = R.irrelevant_generators()
    full = {frozenset(r.pair) for r in weak_pairs(R)}
    for size in range(1, len(gens) + 1):
        for B in itertools.combinations(gens, size):
            sub = {frozenset(r.pair) for r in weak_pairs(declaring(R, B))}
            assert sub <= full
            if is_separated(R).separated:
                assert is_separated(declaring(R, B)).separated


def test_rank_zero_always_separated():
    G = FgAbGroup(0, [2])
    R = RingSpec(G, ["x"], [G.element((), (1,))])
    verdict = is_separated(R)
    assert verdict.separated is True
    assert separated_submodels(R) == (R.irrelevant_generators(),)


def test_doubled_origin_line_is_not_separated():
    # k[x, y] with deg x = 1, deg y = -1: its Proj is the affine line with a
    # doubled origin, the smallest non-separated model, glued along xy
    G = FgAbGroup(1)
    R = RingSpec(G, ["x", "y"], [G.element((1,)), G.element((-1,))])
    verdict = is_separated(R)
    assert verdict.separated is False
    assert verdict.dependency_class == "nontrivial-irreducible"
    assert [(renders(R, r.pair), r.witness) for r in verdict.weak_pairs] == \
        [(("y", "x"), (-1, -1))]  # the witness is 1/(xy)
    assert classify_dependencies(R).witness == (1, 1)
    assert [renders(R, sub) for sub in separated_submodels(R)] == [("y",), ("x",)]
    for f in ("x", "y"):
        chart = chart_algebra(R, f)
        assert (chart.units, chart.generators) == ((), ((1, 1),))
    xy = chart_algebra(R, "x*y")
    assert (xy.units, xy.generators) == (((1, 1),), ())
    report = is_invertible(R, G.element((1,)))
    assert report.invertible
    assert [(m.render(R.variables), unit) for m, unit in report.chart_units] == \
        [("y", (0, -1)), ("x", (1, 0))]


def test_classify_line():
    R = line_spec()
    report = classify_dependencies(R)
    assert report.klass == "length-one-only"
    assert R.relations == ((1, -1, 0),)
    assert report.witness is None
    assert execute(R, "deps", [])["scope"] == "variable-degree relations"


def test_classify_plane():
    R = plane_spec()
    report = classify_dependencies(R)
    assert report.klass == "nontrivial-irreducible"
    assert report.witness == (1, 1, -1)
    assert R.relations == ((1, 1, -1),)


def test_classify_torsion():
    R = torsion_spec()
    assert classify_dependencies(R).klass != "nontrivial-irreducible"
    assert R.relations == ((0, 2, 0), (1, -1, -1), (1, 1, -1), (2, 0, -2))


def test_classify_independent_degrees(monkeypatch):
    # an empty kernel has no relations, and no search is run for them
    import projd.ringspec as ringspec

    def refuse(*args, **kwargs):
        raise AssertionError("Graver search")

    monkeypatch.setattr(ringspec, "minimal_nonneg_solutions", refuse)
    G = FgAbGroup(2)
    R = RingSpec(G, ["x", "y"], [G.element((1, 0)), G.element((0, 1))])
    report = classify_dependencies(R)
    assert report.klass == "none" and R.relations == ()


def test_classify_quad_and_five_undetermined():
    # every multi-variable relation splits over the others at power one
    assert classify_dependencies(quad_spec()).klass == "undetermined"
    assert classify_dependencies(five_spec()).klass == "undetermined"


def test_graver_relations_quad():
    assert quad_spec().relations == (
        (1, -1, 0, 0), (0, 1, -1, 1), (1, 0, -1, 1))


def test_graver_relations_sign_canonical_and_sorted():
    for spec in (plane_spec(), torsion_spec(), quad_spec(), five_spec()):
        rels = spec.relations
        assert list(rels) == sorted(rels, key=vector_key)
        for a in rels:
            assert next(v for v in a if v) > 0
            assert not spec.degree_of(Monomial(tuple(max(v, 0) for v in a))) \
                != spec.degree_of(Monomial(tuple(max(-v, 0) for v in a)))


def test_graver_relations_drop_conformally_dominated_vectors():
    # (2, -2, 0) has degree zero but lies conformally above (2, 0, 0), so
    # it is no relation
    G = FgAbGroup(1, [2, 2])
    R = RingSpec(G, ["x", "y", "z"], [G.element((0,), (1, 1)), G.element((0,), (0, 1)),
                                      G.element((1,), (0, 1))])
    assert R.relations == ((0, 2, 0), (2, 0, 0))
    # no dominated vector joins the span of the others, so the relation
    # xz^4 = y^2 stays irreducible and decides the class
    G = FgAbGroup(2, [4])
    R = RingSpec(G, ["x", "y", "z", "w"],
                 [G.element((2, 0), (0,)), G.element((1, 2), (2,)),
                  G.element((0, 1), (2,)), G.element((0, 0), (3,))])
    assert R.relations == ((0, 0, 0, 4), (1, -2, 4, 0))
    assert classify_dependencies(R).klass == "nontrivial-irreducible"
    assert not is_separated(R).separated


def test_graver_relations_match_the_box_search():
    # the box search over the box of the largest returned entry gives
    # back exactly the same list; the classes that decide separatedness
    # agree with the weak pairs
    rng = random.Random(239)
    classes = set()
    cases = 0
    while cases < 120:
        r = 1 + cases % 2
        G = FgAbGroup(r, rng.choice([[], [2], [3], [2, 2], [4], [6]]))
        n = rng.randint(r + 1, 4)
        degrees = [G.element(tuple(rng.randint(0, 3 - r) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(n)]
        try:
            R = RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue
        relations = R.relations
        bound = max((abs(v) for a in relations for v in a), default=1)
        assert relations == oracles.graver_basis_in_box(R, bound), (G, degrees)
        klass = classify_dependencies(R).klass
        if klass == "length-one-only":
            assert is_separated(R).separated, (G, degrees)
        if klass == "nontrivial-irreducible":
            assert weak_pairs(R), (G, degrees)
        classes.add(klass)
        cases += 1
    assert classes == {"length-one-only", "nontrivial-irreducible", "undetermined"}


def test_graver_relations_match_the_pair_search():
    # the former search, with an (m, -m) pair of columns per torsion order
    # and the conformally dominated vectors dropped afterwards, gives the
    # same list.  Mod 2, -c = c, so only orders 3 and up reduce an entry;
    # degree entries are 0 to 3 - rank to keep the Z/6 cases fast
    rng = random.Random(242)
    drawn = set()
    cases = 0
    while cases < 150:
        r = cases % 3
        G = FgAbGroup(r, rng.choice([[], [2], [3], [4], [6], [2, 2]]))
        n = rng.randint(max(r, 1), 4)
        degrees = [G.element(tuple(rng.randint(0, 3 - r) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(n)]
        try:
            R = RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue
        assert R.relations == oracles.graver_relations_by_pairs(R), (G, degrees)
        drawn.add((r, G.torsion))
        cases += 1
    assert {t for _, t in drawn} == {(), (2,), (3,), (4,), (6,), (2, 2)}
    assert {r for r, _ in drawn} == {0, 1, 2}


def _long_side(a):
    return max(sum(1 for v in a if v > 0), sum(1 for v in a if v < 0)) >= 2


def _first_irreducible_by_smith(relations, exponent):
    return next((a for a in relations if _long_side(a)
                 and not oracles.reducible_by_smith(relations, a, exponent)), None)


def test_classify_dependencies_matches_the_smith_reducibility_test():
    # the witness is the first relation with a long side that no power up
    # to the torsion exponent brings into the span of the others; Z/6 is
    # drawn on at most three variables and not at rank 3, where a Graver
    # search can take a minute
    rng = random.Random(241)
    classes = set()
    drawn = set()
    cases = 0
    while cases < 120:
        r = 1 + cases % 3
        torsion = rng.choice([[2], [3], [4], [6], [2, 2]] if r < 3 else [[2], [3], [4], [2, 2]])
        G = FgAbGroup(r, torsion)
        n = rng.randint(r + 1, 3 if torsion == [6] else 4)
        free = [tuple(rng.randint(-1, max(1, 3 - r)) for _ in range(r)) for _ in range(n)]
        degrees = [G.element(f, tuple(rng.randrange(m) for m in G.torsion)) for f in free]
        try:
            R = RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue
        report = classify_dependencies(R)
        witness = _first_irreducible_by_smith(R.relations, G.torsion[-1])
        assert report.witness == witness, (G, degrees)
        assert (report.klass == "nontrivial-irreducible") == (witness is not None)
        classes.add(report.klass)
        drawn.add((r, G.torsion, min(min(f) for f in free) < 0))
        cases += 1
    assert classes == {"nontrivial-irreducible", "undetermined", "length-one-only"}
    assert {(6,), (2, 2)} <= {t for _, t, _ in drawn}
    assert {r for r, _, neg in drawn if neg} == {1, 2, 3}
    R = l6_spec()
    report = classify_dependencies(R)
    assert report.witness == _first_irreducible_by_smith(R.relations, 1)
    assert report.klass == "undetermined"


def _patch_relations(monkeypatch, search):
    """Rebind RingSpec.relations to a cached property over search."""
    relations = cached_property(search)
    relations.__set_name__(RingSpec, "relations")
    monkeypatch.setattr(RingSpec, "relations", relations)


def test_classify_dependencies_matches_the_graver_support_classifier(monkeypatch):
    # the echelon screen gives the class and witness that the supports of
    # the Graver relations give.  Z/6 is drawn on at most three variables
    # and not at rank 3, and rank 3 on at most four variables with entries
    # -1..1: beyond that, some oracle Graver searches run past 5 s each
    searched = []
    search = RingSpec.relations.func

    def counted(spec):
        searched.append(spec)
        return search(spec)

    _patch_relations(monkeypatch, counted)
    rng = random.Random(251)
    outcomes = set()
    cases = 0
    while cases < 300:
        r = cases % 4
        torsion = rng.choice([[], [2], [3], [4], [6], [2, 2]] if r < 3 else [[], [2], [3], [4], [2, 2]])
        G = FgAbGroup(r, torsion)
        n = rng.randint(r, min(r + 2, 3 if torsion == [6] else 4))
        free = [tuple(rng.randint(-1, 3 if r < 3 else 1) for _ in range(r)) for _ in range(n)]
        degrees = [G.element(f, tuple(rng.randrange(m) for m in G.torsion)) for f in free]
        try:
            R = RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue
        searched.clear()
        report = classify_dependencies(R)
        fell_back = bool(searched)
        # read once: searched by the fallback, else on this first read
        relations = R.relations
        assert searched == [R], (G, degrees)
        assert (report.klass, report.witness) == \
            oracles.classify_by_graver_supports(relations), (G, degrees)
        multiple = report.witness is not None and math.gcd(*report.witness) > 1
        outcomes.add((report.klass, fell_back, multiple))
        cases += 1
    assert {k for k, _, _ in outcomes} == {
        "none", "length-one-only", "nontrivial-irreducible", "undetermined"}
    assert {("length-one-only", True, False), ("undetermined", True, False),
            ("undetermined", False, False), ("nontrivial-irreducible", False, True)} <= outcomes


def test_is_separated_runs_no_graver_search(monkeypatch):
    # the class of each grading below comes from the echelon screen; the
    # Graver relations are searched only when every reduced row is a pair
    def refuse(spec):
        raise AssertionError("Graver search")

    _patch_relations(monkeypatch, refuse)
    ladder = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    for R in (graded(2, [], ladder),
              graded(2, [6], [(2, 3, 3), (3, 0, 2), (3, 2, 4), (1, 2, 1), (2, 1, 5)]),
              graded(3, [], [(6, 8, 8), (0, 0, 1), (-2, -3, -3), (0, 1, 0), (-5, -6, -6)])):
        assert is_separated(R).dependency_class == "undetermined"
    searched = []
    _patch_relations(monkeypatch,
                     lambda spec: searched.append(spec) or ((1, -1, 0, 0), (0, 0, 1, -1)))
    p1p1 = graded(2, [], [(1, 0), (1, 0), (0, 1), (0, 1)])
    verdict = is_separated(p1p1)
    assert verdict.separated and verdict.dependency_class == "length-one-only"
    assert searched == [p1p1]
    # deps after separated reads the relations that the class searched
    deps = execute(p1p1, "deps", [])
    assert deps["class"] == "length-one-only"
    assert deps["relations"] == [[1, -1, 0, 0], [0, 0, 1, -1]]
    assert searched == [p1p1]


def test_theorem_consistency_on_fixtures():
    line = line_spec()
    assert classify_dependencies(line).klass == "length-one-only"
    assert is_separated(line).separated is True
    plane = plane_spec()
    assert classify_dependencies(plane).klass == "nontrivial-irreducible"
    assert is_separated(plane).separated is False


def test_verdict_carries_dependency_class():
    verdict = is_separated(plane_spec())
    assert verdict.dependency_class == "nontrivial-irreducible"
    assert is_separated(torsion_spec()).dependency_class == "undetermined"


def test_submodels_plane():
    R = plane_spec()
    subs = separated_submodels(R)
    assert [renders(R, s) for s in subs] == [("yz", "xy"), ("xz", "xy")]


def test_submodels_quad():
    R = quad_spec()
    subs = separated_submodels(R)
    assert [renders(R, s) for s in subs] == [
        ("zw", "yw", "xw"), ("yw", "yz", "xw", "xz")]


def test_submodels_five():
    R = five_spec()
    subs = separated_submodels(R)
    assert len(subs) == 2
    isolated = {"yw", "yv", "xw", "xv"}
    families = {frozenset(renders(R, s)) for s in subs}
    assert families == {frozenset(isolated | {"zw", "zv"}),
                        frozenset(isolated | {"yz", "xz"})}


def test_l6_charts_match_the_degree_row_search():
    R = l6_spec()
    charts = R.irrelevant_generators()
    assert len(charts) == 15
    for f in charts:
        chart = chart_algebra(R, f)
        assert (chart.units, chart.generators) == \
            oracles.hilbert_basis_by_degree_rows(R, f.support), f


def test_every_relevant_chart_matches_the_degree_row_search():
    # the product charts too: all 57 relevant supports of L6 and the 11 of
    # tor3, which has torsion, in two orders.  Most charts read their
    # generators off their Hermite form, as their lattice projects onto
    # their constrained coordinates (onto: how many do and how many do
    # not), so the search is also called directly
    for make, count, onto in ((l6_spec, 57, (51, 6)), (tor3_spec, 11, (4, 7))):
        n = len(make().variables)
        supports = [frozenset(s) for k in range(n + 1)
                    for s in itertools.combinations(range(n), k)]
        for order in (supports, supports[::-1]):
            spec = make()
            relevant = [s for s in order
                        if spec.is_relevant(Monomial(tuple(int(i in s) for i in range(n))))]
            assert len(relevant) == count
            sides = [0, 0]
            for support in relevant:
                chart = spec.semigroup(support)
                want = oracles.hilbert_basis_by_degree_rows(spec, support)
                assert (chart.units, chart.generators) == want, support
                assert hilbert_basis(chart) == want, support
                sides[oracles.chart_index(chart) > 1] += 1
            assert tuple(sides) == onto


@pytest.mark.parametrize("rung, searches", [(5, 0), (9, 9)], ids=["L5", "L9"])
def test_separated_searches_only_charts_of_index_above_one(monkeypatch, rung, searches):
    # work, not time: a factor pool is built only for a target that rule A
    # and the functional leave, so few charts are read for their
    # generators, each once (25 and 246 searches when every product chart
    # ran its own, 10 and 36 when every weak pair built both pools).  A
    # chart whose lattice projects onto its constrained coordinates reads
    # its generators off its Hermite form, so only charts of index > 1 are
    # searched (6 and 30 searches when every basis chart built for a pool
    # was searched; 0 and 8 when a product chart was localized from the
    # first basis inside it)
    import projd.diophantine as diophantine

    searched = []
    search = diophantine.hilbert_basis

    def counted(sg):
        searched.append(sg.free_coords)
        return search(sg)

    monkeypatch.setattr(diophantine, "hilbert_basis", counted)
    degrees = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
    spec = graded(2, [], degrees[:rung])
    execute(spec, "separated", [])
    assert len(searched) == len(set(searched)) == searches
    assert all(oracles.chart_index(spec.semigroup(s)) > 1 for s in searched)


def test_generators_search_exactly_the_charts_of_index_above_one(monkeypatch):
    # every relevant chart of the bench's gradings, the gluing ten and L6:
    # a chart whose lattice projects onto its constrained coordinates
    # (index 1) reads its generators off its Hermite form, and every
    # other chart calls the search, once: 187 of the 213 charts read theirs
    import projd.diophantine as diophantine

    searched = []
    search = diophantine.hilbert_basis

    def counted(sg):
        searched.append(sg)
        return search(sg)

    monkeypatch.setattr(diophantine, "hilbert_basis", counted)
    sides = [0, 0]
    for spec in [graded(*grading) for grading in GLUING_GRADINGS] + [l6_spec()]:
        n = len(spec.variables)
        for k in range(n + 1):
            for s in map(frozenset, itertools.combinations(range(n), k)):
                if not spec.is_relevant(Monomial(tuple(int(i in s) for i in range(n)))):
                    continue
                chart = spec.semigroup(s)
                del searched[:]
                generators = chart.generators
                index = oracles.chart_index(chart)
                assert searched == ([chart] if index > 1 else []), (s, index, generators)
                sides[index > 1] += 1
    assert sides == [187, 26], sides


@pytest.mark.parametrize("make, degrees, searches", [
    (l5_spec, [(1, 1), (2, 3)], 0),
    (r3a_spec, [(1, 1, 1), (2, 1, 0)], 0),
    (tor3_spec, [(1, 0, 1), (2, 2, 0)], 1),
    (l6_spec, [(1, 1), (2, 3)], 0),
], ids=["L5", "r3a", "tor3", "L6"])
def test_smith_form_runs_only_for_a_generator_search(monkeypatch, make, degrees, searches):
    # work, not time: units are read off a Hermite form, so a twist, which
    # reads the units of the basis charts alone, takes no Smith form (these
    # degrees took 7 and 8, 16 and 16, 4 and 4, 10 and 11 when the units
    # came from one), and `separated` takes one per chart that takes the
    # generator search: a chart of a pool that the functional does not
    # spare (10, 17, 6 and 15, one per basis chart, when every weak pair
    # built both pools), and whose lattice does not project onto its
    # constrained coordinates (6, 10, 3 and 10 when every such basis chart
    # was searched).  A chart whose generators come from its Hermite form
    # runs neither
    import projd.diophantine as diophantine

    calls, searched = [], []
    smith, search = diophantine.smith_normal_form, diophantine.hilbert_basis

    def counted(mat):
        calls.append(mat)
        return smith(mat)

    def counted_search(sg):
        searched.append(sg.free_coords)
        return search(sg)

    monkeypatch.setattr(diophantine, "smith_normal_form", counted)
    monkeypatch.setattr(diophantine, "hilbert_basis", counted_search)
    for d in degrees:
        spec = make()
        r = spec.group.rank
        is_invertible(spec, spec.group.element(d[:r], d[r:]))
    assert calls == searched == []
    spec = make()
    is_separated(spec)
    assert len(calls) == len(set(searched)) == len(searched) == searches
    assert all(oracles.chart_index(spec.semigroup(s)) > 1 for s in searched)


@pytest.mark.parametrize("rung, calls", [(5, 0), (8, 6)], ids=["L5", "L8"])
def test_rule_a_settles_its_targets_before_rule_b(monkeypatch, rung, calls):
    # work, not time: rule A's subset test on the negative coordinates
    # settles these targets before rule B runs.  Without its negative <= F
    # half L5 and L8 took 107 and 1,587 calls; counting zero entries as
    # negative, 178 and 2,627.  Those counts, and 50 and 747 with rule A,
    # are of the scan of every pair; 30 and 256 of the scan of the weak
    # pairs alone, up to each witness.  Now the functional runs between the
    # two rules and refutes most witnesses before rule B is asked
    import projd.separation as separation

    counted = []
    rule_b = separation._nonneg_after

    def counting(t, pool, off):
        counted.append(t)
        return rule_b(t, pool, off)

    monkeypatch.setattr(separation, "_nonneg_after", counting)
    degrees = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3))
    execute(graded(2, [], degrees[:rung]), "separated", [])
    assert len(counted) == calls


def test_weak_pairs_audit_through_mu_surjective(monkeypatch):
    # one audit, the public one, so that a trace of mu_surjective sees every
    # pair: the 45 pairs of L5's ten chart monomials
    import projd.separation as separation

    audited = []
    audit = separation.mu_surjective

    def counting(spec, f, g):
        audited.append((f, g))
        return audit(spec, f, g)

    monkeypatch.setattr(separation, "mu_surjective", counting)
    reports = weak_pairs(l5_spec())
    assert len(audited) == 45
    assert len(reports) == 15


def test_sorted_pool_is_the_distinct_pool_in_graded_lex_order():
    # the pool has no repeats, so sorting it needs no set: every support of
    # L6 and of tor3 (with torsion), the 57 and 11 relevant ones and the 7
    # and 5 irrelevant ones
    for make, count in ((l6_spec, 57), (tor3_spec, 11)):
        spec = make()
        n = len(spec.variables)
        relevant = 0
        for k in range(n + 1):
            for support in map(frozenset, itertools.combinations(range(n), k)):
                relevant += spec.is_relevant(Monomial(tuple(int(i in support) for i in range(n))))
                sg = spec.semigroup(support)
                assert len(set(sg.pool)) == len(sg.pool), support
                assert sg.sorted_pool == tuple(sorted(set(sg.pool), key=vector_key)), support
        assert relevant == count


def test_l5_separated_reads_three_charts_per_pair(monkeypatch):
    # the benchmark's trace counts these calls on L5 `separated` and reads
    # free_coords from each result
    import sys

    from projd.cli import execute

    calls = []

    def counted(spec, f):
        chart = chart_algebra(spec, f)
        calls.append((spec.monomial(f).support, chart.free_coords))
        return chart

    for name, module in list(sys.modules.items()):
        if name.startswith("projd") and getattr(module, "chart_algebra", None) is chart_algebra:
            monkeypatch.setattr(module, "chart_algebra", counted)
    G = FgAbGroup(2)
    R = RingSpec(G, [f"x{i}" for i in range(5)],
                 [G.element(d) for d in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))])
    execute(R, "separated", [])
    assert len(calls) == 135
    assert all(support == free for support, free in calls)


@pytest.mark.parametrize("make, searches, hnfs", [(l5_spec, 0, 40), (r3a_spec, 0, 60)],
                         ids=["L5", "r3a"])
def test_separated_skips_the_solver_where_the_answer_is_known(monkeypatch, make, searches,
                                                              hnfs):
    # work, not time: a witness that the sign caps refute and an
    # equation-free chart search call no solver (25 and 55 calls before).
    # A pair that is not weak scans no target, so the two membership
    # searches r3a ran on targets of such pairs that no sign rule settles
    # are gone (19 calls before).  The functional refutes every witness
    # here, so no factor pool is built (10 and 35, 17 and 56 calls when
    # every weak pair built both factor pools).  Weakness is decided over
    # the free degree matrix, so a pair that is not weak reads no units of
    # its product chart: r3a ran 49 row_hnf calls when the units decided
    # it.  Every chart read here projects onto its constrained
    # coordinates, so its generators come from its Hermite form, with no
    # search (6 and 10 solver calls, 31 and 48 row_hnf calls when the basis
    # charts were searched).  Each chart brings its lattice to a row HNF
    # of its own (25 and 38 row_hnf calls when a product chart was
    # localized from a basis chart and kept its Hermite form)
    import projd.diophantine as diophantine
    from projd.cli import execute

    calls = {"minimal_nonneg_solutions": 0, "row_hnf": 0}
    for name in calls:
        fn = getattr(diophantine, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(diophantine, name, counted)
    execute(make(), "separated", [])
    assert calls == {"minimal_nonneg_solutions": searches, "row_hnf": hnfs}


def _counting_searches(monkeypatch):
    """Record every target that the audit hands to semigroup_member."""
    import projd.separation as separation

    searched = []
    search = separation.semigroup_member

    def counted(pool, target):
        searched.append(tuple(target))
        return search(pool, target)

    monkeypatch.setattr(separation, "semigroup_member", counted)
    return searched


def test_l5_weak_pairs_run_no_membership_search(monkeypatch):
    # the sign rules settle every target that decomposes, and the
    # functional refutes the witness of each of the 15 weak pairs, which
    # took one membership search each before it ran
    searched = _counting_searches(monkeypatch)
    reports = weak_pairs(l5_spec())
    assert len(reports) == 15
    assert searched == []


def _settling_rule(t, f, g, pool_f, pool_g):
    """The sign rule that settles t: "A" when t >= 0 off supp f or off
    supp g, "B" when t - p is, for some p in the other pool, else None."""
    off_f = [i for i in range(len(t)) if i not in f.support]
    off_g = [i for i in range(len(t)) if i not in g.support]

    def above(p, off):
        return all(t[i] - p[i] >= 0 for i in off)

    if above((0,) * len(t), off_f) or above((0,) * len(t), off_g):
        return "A"
    if any(above(p, off_f) for p in pool_g) or any(above(p, off_g) for p in pool_f):
        return "B"
    return None


def _random_gradings(rng, count, torsions=([], [2], [3], [6])):
    """Effective gradings of rank 1-3 over a torsion part drawn from
    torsions (by default Z/1, Z/2, Z/3 or Z/6) on rank + 1 or rank + 2
    variables, free degree entries -1..3."""
    out = []
    while len(out) < count:
        r = rng.randint(1, 3)
        G = FgAbGroup(r, rng.choice(torsions))
        n = rng.randint(r + 1, r + 2)
        free = [tuple(rng.randint(-1, 3) for _ in range(r)) for _ in range(n)]
        degrees = [G.element(f, tuple(rng.randrange(m) for m in G.torsion)) for f in free]
        try:
            out.append(RingSpec(G, [f"v{i}" for i in range(n)], degrees))
        except NotEffective:
            continue
    return out


def _declared_models(rng, count):
    """Drawn gradings, torsion Z/4 and Z/2 + Z/2 among them, each with a
    declared B of three to five relevant monomials: an irrelevant-ideal
    generator times another, times a variable or times a variable's
    square, so supports wider than r = rank D and exponents above 1."""
    out = []
    for spec in _random_gradings(rng, count, ([], [2], [4], [2, 2], [6])):
        n, gens = len(spec.variables), spec.irrelevant_generators()
        B = []
        for _ in range(rng.randint(3, 5)):
            g, power, v = rng.choice(gens), rng.randrange(3), rng.randrange(n)
            if power:
                B.append(g * Monomial(tuple(power if i == v else 0 for i in range(n))))
            else:
                B.append(g * rng.choice(gens))
        out.append(declaring(spec, B))
    return out


def _check_glue_vector(spec, f, g, w):
    """w is what mu_surjective's criterion asks of a pair that is not weak:
    a degree-zero vector supported inside supp(fg), >= 0 on supp f - supp g
    and < 0 on supp g - supp f."""
    F, G = f.support, g.support
    assert oracles.in_lattice(spec.kernel, w), (f, g, w)
    assert all(w[i] == 0 for i in range(len(w)) if i not in F | G), (f, g, w)
    assert all(w[i] >= 0 for i in F - G) and all(w[i] < 0 for i in G - F), (f, g, w)


def test_mu_matches_the_search_of_every_target(monkeypatch):
    # the former audit searched every target; the weakness test, the sign
    # rules and the functional must give the same weak flags and
    # witnesses.  A pair is weak exactly when the product chart's units
    # hold no glue vector w (the reference oracle).  A pair that is not
    # weak runs no search; a weak pair searches exactly the targets up to
    # its witness that rule A, the functional and rule B, in that order,
    # all leave.  On these gradings the functional refutes every witness,
    # and the pairs that are not weak skip targets that only a search
    # would settle.  The declared models pose wider and unequal supports
    # than the irrelevant-ideal generators, where |F| = |G| = r
    from projd.cli import fixture_text, parse_ring_spec

    specs = [parse_ring_spec(fixture_text(name)) for name in FIXTURES]
    drawn = _random_gradings(random.Random(14), 60)
    declared = _declared_models(random.Random(5), 150)
    specs += [l5_spec(), r3a_spec(), tor3_spec()] + drawn + declared
    searched = _counting_searches(monkeypatch)
    rules = {"A": 0, "functional": 0, "B": 0, None: 0}
    weak_flags = set()
    skipped = 0
    for spec in specs:
        gens = [g for g in _chart_monomials(spec) if g.support]
        for f, g in itertools.combinations(gens, 2):
            searched.clear()
            report = mu_surjective(spec, f, g)
            calls = list(searched)
            weak, witness, decompositions = oracles.mu_audit_by_search(spec, f, g)
            assert (report.weak, report.witness) == (weak, witness), (spec, f, g)
            audited = [t for t, _ in decompositions] + ([witness] if weak else [])
            pool_f, pool_g = chart_algebra(spec, f).pool, chart_algebra(spec, g).pool
            fired = [_settling_rule(t, f, g, pool_f, pool_g) for t in audited]
            w = oracles.glue_vector_by_units(spec.semigroup(f.support | g.support),
                                             f.support, g.support)
            assert (w is None) == report.weak, (spec, f, g)
            if weak:
                columns = [d.free for d in spec.degrees]
                fired = ["functional" if rule != "A"
                         and _outside_cones(columns, t, f.support, g.support) else rule
                         for t, rule in zip(audited, fired)]
                assert calls == [t for t, rule in zip(audited, fired) if rule is None]
                for rule in fired:
                    rules[rule] += 1
            else:
                _check_glue_vector(spec, f, g, w)
                assert calls == []
                skipped += fired.count(None)
            weak_flags.add(weak)
    assert rules[None] == 0 and min(rules["A"], rules["functional"], rules["B"]) > 0
    assert skipped > 0 and weak_flags == {True, False}
    assert any(spec.group.torsion == (6,) for spec in drawn)
    assert any(spec.group.rank == 3 for spec in drawn)
    assert any(min(d.free) < 0 for spec in drawn for d in spec.degrees)
    assert {spec.group.torsion for spec in declared} >= {(4,), (2, 2)}
    assert any(spec.group.rank == 3 for spec in declared)
    models = [_chart_monomials(spec) for spec in declared]
    assert any(len(m.support) > spec.group.rank
               for spec, gens in zip(declared, models) for m in gens)
    assert any(max(m.exponents) > 1 for gens in models for m in gens)
    assert sum(len(weak_pairs(spec)) for spec in declared) > 60


# the ten gradings of the benchmark's gluing workload: rank, torsion,
# degrees as free coordinates then torsion
GLUING_GRADINGS = [
    (2, [], [(1, 0), (0, 1), (1, 1)]),
    (2, [], [(1, 0), (0, 1), (1, 1), (1, 2)]),
    (2, [], [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)]),
    (2, [], [(1, 0), (1, 0), (0, 1), (2, 1)]),
    (2, [], [(1, 0), (1, 0), (0, 1), (0, 1)]),
    (2, [], [(1, 0), (1, 0), (1, 0), (0, 1), (0, 1)]),
    (3, [], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]),
    (3, [], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0)]),
    (2, [2], [(1, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)]),
    (2, [3], [(1, 0, 1), (0, 1, 2), (1, 1, 0), (1, 2, 1)]),
]


def _weak_graph_by_search(spec):
    """The chart monomials and the weak-pair edges between their indices,
    each pair audited by oracles.mu_audit_by_search, which agrees with
    oracles.glue_vector_by_units on each."""
    gens = _chart_monomials(spec)
    edges = []
    for (i, f), (j, g) in itertools.combinations(enumerate(gens), 2):
        if f.support and g.support:
            weak = oracles.mu_audit_by_search(spec, f, g)[0]
            w = oracles.glue_vector_by_units(spec.semigroup(f.support | g.support),
                                             f.support, g.support)
            assert (w is None) == weak, (spec, f, g)
            if weak:
                edges.append((i, j))
    return gens, edges


def test_submodels_match_the_scan_of_the_searched_weak_graph():
    # separated_submodels reads the weak graph off the weakness test
    # alone; the oracle audits every target of every pair and scans every
    # subset
    from projd.cli import fixture_text, parse_ring_spec

    specs = [parse_ring_spec(fixture_text(name)) for name in FIXTURES]
    specs += [graded(*grading) for grading in GLUING_GRADINGS]
    specs += _random_gradings(random.Random(14), 60) + _declared_models(random.Random(5), 150)
    for spec in specs:
        gens, edges = _weak_graph_by_search(spec)
        found = oracles.maximal_independent_sets_scan(len(gens), edges)
        expected = tuple(tuple(gens[i] for i in sorted(s))
                         for s in sorted(tuple(sorted(s)) for s in found))
        assert separated_submodels(spec) == expected, spec


def test_weak_graph_ignores_the_torsion():
    # the weakness test reads only the free parts of the degrees, as the
    # units' rational span ignores the torsion; the searched audit agrees
    # on every drawn grading with torsion and on the bench's two
    drawn = [spec for spec in _random_gradings(random.Random(14), 60)
             if spec.group.torsion]
    drawn += [graded(*grading) for grading in GLUING_GRADINGS if grading[1]]
    assert len(drawn) > 20
    for spec in drawn:
        r = spec.group.rank
        free = RingSpec(FgAbGroup(r), spec.variables,
                        [FgAbGroup(r).element(d.free) for d in spec.degrees])
        assert _weak_graph_by_search(spec) == _weak_graph_by_search(free), spec
        assert separated_submodels(spec) == separated_submodels(free), spec


def test_functional_refutes_only_targets_without_a_decomposition():
    # soundness of the functional on every target of every weak pair's
    # product chart, not only on the witness: a target that it puts outside
    # C_f + C_g has no decomposition over the two factor pools either
    from projd.cli import fixture_text, parse_ring_spec
    from projd.diophantine import semigroup_member

    drawn = _random_gradings(random.Random(37), 60, ([], [2], [3], [6], [2, 2]))
    specs = [parse_ring_spec(fixture_text(name)) for name in FIXTURES]
    specs += [graded(*grading) for grading in GLUING_GRADINGS] + drawn
    refuted = left = 0
    for spec in specs:
        columns = [d.free for d in spec.degrees]
        for (f, g), _, _ in weak_pairs(spec):
            pool = chart_algebra(spec, f).pool + chart_algebra(spec, g).pool
            for t in chart_algebra(spec, f * g).sorted_pool:
                if _outside_cones(columns, t, f.support, g.support):
                    assert semigroup_member(pool, t) is None, (spec, f, g, t)
                    refuted += 1
                else:
                    left += 1
    assert refuted > 0 and left > 0
    assert {spec.group.torsion for spec in drawn} >= {(2,), (3,), (6,), (2, 2)}
    assert any(spec.group.rank == 3 for spec in drawn)
    assert any(min(d.free) < 0 < max(d.free) for spec in drawn for d in spec.degrees)


def test_a_witness_inside_the_cone_falls_back_to_the_search(monkeypatch):
    # L7's pair (x4x6, x3x5) has a witness inside C_f + C_g: the functional
    # leaves it, and the membership search refutes it, as the audit of
    # every target does.  L8 and L9 have 1 and 4 such witnesses, the only
    # targets that `separated` searches there
    searched = _counting_searches(monkeypatch)
    degrees = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
    spec = graded(2, [], degrees[:7])
    f, g = spec.monomial("x4*x6"), spec.monomial("x3*x5")
    witness = (0, 0, 0, -1, -3, 1, 2)
    assert not _outside_cones([d.free for d in spec.degrees], witness, f.support, g.support)
    assert mu_surjective(spec, f, g).witness == witness
    assert oracles.mu_audit_by_search(spec, f, g)[:2] == (True, witness)
    assert searched[-1] == witness
    for rung, count in ((8, 1), (9, 4)):
        spec = graded(2, [], degrees[:rung])
        columns = [d.free for d in spec.degrees]
        searched.clear()
        left = [r.witness for r in weak_pairs(spec)
                if not _outside_cones(columns, r.witness, r.pair[0].support, r.pair[1].support)]
        assert searched == left and len(left) == count


def test_l9_functional_poses_rank_d_unknowns(monkeypatch):
    # work, not time: on L9 `separated` each system of the functional has
    # r = rank D = 2 unknowns, and rows for the four coordinates of P and
    # the sign patterns off P.  Posed over a basis of the kernel L instead,
    # the systems made `separated` nine to ten times slower (L8 124 ->
    # 1,639 ms, L9 272 -> 2,554 ms); a functional that is zero off P, with
    # no max terms, refutes none of L9's 210 witnesses and 3 of r3a's 36
    import collections

    import projd.separation as separation

    sizes = collections.Counter()
    asking = []
    solve, refute = separation._eliminate, separation._outside_cones

    def counted_solve(rows, width):
        if asking:
            sizes[width, len(rows)] += 1
        return solve(rows, width)

    def counted_refute(*args):
        asking.append(True)
        try:
            return refute(*args)
        finally:
            asking.pop()

    monkeypatch.setattr(separation, "_eliminate", counted_solve)
    monkeypatch.setattr(separation, "_outside_cones", counted_refute)
    degrees = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
    execute(graded(2, [], degrees), "separated", [])
    assert sizes == {(2, 5): 72, (2, 6): 143, (2, 8): 1}


def _audit_spec(name="audit-z3-z6.yaml"):
    from pathlib import Path

    from projd.cli import parse_ring_spec

    return parse_ring_spec((Path(__file__).parent / name).read_bytes())


def test_audit_grading_submodels_build_no_chart_generators(monkeypatch):
    # work, not time: on the Z^3 + Z/6 audit grading, where the audit of
    # every target ran out of memory, `submodels` reads only the free
    # degree matrix: it builds no chart at all, so no unit, generator or
    # pool (it read the units of each product chart before)
    import projd.diophantine as diophantine
    import projd.ringspec as ringspec
    import projd.separation as separation

    def refuse(*args, **kwargs):
        raise AssertionError("a chart, generator search or membership search was built")

    for name in ("hilbert_basis", "minimal_nonneg_solutions"):
        monkeypatch.setattr(diophantine, name, refuse)
    monkeypatch.setattr(ringspec, "ConstrainedSemigroup", refuse)
    monkeypatch.setattr(separation, "semigroup_member", refuse)
    spec = _audit_spec()
    payload = execute(spec, "submodels", [])
    assert len(payload["submodels"]) > 1
    assert spec._semigroups == {}


def test_audit_grading_weak_pairs_carry_their_evidence():
    # every witness has no decomposition over the two pools, and a pair
    # is not weak exactly when the reference oracle finds a glue vector w
    # in the product chart's units, which is checked here
    from projd.diophantine import semigroup_member

    spec = _audit_spec()
    weak = {r.pair: r.witness for r in weak_pairs(spec)}
    gens = [g for g in _chart_monomials(spec) if g.support]
    assert 0 < len(weak) < len(gens) * (len(gens) - 1) // 2
    for f, g in itertools.combinations(gens, 2):
        w = oracles.glue_vector_by_units(spec.semigroup(f.support | g.support),
                                         f.support, g.support)
        assert (w is None) == ((f, g) in weak), (f, g)
        if (f, g) in weak:
            t = weak[f, g]
            assert t in chart_algebra(spec, f * g).pool
            pool = chart_algebra(spec, f).pool + chart_algebra(spec, g).pool
            assert semigroup_member(pool, t) is None, (f, g, t)
        else:
            _check_glue_vector(spec, f, g, w)


def test_frontier_grading_searches_only_charts_of_small_index(monkeypatch):
    # work, not time: on the Z^3 + Z/4 frontier grading every chart read
    # for a factor pool searches itself, 15 charts of index at most 36.
    # When a product chart was localized from the first basis inside it,
    # 12 bases of index up to 56 were searched and the audit took seconds.
    # Every one of the 53 reported pairs is weak, with the witnesses of
    # that localized run (the digest of its payload)
    import projd.diophantine as diophantine

    searched = []
    search = diophantine.hilbert_basis

    def counted(sg):
        searched.append(oracles.chart_index(sg))
        return search(sg)

    monkeypatch.setattr(diophantine, "hilbert_basis", counted)
    spec = _audit_spec("frontier-z3-z4.yaml")
    reports = weak_pairs(spec)
    assert len(searched) == 15 and max(searched) <= 36, searched
    assert len(reports) == 53 and all(r.weak for r in reports)
    raw = json.dumps(execute(spec, "weak-pairs", []), sort_keys=True,
                     separators=(",", ":")).encode()
    assert hashlib.sha256(raw).hexdigest() == \
        "99fc0fa62c70953436667e57adf02f20e5c5d3959e19e5c901d73f8c17c8965a"


def test_l6_gluing_answers_within_a_minute():
    start = time.perf_counter()
    assert len(weak_pairs(l6_spec())) == 35
    assert len(separated_submodels(l6_spec())) == 5
    assert time.perf_counter() - start < 60


def test_l7_gluing_answers_within_a_minute():
    # L6 plus the degree (3, 1); the digest is that of the payload as the
    # unpruned membership search gave it, in about 40 s
    from projd.cli import execute

    G = FgAbGroup(2)
    R = RingSpec(G, [f"x{i}" for i in range(7)],
                 [G.element(d) for d in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1),
                                         (1, 3), (3, 1))])
    start = time.perf_counter()
    payload = execute(R, "separated", [])
    assert len(payload["pairs"]) == 70
    assert len(separated_submodels(R)) == 6
    assert time.perf_counter() - start < 60
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(raw).hexdigest() == \
        "8f37b77dbffc92112865e7baf84ff8c91ed06bbb8ec6927733237af94dcc17a5"


@pytest.mark.parametrize("rung, weak, digest", [
    (8, 126, "4217833f39cc4f874d585ee5858da0e4a9d0e4a5c8122b9f2a94bf8543ab18a0"),
    (9, 210, "2320aa346c5784adba6c9e9cf16136771614d9ed113d4f7425460355631c0a1f"),
], ids=["L8", "L9"])
def test_l8_and_l9_separated_payloads_are_unchanged(rung, weak, digest):
    # L7 plus (2, 3), then (3, 2): the rungs where coset minimisation and
    # the shared audit tables carry most of the work; the digests are those
    # of the payloads before either was pruned
    degrees = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
    payload = execute(graded(2, [], degrees[:rung]), "separated", [])
    assert len(payload["pairs"]) == weak
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(raw).hexdigest() == digest


def test_submodels_honour_the_declared_ideal():
    # plane-b drops yz from the plane model, which removes the weak pair
    from projd.cli import execute, fixture_text, parse_ring_spec

    spec = parse_ring_spec(fixture_text("plane-b"))
    assert execute(spec, "submodels", []) == {"submodels": [["xz", "xy"]]}


def test_submodels_of_an_ideal_with_a_square():
    # x^2z has the chart of xz; x^3z^2 is a multiple of x^2z and is dropped
    def plane_with(B):
        G = FgAbGroup(2)
        return RingSpec(G, ["x", "y", "z"],
                        [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))],
                        conical_ideal=B)

    R = plane_with(("x^2*z", "xy", "yz"))
    assert [renders(R, r.pair) for r in weak_pairs(R)] == [("yz", "x^2z")]
    assert [renders(R, s) for s in separated_submodels(R)] == [("yz", "xy"), ("xy", "x^2z")]
    R = plane_with(("x^2*z", "xy", "x^3*z^2"))
    assert [renders(R, s) for s in separated_submodels(R)] == [("xy", "x^2z")]


def test_separated_fixtures_are_their_own_one_submodel():
    from projd.cli import execute, fixture_text, parse_ring_spec

    separated = []
    for name in FIXTURES:
        spec = parse_ring_spec(fixture_text(name))
        if execute(spec, "separated", [])["separated"]:
            model = spec.conical_ideal or spec.irrelevant_generators()
            subs = execute(spec, "submodels", [])["submodels"]
            assert len(subs) == 1 and sorted(subs[0]) == sorted(renders(spec, model)), name
            separated.append(name)
    assert separated == ["plane-b", "torsion", "parity"]


def test_submodels_are_maximal_and_weak_free():
    for spec in (plane_spec(), quad_spec(), five_spec(), torsion_spec()):
        gens = spec.irrelevant_generators()
        edges = {frozenset(r.pair) for r in weak_pairs(spec)}
        subs = separated_submodels(spec)
        for sub in subs:
            chosen = set(sub)
            assert not any(set(e) <= chosen for e in edges)
            for extra in set(gens) - chosen:
                grown = chosen | {extra}
                assert any(set(e) <= grown for e in edges)


def test_no_weak_pairs_single_submodel():
    line = line_spec()
    assert separated_submodels(line) == (line.irrelevant_generators(),)
    torsion = torsion_spec()
    assert separated_submodels(torsion) == (torsion.irrelevant_generators(),)


def test_invertible_divisor_condition_on_quad():
    R = quad_spec()
    assert d_invertible(R, "xw") and d_invertible(R, "yw")
    assert not d_invertible(R, "w")
    assert d_invertible(R, "x") and d_invertible(R, "z")
    # h = xw splits across (zw, xz) and certifies the weak pair
    for f, g, h in (("zw", "xz", "xw"), ("zw", "yz", "yw")):
        f, g, h = R.monomial(f), R.monomial(g), R.monomial(h)
        assert h.divides(f * g) and not h.divides(f) and not h.divides(g)
        assert mu_surjective(R, f, g).weak is True
    # the same divisibility pattern alone does not force weakness: a third
    # variable in supp(fg) can split the fraction again
    f, g, h = R.monomial("xz"), R.monomial("yw"), R.monomial("xw")
    assert h.divides(f * g) and not h.divides(f) and not h.divides(g)
    assert mu_surjective(R, f, g).weak is False


def test_five_spec_all_variables_invertible_yet_not_separated():
    R = five_spec()
    assert all(d_invertible(R, v) for v in R.variables)
    assert is_separated(R).separated is False


def test_random_pairs_weak_iff_scan_reports():
    rng = random.Random(20260815)
    for spec in (quad_spec(), five_spec()):
        scan = {frozenset(r.pair) for r in weak_pairs(spec)}
        gens = spec.irrelevant_generators()
        for _ in range(10):
            f, g = rng.sample(gens, 2)
            assert mu_surjective(spec, f, g).weak == (frozenset((f, g)) in scan)


def _as_sets(found):
    return sorted(sorted(s) for s in found)


def test_maximal_independent_sets_match_scan_on_fixtures():
    from projd.cli import fixture_text, parse_ring_spec

    for name in FIXTURES:
        spec = parse_ring_spec(fixture_text(name))
        gens = list(spec.irrelevant_generators())
        edges = [(gens.index(r.pair[0]), gens.index(r.pair[1]))
                 for r in weak_pairs(declaring(spec, gens))]
        assert _as_sets(_maximal_independent_sets(len(gens), edges)) == \
            _as_sets(oracles.maximal_independent_sets_scan(len(gens), edges))


_graphs = st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
             .filter(lambda e: e[0] != e[1]), max_size=20)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_graphs)
def test_maximal_independent_sets_match_scan_on_random_graphs(graph):
    count, edges = graph
    assert _as_sets(_maximal_independent_sets(count, edges)) == \
        _as_sets(oracles.maximal_independent_sets_scan(count, edges))
