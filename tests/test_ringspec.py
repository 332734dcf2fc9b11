from __future__ import annotations

import itertools
import math
import random

import pytest
from oracles import (companion_by_listing, companion_by_power_scan,
                     irrelevant_generators_scan, is_pointed_by_search,
                     relevance_via_components, veronese_scaled_spec)
from projd.fgab import FgAbGroup, subgroup_index, subgroup_member
from projd.ringspec import (
    BadConicalIdeal,
    Monomial,
    NotEffective,
    ParseError,
    RingSpec,
    degree_zero_companion,
    parse_monomial,
    validate_effective,
)


def plane_spec(**kw):
    G = FgAbGroup(2)
    return RingSpec(G, ["x", "y", "z"],
                    [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))], **kw)


def torsion_spec(**kw):
    G = FgAbGroup(1, [2])
    return RingSpec(G, ["x", "y", "z"],
                    [G.element((1,), (0,)), G.element((0,), (1,)),
                     G.element((1,), (1,))], **kw)


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


def graded(rank, torsion, degrees, names=None):
    """Ring spec from degrees written as free coordinates then torsion."""
    G = FgAbGroup(rank, torsion)
    names = names or [f"x{i}" for i in range(len(degrees))]
    return RingSpec(G, names, [G.element(d[:rank], d[rank:]) for d in degrees])


def test_parse_monomial():
    names = ("x", "y", "z")
    assert parse_monomial("x*z^2", names).exponents == (1, 0, 2)
    assert parse_monomial("xz", names).exponents == (1, 0, 1)
    assert parse_monomial("xz^2", names).exponents == (1, 0, 2)
    assert parse_monomial("1", names).exponents == (0, 0, 0)
    assert parse_monomial("y^3", names).exponents == (0, 3, 0)
    with pytest.raises(ValueError):
        parse_monomial("q", names)
    with pytest.raises(ValueError):
        parse_monomial("x^-1", names)


def test_monomial_input_is_a_monomial_or_text():
    # anything else is refused as input, never with an engine-fault type
    R = plane_spec()
    assert R.monomial(Monomial((1, 0, 1))) == R.monomial("xz")
    for source in ([1, 0, 0], None, 5):
        with pytest.raises(ParseError, match="expected text"):
            R.monomial(source)
    for text, message in [("q", "unknown variable in monomial factor 'q'"),
                          ("x^a", "bad exponent in monomial factor 'x\\^a'"),
                          ("x^-1", "negative exponent"), ("x**y", "empty factor")]:
        with pytest.raises(ParseError, match=message):
            parse_monomial(text, R.variables)


def test_monomial_ops():
    m = Monomial((1, 0, 2))
    assert m.support == {0, 2}
    assert (m * Monomial((0, 1, 0))).exponents == (1, 1, 2)
    assert Monomial((1, 0, 0)).divides(m)
    assert not Monomial((0, 1, 0)).divides(m)
    assert m.render(("x", "y", "z")) == "xz^2"
    assert Monomial((0, 0, 0)).render(("x", "y", "z")) == "1"
    with pytest.raises(ValueError):
        Monomial((-1, 0))


def test_effective_accepts_spanning_grading():
    validate_effective(plane_spec())
    validate_effective(torsion_spec())


def test_effective_rejects_rank_deficit():
    G = FgAbGroup(2)
    with pytest.raises(NotEffective):
        RingSpec(G, ["x"], [G.element((2, 0))])


def test_effective_rejects_unreached_torsion():
    G = FgAbGroup(1, [2])
    with pytest.raises(NotEffective) as err:
        RingSpec(G, ["x"], [G.element((1,), (0,))])
    assert "mod 2" in str(err.value)


def test_refusing_a_wide_ineffective_group_builds_one_generator():
    # memory, not time: the first standard generator is already missing,
    # so the refusal builds it alone (all 1,000 of them peak at 7.8 MiB)
    import tracemalloc

    from projd.cli import parse_ring_spec

    tracemalloc.start()
    try:
        with pytest.raises(NotEffective) as err:
            parse_ring_spec("group: {rank: 1000, torsion: []}\nvariables: []\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(err.value) == f"grading misses the group element {(1,) + (0,) * 999}"


def test_support_group_examples():
    R = plane_spec()
    full = R.support_group(R.monomial("xz"))
    assert subgroup_index(R.group, full) == 1
    only_z = R.support_group(R.monomial("z"))
    assert subgroup_index(R.group, only_z) == math.inf
    ok, _ = subgroup_member(only_z, R.group.element((1, 1)))
    assert ok
    trivial = R.support_group(R.monomial("1"))
    ok, _ = subgroup_member(trivial, R.group.zero())
    assert ok
    ok, _ = subgroup_member(trivial, R.group.element((1, 0)))
    assert not ok


def test_is_relevant_examples():
    G = FgAbGroup(0, [2])
    R0 = RingSpec(G, ["x"], [G.element((), (1,))])
    assert R0.is_relevant(R0.monomial("1"))
    assert R0.is_relevant(R0.monomial("x"))

    R = plane_spec()
    assert R.is_relevant(R.monomial("xy"))
    assert not R.is_relevant(R.monomial("z"))

    T = torsion_spec()
    assert T.is_relevant(T.monomial("x"))


def test_irrelevant_generators_plane():
    R = plane_spec()
    gens = R.irrelevant_generators()
    assert {m.render(R.variables) for m in gens} == {"xy", "xz", "yz"}
    assert [m.render(R.variables) for m in gens] == ["yz", "xz", "xy"]


def test_irrelevant_generators_torsion():
    T = torsion_spec()
    assert {m.render(T.variables) for m in T.irrelevant_generators()} == {"x", "z"}


def test_irrelevant_generators_four_variables():
    Q = quad_spec()
    got = {m.render(Q.variables) for m in Q.irrelevant_generators()}
    assert got == {"xw", "yw", "zw", "xz", "yz"}


def test_irrelevant_generators_five_variables():
    F = five_spec()
    got = {m.render(F.variables) for m in F.irrelevant_generators()}
    assert got == {"xz", "yz", "zv", "zw", "xv", "xw", "yv", "yw"}


def test_irrelevant_generators_rank_zero():
    G = FgAbGroup(0, [2])
    R = RingSpec(G, ["x", "y"], [G.element((), (1,)), G.element((), (1,))])
    gens = R.irrelevant_generators()
    assert gens == (Monomial((0, 0)),)


def test_degree_zero_companion_trivial():
    R = plane_spec()
    got = degree_zero_companion(R, R.monomial("1"), R.monomial("xz"))
    assert got == (Monomial((0, 0, 0)), 0)


def test_degree_zero_companion_examples():
    R = plane_spec()
    g, k = degree_zero_companion(R, R.monomial("y"), R.monomial("xz"))
    assert (g.exponents, k) == ((2, 0, 0), 1)
    g, k = degree_zero_companion(R, R.monomial("yz"), R.monomial("xz"))
    assert (g.exponents, k) == ((3, 0, 0), 2)
    assert degree_zero_companion(R, R.monomial("y"), R.monomial("z")) is None


def test_degree_zero_companion_torsion():
    T = torsion_spec()
    g, k = degree_zero_companion(T, T.monomial("y"), T.monomial("x"))
    assert (g.exponents, k) == ((0, 1, 0), 0)
    # check the certificate: deg(h g) = deg(f^k)
    h, f = T.monomial("y"), T.monomial("x")
    lhs = T.degree_of(h * g)
    rhs = T.degree_of(Monomial(tuple(k * e for e in f.exponents)))
    assert lhs == rhs


def test_degree_zero_companion_certificates_random():
    rng = random.Random(131)
    specs = [plane_spec(), torsion_spec(), quad_spec(), five_spec()]
    for _ in range(20):
        R = rng.choice(specs)
        n = len(R.variables)
        h = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        fs = [m for m in R.irrelevant_generators() if any(m.exponents)]
        f = rng.choice(fs)
        g, k = degree_zero_companion(R, h, f)
        lhs = R.degree_of(h * g)
        rhs = R.degree_of(Monomial(tuple(k * e for e in f.exponents)))
        assert lhs == rhs


def test_degree_zero_companion_needs_one_power():
    # the former scan over N = 1, 2, ... agrees, and stops at N = 1.  The
    # gradings are small (rank 3 without torsion, degree entries up to
    # 4 - rank) because the scan lists every minimal (g, k) of each power:
    # with entries up to 3, one three-variable rank-3 grading takes seconds
    rng = random.Random(157)
    kinds = set()
    cases = 0
    while cases < 300:
        r = 1 + cases % 3
        G = FgAbGroup(r, rng.choice([[], [2], [3], [2, 2], [4], [6]] if r < 3 else [[]]))
        n = rng.randint(r, 3 + (r == 1))
        degrees = [G.element(tuple(rng.randint(0, 4 - r) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(n)]
        try:
            R = RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue
        h = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        f = rng.choice(R.irrelevant_generators())
        N, *scanned = companion_by_power_scan(R, h, f)
        assert N == 1, (G, degrees, h, f)
        assert degree_zero_companion(R, h, f) == tuple(scanned), (G, degrees, h, f)
        kinds.add((r, bool(G.torsion)))
        cases += 1
    assert kinds == {(1, False), (1, True), (2, False), (2, True), (3, False)}


# (spec, h, f, g, k): the two slowest companion ops of the bench's charts
# workload; two gradings on which listing every minimal (g, k) took
# seconds, Z^3 + Z/2 and a pointed Z^3 with no degree-zero monomial; and a
# tie: g = x0^2 and g = x1^2 both give k = 4, and x1^2, the graded-lex
# least, has the larger torsion column, so the search records it a level
# after x0^2
COMPANION_CASES = [
    (graded(2, [], [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)]),
     "x0", "x4*x5", "x3^2", 1),
    (graded(2, [3], [(1, 0, 1), (0, 1, 2), (1, 1, 0), (1, 2, 1)]),
     "x1", "x0*x3", "x0*x2^5", 3),
    (graded(3, [2], [(2, 2, -2, 1), (2, 0, 2, 0), (1, 2, 0, 0), (1, 1, 0, 0),
                     (-1, 0, 1, 0)], "abcde"),
     "b^2*e^2", "a*c*e", "a^16*e^18", 8),
    (graded(3, [], [(0, 3, 1), (1, 2, 2), (1, 3, 2)], "xyz"), "x", "x*y*z", "y*z", 1),
    (graded(1, [4], [(1, 1), (1, 3), (1, 0)]), "x1^2", "x2", "x1^2", 4),
]


def test_degree_zero_companion_matches_the_listing():
    # the least (g, k) against the least of every minimal (g, k) of the
    # same search.  Rank 3 draws entries -1..1 and torsion [] or [2]: with
    # entries up to 3 and up to rank + 2 variables at every rank, the
    # listing passes 3 s on 42 of 300 seeded queries
    for R, h, f, g, k in COMPANION_CASES:
        h, f = R.monomial(h), R.monomial(f)
        want = companion_by_listing(R, h, f)
        assert want == (R.monomial(g), k)
        assert degree_zero_companion(R, h, f) == want
    rng = random.Random(263)
    kinds = set()
    cases = 0
    while cases < 200:
        r = 1 + cases % 3
        G = FgAbGroup(r, rng.choice([[], [2], [3], [4], [6]] if r < 3 else [[], [2]]))
        n = rng.randint(r, r + 2 if r < 3 else r + 1)
        free = [tuple(rng.randint(-1, 3 if r < 3 else 1) for _ in range(r))
                for _ in range(n)]
        degrees = [G.element(d, tuple(rng.randrange(m) for m in G.torsion))
                   for d in free]
        try:
            R = RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        except NotEffective:
            continue
        h = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        f = rng.choice(R.irrelevant_generators())
        got = degree_zero_companion(R, h, f)
        assert got == companion_by_listing(R, h, f), (G, degrees, h, f)
        kinds |= {("rank", r), ("torsion", G.torsion), ("k >= 2", got[1] >= 2),
                  ("negative", any(a < 0 for d in free for a in d)),
                  ("pointed", is_pointed_by_search(R))}
        cases += 1
    assert kinds == {("rank", 1), ("rank", 2), ("rank", 3), ("torsion", ()),
                     ("torsion", (2,)), ("torsion", (3,)), ("torsion", (4,)),
                     ("torsion", (6,)), ("k >= 2", True), ("k >= 2", False),
                     ("negative", True), ("negative", False),
                     ("pointed", True), ("pointed", False)}


def test_degree_zero_companion_lists_no_solutions(monkeypatch):
    # the companion keeps the least (g, k) recorded so far and cuts the
    # search with it; a search that lists every minimal (g, k) raises here
    import projd.ringspec as ringspec

    search = ringspec.minimal_nonneg_solutions

    def refuse_listing(rows, ncols, rhs=None, least_by=None):
        if least_by is None:
            raise AssertionError("full listing")
        return search(rows, ncols, rhs, least_by)

    monkeypatch.setattr(ringspec, "minimal_nonneg_solutions", refuse_listing)
    for R, h, f, g, k in COMPANION_CASES:
        assert degree_zero_companion(R, R.monomial(h), R.monomial(f)) == (R.monomial(g), k)


def test_relevance_via_components_matches_index_criterion():
    for R in (plane_spec(), torsion_spec(), quad_spec(), five_spec()):
        n = len(R.variables)
        for bits in itertools.product((0, 1), repeat=n):
            m = Monomial(bits)
            assert relevance_via_components(R, m) == R.is_relevant(m), bits


def test_irrelevant_generators_are_the_free_part_bases():
    # the size-rank relevant supports against the scan over every size
    rng = random.Random(149)
    specs = [plane_spec(), torsion_spec(), quad_spec(), five_spec()]
    while len(specs) < 64:
        r = rng.randint(0, 3)
        G = FgAbGroup(r, rng.choice([[], [2], [3], [2, 2]]))
        degrees = [G.element(tuple(rng.randint(-2, 2) for _ in range(r)),
                             tuple(rng.randrange(m) for m in G.torsion))
                   for _ in range(rng.randint(max(r, 1), r + 3))]
        try:
            specs.append(RingSpec(G, [f"v{i}" for i in range(len(degrees))],
                                  degrees))
        except NotEffective:
            continue
    assert {R.group.rank for R in specs} == {0, 1, 2, 3}
    assert {bool(R.group.torsion) for R in specs} == {False, True}
    for R in specs:
        expected = irrelevant_generators_scan(R)
        assert R.irrelevant_generators() == expected, (R.group, R.degrees)


def test_relevance_monotone_under_multiplication():
    rng = random.Random(137)
    for R in (plane_spec(), torsion_spec(), quad_spec()):
        n = len(R.variables)
        for _ in range(15):
            f = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
            g = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
            if R.is_relevant(f):
                assert R.is_relevant(f * g)


def test_relevance_rank_zero_always_true():
    G = FgAbGroup(0, [4])
    R = RingSpec(G, ["x", "y"], [G.element((), (1,)), G.element((), (2,))])
    for bits in itertools.product((0, 1, 2), repeat=2):
        assert R.is_relevant(Monomial(bits))
        assert relevance_via_components(R, Monomial(bits))


def test_veronese_scaling():
    R = plane_spec()
    assert veronese_scaled_spec(R, 1) == R
    R2 = veronese_scaled_spec(R, 2)
    assert R2.degrees[2] == R.group.element((2, 2))
    assert ({m.render(R2.variables) for m in R2.irrelevant_generators()}
            == {"xy", "xz", "yz"})

    T2 = veronese_scaled_spec(torsion_spec(), 2)
    assert T2.is_relevant(T2.monomial("x"))
    assert T2.is_relevant(T2.monomial("z"))
    assert not T2.is_relevant(T2.monomial("y"))
    with pytest.raises(ValueError):
        veronese_scaled_spec(R, 0)


def test_veronese_preserves_relevant_locus():
    for R in (plane_spec(), torsion_spec(), quad_spec()):
        for n in (2, 3):
            Rn = veronese_scaled_spec(R, n)
            for bits in itertools.product((0, 1), repeat=len(R.variables)):
                m = Monomial(bits)
                assert R.is_relevant(m) == Rn.is_relevant(m)


def test_conical_ideal_checked():
    T = torsion_spec()
    spec = torsion_spec(conical_ideal=[T.monomial("x"), T.monomial("z")])
    assert spec.conical_ideal == (T.monomial("x"), T.monomial("z"))
    with pytest.raises(BadConicalIdeal):
        torsion_spec(conical_ideal=["y"])


def test_random_effective_gradings_validate():
    rng = random.Random(139)
    accepted = 0
    while accepted < 20:
        r = rng.randint(1, 3)
        n = rng.randint(r, r + 3)
        G = FgAbGroup(r)
        degrees = [G.element(tuple(rng.randint(-2, 2) for _ in range(r)))
                   for _ in range(n)]
        sub = G.subgroup(degrees)
        if subgroup_index(G, sub) != 1:
            with pytest.raises(NotEffective):
                RingSpec(G, [f"v{i}" for i in range(n)], degrees)
            continue
        RingSpec(G, [f"v{i}" for i in range(n)], degrees)
        accepted += 1
