"""Separatedness of the glued chart model via multiplication maps.

Two chart monomials form a weak pair when the multiplication map from the
tensor product of their chart algebras onto the product chart fails to be
surjective; any weak pair obstructs separatedness of the model.  The
model is its list of chart monomials: the minimal monomials of a chosen
ideal B, else the irrelevant-ideal generators.

The degree relations among variable degrees give a dependency class.  The
class belongs to the grading, the verdict to the model.  If every
relation matches one variable against one variable (x^2 = y^3 as well as
x = y), the model of the irrelevant-ideal generators is separated, while
an irreducible relation with a side of two or more variables forces a
weak pair among those generators.  A smaller B can leave that pair out:
the plane-b fixture is nontrivial-irreducible (z = xy) and separated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from projd.charts import chart_algebra
from projd.diophantine import (
    ExponentVector,
    _degree_rows,
    minimal_nonneg_solutions,
    semigroup_member,
    vector_key,
)
from projd.ringspec import Monomial, RingSpec


@dataclass(frozen=True)
class WeakPairReport:
    """Surjectivity audit of the multiplication map onto a product chart.

    pool is the union of the two factor pools, and targets lists the
    product-chart targets that decompose over it and precede the witness
    in vector_key order: all of them when the pair is not weak.
    """

    pair: tuple[Monomial, Monomial]
    weak: bool
    witness: Optional[ExponentVector]
    pool: tuple[ExponentVector, ...] = field(repr=False)
    targets: tuple[ExponentVector, ...] = field(repr=False)

    @cached_property
    def decompositions(self) -> tuple[tuple[ExponentVector, tuple[int, ...]], ...]:
        """Each target with its graded-lex least decomposition over pool."""
        return tuple((t, semigroup_member(self.pool, t)) for t in self.targets)


@dataclass(frozen=True)
class DependencyReport:
    """Degree relations among variables and their reducibility class.

    Relations are the minimal kernel vectors under the sign-split order,
    stated over variable degrees only; general homogeneous elements are
    outside the classifier's scope.
    """

    klass: str
    witness: Optional[ExponentVector]
    relations: tuple[ExponentVector, ...]
    scope: str = "variable-degree relations"


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    weak_pairs: tuple[WeakPairReport, ...]
    dependency_class: str


def mu_surjective(spec: RingSpec, f, g) -> WeakPairReport:
    """Audit the multiplication map of the pair (f, g).

    Every generator and unit t of the product chart must decompose over
    the union of the two factor pools; the first t in vector_key order
    with no decomposition is the weakness witness, and the audit stops
    there.  With F = supp f and G = supp g, every t lies in the degree-zero
    lattice L, and the f-pool generates S_f, the vectors of L that are
    >= 0 off F.  Two sign tests settle most targets without a search:

    * rule A: t >= 0 off F puts t in S_f itself; likewise with g and G.
    * rule B: t - p >= 0 off F for some p in the g-pool puts t - p in S_f,
      so t = p + (t - p) lies in S_g + S_f; likewise with the roles
      swapped.  Rule A is rule B with p = 0.

    Only the targets that neither rule settles go to semigroup_member.
    The decompositions of the targets before the witness are searched
    when the report's decompositions are first read.

    >>> from projd.fgab import FgAbGroup
    >>> G = FgAbGroup(2)
    >>> R = RingSpec(G, ["x", "y", "z"],
    ...              [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))])
    >>> mu_surjective(R, "xz", "yz").weak
    True
    >>> mu_surjective(R, "xz", "yz").witness
    (-1, -1, 1)
    >>> mu_surjective(R, "xy", "xz").weak
    False
    """
    f, g = spec.relevant_monomial(f), spec.relevant_monomial(g)
    chart_f, chart_g = chart_algebra(spec, f), chart_algebra(spec, g)
    pool_f, pool_g = chart_f.pool(), chart_g.pool()
    pool = pool_f + pool_g
    off_f, off_g = chart_f.constrained_coords(), chart_g.constrained_coords()
    targets = sorted(set(chart_algebra(spec, f * g).pool()), key=vector_key)
    witness = None
    for k, t in enumerate(targets):
        if (_nonneg_after(t, pool_g, off_f) or _nonneg_after(t, pool_f, off_g)
                or semigroup_member(pool, t) is not None):
            continue
        witness, targets = t, targets[:k]
        break
    return WeakPairReport((f, g), witness is not None, witness,
                          tuple(pool), tuple(targets))


def _nonneg_after(t: ExponentVector, pool, off) -> bool:
    """t - p >= 0 on the coordinates off for p = 0 or some p in pool."""
    return (all(t[i] >= 0 for i in off)
            or any(all(t[i] >= p[i] for i in off) for p in pool))


def _minimal_divisibility(monos: Sequence[Monomial]) -> list[Monomial]:
    uniq = []
    for m in monos:
        if m not in uniq:
            uniq.append(m)
    return [m for m in uniq
            if not any(o != m and o.divides(m) for o in uniq)]


def _chart_monomials(spec: RingSpec, B=None) -> list[Monomial]:
    """The chart monomials of the model of B, in vector_key order."""
    if B is None:
        B = spec.conical_ideal
    if B is None:
        gens = list(spec.irrelevant_generators())
    else:
        gens = _minimal_divisibility([spec.monomial(b) for b in B])
    return sorted(gens, key=lambda m: vector_key(m.exponents))


def weak_pairs(spec: RingSpec, B=None) -> tuple[WeakPairReport, ...]:
    """All weak pairs among the model's chart monomials.

    B defaults to the spec's chosen ideal when present, otherwise to the
    irrelevant-ideal generators; an explicit B is reduced to its minimal
    monomials first.
    """
    gens = [g for g in _chart_monomials(spec, B) if g.support]
    out = []
    for f, g in itertools.combinations(gens, 2):
        report = mu_surjective(spec, f, g)
        if report.weak:
            out.append(report)
    return tuple(out)


def is_separated(spec: RingSpec, B=None) -> SeparationVerdict:
    """Separatedness verdict: no weak pair among the chart monomials.

    >>> from projd.fgab import FgAbGroup
    >>> G = FgAbGroup(1, [2])
    >>> R = RingSpec(G, ["x", "y", "z"],
    ...              [G.element((1,), (0,)), G.element((0,), (1,)),
    ...               G.element((1,), (1,))])
    >>> is_separated(R).separated
    True
    """
    pairs = weak_pairs(spec, B)
    return SeparationVerdict(not pairs, pairs, classify_dependencies(spec).klass)


def _graver_relations(spec: RingSpec) -> tuple[ExponentVector, ...]:
    """Minimal nonzero kernel vectors under the sign-split order.

    One search over pairs (p, q) >= 0 with deg(p) = deg(q), read back as
    a = p - q; its torsion columns are fixed by (p, q) and nondecreasing
    in it, so its minimal solutions are the minimal pairs.  A pair whose
    supports meet at i lies above the solution (e_i, e_i), read back as
    0.  Between pairs with disjoint supports, (p', q') <= (p, q) says
    exactly that b = p' - q' is conformally below a = p - q (b_i a_i >= 0
    and |b_i| <= |a_i| for every i).  So the nonzero a read back are the
    conformally minimal ones, each once with either sign; the one whose
    first nonzero entry is positive is kept.
    """
    n = len(spec.variables)
    rows, _, width = _degree_rows(spec, spec.group.zero(), [-d for d in spec.degrees])
    found = (tuple(p - q for p, q in zip(sol[:n], sol[n:]))
             for sol in minimal_nonneg_solutions(rows, width))
    return tuple(sorted((a for a in found if any(a) and next(v for v in a if v) > 0),
                        key=vector_key))


def classify_dependencies(spec: RingSpec) -> DependencyReport:
    """Classify the variable-degree relations of the grading.

    length-one-only: every relation matches a single variable against a
    single variable.  nontrivial-irreducible: some relation a with a side
    of two or more variables lies outside the integer span M of the other
    relations; the witness is the first such a.  none: no relations at
    all.  Anything else is undetermined and the separation verdict rests
    on the multiplication maps alone.

    A relation a lies outside M iff no other relation is nonzero on
    supp(a).  If none is, every vector of M vanishes on supp(a) and a
    does not.  Conversely, let a lie outside M, and let phi be the map
    from the kernel lattice onto its quotient by M, so phi(a) != 0.  The
    relations are a Graver basis: every kernel vector is a sum of them
    and their negatives that is conformal (agrees in sign, coordinate by
    coordinate).  For another relation b, phi(a + b) != 0, so a conformal
    decomposition of a + b uses a or -a; -a would also be conformal to b,
    and b is minimal, so it uses a, and b agrees in sign with a on
    supp(a).  The same for a - b gives the opposite sign, so b vanishes
    on supp(a).
    """
    relations = _graver_relations(spec)
    if not relations:
        return DependencyReport("none", None, relations)
    def sides(a):
        pos = sum(1 for v in a if v > 0)
        neg = sum(1 for v in a if v < 0)
        return pos, neg
    if all(sides(a) == (1, 1) for a in relations):
        return DependencyReport("length-one-only", None, relations)
    meeting = [sum(1 for a in relations if a[i]) for i in range(len(spec.variables))]
    for a in relations:
        if max(sides(a)) >= 2 and all(meeting[i] == 1 for i, v in enumerate(a) if v):
            return DependencyReport("nontrivial-irreducible", a, relations)
    return DependencyReport("undetermined", None, relations)


def separated_submodels(spec: RingSpec) -> tuple[tuple[Monomial, ...], ...]:
    """Maximal sets of chart monomials whose induced model is separated.

    These are the maximal independent sets of the weak-pair graph on the
    chart monomials that weak_pairs audits, deterministically ordered; a
    constant monomial, which weak_pairs skips, joins every set.
    """
    gens = _chart_monomials(spec)
    index = {g: i for i, g in enumerate(gens)}
    edges = [(index[r.pair[0]], index[r.pair[1]])
             for r in weak_pairs(spec, gens)]
    independent = [[gens[i] for i in chosen]
                   for chosen in _maximal_independent_sets(len(gens), edges)]
    key = lambda combo: tuple(vector_key(m.exponents) for m in combo)
    return tuple(sorted((tuple(sorted(c, key=lambda m: vector_key(m.exponents)))
                         for c in independent), key=key))


def _maximal_independent_sets(count: int, edges) -> list[frozenset[int]]:
    """Maximal independent sets of a graph on range(count), in discovery order.

    They are the maximal cliques of the complement graph, listed by
    Bron-Kerbosch with Tomita pivoting: the work is bounded by the number
    of answers, not by the 2^count subsets.  An empty graph has the one
    answer {}.
    """
    vertices = frozenset(range(count))
    adjacent = {v: set(vertices - {v}) for v in vertices}
    for u, v in edges:
        adjacent[u].discard(v)
        adjacent[v].discard(u)
    found: list[frozenset[int]] = []

    def expand(chosen: frozenset[int], candidates: set[int], excluded: set[int]):
        if not candidates and not excluded:
            found.append(chosen)
            return
        pivot = max(candidates | excluded,
                    key=lambda u: (len(candidates & adjacent[u]), -u))
        for v in sorted(candidates - adjacent[pivot]):
            expand(chosen | {v}, candidates & adjacent[v], excluded & adjacent[v])
            candidates.discard(v)
            excluded.add(v)

    expand(frozenset(), set(vertices), set())
    return found
