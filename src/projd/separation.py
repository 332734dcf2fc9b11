"""Separatedness of the glued chart model via multiplication maps.

Two chart monomials form a weak pair when the multiplication map from the
tensor product of their chart algebras onto the product chart fails to be
surjective; any weak pair obstructs separatedness of the model.  The
degree relations among variable degrees classify the easy cases: if every
relation matches one variable against one variable (x^2 = y^3 as well as
x = y) the model is separated, while an irreducible relation with a side
of two or more variables forces a weak pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    """Surjectivity audit of the multiplication map onto a product chart."""

    pair: tuple[Monomial, Monomial]
    weak: bool
    witness: Optional[ExponentVector]
    decompositions: tuple[tuple[ExponentVector, tuple[int, ...]], ...]


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

    Every generator and unit of the product chart must decompose over the
    union of the two factor pools; the first element with no decomposition
    is the weakness witness.  The audit stops there, so the decompositions
    of a weak pair end before its witness.

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
    pool = chart_algebra(spec, f).pool() + chart_algebra(spec, g).pool()
    targets = chart_algebra(spec, f * g).pool()
    witness = None
    decompositions = []
    for target in sorted(set(targets), key=vector_key):
        coeffs = semigroup_member(pool, target)
        if coeffs is None:
            witness = target
            break
        decompositions.append((target, coeffs))
    return WeakPairReport((f, g), witness is not None, witness,
                          tuple(decompositions))


def _minimal_divisibility(monos: Sequence[Monomial]) -> list[Monomial]:
    uniq = []
    for m in monos:
        if m not in uniq:
            uniq.append(m)
    return [m for m in uniq
            if not any(o != m and o.divides(m) for o in uniq)]


def weak_pairs(spec: RingSpec, B=None) -> tuple[WeakPairReport, ...]:
    """All weak pairs among the model's chart monomials.

    B defaults to the spec's chosen ideal when present, otherwise to the
    irrelevant-ideal generators; an explicit B is reduced to its minimal
    monomials first.
    """
    if B is None:
        B = spec.conical_ideal
    if B is None:
        gens = list(spec.irrelevant_generators())
    else:
        gens = _minimal_divisibility([spec.monomial(b) for b in B])
    gens = [g for g in gens if g.support]
    gens.sort(key=lambda m: vector_key(m.exponents))
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
    irrelevant-ideal generators, deterministically ordered.
    """
    gens = [g for g in spec.irrelevant_generators()]
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
