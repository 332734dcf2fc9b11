"""Separatedness of the glued chart model via multiplication maps.

Two chart monomials form a weak pair when the multiplication map from the
tensor product of their chart algebras onto the product chart fails to be
surjective; any weak pair obstructs separatedness of the model.  The
model is its list of chart monomials: the minimal monomials of the ideal B
that the spec declares, else the irrelevant-ideal generators.

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
import math
from typing import NamedTuple, Optional, Sequence

from projd.charts import chart_algebra
from projd.diophantine import ExponentVector, semigroup_member, vector_key
from projd.fgab import hnf_reduce
from projd.ringspec import Monomial, RingSpec


class WeakPairReport(NamedTuple):
    """Surjectivity audit of the multiplication map onto a product chart."""

    pair: tuple[Monomial, Monomial]
    weak: bool
    witness: Optional[ExponentVector]


class DependencyReport(NamedTuple):
    """Reducibility class of the variable-degree relations, with its witness.

    Both come from one echelon form of the kernel lattice (see
    classify_dependencies); the relations themselves are RingSpec.relations.
    """

    klass: str
    witness: Optional[ExponentVector]


class SeparationVerdict(NamedTuple):
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
    f, g = spec.monomial(f), spec.monomial(g)  # parse both before checking either
    # chart_algebra refuses an irrelevant monomial, and the bench trace
    # counts each chart looked up there
    chart_f, chart_g = chart_algebra(spec, f), chart_algebra(spec, g)
    chart_fg = chart_algebra(spec, f * g)
    pool_f, pool_g = chart_f.pool, chart_g.pool
    off_f, off_g = chart_f.constrained_coords, chart_g.constrained_coords
    for t in chart_fg.sorted_pool:
        if not (all(t[i] >= 0 for i in off_f) or all(t[i] >= 0 for i in off_g)
                or _nonneg_after(t, pool_g, off_f) or _nonneg_after(t, pool_f, off_g)
                or semigroup_member(pool_f + pool_g, t) is not None):
            return WeakPairReport((f, g), True, t)
    return WeakPairReport((f, g), False, None)


def _nonneg_after(t: ExponentVector, pool, off) -> bool:
    """t - p >= 0 on the coordinates off for some p in pool: rule B."""
    for p in pool:
        for i in off:
            if t[i] < p[i]:
                break
        else:
            return True
    return False


def _minimal_divisibility(monos: Sequence[Monomial]) -> list[Monomial]:
    uniq = list(dict.fromkeys(monos))
    return [m for m in uniq
            if not any(o != m and o.divides(m) for o in uniq)]


def _chart_monomials(spec: RingSpec) -> list[Monomial]:
    """The chart monomials of the spec's model, in vector_key order."""
    if spec.conical_ideal is None:
        gens = list(spec.irrelevant_generators())
    else:
        gens = _minimal_divisibility(spec.conical_ideal)
    return sorted(gens, key=lambda m: vector_key(m.exponents))


def weak_pairs(spec: RingSpec) -> tuple[WeakPairReport, ...]:
    """All weak pairs among the model's chart monomials.

    The model is the spec's chosen ideal B, reduced to its minimal
    monomials, when present, otherwise the irrelevant-ideal generators.
    """
    gens = [g for g in _chart_monomials(spec) if g.support]
    reports = (mu_surjective(spec, f, g) for f, g in itertools.combinations(gens, 2))
    return tuple(r for r in reports if r.weak)


def is_separated(spec: RingSpec) -> SeparationVerdict:
    """Separatedness verdict: no weak pair among the chart monomials.

    >>> from projd.fgab import FgAbGroup
    >>> G = FgAbGroup(1, [2])
    >>> R = RingSpec(G, ["x", "y", "z"],
    ...              [G.element((1,), (0,)), G.element((0,), (1,)),
    ...               G.element((1,), (1,))])
    >>> is_separated(R).separated
    True
    """
    pairs = weak_pairs(spec)
    return SeparationVerdict(not pairs, pairs, classify_dependencies(spec).klass)


def classify_dependencies(spec: RingSpec) -> DependencyReport:
    """Classify the variable-degree relations of the grading.

    length-one-only: every relation matches a single variable against a
    single variable.  nontrivial-irreducible: some relation a with a side
    of two or more variables lies outside the integer span M of the other
    relations; the witness is the first such a.  none: no relations at
    all.  Anything else is undetermined and the separation verdict rests
    on the multiplication maps alone.

    The relations are the Graver basis of the kernel lattice L: every
    vector of L is a conformal sum of them and their negatives (one that
    agrees in sign, coordinate by coordinate).  A relation a lies outside
    M iff no other relation is nonzero on supp(a).  If none is, every
    vector of M vanishes on supp(a) and a does not.  Conversely, let a lie
    outside M, and let phi be the map from L onto L/M, so phi(a) != 0.
    For another relation b, phi(a + b) != 0, so a conformal decomposition
    of a + b uses a or -a; -a would also be conformal to b, and b is
    minimal, so it uses a, and b agrees in sign with a on supp(a).  The
    same for a - b gives the opposite sign, so b vanishes on supp(a).

    The class is read off one echelon form of L, without the relations:

    * Components.  Let M(L) be the matroid on the variables whose circuits
      are the minimal supports of nonzero vectors of L.  A vector of L is
      fixed by its entries on the pivot columns of a reduced echelon form
      E of L, so the other columns form a basis of M(L), and the support
      of the row of E with pivot p is the fundamental circuit of p.  The
      connected components of a matroid are those of the fundamental
      circuits of any one basis (Oxley, Matroid Theory, 2011), so
      union-find over the row supports gives them, and each row lies in
      one component.  Over Q, L splits into its parts on the components.
    * Irreducible relations.  For a relation a with support C, L = Z.a +
      (L meet Z^(C^c)), a direct sum, exactly when no other relation
      meets C.  If none does, each term of a conformal sum is +-a or
      vanishes on C.  If L splits so, the Graver basis of a direct sum
      over disjoint coordinates is the union of those of the summands,
      and that of Z.a is {a, -a}.  Then C is a circuit and a separator of
      M(L), so a component holding exactly one row r of E.  Conversely,
      for a component C holding one row r, L meet Z^C = Z.a, where a is
      the least multiple of the primitive vector of r that lies in L
      (with torsion, not always that vector), and L splits exactly when
      every basis row of L, projected to C, lies in L.  The witness is
      the vector_key-least such a with a side of two or more variables.
    * Length one.  Every circuit carries a relation with its signs: the
      generator of L on its line.  So if no component qualifies and some
      row of E is not a pair with opposite signs, the class is
      undetermined.  If every row is such a pair, every circuit is one,
      yet a relation need not be a circuit: the relations of 2a + 3b + 5c
      = 0 include (1, 1, -1) beside (5, 0, -2) and (0, 5, -3).  Only then
      are the relations searched, to tell length-one-only from
      undetermined.
    """
    kernel = spec.kernel
    if not kernel:
        return DependencyReport("none", None)
    rows = _reduced_echelon(kernel)
    n = len(spec.variables)
    witnesses = []
    for held in _row_components(rows, n):
        r = held[0]
        if len(held) > 1 or max(_sides(r)) < 2:
            continue
        if not any(any(hnf_reduce(kernel, [b[j] if r[j] else 0 for j in range(n)]))
                   for b in kernel):
            t = next(t for t in itertools.count(1)
                     if not any(hnf_reduce(kernel, [t * v for v in r])))
            witnesses.append(tuple(t * v for v in r))
    if witnesses:
        return DependencyReport("nontrivial-irreducible", min(witnesses, key=vector_key))
    if any(_sides(r) != (1, 1) for r in rows):
        return DependencyReport("undetermined", None)
    klass = ("length-one-only" if all(_sides(a) == (1, 1) for a in spec.relations)
             else "undetermined")
    return DependencyReport(klass, None)


def _sides(a: Sequence[int]) -> tuple[int, int]:
    """How many variables a relation puts on its positive and negative sides."""
    return sum(1 for v in a if v > 0), sum(1 for v in a if v < 0)


def _row_components(rows, n: int) -> list[list[tuple[int, ...]]]:
    """The rows of a reduced echelon form of L, grouped by the connected
    component of the matroid of L that holds their supports (see
    classify_dependencies); union-find over the row supports."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    supports = [[j for j, v in enumerate(r) if v] for r in rows]
    for first, *rest in supports:
        for j in rest:
            root[find(j)] = find(first)
    held: dict[int, list[tuple[int, ...]]] = {}
    for r, support in zip(rows, supports):
        held.setdefault(find(support[0]), []).append(r)
    return list(held.values())


def _reduced_echelon(basis) -> list[tuple[int, ...]]:
    """Reduced echelon form of a row HNF, fraction-free.

    Each row is primitive, has a positive pivot and is zero on the pivots
    of the other rows.  Gauss-Jordan: a row of an HNF is zero left of its
    pivot, so each new row clears its pivot from the rows above it only.
    """
    rows: list[tuple[int, ...]] = []
    for b in basis:
        r = _primitive(b)
        p = next(j for j, v in enumerate(r) if v)
        rows = [_primitive([r[p] * y - s[p] * x for x, y in zip(r, s)]) if s[p] else s
                for s in rows]
        rows.append(r)
    return rows


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(v // g for v in vec)


def separated_submodels(spec: RingSpec) -> tuple[tuple[Monomial, ...], ...]:
    """Maximal sets of chart monomials whose induced model is separated.

    These are the maximal independent sets of the weak-pair graph on the
    chart monomials that weak_pairs audits, deterministically ordered; a
    constant monomial, which weak_pairs skips, joins every set.
    """
    gens = _chart_monomials(spec)
    index = {g: i for i, g in enumerate(gens)}
    edges = [(index[r.pair[0]], index[r.pair[1]]) for r in weak_pairs(spec)]
    # gens is distinct and in vector_key order, so sorted index tuples
    # order the sets as their monomials' vector_keys would
    independent = sorted(tuple(sorted(chosen))
                         for chosen in _maximal_independent_sets(len(gens), edges))
    return tuple(tuple(gens[i] for i in combo) for combo in independent)


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
