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
from projd.diophantine import (ExponentVector, InvariantError, _eliminate,
                               semigroup_member, vector_key)
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

    With F = supp f, G = supp g and P = F | G, the map is onto, that is
    S_P = S_f + S_g for the fg-chart S_P, exactly when the degree-zero
    lattice L holds a vector w supported inside P, a unit of the fg-chart,
    with w >= 0 on F - G and w < 0 on G - F.  S_f is the set of vectors
    of L that are >= 0 off F, and F is relevant:

    * if w exists, u = -w is a vector of L supported inside P, >= 0 off F
      and > 0 on P - F, so S_P = S_f + N w (steps 1-2 in
      charts.chart_intersection_check); and w >= 0 off G puts w in S_g.
    * if the map is onto, take such a u0 (step 1 there) and write
      -u0 = a + b with a in S_f and b in S_g.  Off P both are >= 0 and
      add up to 0, so b is supported inside P.  It is >= 0 on F - G, off
      G, and on G - F it is -u0 - a <= -u0 < 0, as a >= 0 off F: w = b.

    Whether w exists is a question about the rational span (L tensor Q)
    meet Q^P, the vectors supported inside P that the free degree matrix
    A maps to 0, so weakness depends only on the free parts of the
    degrees.  _weak asks the dual question: w exists exactly when no row
    lambda in Q^r, r = rank D, makes mu = lambda A <= 0 on F, >= 0 on G
    and sum over G - F of mu_i > 0.  If both existed, mu . w = lambda A w
    = 0, yet term by term mu_i w_i is 0 on F & G, where mu = 0, <= 0 on
    F - G and on G - F, and < 0 where mu_i > 0 on G - F, as w < 0 there.
    If w does not exist, the system A w = 0 on Q^P, w >= 0 on F - G,
    w < 0 on G - F has no solution, and by Motzkin's transposition
    theorem (Schrijver, Theory of Linear and Integer Programming, 1986,
    section 7) some nu in Q^r makes nu A 0 on F & G, >= 0 on F - G and
    <= 0 on G - F but not 0 there: lambda = -nu.  With G - F empty, w = 0
    qualifies and the sum is 0.

    A weak pair also reports its witness: the first generator or unit t
    of the fg-chart, in vector_key order, with no decomposition over the
    two factor pools.  Three tests settle most targets, in this order,
    before semigroup_member runs; only rule B and the search read the
    pools, so a pool is built only for a target that the first two leave:

    * rule A: t >= 0 off F puts t in S_f itself; likewise with g and G.
    * the functional: a row lambda in Q^r with mu = lambda A, such that
      mu = 0 on F & G, mu <= 0 on F - G, mu >= 0 on G - F and
          sum over G - F of t_i mu_i + sum off P of t_i max(0, mu_i) < 0,
      puts t outside S_f + S_g, so t is the witness.  Suppose t = a + b
      with a in S_f and b in S_g.  Then b lies in L, so mu . b = 0, and
      b >= 0 on F - G, b = t - a <= t on G - F and 0 <= b <= t off P, as
      a >= 0 off F.  Term by term mu_i b_i is <= 0 on F - G, <= t_i mu_i
      on G - F and <= t_i max(0, mu_i) off P, so 0 = mu . b is below the
      sum above, which is < 0.  By Farkas' lemma (Schrijver, section 7)
      lambda exists exactly when t lies outside the rational cone C_f +
      C_g, where C_f = {a in L tensor Q : a >= 0 off F}; _outside_cones
      asks.
    * rule B: t - p >= 0 off F for some p in the g-pool puts t - p in S_f,
      so t = p + (t - p) lies in S_g + S_f; likewise with the roles
      swapped.  Rule A is rule B with p = 0.

    The functional settles only targets that do not decompose, so the
    first target left undecomposed, the witness, is the one the search of
    every target finds.  A pair without w whose every target decomposes
    breaks the criterion: that raises InvariantError.

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
    # counts each chart looked up there; each builds only what is read
    chart_f, chart_g = chart_algebra(spec, f), chart_algebra(spec, g)
    chart_fg = chart_algebra(spec, f * g)
    columns = [d.free for d in spec.degrees]
    if not _weak(columns, f.support, g.support):
        return WeakPairReport((f, g), False, None)
    off_f, off_g = chart_f.constrained_coords, chart_g.constrained_coords
    for t in chart_fg.sorted_pool:
        if all(t[i] >= 0 for i in off_f) or all(t[i] >= 0 for i in off_g):
            continue
        if (_outside_cones(columns, t, f.support, g.support)
                or not (_nonneg_after(t, chart_g.pool, off_f)
                        or _nonneg_after(t, chart_f.pool, off_g)
                        or semigroup_member(chart_f.pool + chart_g.pool, t) is not None)):
            return WeakPairReport((f, g), True, t)
    raise InvariantError(f"no vector glues the charts of {f.render(spec.variables)} "
                         f"and {g.render(spec.variables)}, yet every target decomposes")


def _sign_rows(columns, f_support, g_support) -> list[tuple[tuple[int, ...], bool]]:
    """The rows in lambda of mu = lambda A <= 0 on F and mu >= 0 on G, for
    the free degree columns of A: the conditions that _weak and
    _outside_cones share."""
    rows = [(tuple([-a for a in columns[i]]), False) for i in f_support]
    return rows + [(columns[i], False) for i in g_support]


def _weak(columns, f_support, g_support) -> bool:
    """Whether the supports F and G make a weak pair: whether a functional
    lambda . A, for the free degree columns of A, meets the sign rows and
    has a positive sum over G - F (see mu_surjective)."""
    total = [0] * len(columns[0])
    for i in g_support - f_support:
        total = [a + b for a, b in zip(total, columns[i])]
    rows = _sign_rows(columns, f_support, g_support) + [(tuple(total), True)]
    return _eliminate(rows, len(total))


def _outside_cones(columns, t: ExponentVector, f_support, g_support) -> bool:
    """Whether a functional lambda . A puts t outside C_f + C_g (see
    mu_surjective), for the free degree columns of A and a target t of
    the fg-chart.

    To the sign rows it adds the last condition, a max over the signs of
    mu on Z = supp t - P.  That holds exactly when it holds with each
    subset of Z in place of the coordinates where mu > 0, as t >= 0 off
    P: 2^|Z| strict rows.
    """
    base = [0] * len(columns[0])
    for i in g_support - f_support:
        base = [a + t[i] * b for a, b in zip(base, columns[i])]
    sums = [base]
    for i, e in enumerate(t):
        if e and i not in f_support and i not in g_support:
            sums += [[a + e * b for a, b in zip(s, columns[i])] for s in sums]
    rows = _sign_rows(columns, f_support, g_support)
    rows += [(tuple([-a for a in s]), True) for s in sums]
    return _eliminate(rows, len(base))


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
    constant monomial, which weak_pairs skips, joins every set.  The
    chart monomials are relevant (RingSpec checks a declared B), so each
    edge is the weakness test of mu_surjective, _weak, which reads only
    the free degree matrix: no chart, unit, pool or witness is built.
    """
    gens = _chart_monomials(spec)
    columns = [d.free for d in spec.degrees]
    edges = [(i, j) for (i, f), (j, g) in itertools.combinations(enumerate(gens), 2)
             if f.support and g.support and _weak(columns, f.support, g.support)]
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
