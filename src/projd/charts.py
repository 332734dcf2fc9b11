"""Degree-zero chart algebras and the prime correspondence.

Each relevant monomial f carries an affine chart whose coordinate ring is
the degree-zero part of the localization at f.  That ring is a semigroup
algebra: exponent vectors of degree zero, negative only at variables of f.
Monomial primes of the ambient ring transfer to chart ideals through the
correspondence p -> pS_f intersected with the degree-zero part, and charts
are glued along the charts of products.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, NamedTuple, Sequence

from projd.diophantine import (ConstrainedSemigroup, ExponentVector, InvariantError,
                               _frozen, semigroup_member)
from projd.ringspec import InvalidInput, Monomial, ParseError, RingSpec


class PrimeMeetsF(InvalidInput):
    """The prime contains a variable of the localizing monomial."""


class MonomialPrime:
    """Prime ideal generated by a set of variables; () is the zero ideal."""

    def __init__(self, variables: tuple[int, ...]):
        self.__dict__["variables"] = tuple(sorted(set(variables)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(variables={self.variables!r})"

    __setattr__ = __delattr__ = _frozen

    def render(self, names: Sequence[str]) -> str:
        if not self.variables:
            return "(0)"
        return "(" + ", ".join(names[i] for i in self.variables) + ")"


def parse_prime(spec: RingSpec, p) -> MonomialPrime:
    """The monomial prime of p: a MonomialPrime, or text like "(x, z)" or
    "(0)".  Anything else is refused with a ParseError."""
    if isinstance(p, MonomialPrime):
        return p
    if not isinstance(p, str):
        raise ParseError(f"prime {p!r}: expected text like '(x, z)'")
    body = p.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    items = [] if body in ("", "0") else [piece.strip() for piece in body.split(",")]
    index = {name: i for i, name in enumerate(spec.variables)}
    for item in items:
        if item not in index:
            raise ParseError(f"prime {p!r}: unknown variable {item!r}")
    return MonomialPrime(tuple(index[item] for item in items))


def chart_algebra(spec: RingSpec, f) -> ConstrainedSemigroup:
    """Chart of a relevant monomial: the degree-zero semigroup of supp(f).

    >>> from projd.fgab import FgAbGroup
    >>> G = FgAbGroup(2)
    >>> R = RingSpec(G, ["x", "y", "z"],
    ...              [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))])
    >>> chart_algebra(R, "xy").generators
    ((-1, -1, 1),)
    >>> chart_algebra(R, "x*y*z^2").units
    ((1, 1, -1),)
    """
    return spec.semigroup(spec.relevant_monomial(f).support)


class ChartIntersectionReport(NamedTuple):
    """The product chart rebuilt from one factor's chart."""

    inverted: tuple[ExponentVector, ...]
    decompositions: tuple[tuple[ExponentVector, tuple[int, ...]], ...]


def chart_intersection_check(spec: RingSpec, f, g) -> ChartIntersectionReport:
    """Rebuild the product chart as the f-chart with some units added.

    The generators of the f-chart supported inside supp(fg) become units of
    the fg-chart, and every generator and unit of the fg-chart is returned
    with its coefficients over the f-chart pool extended by their inverses.
    Both inclusions hold, so a failure raises InvariantError.  The fg-chart
    only relaxes signs.  For the other, write L for the degree-zero
    lattice, F = supp f, F' = supp fg, and S_F, S_F' for the two charts:

    1. F is relevant, so for every i in F' - F some m e_i (m > 0) is
       congruent modulo L to a vector on F.  Their sum is a vector u of L
       supported inside F', >= 0 off F and > 0 on F' - F.
    2. Hence S_F' = S_F + N (-u): for any t in S_F', t + k u lies in S_F
       once k is large.
    3. Units.  Let t in L be supported inside F'.  By 2, t + k u is a
       member of S_F supported inside F', and so is u; write each over the
       pool of S_F.  Every summand is >= 0 off F, and they add up to zero
       off F', so every summand is supported inside F'.  So t lies in the
       span of the units of S_F and its generators inside F'; all of them
       are units of S_F'.

    By 3, u is a sum of units of S_F and its generators inside F', so -u
    decomposes over the extended pool, and by 2 so does all of S_F'.
    """
    f, g = spec.monomial(f), spec.monomial(g)  # parse both before checking either
    f, g = spec.relevant_monomial(f), spec.relevant_monomial(g)
    fg = f * g
    chart_f = chart_algebra(spec, f)
    chart_fg = chart_algebra(spec, fg)
    if not all(chart_fg.contains(v) for v in chart_f.pool):
        raise InvariantError("the f-chart is not inside the fg-chart")
    inverted = tuple(v for v in chart_f.generators
                     if all(i in fg.support for i, a in enumerate(v) if a))
    pool = chart_f.pool + tuple(tuple(-a for a in v) for v in inverted)
    decompositions = []
    for target in chart_fg.pool:
        coeffs = semigroup_member(pool, target)
        if coeffs is None:
            raise InvariantError(f"{target} of the fg-chart does not decompose "
                                 "over the f-chart and its inverted generators")
        decompositions.append((target, coeffs))
    return ChartIntersectionReport(inverted, tuple(decompositions))


def psi_image(spec: RingSpec, f, p) -> tuple[ExponentVector, ...]:
    """Chart generators of the image of a monomial prime on the f-chart.

    Relevance of f is not required; the correspondence is still defined and
    its failure to stay injective for irrelevant f is observable.  Raises
    PrimeMeetsF when the prime contains a variable of f.
    """
    f = spec.monomial(f)
    p = parse_prime(spec, p)
    if set(p.variables) & f.support:
        raise PrimeMeetsF(f"prime {p.render(spec.variables)} meets the chart monomial")
    return tuple(v for v in spec.semigroup(f.support).sorted_pool
                 if any(v[i] > 0 for i in p.variables))


def _contains_irrelevant(gens: Sequence[Monomial], variables: AbstractSet[int]) -> bool:
    """The prime on these variables contains every irrelevant-ideal generator."""
    return bool(gens) and all(g.support & variables for g in gens)


def cover_decomposition(spec: RingSpec, h) -> tuple[Monomial, ...]:
    """Irrelevant-ideal generators whose charts assemble the open set of h.

    Returned are the generators whose support contains supp(h); their
    chart union equals the open set of h exactly when supp(h) is an
    independent set of the degree configuration (some generator's support
    contains it), and is contained in it always.
    """
    h = spec.monomial(h)
    return tuple(g for g in spec.irrelevant_generators()
                 if h.support <= g.support)


def v_plus(spec: RingSpec, ideal: Iterable) -> tuple[MonomialPrime, ...]:
    """Minimal monomial primes of the vanishing set, within the model.

    These are the minimal transversals of the supports of the ideal's
    monomials (Berge, Hypergraphs, 1989), in size-then-index order, less
    the primes containing every irrelevant-ideal generator.  The empty
    ideal yields the zero prime, the marker for the whole space, and the
    unit ideal yields none.
    """
    hitting = [frozenset()]
    for s in dict.fromkeys(spec.monomial(m).support for m in ideal):
        # a set grown by one element of s can only contain one that already met s
        met = [t for t in hitting if t & s]
        grown = {t | {i} for t in hitting if not t & s for i in s}
        hitting = met + [t for t in grown if not any(k <= t for k in met)]
    gens = spec.irrelevant_generators()
    primes = (MonomialPrime(tuple(t)) for t in hitting if not _contains_irrelevant(gens, t))
    return tuple(sorted(primes, key=lambda p: (len(p.variables), p.variables)))
