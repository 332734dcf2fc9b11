"""Twists of the structure sheaf at the exponent-lattice level.

The twist by a degree d is controlled per chart by the set of exponent
vectors of degree d that are nonnegative off the chart's support.  The
twist is trivial on a chart exactly when a vector of degree d supported
inside the chart exists (a unit); it is free globally exactly when d lies
in every chart's support group.  Both tests are kept as independent code
paths and cross-checked.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from projd.diophantine import (
    ExponentVector,
    InvariantError,
    _coset_minimal,
    _eliminate,
    bounded_minimal_solutions,
    vector_key,
)
from projd.fgab import GroupElement, subgroup_member
from projd.ringspec import InvalidInput, Monomial, RingSpec


class SheafReport(NamedTuple):
    """Invertibility audit of a twist, chart by chart; freeness agrees."""

    invertible: bool
    chart_units: tuple[tuple[Monomial, Optional[ExponentVector]], ...]
    obstruction: Optional[Monomial]


class GlobalSectionsReport(NamedTuple):
    monomials: tuple[Monomial, ...]
    complete: bool


def unit_of_degree(spec: RingSpec, f, d: GroupElement) -> Optional[ExponentVector]:
    """Graded-lex least vector of degree d supported inside supp(f).

    Such a vector is a homogeneous unit of the localization at f; it
    exists iff d lies in the support group of f.

    >>> from projd.fgab import FgAbGroup
    >>> G = FgAbGroup(1, [2])
    >>> R = RingSpec(G, ["x", "y", "z"],
    ...              [G.element((1,), (0,)), G.element((0,), (1,)),
    ...               G.element((1,), (1,))])
    >>> unit_of_degree(R, "x", G.element((2,), (0,)))
    (2, 0, 0)
    >>> unit_of_degree(R, "x", G.element((1,), (1,))) is None
    True
    """
    f = spec.relevant_monomial(f)
    ok, coeffs = subgroup_member(spec.support_group(f), d)
    if not ok:
        return None
    particular = [0] * len(spec.variables)
    for idx, c in zip(sorted(f.support), coeffs):
        particular[idx] = c
    return _coset_minimal(particular, spec.semigroup(f.support).units)


def is_free(spec: RingSpec, d: GroupElement) -> bool:
    """Whether d lies in every chart's support group (their intersection)."""
    return all(spec.support_group(g).contains(d) for g in spec.irrelevant_generators())


def is_invertible(spec: RingSpec, d: GroupElement) -> SheafReport:
    """Per-chart unit scan for the twist by d, checked against is_free.

    Kept independent of is_free on purpose: the two must agree, and a
    divergence is a fault of the engine, raised as InvariantError.
    """
    chart_units = tuple((g, unit_of_degree(spec, g, d))
                        for g in spec.irrelevant_generators())
    obstruction = next((g for g, unit in chart_units if unit is None), None)
    if is_free(spec, d) != (obstruction is None):
        raise InvariantError(f"freeness and invertibility disagree on {d}")
    return SheafReport(obstruction is None, chart_units, obstruction)


def _bounded_exponents(n: int, bound: int):
    if n == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _bounded_exponents(n - 1, bound - head):
            yield (head,) + tail


def _is_pointed(spec: RingSpec) -> bool:
    """Whether no nonzero monomial has degree zero.

    Torsion is finite, so only the free degree matrix A counts.  By
    Gordan's theorem (Schrijver 1986, chapter 7), no nonzero rational, so
    no integral, x >= 0 has A x = 0 exactly when some lambda has
    lambda . A_i > 0 for every column A_i.
    """
    return _eliminate([(deg.free, True) for deg in spec.degrees], spec.group.rank)


def global_sections(spec: RingSpec, d: GroupElement,
                    total_degree_bound: int) -> GlobalSectionsReport:
    """Monomials of degree d up to a total-degree bound.

    On a pointed grading (no nonzero monomial has degree zero) the degree
    class of d is finite, and a search of the free degree equations that
    stops at the bound lists its members up to the bound.  The listing is
    marked complete when the bound cut nothing from that search, so no
    member of the class exceeds it; a cut search is marked partial, even
    when the cut part held no member.  Otherwise the class is empty or
    infinite, the listing comes from a scan up to the bound, and it is
    never marked complete.

    >>> from projd.fgab import FgAbGroup
    >>> G = FgAbGroup(2)
    >>> R = RingSpec(G, ["x", "y", "z"],
    ...              [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))])
    >>> rep = global_sections(R, G.element((1, 1)), 3)
    >>> [m.exponents for m in rep.monomials], rep.complete
    ([(0, 0, 1), (1, 1, 0)], True)
    """
    if total_degree_bound < 0:
        raise InvalidInput("bound must be nonnegative")
    n = len(spec.variables)
    if not _is_pointed(spec):
        found, complete = _bounded_exponents(n, total_degree_bound), False
    else:
        # no two monomials of one free degree divide each other, so those
        # of free degree d.free are exactly the minimal solutions of the
        # free degree equations; the torsion part is checked below
        rows = [[deg.free[r] for deg in spec.degrees] for r in range(spec.group.rank)]
        found, complete = bounded_minimal_solutions(rows, n, d.free, total_degree_bound)
    found = sorted((e for e in found if spec.degree_of(Monomial(e)) == d), key=vector_key)
    return GlobalSectionsReport(tuple(map(Monomial, found)), complete)
