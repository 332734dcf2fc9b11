"""Gradings of polynomial rings and the combinatorics of relevance.

A RingSpec is a polynomial ring with variables graded by a finitely
generated abelian group.  A monomial f is relevant when the subgroup
generated by the degrees of its support has finite index in the whole
group; the square-free relevant monomials minimal under divisibility
generate the irrelevant ideal, and each one carries a chart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from projd.diophantine import (ConstrainedSemigroup, ExponentVector, _congruences,
                               minimal_nonneg_solutions, vector_key)
from projd.fgab import (
    FgAbGroup,
    GroupElement,
    Subgroup,
    kernel_basis,
    row_hnf,
    subgroup_index,
)


class InvalidInput(ValueError):
    """Input the engine refuses; any other exception is a fault of the engine."""


class ParseError(InvalidInput):
    """Malformed input text; the message names the offending part."""


class NotEffective(InvalidInput):
    """The variable degrees fail to generate the whole grading group."""


class NotRelevant(InvalidInput):
    """The monomial's support degrees span a subgroup of infinite index."""


class BadConicalIdeal(InvalidInput):
    """A chosen ideal generator is not a relevant monomial."""


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of a monomial, tied to a variable list by position."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError("monomial exponents must be nonnegative")

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def render(self, names: Sequence[str], sep: str = "") -> str:
        """Text like "xz^2", or with sep="*" the unambiguous "x*z^2"; "1" for the unit."""
        if not any(self.exponents):
            return "1"
        parts = []
        for name, e in zip(names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return sep.join(parts)


class RingSpec:
    """A polynomial ring with an effective grading by an fg abelian group.

    conical_ideal optionally restricts the model to a chosen set B of
    relevant monomials; every entry is checked for relevance.

    The spec is the one owner of what its grading determines: relevance
    per support, the irrelevant-ideal generators, the degree-zero kernel,
    its relations and one degree-zero semigroup per set of inverted
    variables, each computed once, on first use.

    >>> G = FgAbGroup(2)
    >>> R = RingSpec(G, ["x", "y", "z"],
    ...              [G.element((1, 0)), G.element((0, 1)), G.element((1, 1))])
    >>> R.is_relevant(R.monomial("x*z"))
    True
    >>> R.is_relevant(R.monomial("x"))
    False
    >>> [m.render(R.variables) for m in R.irrelevant_generators()]
    ['yz', 'xz', 'xy']
    """

    def __init__(self, group: FgAbGroup, variables: Sequence[str],
                 degrees: Sequence[GroupElement],
                 conical_ideal: Optional[Sequence[Monomial]] = None,
                 check_effective: bool = True):
        # Set first: the relevance checks below already fill them.
        self._relevant: dict[frozenset[int], bool] = {}
        self._semigroups: dict[frozenset[int], ConstrainedSemigroup] = {}
        if len(variables) != len(degrees):
            raise ValueError("one degree per variable required")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for d in degrees:
            if d.group != group:
                raise ValueError("degree from the wrong group")
        self.group = group
        self.variables = tuple(variables)
        self.degrees = tuple(degrees)
        if check_effective:
            validate_effective(self)
        if conical_ideal is not None:
            conical_ideal = tuple(self.monomial(b) for b in conical_ideal)
            for b in conical_ideal:
                if not self.is_relevant(b):
                    raise BadConicalIdeal(
                        f"{b.render(self.variables)} is not relevant")
        self.conical_ideal = conical_ideal

    def __eq__(self, other):
        return (isinstance(other, RingSpec)
                and self.group == other.group
                and self.variables == other.variables
                and self.degrees == other.degrees
                and self.conical_ideal == other.conical_ideal)

    def __hash__(self):
        return hash((self.group, self.variables, self.degrees, self.conical_ideal))

    def monomial(self, source) -> Monomial:
        """The monomial of source: a Monomial, or text like "x*z^2"."""
        if isinstance(source, Monomial):
            return source
        return parse_monomial(source, self.variables)

    def relevant_monomial(self, source) -> Monomial:
        """The monomial of source; raises NotRelevant unless it is relevant."""
        mono = self.monomial(source)
        if not self.is_relevant(mono):
            raise NotRelevant(f"{mono.render(self.variables)} is not relevant")
        return mono

    def degree_of(self, mono: Monomial) -> GroupElement:
        deg = self.group.zero()
        for e, d in zip(mono.exponents, self.degrees):
            deg = deg + e * d
        return deg

    def support_group(self, mono: Monomial) -> Subgroup:
        """Subgroup of degrees generated by the support of a monomial."""
        gens = [self.degrees[i] for i in sorted(mono.support)]
        return self.group.subgroup(gens)

    def is_relevant(self, mono: Monomial) -> bool:
        # memoize the answer, not the support group: every chart lookup asks,
        # and reading the index through subgroup_index costs 1.5 us a call
        # against 0.19 us (the 15 L6 supports, best of 5, Xeon)
        support = mono.support
        if support not in self._relevant:
            self._relevant[support] = (
                subgroup_index(self.group, self.support_group(mono)) != math.inf)
        return self._relevant[support]

    @cached_property
    def kernel(self) -> tuple[ExponentVector, ...]:
        """HNF basis of {a in Z^n : sum a_i deg(x_i) = 0}.

        The kernel of the degree congruences, projected to the n exponent
        columns: each torsion column is fixed by the exponents.
        """
        n = len(self.variables)
        rows, _, width = _degree_rows(self, self.group.zero())
        return row_hnf([row[:n] for row in kernel_basis(rows, width)], n)

    @cached_property
    def relations(self) -> tuple[ExponentVector, ...]:
        """Minimal nonzero kernel vectors under the sign-split order.

        One search over pairs (p, q) >= 0 with deg(p) = deg(q), read back as
        a = p - q; its torsion columns are fixed by (p, q) and nondecreasing
        in it, so its minimal solutions are the minimal pairs.  A pair whose
        supports meet at i lies above the solution (e_i, e_i), read back as
        0.  Between pairs with disjoint supports, (p', q') <= (p, q) says
        exactly that b = p' - q' is conformally below a = p - q (b_i a_i >= 0
        and |b_i| <= |a_i| for every i).  So the nonzero a read back are the
        conformally minimal ones, each once with either sign; the one whose
        first nonzero entry is positive is kept.  An empty kernel has none,
        and no search is run for it.
        """
        if not self.kernel:
            return ()
        n = len(self.variables)
        rows, _, width = _degree_rows(self, self.group.zero(),
                                      [-d for d in self.degrees])
        found = (tuple(p - q for p, q in zip(sol[:n], sol[n:]))
                 for sol in minimal_nonneg_solutions(rows, width))
        return tuple(sorted((a for a in found if any(a) and next(v for v in a if v) > 0),
                            key=vector_key))

    def semigroup(self, free_coords) -> ConstrainedSemigroup:
        """Degree-zero exponent vectors, nonnegative off free_coords.

        One object per set of free coordinates, so its units and
        generators are computed once.  For a relevant f and free_coords =
        supp(f) this is the chart of f.
        """
        free = frozenset(free_coords)
        if free not in self._semigroups:
            self._semigroups[free] = ConstrainedSemigroup(
                len(self.variables), self.kernel, free)
        return self._semigroups[free]

    def irrelevant_generators(self) -> tuple[Monomial, ...]:
        """Minimal square-free relevant monomials, graded-lex ordered.

        Torsion never blocks finite index, so a support is relevant exactly
        when its free degree parts have rank r = rank D: the minimal
        relevant supports are the bases of the linear matroid of the free
        parts, the relevant supports of size r.  For r = 0 the single
        generator is 1 and the model collapses to one affine chart.
        """
        return self._irrelevant_generators

    @cached_property
    def _irrelevant_generators(self) -> tuple[Monomial, ...]:
        n = len(self.variables)
        monos = [Monomial(tuple(1 if i in combo else 0 for i in range(n)))
                 for combo in itertools.combinations(range(n), self.group.rank)]
        return tuple(sorted((m for m in monos if self.is_relevant(m)),
                            key=lambda m: vector_key(m.exponents)))


def parse_monomial(text: str, names: Sequence[str]) -> Monomial:
    """Parse "x*z^2" or "xz" style monomial text; ParseError for anything else."""
    if not isinstance(text, str):
        raise ParseError(f"monomial {text!r}: expected text like 'x*z^2'")
    text = text.strip()
    exps = [0] * len(names)
    if text in ("1", ""):
        return Monomial(tuple(exps))
    index = {name: i for i, name in enumerate(names)}
    for factor in text.replace(" ", "").split("*"):
        if not factor:
            raise ParseError(f"empty factor in monomial {text!r}")
        if "^" in factor:
            base, _, power = factor.partition("^")
            try:
                e = int(power)
            except ValueError:
                raise ParseError(f"bad exponent in monomial factor {factor!r}")
        else:
            base, e = factor, 1
        if e < 0:
            raise ParseError(f"negative exponent in monomial factor {factor!r}")
        if base in index:
            exps[index[base]] += e
            continue
        # juxtaposed single-letter names like "xz" are accepted
        if base and all(ch in index for ch in base):
            for ch in base[:-1]:
                exps[index[ch]] += 1
            exps[index[base[-1]]] += e
            continue
        raise ParseError(f"unknown variable in monomial factor {factor!r}")
    return Monomial(tuple(exps))


def validate_effective(spec: RingSpec) -> None:
    """Check that the variable degrees generate the whole grading group.

    Raises NotEffective naming a group generator that is not reached.
    """
    sub = spec.group.subgroup(list(spec.degrees))
    for g in spec.group.standard_generators():
        if not sub.contains(g):
            raise NotEffective(f"grading misses the group element {g}")


def veronese_scaled_spec(spec: RingSpec, n: int) -> RingSpec:
    """Same variables with every degree multiplied by n.

    Scaling can break effectiveness (the scaled degrees may span a proper
    subgroup), so the result is built unchecked; relevance of monomials
    is preserved either way.
    """
    if n < 1:
        raise ValueError("scaling factor must be positive")
    degrees = [n * d for d in spec.degrees]
    return RingSpec(spec.group, spec.variables, degrees,
                    conical_ideal=spec.conical_ideal, check_effective=False)


def _degree_rows(spec: RingSpec, d: GroupElement, extra=()):
    """The degree equations deg(a) + sum c_j e_j = d as (rows, rhs, width).

    Columns: the n exponents a, one multiplier c_j per degree e_j of
    extra, then the torsion columns that _congruences adds, one per
    torsion order.  This is the one place that knows the torsion columns.
    """
    group = spec.group
    lifts = [e.lift() for e in (*spec.degrees, *extra)]
    rows = [[lift[r] for lift in lifts] for r in range(group.dim)]
    moduli = [0] * group.rank + list(group.torsion)
    return _congruences(rows, moduli, d.lift(), len(lifts))


def degree_zero_companion(spec: RingSpec, h: Monomial,
                          f: Monomial) -> Optional[tuple[Monomial, int]]:
    """Least (g, k) with deg(h * g) = deg(f^k), or None if f irrelevant.

    k is minimized first, then g in graded-lex order.  h needs no power:
    with F = supp(f) relevant, the degree-zero lattice L (rank n - r) meets
    Z^F in rank |F| - r, so it projects onto a full-rank lattice off F, and
    some c in -h + L is >= 0 off F.  Then g = c + k*f >= 0 for k = max over
    i in F of ceil(max(0, -c_i) / f_i), and deg(h * g) = deg(f^k).

    The pairs are the counter-1 solutions s = (g, k, torsion columns) of
    one Contejean-Devie search in its least mode with lead column k, which
    lists nothing (see diophantine._contejean_devie).  Its order reads
    only the k column and the n exponent columns, never the search level,
    which counts the torsion columns too.  The torsion columns are fixed
    by (g, k), but they make a tie: a vector with the best's (k, |g|) may
    lead to a g of the same norm that is graded-lex smaller and is
    recorded at a later level, because its torsion columns are larger;
    the least mode keeps such a vector.
    """
    if not spec.is_relevant(f):
        return None
    n = len(spec.variables)
    rows, rhs, width = _degree_rows(spec, -spec.degree_of(h), (-spec.degree_of(f),))
    (best,) = minimal_nonneg_solutions(rows, width, rhs=rhs, least_by=n)
    return Monomial(best[:n]), best[n]
