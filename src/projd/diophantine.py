"""Nonnegative integer solving over graded exponent lattices.

The central object is a constrained lattice semigroup: all vectors of a
sublattice L of Z^n whose coordinates outside a designated free set F are
nonnegative.  These model Laurent monomials of degree zero on a chart, with
negative exponents permitted only at the inverted variables.

Minimal solutions of homogeneous systems A x = 0, x >= 0 are computed with
the Contejean-Devie completion: grow candidate vectors one unit step at a
time, extending t by e_j only while <A t, A e_j> < 0, and prune anything
that dominates a known minimal solution.  The procedure is exact and
complete; inhomogeneous problems are homogenized with an extra counter
coordinate.  Chart and twist generators are the minimal points of a lattice
coset on the constrained coordinates, cut out by congruences read off a
Smith form, one auxiliary column per modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from projd.fgab import (hnf_reduce, kernel_basis, row_hnf, smith_normal_form,
                        subgroup_member)

ExponentVector = tuple[int, ...]


class InvariantError(RuntimeError):
    """An internal consistency check failed: a fault of the engine, not of
    its input.  Raised explicitly so that it survives ``python -O``."""


def vector_key(vec: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Graded-lex sort key: L1 norm first, then entries."""
    return (sum(abs(a) for a in vec), tuple(vec))


@dataclass(frozen=True)
class ConstrainedSemigroup:
    """Vectors of a lattice with signs constrained off the free coordinates.

    kernel_basis spans the lattice L inside Z^nvars and is stored as its
    row HNF; coordinates listed in free_coords may go negative, all others
    must stay >= 0.
    """

    nvars: int
    kernel_basis: tuple[ExponentVector, ...]
    free_coords: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        for v in self.kernel_basis:
            if len(v) != self.nvars:
                raise ValueError("kernel basis vector of wrong length")
        if any(i < 0 or i >= self.nvars for i in self.free_coords):
            raise ValueError("free coordinate out of range")
        object.__setattr__(self, "kernel_basis", row_hnf(self.kernel_basis, self.nvars))

    def constrained_coords(self) -> list[int]:
        return [i for i in range(self.nvars) if i not in self.free_coords]

    def contains(self, vec: Sequence[int]) -> bool:
        """Exact membership: lattice equations plus sign constraints."""
        if any(vec[i] < 0 for i in self.constrained_coords()):
            return False
        return not any(hnf_reduce(self.kernel_basis, vec))


# ---------------------------------------------------------------------------
# Contejean-Devie completion

def minimal_nonneg_solutions(rows: Sequence[Sequence[int]], ncols: int,
                             rhs: Optional[Sequence[int]] = None,
                             least_only: bool = False) -> list[ExponentVector]:
    """Minimal solutions of rows @ x = rhs with x >= 0 integral.

    With rhs omitted this is the Hilbert basis of the solution monoid,
    excluding zero.  With rhs given, the system is homogenized with a
    counter coordinate forced to 1, and the returned vectors are exactly
    the minimal inhomogeneous solutions: for a zero rhs, zero alone.

    least_only stops the search after the first level that records a
    returned solution and returns only the solutions of that level.  Level
    k holds the vectors of L1 norm k (counter included), and a solution of
    least norm can dominate no other solution, so it is minimal and is
    recorded at its level: the result is exactly the least-norm part of the
    full answer, and its first entry is the full answer's first entry.

    >>> minimal_nonneg_solutions([[1, 2]], 2, rhs=[4])
    [(0, 2), (2, 1), (4, 0)]
    >>> minimal_nonneg_solutions([[1, 2]], 2, rhs=[4], least_only=True)
    [(0, 2)]
    """
    return _contejean_devie(rows, ncols, rhs, least_only)[0]


def bounded_minimal_solutions(rows: Sequence[Sequence[int]], ncols: int,
                              rhs: Sequence[int], bound: int
                              ) -> tuple[list[ExponentVector], bool]:
    """Minimal solutions of rows @ x = rhs, x >= 0, with sum(x) <= bound.

    The search never explores a vector past the bound, so its cost follows
    the bound, not the number of minimal solutions.  It reaches each
    minimal solution through vectors that solution dominates, so the list
    holds exactly the minimal solutions within the bound.  Returns
    (solutions, reached): reached says the bound cut nothing, so that no
    minimal solution exceeds it.  A cut search may still have lost none.

    >>> bounded_minimal_solutions([[1, 2]], 2, [4], 3)
    ([(0, 2), (2, 1)], False)
    >>> bounded_minimal_solutions([[1, 2]], 2, [4], 4)
    ([(0, 2), (2, 1), (4, 0)], True)
    """
    sols, cut = _contejean_devie(rows, ncols, rhs, bound=bound)
    return sols, not cut


def _contejean_devie(rows, ncols, rhs=None, least_only=False, bound=None):
    """The search behind minimal_nonneg_solutions: (solutions, cut).

    With a bound, vectors whose first ncols entries sum past it are left
    unexplored, and cut says whether any was.  Only rhs None is
    homogeneous: a given zero rhs has the one minimal solution 0.
    """
    if rhs is not None and not any(rhs):
        return [(0,) * ncols], False
    homogeneous = rhs is None
    cols = ncols if homogeneous else ncols + 1
    columns = []
    for j in range(ncols):
        columns.append(tuple(row[j] for row in rows))
    if not homogeneous:
        columns.append(tuple(-b for b in rhs))

    cut = False
    minimals: list[tuple[int, ...]] = []
    # minimals by (coordinate, value): a frontier vector t dominates no
    # minimal, so t + e_j can only dominate a minimal m with m_j = t_j + 1
    by_entry: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    frontier = []
    seen = set()
    for j in range(cols):
        t = tuple(1 if i == j else 0 for i in range(cols))
        if bound is not None and sum(t[:ncols]) > bound:
            cut = True
            continue
        frontier.append((t, columns[j]))
        seen.add(t)
    while frontier:
        # record the whole level before extending any of it, so that no
        # vector on the next frontier dominates a recorded minimal; a
        # solution on the frontier is then minimal.  Counter 0 solutions
        # are recorded too: pruning against them is what bounds the
        # search, they are filtered on return.
        for t, val in frontier:
            if not any(val):
                minimals.append(t)
                for i, a in enumerate(t):
                    if a:
                        by_entry.setdefault((i, a), []).append(t)
        if least_only and any(homogeneous or m[ncols] == 1 for m in minimals):
            break  # every least-norm solution is recorded by now
        nxt = []
        for t, val in frontier:
            if not any(val):
                continue
            for j in range(cols):
                if not homogeneous and j == ncols and t[ncols] >= 1:
                    continue  # never raise the counter past 1
                if sum(v * c for v, c in zip(val, columns[j])) >= 0:
                    continue
                t2 = list(t)
                t2[j] += 1
                t2 = tuple(t2)
                if t2 in seen:
                    continue
                if any(all(a <= b for a, b in zip(m, t2))
                       for m in by_entry.get((j, t2[j]), ())):
                    continue
                if bound is not None and sum(t2[:ncols]) > bound:
                    cut = True
                    continue
                seen.add(t2)
                nxt.append((t2, tuple(v + c for v, c in zip(val, columns[j]))))
        frontier = nxt
    if homogeneous:
        return sorted(minimals, key=vector_key), cut
    out = [m[:ncols] for m in minimals if m[ncols] == 1]
    return sorted(out, key=vector_key), cut


# ---------------------------------------------------------------------------
# Hilbert bases of constrained semigroups

def _unit_lattice(sg: ConstrainedSemigroup) -> tuple[ExponentVector, ...]:
    """HNF basis of the invertible part: lattice vectors supported on F."""
    K = sg.kernel_basis
    if not K:
        return ()
    conn = sg.constrained_coords()
    rows = [[K[k][i] for k in range(len(K))] for i in conn]
    coeffs = kernel_basis(rows, len(K))
    vecs = [[sum(c[k] * K[k][i] for k in range(len(K))) for i in range(sg.nvars)]
            for c in coeffs]
    return row_hnf(vecs, sg.nvars)


def _coset_minimal(vec: Sequence[int], units: Sequence[Sequence[int]]) -> ExponentVector:
    """Graded-lex least representative of vec modulo the unit lattice.

    The L1 norm is proper on every coset, so the minimum exists; candidates
    are enumerated through the triangular structure of the HNF basis.
    """
    if not units:
        return tuple(vec)
    start = hnf_reduce(units, vec)
    best = [vector_key(start)]
    pivots = [next(j for j, a in enumerate(row) if a) for row in units]
    bound = best[0][0]

    def descend(level: int, current: list[int], partial: int) -> None:
        if partial > best[0][0]:
            return
        if level == len(units):
            key = vector_key(current)
            if key < best[0]:
                best[0] = key
            return
        row = units[level]
        p = pivots[level]
        step = row[p]
        # |current[p] + k*step| <= bound caps k on both sides
        lo = -(bound + current[p]) // step
        hi = (bound - current[p]) // step
        for k in range(lo, hi + 1):
            cand = [a + k * b for a, b in zip(current, row)]
            descend(level + 1, cand, partial + abs(cand[p]))

    descend(0, list(start), 0)
    return best[0][1]


def _minimal_lifts(sg: ConstrainedSemigroup, units, a0) -> tuple[ExponentVector, ...]:
    """Minimal members of the coset a0 + L that are >= 0 on conn.

    The one search for chart generators (a0 = 0: the semigroup's
    irreducibles) and twist generators (a0 of degree d: the generators of
    its coset as a module).  The kernel of the projection pi to conn on L
    is the unit lattice, so modulo units the answer is the minimal points
    of (pi(a0) + P) in N^conn, P = pi(L).  With U P^T V = S in Smith form,
    b is in pi(a0) + P iff (U b)_j = (U pi(a0))_j mod s_j, which
    _congruences turns into equations whose minimal solutions are the
    minimal points; they are lifted through V, made coset-minimal and
    sorted graded-lex.
    """
    K = sg.kernel_basis
    conn = sg.constrained_coords()
    U, S, V = smith_normal_form([[v[i] for v in K] for i in conn])
    moduli = [S[j][j] if j < len(K) else 0 for j in range(len(conn))]
    rank = sum(1 for s in moduli if s)
    if len(units) != len(K) - rank:
        raise InvariantError(f"generators need a unit lattice of rank "
                             f"{len(K) - rank}, got {len(units)}")
    shift = [sum(u * a0[i] for u, i in zip(row, conn)) for row in U]
    rows, rhs, width = _congruences(U, moduli, shift, len(conn))
    sols = minimal_nonneg_solutions(rows, width, rhs if any(a0) else None)
    basis = [[sum(V[r][j] * K[r][i] for r in range(len(K))) for i in range(sg.nvars)]
             for j in range(rank)]
    lifts = []
    for sol in sols:
        vec = list(a0)
        for j in range(rank):
            q, rem = divmod(sum(u * b for u, b in zip(U[j], sol)) - shift[j], moduli[j])
            if rem:
                raise InvariantError(f"generator {sol[:len(conn)]} leaves the lattice")
            vec = [a + q * w for a, w in zip(vec, basis[j])]
        lifts.append(_coset_minimal(vec, units))
    return tuple(sorted(lifts, key=vector_key))


def hilbert_basis(sg: ConstrainedSemigroup):
    """Unit lattice basis and minimal generators of the pointed quotient.

    Returns (units_basis, generators): the semigroup is generated by the
    generators together with both signs of the units basis.  Generator
    representatives are the graded-lex least members of their unit cosets,
    listed in graded-lex order; the whole answer depends only on the
    lattice and the free coordinates, not on the presented basis.

    >>> sg = ConstrainedSemigroup(3, ((1, 1, -1),), frozenset({0, 1}))
    >>> hilbert_basis(sg)
    ((), ((-1, -1, 1),))
    >>> hilbert_basis(ConstrainedSemigroup(3, ((1, 1, -1),), frozenset({0, 1, 2})))
    (((1, 1, -1),), ())
    """
    units = _unit_lattice(sg)
    return units, _minimal_lifts(sg, units, (0,) * sg.nvars)


def semigroup_member(gens, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Nonnegative integer decomposition of target over the vectors gens.

    Coefficients are returned in the order of gens, None if there is no
    decomposition.  The answer is the graded-lex least decomposition, so
    it is minimal; it is found without enumerating the others.  Over a
    chart, pass its pool: the generators and both signs of the units.  The
    decision is exact, never heuristic.

    Three rules shrink the search first, none of which changes the answer:

    * lookup: a nonzero target equal to some gens[j] is decomposed as e_j
      for the last such j.  Norm one is least, and among the e_j the one
      whose 1 lies furthest right is lex-least.
    * duplicates: only the last copy of a repeated vector keeps a column.
      Moving a coefficient from an earlier copy to a later one keeps the
      norm and lowers the tuple, so the least answer is 0 on earlier copies.
    * sign caps: on a coordinate where every kept vector is >= 0, one whose
      entry exceeds the target's there has coefficient 0 in every
      decomposition; mirrored where every kept vector is <= 0.  The caps
      are applied again to the kept vectors until none is dropped.

    Zeros inserted at fixed positions keep both the norm and the lex
    order, so the least answer of the shrunken search, scattered back, is
    the least answer over all of gens.

    >>> semigroup_member([(1, 1, -1)], (2, 2, -2))
    (2,)
    >>> semigroup_member([(1, 1, -1)], (-1, -1, 1)) is None
    True

    Below, (1, 0) is repeated, so only its second copy is used, and (3, 0)
    is capped: every vector is >= 0 on the first coordinate, where 3 > 2.

    >>> semigroup_member([(1, 0), (0, 1), (1, 0), (3, 0)], (2, 1))
    (0, 1, 2, 0)
    >>> semigroup_member([(1, 0), (0, 1), (1, 0)], (1, 0))
    (0, 0, 1)
    """
    gens = [tuple(g) for g in gens]
    target = tuple(target)
    if any(target) and target in gens:
        last = len(gens) - 1 - gens[::-1].index(target)
        return tuple(int(j == last) for j in range(len(gens)))
    keep = sorted({g: j for j, g in enumerate(gens)}.values())
    while True:
        capped = set()
        for i, t in enumerate(target):
            entries = [gens[j][i] for j in keep]
            if min(entries, default=0) >= 0:
                capped.update(j for j in keep if gens[j][i] > t)
            if max(entries, default=0) <= 0:
                capped.update(j for j in keep if gens[j][i] < t)
        if not capped:
            break
        keep = [j for j in keep if j not in capped]
    rows = [[gens[j][i] for j in keep] for i in range(len(target))]
    sols = minimal_nonneg_solutions(rows, len(keep), rhs=list(target),
                                    least_only=True)
    if not sols:
        return None
    coeffs = [0] * len(gens)
    for j, c in zip(keep, sols[0]):
        coeffs[j] = c
    return tuple(coeffs)


def shifted_minimal_generators(spec, free_coords, d) -> tuple[ExponentVector, ...]:
    """Minimal degree-d Laurent monomials modulo the degree-zero semigroup.

    spec carries the grading (a RingSpec); free_coords tells which exponents
    may be negative.  The result generates {a : deg(a) = d, a >= 0 off
    free_coords} as a module over the degree-zero semigroup, one canonical
    representative per unit coset, graded-lex ordered.  Empty iff the
    solution set is empty; for d = 0 the answer is the zero vector alone.
    """
    free_coords = frozenset(free_coords)
    if d.is_zero():
        return ((0,) * len(spec.variables),)
    ok, a0 = subgroup_member(spec.group.subgroup(spec.degrees), d)
    if not ok:
        return ()
    sg = degree_zero_semigroup(spec, free_coords)
    return _minimal_lifts(sg, _unit_lattice(sg), a0)


def degree_zero_semigroup(spec, free_coords) -> ConstrainedSemigroup:
    """The degree-zero constrained semigroup of a grading."""
    return ConstrainedSemigroup(len(spec.variables), kernel_lattice(spec),
                                frozenset(free_coords))


def kernel_lattice(spec) -> tuple[ExponentVector, ...]:
    """HNF basis of {a in Z^n : sum a_i deg(x_i) = 0}.

    The kernel of the degree congruences, projected to the n exponent
    columns: each torsion column is fixed by the exponents.  A RingSpec
    computes it once, into its cache; any object with group, variables
    and degrees is accepted.
    """
    cache = getattr(spec, "cache", {})
    if "kernel" not in cache:
        n = len(spec.variables)
        rows, _, width = _degree_rows(spec, spec.group.zero())
        cache["kernel"] = row_hnf([row[:n] for row in kernel_basis(rows, width)], n)
    return cache["kernel"]


def _degree_rows(spec, d, extra=()):
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


def _congruences(rows, moduli, rhs, ncols):
    """Plain equations for row_j . x = rhs_j mod s_j, x >= 0: (rows, rhs, width).

    The one encoding of a congruence for the solver.  A row with s = 1 is
    dropped, a row with s = 0 stays an exact equation, and a row with
    s > 1 is reduced into [0, s), right-hand side included, and gets one
    -s column of its own.  On a reduced row that unknown is
    (row . x - rhs) / s, so it is >= 0, fixed by x and nondecreasing in
    x: the minimal solutions are minimal in x, and no filter is needed.

    >>> _congruences([[1, 1], [5, 7], [4, -1]], [0, 1, 3], [2, 9, 5], 2)
    ([[1, 1, 0], [1, 2, -3]], [2, 2], 3)
    """
    reduced = [j for j, s in enumerate(moduli) if s > 1]
    out, out_rhs = [], []
    for j, s in enumerate(moduli):
        if s != 1:
            out.append([a % s if s else a for a in rows[j]]
                       + [-s if t == j else 0 for t in reduced])
            out_rhs.append(rhs[j] % s if s else rhs[j])
    return out, out_rhs, ncols + len(reduced)
