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
coordinate.  Chart generators are the minimal nonzero points of the
lattice projected to the constrained coordinates.  Where that projection
is onto, they are the unit vectors, lifted by rows of a Hermite form;
else they are cut out by congruences read off a Smith form, one auxiliary
column per modulus.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import add, le, mul
from typing import Optional, Sequence

from projd.fgab import hnf_reduce, row_hnf, smith_normal_form

ExponentVector = tuple[int, ...]


class InvariantError(RuntimeError):
    """An internal consistency check failed: a fault of the engine, not of
    its input.  Raised explicitly so that it survives ``python -O``."""


def _frozen(self, name, *value):
    """__setattr__ and __delattr__ of an immutable value class.  Its
    __init__ writes the fields to the instance __dict__, as
    functools.cached_property writes the values it caches."""
    raise AttributeError(f"cannot assign to field {name!r}")


def vector_key(vec: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Graded-lex sort key: L1 norm first, then entries."""
    return (sum(map(abs, vec)), tuple(vec))


class ConstrainedSemigroup:
    """Vectors of a lattice with signs constrained off the free coordinates.

    kernel_basis spans the lattice L inside Z^nvars and is stored as its
    row HNF; coordinates listed in free_coords may go negative, all others
    must stay >= 0.  The units and generators are computed once, on first
    use; the semigroup is generated by the generators and both signs of
    the units.

    The units are the vectors of L that are zero off free_coords.  The
    generators are read off a Hermite form of L when L projects onto the
    constrained coordinates, else found by the search hilbert_basis, which
    takes its own Smith form: nothing else of the semigroup needs one.
    """

    def __init__(self, nvars: int, kernel_basis: tuple[ExponentVector, ...],
                 free_coords: frozenset[int] = frozenset()):
        for v in kernel_basis:
            if len(v) != nvars:
                raise ValueError("kernel basis vector of wrong length")
        if any(i < 0 or i >= nvars for i in free_coords):
            raise ValueError("free coordinate out of range")
        self.__dict__.update(nvars=nvars, kernel_basis=row_hnf(kernel_basis, nvars),
                             free_coords=free_coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.nvars, self.kernel_basis, self.free_coords)
                == (other.nvars, other.kernel_basis, other.free_coords))

    def __hash__(self):
        return hash((self.nvars, self.kernel_basis, self.free_coords))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(nvars={self.nvars!r}, "
                f"kernel_basis={self.kernel_basis!r}, free_coords={self.free_coords!r})")

    __setattr__ = __delattr__ = _frozen

    @cached_property
    def constrained_coords(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.nvars) if i not in self.free_coords)

    def contains(self, vec: Sequence[int]) -> bool:
        """Exact membership: lattice equations plus sign constraints."""
        if any(vec[i] < 0 for i in self.constrained_coords):
            return False
        return not any(hnf_reduce(self.kernel_basis, vec))

    @cached_property
    def _hermite(self) -> tuple[ExponentVector, ...]:
        """Row HNF of L with the constrained columns first (Cohen 1993,
        section 2.4), its columns put back in place.  The rows nonzero on
        the constrained columns come first; units and generators read it."""
        order = (*self.constrained_coords, *sorted(self.free_coords))
        hnf = row_hnf([[v[i] for i in order] for v in self.kernel_basis], self.nvars)
        back = sorted(range(self.nvars), key=order.__getitem__)  # column i is at back[i]
        return tuple(tuple([r[p] for p in back]) for r in hnf)

    @cached_property
    def units(self) -> tuple[ExponentVector, ...]:
        """HNF basis of the invertible part: lattice vectors supported on F.

        In the row HNF of L with the constrained columns first, the rows
        that are zero on those columns span them.  With the columns put
        back they are a row HNF already, as the free columns keep their
        order.
        """
        conn = self.constrained_coords
        return tuple(r for r in self._hermite if not any(r[i] for i in conn))

    @cached_property
    def generators(self) -> tuple[ExponentVector, ...]:
        """Minimal generators of the pointed quotient; see hilbert_basis.

        Read off the Hermite form when the projection pi of L to the k
        constrained coordinates is onto Z^k, else searched by
        hilbert_basis.  pi(L) = Z^k exactly when k rows of the form are
        nonzero on the constrained columns and each has pivot 1: the form
        is echelon, so those pivots sit on the k constrained columns in
        turn, and the entries above a pivot 1 are reduced to 0, so the
        constrained block is the identity.
        Row j then lifts e_j.  The kernel of pi on L is the unit lattice,
        so modulo units the semigroup is pi(L) meet N^k = N^k, whose
        minimal nonzero points are the unit vectors.  The generators are
        therefore those k rows made coset-minimal and sorted graded-lex:
        the answer of hilbert_basis, which finds the same minimal points
        and takes the same representatives.
        """
        conn = self.constrained_coords
        head = [r for r in self._hermite if any(r[i] for i in conn)]
        if len(head) == len(conn) and all(r[i] == 1 for i, r in zip(conn, head)):
            units = _checked_units(self, len(conn))
            return tuple(sorted((_coset_minimal(r, units) for r in head), key=vector_key))
        return hilbert_basis(self)[1]

    @cached_property
    def pool(self) -> tuple[ExponentVector, ...]:
        """Generators plus both signs of the unit basis."""
        return (*self.generators, *self.units, *(tuple(-a for a in u) for u in self.units))

    @cached_property
    def sorted_pool(self) -> tuple[ExponentVector, ...]:
        """The pool in vector_key order.  It has no repeats: generators are
        nonzero off free_coords, units are zero there and independent."""
        return tuple(sorted(self.pool, key=vector_key))


# ---------------------------------------------------------------------------
# Contejean-Devie completion

def minimal_nonneg_solutions(rows: Sequence[Sequence[int]], ncols: int,
                             rhs: Optional[Sequence[int]] = None,
                             least_by: Optional[int] = None) -> list[ExponentVector]:
    """Minimal solutions of rows @ x = rhs with x >= 0 integral.

    With rhs omitted this is the Hilbert basis of the solution monoid,
    excluding zero.  With rhs given, the system is homogenized with a
    counter coordinate forced to 1, and the returned vectors are exactly
    the minimal inhomogeneous solutions: for a zero rhs, zero alone.

    least_by = p returns only the least solution, found without listing
    the others: the least by (x_p, vector_key(x[:p])) for p < ncols, and
    the graded-lex least for p = ncols.  It needs rhs: without one it
    raises ValueError.  See _contejean_devie.

    >>> minimal_nonneg_solutions([[1, 2]], 2, rhs=[4])
    [(0, 2), (2, 1), (4, 0)]
    >>> minimal_nonneg_solutions([[1, 2]], 2, rhs=[4], least_by=2)
    [(0, 2)]
    >>> minimal_nonneg_solutions([[1, 2]], 2, rhs=[4], least_by=1)
    [(4, 0)]
    """
    return _contejean_devie(rows, ncols, rhs, least_by=least_by)[0]


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


def _contejean_devie(rows, ncols, rhs=None, bound=None, least_by=None):
    """The search behind minimal_nonneg_solutions: (solutions, cut).

    Only rhs None is homogeneous: a given zero rhs has the one minimal
    solution 0, answered with no search.  Besides the Contejean-Devie
    rules, one cap stops the search early.  A vector t has the key
    (t_p, |t[:p]|) for a lead column p = least_by < ncols, and
    (0, |t[:ncols]|) otherwise.  A vector whose key exceeds the cap is
    never explored, and cut says whether any was that is neither a
    repeat nor dominated.  Once cut is set, a step past the
    cap is dropped before it is built: the least mode stops building the
    extensions of its last level at the first one it cuts.  The cap is
    (0, bound) for a bounded search.  In the least mode (least_by and rhs
    given, no bound) it is the key of the least solution recorded so
    far, least by (key, x) with x = t[:ncols]; only that solution is
    returned.  The least mode loses nothing:

    * steps only raise coordinates, so keys never fall along a path: no
      extension of a vector past the cap has a key within it.
    * no solution's key is below the least minimal solution's: taking
      away counter-0 minimal solutions while one lies below a solution s
      leaves a minimal solution m <= s with counter 1, whose key is no
      greater than s's.  So the cap never falls below that key.
    * the search reaches the least minimal solution s* through vectors
      t <= s*, whose keys are no greater than its own, so none of them
      is dropped, and s* is recorded.  A vector with the cap's own key is
      kept: it may lead to an x with the same key that is lex smaller.
    """
    if least_by is not None and rhs is None:
        raise ValueError("the least mode needs a right-hand side")
    if rhs is not None and not any(rhs):
        return [(0,) * ncols], False
    p = ncols if least_by is None else min(least_by, ncols)
    homogeneous = rhs is None
    columns = [tuple(row[j] for row in rows) for j in range(ncols)]
    if not homogeneous:
        columns.append(tuple(-b for b in rhs))
    # a frontier vector t carries dots_j = <A t, A e_j> for every column j,
    # and t + e_j carries dots + gram[j].  A t lies in the span of the
    # columns, so it is zero exactly when every dot is.
    gram = [tuple(sum(map(mul, c, d)) for d in columns) for c in columns]
    # t + e_j has the key of t plus (j == lead, j < p)
    lead = p if p < ncols else -1

    cut = False
    cap = None if bound is None else (0, bound)
    best = None  # least mode: the least (key, x) recorded
    minimals: list[tuple[int, ...]] = []
    # minimals by (coordinate, value): a frontier vector t dominates no
    # minimal, so t + e_j can only dominate a minimal m with m_j = t_j + 1
    by_entry: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    frontier = []  # (t, dots, key of t)
    for j, dots in enumerate(gram):
        t = (0,) * j + (1,) + (0,) * (len(gram) - j - 1)
        key = (int(j == lead), int(j < p))
        if cap is not None and key > cap:
            cut = True
            continue
        frontier.append((t, dots, key))
    while frontier:
        # record the whole level before extending any of it, so that no
        # vector on the next frontier dominates a recorded minimal; a
        # solution on the frontier is then minimal.  Counter 0 solutions
        # are recorded too: pruning against them is what bounds the
        # search, they are filtered on return.
        for t, dots, key in frontier:
            if not any(dots):
                minimals.append(t)
                for i, a in enumerate(t):
                    if a:
                        by_entry.setdefault((i, a), []).append(t)
                if least_by is not None and t[ncols] == 1:
                    if best is None or (key, t[:ncols]) < best:
                        best = key, t[:ncols]
                        cap = key
        # a step raises |t| by one, so only the level being built can repeat
        nxt = {}
        for t, dots, (lead_t, norm) in frontier:
            if not any(dots):
                continue
            for j, dot in enumerate(dots):
                if dot >= 0 or j == ncols and t[j]:
                    continue  # never raise the counter past 1
                key2 = (lead_t + (j == lead), norm + (j < p))
                if cut and key2 > cap:
                    continue
                t2 = t[:j] + (t[j] + 1,) + t[j + 1:]
                if t2 in nxt or any(all(map(le, m, t2))
                                     for m in by_entry.get((j, t2[j]), ())):
                    continue
                if cap is not None and key2 > cap:
                    cut = True
                    continue
                nxt[t2] = tuple(map(add, dots, gram[j])), key2
        frontier = [(t, dots, key) for t, (dots, key) in nxt.items()]
    if least_by is not None:
        return [best[1]] if best else [], cut
    if homogeneous:
        return sorted(minimals, key=vector_key), cut
    out = [m[:ncols] for m in minimals if m[ncols] == 1]
    return sorted(out, key=vector_key), cut


# ---------------------------------------------------------------------------
# Hilbert bases of constrained semigroups

def _coset_minimal(vec: Sequence[int], units: Sequence[Sequence[int]]) -> ExponentVector:
    """Graded-lex least representative of vec modulo the unit lattice.

    The L1 norm is proper on every coset, so the minimum exists.  A
    candidate is vec plus one multiple of each row of the HNF basis, chosen
    row by row.  A row is zero left of its pivot, so the rows after it
    leave its pivot entry alone: the sizes of the pivot entries chosen so
    far bound the final norm from below.  Each row tries its multiples in
    two runs, up from the first that makes its pivot entry positive and
    down from the one before, so the entry grows in size along a run; a
    run stops once the bound passes the best norm found so far.  At the
    last row every entry is fixed, and the norm is convex in the multiple,
    so a run there also stops once the norm is above the best and has
    stopped falling.  A norm equal to the best goes on, since keys compare
    (norm, vector).
    """
    if not units:
        return tuple(vec)
    start = hnf_reduce(units, vec)
    best = vector_key(start)
    pivots = [next(j for j, a in enumerate(row) if a) for row in units]
    last = len(units) - 1

    def descend(level: int, current: list[int], partial: int) -> None:
        nonlocal best
        row = units[level]
        p = pivots[level]
        step = row[p]
        first = -current[p] // step + 1  # least k with current[p] + k*step > 0
        for run in (itertools.count(first), itertools.count(first - 1, -1)):
            before = None
            for k in run:
                bound = partial + abs(current[p] + k * step)
                if bound > best[0]:
                    break
                nxt = [a + k * b for a, b in zip(current, row)]
                if level < last:
                    descend(level + 1, nxt, bound)
                    continue
                key = vector_key(nxt)
                if key < best:
                    best = key
                elif key[0] > best[0] and before is not None and key[0] >= before:
                    break
                before = key[0]

    descend(0, list(start), 0)
    return best[1]


def _checked_units(sg: ConstrainedSemigroup, rank: int) -> tuple[ExponentVector, ...]:
    """sg.units, checked to have rank rank L - rank, for rank that of the
    projection pi(L): a smaller unit lattice is a fault of the engine,
    raised under -O too."""
    units, want = sg.units, len(sg.kernel_basis) - rank
    if len(units) != want:
        raise InvariantError(f"generators need a unit lattice of rank {want}, "
                             f"got {len(units)}")
    return units


def hilbert_basis(sg: ConstrainedSemigroup):
    """Unit lattice basis and minimal generators of the pointed quotient.

    Returns (units_basis, generators): the semigroup is generated by the
    generators together with both signs of the units basis.  Generator
    representatives are the graded-lex least members of their unit cosets,
    listed in graded-lex order; the whole answer depends only on the
    lattice and the free coordinates, not on the presented basis.

    The one search for chart generators, the minimal nonzero members of L
    that are >= 0 on the constrained coordinates conn.  The kernel of the
    projection pi to conn on L is the unit lattice, so modulo units the
    answer is the minimal nonzero points of P = pi(L) in N^conn.  With
    U P V = S in Smith form, taken here and cached nowhere, b is in P iff
    (U b)_j = 0 mod s_j, which _congruences turns into homogeneous
    equations whose minimal solutions are those points; they are lifted
    through V, whose columns hold coefficients on the basis of L, made
    coset-minimal and sorted graded-lex.

    >>> sg = ConstrainedSemigroup(3, ((1, 1, -1),), frozenset({0, 1}))
    >>> hilbert_basis(sg)
    ((), ((-1, -1, 1),))
    >>> hilbert_basis(ConstrainedSemigroup(3, ((1, 1, -1),), frozenset({0, 1, 2})))
    (((1, 1, -1),), ())
    """
    K = sg.kernel_basis
    conn = sg.constrained_coords
    U, S, V = smith_normal_form([[v[i] for v in K] for i in conn])
    moduli = [S[j][j] if j < len(K) else 0 for j in range(len(conn))]
    rank = sum(1 for s in moduli if s)
    units = _checked_units(sg, rank)
    lifts = [[sum(map(mul, c, column)) for column in zip(*K)]
             for c in list(zip(*V))[:rank]]
    rows, _, width = _congruences(U, moduli, [0] * len(U), len(conn))
    out = []
    for sol in minimal_nonneg_solutions(rows, width):
        vec = [0] * sg.nvars
        for j in range(rank):
            q, rem = divmod(sum(map(mul, U[j], sol)), moduli[j])
            if rem:
                raise InvariantError(f"generator {sol[:len(conn)]} leaves the lattice")
            vec = [a + q * w for a, w in zip(vec, lifts[j])]
        out.append(_coset_minimal(vec, units))
    return units, tuple(sorted(out, key=vector_key))


def semigroup_member(gens, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Nonnegative integer decomposition of target over the vectors gens.

    Coefficients are returned in the order of gens, None if there is no
    decomposition.  The answer is the graded-lex least decomposition, so
    it is minimal; it is found without enumerating the others.  Over a
    chart, pass its pool: the generators and both signs of the units.  The
    decision is exact, never heuristic.

    Two rules shrink the search first, neither of which changes the answer:

    * duplicates: only the last copy of a repeated vector keeps a column.
      Moving a coefficient from an earlier copy to a later one keeps the
      norm and lowers the tuple, so the least answer is 0 on earlier copies.
    * sign caps: on a coordinate where every kept vector is >= 0, one whose
      entry exceeds the target's there has coefficient 0 in every
      decomposition; mirrored where every kept vector is <= 0.  The caps
      are applied again to the kept vectors until none is dropped.

    Zeros inserted at fixed positions keep both the norm and the lex
    order, so the least answer of the shrunken search, scattered back, is
    the least answer over all of gens.  When the caps drop every vector, a
    nonzero target has no decomposition, and None is returned with no
    search: the 1, 1 and 4 targets that separation.mu_surjective passes
    it on the L7, L8 and L9 ladder rungs all end here.

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
    keep = sorted({g: j for j, g in enumerate(gens)}.values())
    # without the caps, `separated` takes 36 ms in place of 25 on L7 and
    # 1.8 s in place of 0.06 s on L8, and L9 runs out of 1 GiB (in process,
    # median of 7, 2-core Xeon); `intersect` searches either way
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
    if not keep and any(target):
        return None
    rows = [[gens[j][i] for j in keep] for i in range(len(target))]
    sols = minimal_nonneg_solutions(rows, len(keep), rhs=list(target),
                                    least_by=len(keep))
    if not sols:
        return None
    coeffs = [0] * len(gens)
    for j, c in zip(keep, sols[0]):
        coeffs[j] = c
    return tuple(coeffs)


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


# ---------------------------------------------------------------------------
# Rational sign systems

def _eliminate(rows, width: int) -> bool:
    """Whether some c in Q^width has r . c >= 0 for each (r, False) in rows
    and r . c > 0 for each (r, True).

    Fourier-Motzkin elimination, fraction-free, of c_0, c_1, ... in turn.
    Eliminating c_j keeps the rows with r_j = 0 and adds -s_j r + r_j s
    for each r with r_j > 0 and s with s_j < 0, strict if either is: the
    new system has a solution exactly when the old one has one for some
    c_j (Motzkin).  Rows are kept divided by their gcd, once each, strict
    if any copy is.  A row that is zero everywhere is dropped, or refutes
    the system when strict, so no row is left once every c_j is
    eliminated.  Elimination can square the number of rows at each step.
    Three callers pose r = rank D unknowns over the free degree matrix:
    separation._weak, separation._outside_cones and sheaves._is_pointed.
    On pointedness at r = 5 with 14 variables (40 seeded draws, entries
    -2..3, 2-core Xeon) it ran past 10 s on one draw that a least-mode
    solver search answers in 4 ms, and answered in at most 7.3 s the 7
    that the search did not answer in 10 s.
    """
    system: dict[tuple[int, ...], bool] = {}
    new = rows  # rows not yet divided by their gcd: the input, then each step's
    for j in range(width + 1):
        for r, strict in new:
            k = math.gcd(*r)
            if k:
                if k > 1:
                    r = tuple([a // k for a in r])
                system[r] = system.get(r, False) or strict
            elif strict:
                return False
        if j == width:
            return True
        above, below, kept = [], [], {}
        for r, strict in system.items():
            if r[j] > 0:
                above.append((r, strict))
            elif r[j] < 0:
                below.append((r, strict))
            else:
                kept[r] = strict
        new = []
        for r, r_strict in above:
            for s, s_strict in below:
                new.append((tuple([-s[j] * a + r[j] * b for a, b in zip(r, s)]),
                            r_strict or s_strict))
        system = kept
