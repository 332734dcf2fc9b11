"""Brute-force reference computations shared by the test modules.

Everything here is deliberately naive: exhaustive box enumeration, rational
Gaussian elimination, textbook determinants.  The point is independence from
the library's own lattice machinery.  It also holds the checks of paper
claims that no projd command runs: the prime-collision scan, the
Veronese-scaled spec, the twist module generators and the twist-product
audit; and the primal form of the weak-pair criterion, a glue vector
found in a product chart's units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul


def det(mat):
    """Determinant by cofactor expansion (exact, small matrices only)."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det(minor)
    return total


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def rational_solve(mat, rhs):
    """Any rational solution of mat @ x = rhs, or None (free variables -> 0)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [a / A[r][c] for a in A[r]]
        for i in range(m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if A[i][n]:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = A[i][n]
    return x


def in_lattice(basis, vec):
    """vec lies in the integer row span of basis (rows independent)."""
    if not basis:
        return all(a == 0 for a in vec)
    n = len(vec)
    A = [[basis[k][i] for k in range(len(basis))] for i in range(n)]
    x = rational_solve(A, list(vec))
    return x is not None and all(a.denominator == 1 for a in x)


def box(n, lo, hi):
    """All integer vectors of length n with entries in [lo, hi]."""
    return itertools.product(range(lo, hi + 1), repeat=n)


def lattice_tester(rows):
    """Fast membership closure for the integer row span (independent rows).

    Same decision as in_lattice, but the k x k inversion work happens once:
    coordinates are recovered through the adjugate on a pivot column set,
    then verified against every coordinate.
    """
    if not rows:
        return lambda vec: not any(vec)
    k = len(rows)
    n = len(rows[0])
    pivot_cols = None
    for cols in itertools.combinations(range(n), k):
        square = [[rows[i][j] for j in cols] for i in range(k)]
        d = det(square)
        if d:
            pivot_cols = cols
            break
    if pivot_cols is None:
        raise ValueError("rows are rationally dependent")

    def cofactor(i, j):
        minor = [[square[a][b] for b in range(k) if b != j]
                 for a in range(k) if a != i]
        return (-1) ** (i + j) * det(minor)

    # coefficients solve transpose(square) @ c = rhs, so the cofactor
    # matrix of square (adjugate of its transpose) recovers d * c
    adj = [[cofactor(i, j) for j in range(k)] for i in range(k)]

    def member(vec):
        rhs = [vec[j] for j in pivot_cols]
        scaled = [sum(adj[i][j] * rhs[j] for j in range(k)) for i in range(k)]
        if any(s % d for s in scaled):
            return False
        coeff = [s // d for s in scaled]
        return all(sum(coeff[i] * rows[i][j] for i in range(k)) == vec[j]
                   for j in range(n))

    return member


def brute_combination(gens, target, bound):
    """Integer coefficients in [-bound, bound] recombining to target, or None."""
    k = len(gens)
    n = len(target)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        vec = [sum(coeffs[j] * gens[j][i] for j in range(k)) for i in range(n)]
        if vec == list(target):
            return coeffs
    return None


# ---------------------------------------------------------------------------
# earlier exhaustive forms of library fast paths, kept as references

def contejean_devie_by_generators(rows, ncols, rhs=None, least_only=False, bound=None):
    """diophantine._contejean_devie in its earlier form: (solutions, cut).

    The same search, step for step, with the value A t carried in place of
    its dot products: every candidate extension takes the dot product of A t
    with the column anew, and least_only rescans every minimal at each level.
    Shares no code with the library, so the oracles below that need minimal
    solutions stay apart from the kernel they check.
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
    minimals = []
    # minimals by (coordinate, value): a frontier vector t dominates no
    # minimal, so t + e_j can only dominate a minimal m with m_j = t_j + 1
    by_entry = {}
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
        for t, val in frontier:
            if not any(val):
                minimals.append(t)
                for i, a in enumerate(t):
                    if a:
                        by_entry.setdefault((i, a), []).append(t)
        if least_only and any(homogeneous or m[ncols] == 1 for m in minimals):
            break
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
    if not homogeneous:
        minimals = [m[:ncols] for m in minimals if m[ncols] == 1]
    return sorted(minimals, key=lambda v: (sum(abs(a) for a in v), v)), cut


def full_enumeration_member(gens, target):
    """Graded-lex least of *all* minimal decompositions of target, or None."""
    gens = [tuple(g) for g in gens]
    target = tuple(target)
    if not any(target):
        return (0,) * len(gens)
    if not gens:
        return None
    rows = [[g[i] for g in gens] for i in range(len(target))]
    sols = contejean_devie_by_generators(rows, len(gens), rhs=list(target))[0]
    return sols[0] if sols else None


def semigroup_member_by_search(gens, target):
    """semigroup_member without shrinking the pool: one least-norm search
    over every column."""
    gens = [tuple(g) for g in gens]
    rows = [[g[i] for g in gens] for i in range(len(target))]
    sols = contejean_devie_by_generators(rows, len(gens), rhs=list(target),
                                         least_only=True)[0]
    return sols[0] if sols else None


def coset_minimal_by_box(vec, units):
    """Graded-lex least representative of vec modulo the unit lattice.

    The L1 norm is proper on every coset, so the minimum exists; candidates
    are enumerated through the triangular structure of the HNF basis.

    The former diophantine._coset_minimal, kept as the reference: every
    level tries each multiple allowed by the starting norm.
    """
    from projd.diophantine import vector_key
    from projd.fgab import hnf_reduce

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


def subgroup_index_by_smith(group, sub):
    """[group : sub] from the Smith diagonal of the lifted generators plus
    torsion relations; math.inf below full rank."""
    from projd.fgab import smith_normal_form

    if group.dim == 0:
        return 1
    rows = [list(g.lift()) for g in sub.generators] + group.torsion_relation_rows()
    if not rows:
        return math.inf
    _, S, _ = smith_normal_form(rows)
    diag = [S[i][i] for i in range(min(len(rows), group.dim))]
    if sum(1 for d in diag if d) < group.dim:
        return math.inf
    return math.prod(diag)


def solve_linear_by_smith(mat, rhs, ncols):
    """One integer solution x of mat @ x = rhs, or None: with U mat V = S
    in Smith form, solve S y = U rhs entry by entry and return V y."""
    from projd.fgab import smith_normal_form

    m = len(mat)
    if ncols == 0:
        return None if any(rhs) else []
    if m == 0:
        return [0] * ncols
    U, S, V = smith_normal_form(mat)
    c = mat_vec(U, rhs)
    y = [0] * ncols
    for i in range(m):
        d = S[i][i] if i < ncols else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return mat_vec(V, y)


def kernel_basis_by_smith(mat, ncols):
    """HNF basis of {x : mat @ x = 0}: the columns of V past the rank of
    the Smith form U mat V = S."""
    from projd.fgab import row_hnf, smith_normal_form

    if ncols == 0:
        return ()
    if not mat:
        return row_hnf([[int(i == j) for j in range(ncols)] for i in range(ncols)], ncols)
    _, S, V = smith_normal_form(mat)
    rank = sum(1 for i in range(min(len(mat), ncols)) if S[i][i])
    return row_hnf([[V[i][j] for i in range(ncols)] for j in range(rank, ncols)], ncols)


def chart_index(sg):
    """[Z^k : pi(L)] for the projection pi of the chart's lattice L to its
    k constrained coordinates: the product of the Smith invariant factors
    of pi, 0 below full rank.  A chart of index 1 reads its generators off
    its Hermite form; every other chart searches for them."""
    from projd.fgab import smith_normal_form

    basis = sg.kernel_basis
    conn = [i for i in range(sg.nvars) if i not in sg.free_coords]
    _, S, _ = smith_normal_form([[v[i] for v in basis] for i in conn])
    return math.prod(S[j][j] if j < len(basis) else 0 for j in range(len(conn)))


def units_by_smith_kernel(sg):
    """sg.units, computed apart from it: the vectors of the lattice zero
    off the free coordinates, as the kernel of the projection to the
    others, taken by kernel_basis_by_smith on the basis coefficients and
    lifted through the basis."""
    from projd.fgab import row_hnf

    basis, n = sg.kernel_basis, sg.nvars
    conn = [i for i in range(n) if i not in sg.free_coords]
    coeffs = kernel_basis_by_smith([[v[i] for v in basis] for i in conn], len(basis))
    return row_hnf([[sum(c * v[i] for c, v in zip(row, basis)) for i in range(n)]
                    for row in coeffs], n)


def lattice_intersection(rows1, rows2, width):
    """HNF basis of the intersection of two row spans inside Z^width: the
    kernel of [rows1^T | -rows2^T] mapped through rows1."""
    from projd.fgab import row_hnf

    if not rows1 or not rows2:
        return ()
    k1 = len(rows1)
    A = [[rows1[k][i] for k in range(k1)] + [-r[i] for r in rows2] for i in range(width)]
    K = kernel_basis_by_smith(A, k1 + len(rows2))
    return row_hnf([[sum(row[k] * rows1[k][i] for k in range(k1)) for i in range(width)]
                    for row in K], width)


def subgroup_intersection(h1, h2):
    """Subgroup generated by the intersection of h1 and h2, from the
    intersection of their lifted lattices (torsion relations included)."""
    group = h1.group
    rows = lattice_intersection(h1._hnf, h2._hnf, group.dim)
    return group.subgroup([group.from_lift(row) for row in rows])


def reducible_by_smith(relations, a, exponent):
    """Some e * a, 1 <= e <= exponent, lies in the integer span of the
    other relations: decided by a Smith-form solve in Z^n."""
    others = [r for r in relations if r != a]
    A = [[r[i] for r in others] for i in range(len(a))]
    return any(solve_linear_by_smith(A, [e * v for v in a], len(others)) is not None
               for e in range(1, exponent + 1))


def mu_audit_by_search(spec, f, g):
    """The weak-pair audit with a membership search for every target.

    Every generator and unit of the product chart, in vector_key order, goes
    through semigroup_member over the union of the two factor pools; the
    first with no decomposition is the witness.  Returns (weak, witness,
    decompositions), the decompositions of the targets before the witness.
    """
    from projd.charts import chart_algebra
    from projd.diophantine import semigroup_member, vector_key

    f, g = spec.relevant_monomial(f), spec.relevant_monomial(g)
    pool = chart_algebra(spec, f).pool + chart_algebra(spec, g).pool
    decompositions = []
    for target in sorted(set(chart_algebra(spec, f * g).pool), key=vector_key):
        coeffs = semigroup_member(pool, target)
        if coeffs is None:
            return True, target, tuple(decompositions)
        decompositions.append((target, coeffs))
    return False, None, tuple(decompositions)


def glue_vector_by_units(chart_fg, f_support, g_support):
    """A unit w of chart_fg with w >= 0 on F - G and w < 0 on G - F, for
    the supports F and G, or None if there is none: the primal form of
    the weakness criterion of separation.mu_surjective, which asks the
    dual form over the free degree matrix.

    Only the units are read.  A rational solution c of the sign
    conditions on w = sum c_j units_j, times a positive integer, is an
    integer one, so the question is decided over c by _cone_point, in
    integers.  With no coordinate in G - F, w = 0 qualifies; with one
    unit row u, w is a multiple of u, so u or -u qualifies if any does.
    """
    only_f, only_g = f_support - g_support, g_support - f_support
    if not only_g:
        return (0,) * chart_fg.nvars
    units = chart_fg.units
    if len(units) == 1:
        for w in (units[0], tuple(-a for a in units[0])):
            if all(w[i] >= 0 for i in only_f) and all(w[i] < 0 for i in only_g):
                return w
        return None
    rows = [(tuple([u[i] for u in units]), False) for i in only_f]
    rows += [(tuple([-u[i] for u in units]), True) for i in only_g]
    c = _cone_point(rows, len(units))
    if c is None:
        return None
    w = [0] * chart_fg.nvars
    for k, u in zip(c, units):
        w = [a + k * b for a, b in zip(w, u)]
    return tuple(w)


def _cone_point(rows, width):
    """An integer c with r . c >= 0 for each (r, False) in rows and
    r . c > 0 for each (r, True), or None if there is none.

    The system is eliminated by _eliminate_in_stages.  Back substitution,
    last eliminated first, picks each c_j between the bounds that the rows
    with r_j != 0 put on it: the values picked so far are first scaled by
    twice the lcm of those |r_j|, which keeps every row true and makes
    every bound an even integer, so their midpoint is an integer.  The
    system is homogeneous, so c is divided by its gcd.
    """
    stages = _eliminate_in_stages(rows, width)
    if stages is None:
        return None
    c = [0] * width
    for j in reversed(range(width)):
        if not stages[j]:
            continue
        scale = 2 * math.lcm(*[abs(r[j]) for r in stages[j]])
        c = [scale * v for v in c]
        bounds = [(r[j] > 0, -sum(map(mul, r, c)) // r[j]) for r in stages[j]]
        low = max((b for lower, b in bounds if lower), default=None)
        high = min((b for lower, b in bounds if not lower), default=None)
        c[j] = (low + 1 if high is None else high - 1 if low is None
                else (low + high) // 2)
    k = math.gcd(*c)
    return [v // k for v in c] if k else c


def _eliminate_in_stages(rows, width):
    """For each j, the rows with r_j != 0 when c_j is eliminated from the
    system of _cone_point, or None if it has no solution.

    Fourier-Motzkin elimination, fraction-free, of c_0, c_1, ... in turn.
    Eliminating c_j keeps the rows with r_j = 0 and adds -s_j r + r_j s
    for each r with r_j > 0 and s with s_j < 0, strict if either is: the
    new system has a solution exactly when the old one has one for some
    c_j (Motzkin).  Rows are kept divided by their gcd, once each, strict
    if any copy is; a row that is zero everywhere is false only when
    strict.
    """
    system = {}
    for r, strict in rows:
        if any(r):
            system[r] = system.get(r, False) or strict
        elif strict:
            return None
    stages = []
    for j in range(width):
        above, below, kept = [], [], {}
        for r, strict in system.items():
            if r[j] > 0:
                above.append((r, strict))
            elif r[j] < 0:
                below.append((r, strict))
            else:
                kept[r] = strict
        stages.append([r for r, _ in above + below])
        for r, r_strict in above:
            for s, s_strict in below:
                v = tuple([-s[j] * a + r[j] * b for a, b in zip(r, s)])
                k = math.gcd(*v)
                if k:
                    v = tuple([a // k for a in v])
                    kept[v] = kept.get(v, False) or r_strict or s_strict
                elif r_strict or s_strict:
                    return None
        system = kept
    return stages


def maximal_independent_sets_scan(count, edges):
    """Maximal independent sets by scanning all subsets, largest first."""
    edges = [frozenset(e) for e in edges]
    found = []
    for size in range(count, -1, -1):
        for combo in itertools.combinations(range(count), size):
            chosen = frozenset(combo)
            if any(e <= chosen for e in edges):
                continue
            if any(chosen < big for big in found):
                continue
            found.append(chosen)
    return found


def v_plus_by_subset_scan(spec, ideal):
    """v_plus by scanning every variable subset in size-then-index order:
    a subset meeting every support and containing no subset found before
    is a minimal prime; those containing the irrelevant ideal are dropped."""
    from projd.charts import MonomialPrime

    supports = [spec.monomial(m).support for m in ideal]
    gens = spec.irrelevant_generators()
    found = []
    for size in range(len(spec.variables) + 1):
        for combo in itertools.combinations(range(len(spec.variables)), size):
            s = set(combo)
            if not any(set(q) <= s for q in found) and all(s & supp for supp in supports):
                found.append(combo)
    return tuple(MonomialPrime(q) for q in found
                 if not (gens and all(g.support & set(q) for g in gens)))


def first_equal_pair(items, images):
    """The pair (items[i], items[j]), i < j, with equal images and least (i, j)."""
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if images[i] == images[j]:
                return (items[i], items[j])
    return None


def psi_collision_scan(spec, f):
    """First pair of primes with equal images on the f-chart, else "injective".

    Scans every monomial prime avoiding supp(f) that does not contain the
    whole irrelevant ideal, in size-then-index order.
    """
    from projd.charts import MonomialPrime, _contains_irrelevant, psi_image

    f = spec.monomial(f)
    n = len(spec.variables)
    gens = spec.irrelevant_generators()
    outside = [i for i in range(n) if i not in f.support]
    primes = []
    for size in range(len(outside) + 1):
        for combo in itertools.combinations(outside, size):
            if not _contains_irrelevant(gens, set(combo)):
                primes.append(MonomialPrime(combo))
    # the earliest prime sharing its image with a later one opens the first
    # image class (in scan order) of size two or more
    classes = {}
    for p in primes:
        classes.setdefault(psi_image(spec, f, p), []).append(p)
    for same in classes.values():
        if len(same) > 1:
            return (same[0], same[1])
    return "injective"


def is_pointed_by_search(spec):
    """sheaves._is_pointed in its earlier form: no nonzero x >= 0 solves
    the free degree equations, decided by a least-only Contejean-Devie
    search for one such x (contejean_devie_by_generators)."""
    n = len(spec.variables)
    rows = [[deg.free[r] for deg in spec.degrees] for r in range(spec.group.rank)]
    return not contejean_devie_by_generators(rows, n, least_only=True)[0]


def bounded_degree_scan(spec, d, bound):
    """Every exponent vector of total degree <= bound and degree d, graded-lex."""
    n = len(spec.variables)
    found = []
    for vec in itertools.product(range(bound + 1), repeat=n):
        if sum(vec) > bound:
            continue
        deg = spec.group.zero()
        for e, g in zip(vec, spec.degrees):
            deg = deg + e * g
        if deg == d:
            found.append(vec)
    return sorted(found, key=lambda v: (sum(v), v))


def relevance_via_components(spec, mono):
    """Relevance decided through the free rank of the support degrees.

    Torsion never obstructs finite index, so f is relevant exactly when
    the free parts of its support degrees have full rank.  Kept separate
    from the index criterion so the two can be cross checked.
    """
    from projd.fgab import row_hnf

    rows = [spec.degrees[i].lift() for i in sorted(mono.support)]
    hnf = row_hnf(rows, spec.group.dim)
    free_rank = sum(1 for row in hnf if any(row[: spec.group.rank]))
    return free_rank == spec.group.rank


def veronese_scaled_spec(spec, n):
    """Same variables with every degree multiplied by n.

    Scaling can break effectiveness (the scaled degrees may span a proper
    subgroup), so the result is built unchecked; relevance of monomials
    is preserved either way.
    """
    from projd.ringspec import RingSpec

    if n < 1:
        raise ValueError("scaling factor must be positive")
    degrees = [n * d for d in spec.degrees]
    return RingSpec(spec.group, spec.variables, degrees,
                    conical_ideal=spec.conical_ideal, check_effective=False)


def irrelevant_generators_scan(spec):
    """Minimal relevant square-free monomials by scanning every subset size."""
    from projd.diophantine import vector_key
    from projd.ringspec import Monomial

    n = len(spec.variables)
    if spec.group.rank == 0:
        return (Monomial((0,) * n),)
    minimal_supports = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = frozenset(combo)
            if any(t <= s for t in minimal_supports):
                continue
            mono = Monomial(tuple(1 if i in s else 0 for i in range(n)))
            if spec.is_relevant(mono):
                minimal_supports.append(s)
    monos = [Monomial(tuple(1 if i in s else 0 for i in range(n)))
             for s in minimal_supports]
    return tuple(sorted(monos, key=lambda m: vector_key(m.exponents)))


def degree_rows_with_pairs(spec, free_coords):
    """The degree equations deg(a) = d in split nonnegative unknowns, in
    the earlier layout: (rows, width, assemble).

    One column per constrained coordinate, a +/- pair per free coordinate,
    then a (m, -m) pair per torsion order m; assemble reads a solution
    back as an exponent vector.  Unlike the library's single reduced -m
    column, the pair leaves the torsion unknowns free, so extra columns
    with raw (unreduced) entries keep every solution, and minimal
    solutions need not be minimal in the exponents.
    """
    group = spec.group
    n = len(spec.variables)
    conn = [i for i in range(n) if i not in free_coords]
    free = [i for i in range(n) if i in free_coords]
    lifts = [d.lift() for d in spec.degrees]
    rows = []
    for r in range(group.dim):
        row = [lifts[i][r] for i in conn]
        for i in free:
            row += [lifts[i][r], -lifts[i][r]]
        for k, m in enumerate(group.torsion):
            m = m if r == group.rank + k else 0
            row += [m, -m]
        rows.append(row)

    def assemble(sol):
        vec = [0] * n
        for idx, i in enumerate(conn):
            vec[i] = sol[idx]
        for idx, i in enumerate(free):
            vec[i] = sol[len(conn) + 2 * idx] - sol[len(conn) + 2 * idx + 1]
        return tuple(vec)

    return rows, len(conn) + 2 * len(free) + 2 * len(group.torsion), assemble


def companion_by_listing(spec, h, f):
    """ringspec.degree_zero_companion as one full listing: every minimal
    (g, k) of its search, then the least by k and graded-lex g."""
    from projd.diophantine import minimal_nonneg_solutions, vector_key
    from projd.ringspec import Monomial, _degree_rows

    if not spec.is_relevant(f):
        return None
    n = len(spec.variables)
    rows, rhs, width = _degree_rows(spec, -spec.degree_of(h), (-spec.degree_of(f),))
    sols = minimal_nonneg_solutions(rows, width, rhs=rhs)
    best = min(sols, key=lambda sol: (sol[n], vector_key(sol[:n])))
    return Monomial(best[:n]), best[n]


def companion_by_power_scan(spec, h, f):
    """degree_zero_companion by trying each power N up to [D : D^f] in
    turn, every minimal solution of one power before the next."""
    from projd.diophantine import vector_key
    from projd.fgab import subgroup_index
    from projd.ringspec import Monomial

    if not spec.is_relevant(f):
        return None
    d_h = spec.degree_of(h)
    n = len(spec.variables)
    rows, width, _ = degree_rows_with_pairs(spec, ())
    for row, c in zip(rows, spec.degree_of(f).lift()):
        row.append(-c)
    bound = subgroup_index(spec.group, spec.support_group(f))
    for N in range(1, bound + 1):
        target = (-N) * d_h
        if target.is_zero():
            return N, Monomial((0,) * n), 0
        sols = contejean_devie_by_generators(rows, width + 1, rhs=list(target.lift()))[0]
        if sols:
            k, g = min((sol[-1], vector_key(sol[:n])) for sol in sols)
            return N, Monomial(g[1]), k
    return None


def graver_relations_by_pairs(spec):
    """RingSpec.relations by the split search with every coordinate free:
    its (m, -m) torsion pairs also let through kernel vectors a above
    another one b in the conformal order (b_i * a_i >= 0 and
    |b_i| <= |a_i| for every i), and those are dropped afterwards."""
    from projd.diophantine import vector_key

    every = range(len(spec.variables))
    rows, width, assemble = degree_rows_with_pairs(spec, every)
    seen = set()
    for sol in contejean_devie_by_generators(rows, width)[0]:
        a = assemble(sol)
        if any(a):
            seen.add(a if next(v for v in a if v) > 0 else tuple(-v for v in a))
    found = sorted(seen, key=vector_key)

    def below(b, a):
        return b != a and all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(b, a))

    return tuple(a for a in found
                 if not any(below(b, a) or below(tuple(-x for x in b), a)
                            for b in found))


def classify_by_graver_supports(relations):
    """(class, witness) of classify_dependencies, read off the Graver
    relations (first nonzero entry positive, graded-lex order): a relation
    with a side of two or more variables is irreducible when no other
    relation is nonzero on its support, and the witness is the first one.
    """
    def sides(a):
        return sum(1 for v in a if v > 0), sum(1 for v in a if v < 0)

    if not relations:
        return "none", None
    if all(sides(a) == (1, 1) for a in relations):
        return "length-one-only", None
    for a in relations:
        if max(sides(a)) >= 2 and not any(
                b != a and any(x and y for x, y in zip(a, b)) for b in relations):
            return "nontrivial-irreducible", a
    return "undetermined", None


def graver_basis_in_box(spec, bound):
    """Conformally minimal nonzero degree-zero exponent vectors with every
    entry in [-bound, bound], first nonzero entry positive, graded-lex.

    b is conformally below a when it has the sign of a wherever it is
    nonzero and |b_i| <= |a_i|; such b lie in the box with a.  Degrees are
    summed on their lifts, the torsion coordinates reduced by their orders.
    """
    group = spec.group
    lifts = [d.lift() for d in spec.degrees]
    orders = [0] * group.rank + list(group.torsion)

    def degree_zero(a):
        for r, m in enumerate(orders):
            total = sum(e * lift[r] for e, lift in zip(a, lifts))
            if total % m if m else total:
                return False
        return True

    kernel = {a for a in box(len(lifts), -bound, bound) if any(a) and degree_zero(a)}

    def dominated(a):
        ranges = [range(v + 1) if v >= 0 else range(v, 1) for v in a]
        return any(b != a and b in kernel for b in itertools.product(*ranges))

    return tuple(sorted((a for a in kernel
                         if next(v for v in a if v) > 0 and not dominated(a)),
                        key=lambda v: (sum(abs(x) for x in v), v)))


def decomposes(gens, units, constrained, target):
    """target is a nonnegative combination of gens plus a vector of the
    integer span of units.

    Every generator must be nonnegative with positive mass on the
    constrained coordinates and units must vanish there, so matching
    those coordinates exactly bounds each coefficient.
    """
    gens = [tuple(g) for g in gens]
    conn = list(constrained)
    if any(target[i] < 0 for i in conn):
        return False
    if any(not any(g[i] > 0 for i in conn) for g in gens):
        raise ValueError("a generator has no constrained mass")

    def descend(idx, current):
        if idx == len(gens):
            if any(current[i] != target[i] for i in conn):
                return False
            return in_lattice(units, [t - c for t, c in zip(target, current)])
        g = gens[idx]
        cap = min((target[i] - current[i]) // g[i] for i in conn if g[i] > 0)
        return any(descend(idx + 1, tuple(a + c * b for a, b in zip(current, g)))
                   for c in range(cap + 1))

    return descend(0, (0,) * len(target))


def hilbert_basis_by_decomposition(sg):
    """hilbert_basis with its earlier reduction: a coset-minimal candidate
    is kept unless the other candidates and the units decompose it."""
    from projd.diophantine import _coset_minimal, vector_key

    K = sg.kernel_basis
    units = units_by_smith_kernel(sg)
    if not K:
        return (), ()
    k = len(K)
    conn = sg.constrained_coords
    rows = []
    for idx, i in enumerate(conn):
        row = [K[j][i] for j in range(k)] + [-K[j][i] for j in range(k)]
        rows.append(row + [-1 if s == idx else 0 for s in range(len(conn))])
    candidates = set()
    for sol in contejean_devie_by_generators(rows, 2 * k + len(conn))[0]:
        vec = [sum((sol[j] - sol[k + j]) * K[j][i] for j in range(k))
               for i in range(sg.nvars)]
        rep = _coset_minimal(vec, units)
        if any(rep):
            candidates.add(rep)
    candidates = sorted(candidates, key=vector_key)
    return units, tuple(
        c for c in candidates
        if not decomposes([o for o in candidates if o != c], units, conn, c))


def _drop_by_membership(candidates, sg, units):
    """Coset-minimal forms of candidates, zero left out, graded-lex; a
    candidate is dropped when its difference with another is a nonzero
    member of sg, decided by a lattice solve."""
    from projd.diophantine import _coset_minimal, vector_key

    reps = sorted({_coset_minimal(c, units) for c in candidates}, key=vector_key)
    reps = [r for r in reps if any(r)]
    out = []
    for cand in reps:
        diffs = [tuple(a - b for a, b in zip(cand, o)) for o in reps if o != cand]
        if not any(any(diff) and sg.contains(diff) for diff in diffs):
            out.append(cand)
    return tuple(out)


def _fresh_semigroup(spec, free_coords):
    """The degree-zero semigroup of spec built anew, apart from its memo."""
    from projd.diophantine import ConstrainedSemigroup
    from projd.ringspec import RingSpec

    fresh = RingSpec(spec.group, spec.variables, spec.degrees, check_effective=False)
    return ConstrainedSemigroup(len(spec.variables), fresh.kernel, free_coords)


def _degree_row_candidates(spec, free_coords, rhs=None):
    """Minimal solutions of the degree equations in the split exponent
    layout, read back as exponent vectors."""
    rows, width, assemble = degree_rows_with_pairs(spec, free_coords)
    return [assemble(sol) for sol in contejean_devie_by_generators(rows, width, rhs)[0]]


def shifted_generators_by_membership(spec, free_coords, d):
    """Minimal degree-d exponent vectors modulo the degree-zero semigroup.

    free_coords tells which exponents may be negative.  The result
    generates {a : deg(a) = d, a >= 0 off free_coords} as a module over the
    degree-zero semigroup, one coset-minimal representative per unit
    coset, graded-lex ordered; on the support of a relevant f these are
    the generators of the degree-d twist module on the chart of f.  Empty
    iff the solution set is empty; for d = 0 the zero vector alone.  Found
    by the inhomogeneous search over the split exponent layout: a
    candidate is dropped when its difference with another is a nonzero
    member of the degree-zero semigroup."""
    free_coords = frozenset(free_coords)
    if d.is_zero():
        return ((0,) * len(spec.variables),)
    sg = _fresh_semigroup(spec, free_coords)
    candidates = _degree_row_candidates(spec, free_coords, list(d.lift()))
    return _drop_by_membership(candidates, sg, units_by_smith_kernel(sg))


@dataclass(frozen=True)
class TwistProductReport:
    """Surjectivity audit of the multiplication of two twists on a chart."""

    surjective: bool
    # (target, d-part, e-part, chart remainder) exponent-vector quadruples
    decompositions: tuple


def twist_product_surjective(spec, f, d, e):
    """Whether products of d- and e-sections span the (d+e)-sections on f.

    Each generator of the (d+e)-module must split as a d-generator plus an
    e-generator plus a degree-zero chart element; the witness quadruples
    are (target, d-part, e-part, chart remainder).
    """
    f = spec.relevant_monomial(f)
    gens_d = shifted_generators_by_membership(spec, f.support, d)
    gens_e = shifted_generators_by_membership(spec, f.support, e)
    targets = shifted_generators_by_membership(spec, f.support, d + e)
    sg = spec.semigroup(f.support)
    decompositions = []
    surjective = True
    for b in targets:
        found = None
        for gd in gens_d:
            for ge in gens_e:
                rest = tuple(t - p - q for t, p, q in zip(b, gd, ge))
                if sg.contains(rest):
                    found = (b, gd, ge, rest)
                    break
            if found:
                break
        if found is None:
            surjective = False
        else:
            decompositions.append(found)
    return TwistProductReport(surjective, tuple(decompositions))


def hilbert_basis_by_degree_rows(spec, free_coords):
    """hilbert_basis of the degree-zero semigroup by the homogeneous search
    over the split exponent layout, reduced like the twist generators."""
    free_coords = frozenset(free_coords)
    sg = _fresh_semigroup(spec, free_coords)
    units = units_by_smith_kernel(sg)
    return units, _drop_by_membership(_degree_row_candidates(spec, free_coords),
                                      sg, units)


def grading_of_lattice(basis, n):
    """The grading of Z^n by Z^n / L, L the row span of basis (nonempty,
    rows independent): a RingSpec whose degree-zero lattice is L.

    With U * basis * V = S in Smith form, a lies in L exactly when (aV)_j
    is 0 mod s_j for the first rank columns and 0 beyond, so deg x_j is
    row j of V, torsion of the diagonal orders first.
    """
    from projd.fgab import FgAbGroup, smith_normal_form
    from projd.ringspec import RingSpec

    _, S, V = smith_normal_form(basis)
    k = len(basis)
    G = FgAbGroup(n - k, [S[j][j] for j in range(k)])
    degrees = [G.element(V[i][k:], V[i][:k]) for i in range(n)]
    return RingSpec(G, [f"x{i}" for i in range(n)], degrees, check_effective=False)


def parse_ring_spec_by_pyyaml(text):
    """`cli.parse_ring_spec` on YAML text with PyYAML's pure-Python loader
    alone: `yaml.safe_load` and the same mapping of its errors to ParseError."""
    import yaml
    from projd.cli import ParseError, ring_spec_from_dict

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = (f"line {mark.line + 1}, column {mark.column + 1}"
                 if mark else "document")
        problem = getattr(exc, "problem", None) or str(exc)
        raise ParseError(f"{where}: {problem}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return ring_spec_from_dict(data)


def _spec_bytes(path: str) -> bytes:
    """The type of --spec: the file's bytes.  A file that cannot be read is
    a usage error (exit 2), like a missing one, not a fault (exit 4)."""
    import argparse
    from pathlib import Path

    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read {path!r}: {exc.strerror or exc}") from exc


def argparse_cli_parser():
    """The parser and its subparsers, one per COMMANDS entry: its params,
    then --spec and --json.  Help is --help alone, with no -h.

    The argparse wiring that `cli.parse_argv` replaced, kept to check that
    both read a command line alike."""
    import argparse
    from projd.cli import BOUND, COMMANDS, DEFAULT_BOUND

    parser = argparse.ArgumentParser(
        prog="projd", add_help=False, allow_abbrev=False,
        description="Exact combinatorics of multigraded Proj models.")
    parser.add_argument("--fixtures", action="store_true",
                        help="run the built-in example corpus against stored "
                             "expectations")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     title="commands")
    for name, (params, help_text, _, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text, description=help_text,
                                  add_help=False, allow_abbrev=False)
        for param in params:
            if param is BOUND:
                sub.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                                 help="total-degree cutoff for the listing "
                                      "(default: %(default)s)")
            else:
                sub.add_argument(param, metavar=param.upper())
        sub.add_argument("--spec", required=True, type=_spec_bytes,
                         metavar="FILE", help="ring-spec YAML file")
        sub.add_argument("--json", action="store_true",
                         help="emit the machine-readable report")
    for each in (parser, *commands.choices.values()):
        each.add_argument("--help", action="help",
                          help="show this help message and exit")
    return parser, commands
