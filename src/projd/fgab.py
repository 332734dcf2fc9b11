"""Finitely generated abelian groups and exact integer lattice arithmetic.

Groups are presented as Z^rank x Z/m_1 x ... x Z/m_t with the torsion orders
normalized to a divisor chain m_1 | m_2 | ... | m_t.  Every subgroup question
(index, membership, witness) is an integer lattice problem in the free
presentation Z^(rank+t), where torsion coordinate j contributes the relation
m_j * e_j.  Yes/no questions reduce against a row Hermite basis; kernels and
witnesses come from one Hermite form of [A^T | I] (Cohen 1993, 2.4).  The
Smith form is used only where invariant factors are read: the torsion normal
form and the congruence moduli of diophantine._minimal_lifts.  All
arithmetic uses plain Python integers, so nothing overflows.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


# ---------------------------------------------------------------------------
# integer matrices (lists of rows)

def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Smith normal form with transforms: U * mat * V = S.

    U and V are unimodular; S is diagonal with nonnegative entries
    d_1 | d_2 | ... .  Returns (U, S, V) as lists of rows.

    >>> U, S, V = smith_normal_form([[2, 0], [0, 3]])
    >>> (S[0][0], S[1][1])
    (1, 6)
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    U = _identity(m)
    V = _identity(n)

    def row_op(i, k, a, b, c, d):
        # (row_i, row_k) <- (a*row_i + b*row_k, c*row_i + d*row_k), ad - bc = +-1
        for M in (A, U):
            ri, rk = M[i], M[k]
            for j in range(len(ri)):
                ri[j], rk[j] = a * ri[j] + b * rk[j], c * ri[j] + d * rk[j]

    def col_op(j, k, a, b, c, d):
        for M in (A, V):
            for row in M:
                row[j], row[k] = a * row[j] + b * row[k], c * row[j] + d * row[k]

    t = 0
    while t < min(m, n):
        best = None
        pi = pj = t
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        if pi != t:
            row_op(t, pi, 0, 1, 1, 0)
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    # plain elimination keeps the pivot row intact; the gcd
                    # combination strictly shrinks the pivot otherwise
                    if A[i][t] % A[t][t] == 0:
                        row_op(t, i, 1, 0, -(A[i][t] // A[t][t]), 1)
                    else:
                        g, x, y = _exgcd(A[t][t], A[i][t])
                        p, q = A[t][t] // g, A[i][t] // g
                        row_op(t, i, x, y, -q, p)
            for j in range(t + 1, n):
                if A[t][j]:
                    if A[t][j] % A[t][t] == 0:
                        col_op(t, j, 1, 0, -(A[t][j] // A[t][t]), 1)
                    else:
                        g, x, y = _exgcd(A[t][t], A[t][j])
                        p, q = A[t][t] // g, A[t][j] // g
                        col_op(t, j, x, y, -q, p)
            if any(A[i][t] for i in range(t + 1, m)):
                continue  # column ops refilled the pivot column
            d = A[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, 1, 1, 0, 1)
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            for j in range(n):
                A[i][j] = -A[i][j]
            for j in range(m):
                U[i][j] = -U[i][j]
    return U, A, V


def row_hnf(rows: Iterable[Sequence[int]], width: Optional[int] = None):
    """Canonical (Hermite) basis of the integer span of the given rows.

    Echelon form with positive pivots and the entries above each pivot
    reduced into [0, pivot); unique for a given lattice, so usable as a
    normal form.  Returns a tuple of row tuples, zero rows dropped.
    """
    mat = [list(r) for r in rows]
    if width is None:
        width = len(mat[0]) if mat else 0
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c]:
                if mat[i][c] % mat[r][c] == 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [b - q * a for a, b in zip(mat[r], mat[i])]
                else:
                    g, x, y = _exgcd(mat[r][c], mat[i][c])
                    p, q = mat[r][c] // g, mat[i][c] // g
                    mat[r], mat[i] = (
                        [x * a + y * b for a, b in zip(mat[r], mat[i])],
                        [p * b - q * a for a, b in zip(mat[r], mat[i])],
                    )
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def hnf_reduce(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> tuple[int, ...]:
    """Unique coset representative of vec modulo the row-HNF basis."""
    v = list(vec)
    for row in basis:
        p = next(j for j, a in enumerate(row) if a)
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def _column_hnf(mat: Sequence[Sequence[int]], ncols: int):
    """Row HNF of the rows [column j of mat | e_j], j < ncols: each result
    row [h | w] has mat @ w = h, and the w-parts of the rows with h = 0,
    which come last, span the kernel of mat."""
    m = len(mat)
    return row_hnf([[row[j] for row in mat] + [int(i == j) for i in range(ncols)]
                    for j in range(ncols)], m + ncols)


def solve_linear(mat: Sequence[Sequence[int]], rhs: Sequence[int],
                 ncols: Optional[int] = None) -> Optional[list[int]]:
    """One integer solution x of mat @ x = rhs, or None if none exists.

    [rhs | 0] reduces to [0 | -x] modulo _column_hnf exactly when rhs lies
    in the column lattice of mat.
    """
    m = len(mat)
    n = ncols if ncols is not None else (len(mat[0]) if m else 0)
    rem = hnf_reduce(_column_hnf(mat, n), [*rhs, *[0] * n])
    if any(rem[:m]):
        return None
    return [-a for a in rem[m:]]


def kernel_basis(mat: Sequence[Sequence[int]], ncols: Optional[int] = None):
    """HNF basis (rows) of the integer kernel {x : mat @ x = 0}."""
    m = len(mat)
    n = ncols if ncols is not None else (len(mat[0]) if m else 0)
    return row_hnf([row[m:] for row in _column_hnf(mat, n) if not any(row[:m])], n)


# ---------------------------------------------------------------------------
# groups

class GroupElement:
    """Element of an FgAbGroup; torsion coordinates stay reduced mod m_j."""

    __slots__ = ("group", "free", "torsion")

    def __init__(self, group: "FgAbGroup", free: Sequence[int], torsion: Sequence[int]):
        if len(free) != group.rank or len(torsion) != len(group.torsion):
            raise ValueError("coordinate shape does not match the group")
        self.group = group
        self.free = tuple(int(a) for a in free)
        self.torsion = tuple(int(c) % m for c, m in zip(torsion, group.torsion))

    def lift(self) -> tuple[int, ...]:
        """Coordinates in the free presentation Z^(rank+t)."""
        return self.free + self.torsion

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group,
                            [a + b for a, b in zip(self.free, other.free)],
                            [a + b for a, b in zip(self.torsion, other.torsion)])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + -other

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, [-a for a in self.free], [-a for a in self.torsion])

    def __mul__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, [k * a for a in self.free], [k * a for a in self.torsion])

    __rmul__ = __mul__

    def _check(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise ValueError("elements of different groups")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupElement) and self.group == other.group
                and self.free == other.free and self.torsion == other.torsion)

    def __hash__(self) -> int:
        return hash((self.group, self.free, self.torsion))

    def __str__(self) -> str:
        free = ", ".join(str(a) for a in self.free)
        tors = ", ".join(f"{c} mod {m}" for c, m in zip(self.torsion, self.group.torsion))
        if free and tors:
            return f"({free} | {tors})"
        return f"({free or tors})"

    __repr__ = __str__


class FgAbGroup:
    """Z^rank x Z/m_1 x ... x Z/m_t with m_1 | m_2 | ... | m_t.

    Torsion orders are normalized on construction; coordinates written in
    the original presentation are converted through the same change of
    basis, so non-chain inputs are accepted.

    >>> G = FgAbGroup(1, [2, 3])
    >>> G.torsion
    (6,)
    >>> G == FgAbGroup(1, [6])
    True
    """

    __slots__ = ("rank", "torsion", "_input_orders", "_conv")

    def __init__(self, rank: int, torsion: Sequence[int] = ()):
        rank = int(rank)
        orders = tuple(int(m) for m in torsion)
        if rank < 0 or any(m < 1 for m in orders):
            raise ValueError("rank must be >= 0 and torsion orders >= 1")
        self.rank = rank
        self._input_orders = orders
        t = len(orders)
        if t == 0:
            self.torsion = ()
            self._conv = ()
            return
        diag = [[orders[i] if i == j else 0 for j in range(t)] for i in range(t)]
        U, S, _ = smith_normal_form(diag)
        keep = [i for i in range(t) if S[i][i] != 1]
        self.torsion = tuple(S[i][i] for i in keep)
        self._conv = tuple(tuple(U[i]) for i in keep)

    @property
    def dim(self) -> int:
        return self.rank + len(self.torsion)

    def element(self, free: Sequence[int] = (), torsion: Sequence[int] = ()) -> GroupElement:
        """Element from coordinates in the original presentation."""
        if len(torsion) != len(self._input_orders):
            raise ValueError("torsion coordinate count does not match the presentation")
        canon = [sum(row[j] * torsion[j] for j in range(len(torsion))) for row in self._conv]
        return GroupElement(self, free, canon)

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * self.rank, (0,) * len(self.torsion))

    def from_lift(self, vec: Sequence[int]) -> GroupElement:
        """Element from free-presentation coordinates (canonical torsion)."""
        return GroupElement(self, vec[:self.rank], vec[self.rank:])

    def standard_generators(self) -> list[GroupElement]:
        return [self.from_lift([int(j == i) for j in range(self.dim)])
                for i in range(self.dim)]

    def torsion_relation_rows(self) -> list[list[int]]:
        """Lattice relations m_j * e_(rank+j) of the free presentation."""
        rows = []
        for j, m in enumerate(self.torsion):
            row = [0] * self.dim
            row[self.rank + j] = m
            rows.append(row)
        return rows

    def subgroup(self, elements: Iterable[GroupElement]) -> "Subgroup":
        return Subgroup(self, elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FgAbGroup)
                and self.rank == other.rank and self.torsion == other.torsion)

    def __hash__(self) -> int:
        return hash((self.rank, self.torsion))

    def __repr__(self) -> str:
        if not self.torsion:
            return f"FgAbGroup(rank={self.rank})"
        return f"FgAbGroup(rank={self.rank}, torsion={list(self.torsion)})"


class Subgroup:
    """Subgroup of an FgAbGroup presented by a generating set.

    The derived normal form is the row HNF of the lifted generator lattice
    (generators plus torsion relations) in Z^(rank+t); two subgroups compare
    equal iff each one's generators lie in the other.
    """

    __slots__ = ("group", "generators", "_hnf")

    def __init__(self, group: FgAbGroup, generators: Iterable[GroupElement]):
        self.group = group
        gens = tuple(generators)
        for g in gens:
            if g.group != group:
                raise ValueError("generator outside the ambient group")
        self.generators = gens
        self._hnf = row_hnf([g.lift() for g in gens] + group.torsion_relation_rows(),
                            group.dim)

    def contains(self, d: GroupElement) -> bool:
        """Whether d lies in the subgroup: its lift reduces to zero modulo
        the Hermite basis.

        >>> G = FgAbGroup(1, [2])
        >>> H = G.subgroup([G.element((1,), (1,))])
        >>> H.contains(G.element((2,), (0,))), H.contains(G.element((1,), (0,)))
        (True, False)
        """
        if d.group != self.group:
            raise ValueError("element of a different group")
        return not any(hnf_reduce(self._hnf, d.lift()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup) or self.group != other.group:
            return NotImplemented if not isinstance(other, Subgroup) else False
        return self._hnf == other._hnf

    __hash__ = None  # mutual-membership equality is not hash-compatible

    def __repr__(self) -> str:
        return "Subgroup<" + ", ".join(str(g) for g in self.generators) + ">"


def subgroup_index(group: FgAbGroup, sub: Subgroup) -> float | int:
    """Index [group : sub]; math.inf when the free rank of sub is too small.

    A full-rank Hermite basis is square and upper triangular, so the index
    is the product of its pivots.

    >>> G = FgAbGroup(1, [2])
    >>> subgroup_index(G, G.subgroup([G.element((2,), (0,))]))
    4
    >>> subgroup_index(G, G.subgroup([G.element((0,), (1,))]))
    inf
    """
    if sub.group != group:
        raise ValueError("subgroup of a different group")
    if len(sub._hnf) < group.dim:
        return math.inf
    return math.prod(row[i] for i, row in enumerate(sub._hnf))


def subgroup_member(sub: Subgroup, d: GroupElement):
    """Decide d in sub; returns (bool, witness) where the witness gives
    integer coefficients over sub.generators recombining to d."""
    if d.group != sub.group:
        raise ValueError("element of a different group")
    cols = [list(g.lift()) for g in sub.generators] + sub.group.torsion_relation_rows()
    A = [[col[i] for col in cols] for i in range(sub.group.dim)]
    x = solve_linear(A, d.lift(), len(cols))
    if x is None:
        return False, None
    return True, tuple(x[:len(sub.generators)])
