"""Exact linear algebra over the pluggable scalar field.

One Gaussian elimination with exact division, `rref`, gives the nullspaces
and ranks of the small matrices this library meets, and the spans that
`PrincipalSeries.ord_tau` iterates (the nonzero rows of `rref`). The common
kernel of upper-triangular matrices, which the weight-space queries need, is
solved by back substitution instead (`triangular_kernel`), with `rref` only
on the few columns that back substitution leaves free. Products skip zero
entries; `det` eliminates without reducing.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, Scalar, is_zero
from .scalars import inv as _inv

Row = list
Matrix = list  # list of rows


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns (input not mutated)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if not is_zero(m[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Matrix, ncols: int) -> list[tuple[Scalar, ...]]:
    """Basis of the right nullspace, one vector per free column, deterministic."""
    if not rows:
        rows = [[Fraction(0)] * ncols]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def triangular_kernel(mats: list[Matrix], n: int) -> list[tuple[Scalar, ...]]:
    """Common right kernel of upper-triangular n x n matrices, in the basis
    `nullspace` gives for their stacked rows: one vector per last-nonzero
    position f of kernel vectors, 1 at f and 0 at the other such positions.

    Row i of the first matrix nonzero at (i, i) is the pivot of column i.
    For each column c without one, back substitution gives the b_c that
    solves the pivot rows, is 1 at c, 0 at the other such columns and 0
    after c. The kernel lies in span{b_c}, so the other rows are imposed on
    it as a small system. The input is not mutated.
    """
    pivots: list[Row | None] = [None] * n
    others: list[Row] = []
    for m in mats:
        for i, row in enumerate(m):
            if any(row[:i]):
                raise ValueError(f"matrix is not upper triangular: row {i} has an entry below the diagonal")
            if pivots[i] is None and row[i]:
                pivots[i] = row
            elif any(row):
                others.append(row)
    free = [c for c in range(n) if pivots[c] is None]
    spans = []  # nonzero entries of each b_c, as (column, value)
    for c in free:
        b = [ZERO] * n
        b[c] = ONE
        for j in range(c - 1, -1, -1):
            row = pivots[j]
            if row is not None:
                s = sum((row[k] * b[k] for k in range(j + 1, c + 1) if row[k] and b[k]), ZERO)
                if s:
                    b[j] = -s * _inv(row[j])
        spans.append([(k, x) for k, x in enumerate(b) if x])
    small = [[sum((row[k] * x for k, x in span if row[k]), ZERO) for span in spans] for row in others]
    basis = []
    for y in nullspace([r for r in small if any(r)], len(free)):
        v = [ZERO] * n
        for yc, span in zip(y, spans):
            if yc:
                for k, x in span:
                    v[k] += yc * x
        basis.append(tuple(v))
    return basis


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product a @ b, skipping zero entries of both factors."""
    nb = len(b[0])
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [ZERO] * nb
        for x, b_row in zip(row, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: Row) -> Row:
    """Exact product a @ v, skipping zero entries of v and of a."""
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return [sum((row[k] * x for k, x in nonzero if row[k]), ZERO) for row in a]


def mat_pow(a: Matrix, k: int) -> Matrix:
    """a to the power k >= 1, by k - 1 products."""
    if k < 1:
        raise ValueError(f"matrix power {k} is not positive")
    out = [list(r) for r in a]
    for _ in range(k - 1):
        out = mat_mul(out, a)
    return out


def det(rows: Matrix) -> Fraction:
    """Exact determinant via fraction-producing elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        d *= m[c][c]
        inv = _inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * d


def cone_contains(generators: list[tuple], target: tuple, require_positive: int | None = None) -> bool:
    """Exact feasibility of target = sum c_i g_i with c_i >= 0 rational.

    If `require_positive` is an index into `generators`, additionally require
    c_i > 0 there.  Two-phase simplex over Fractions with Bland's rule and
    reduced costs recomputed per iteration (slow, simple, exact).
    """
    m = len(target)
    n = len(generators)
    if n == 0:
        return all(x == 0 for x in target) and require_positive is None
    rows = [[Fraction(generators[j][i]) for j in range(n)] for i in range(m)]
    rhs = [Fraction(x) for x in target]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    ncols = n + m
    tab = [rows[i] + [Fraction(int(k == i)) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(r, c):
        inv = 1 / tab[r][c]
        tab[r] = [x * inv for x in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [a - f * p for a, p in zip(tab[i], tab[r])]
        basis[r] = c

    def simplex(cost, allowed):
        """Minimize cost . x; returns False when unbounded below."""
        while True:
            duals = [cost[basis[i]] for i in range(len(tab))]
            entering = None
            for j in allowed:
                if j in basis:
                    continue
                reduced = cost[j] - sum(duals[i] * tab[i][j] for i in range(len(tab)))
                if reduced < 0:
                    entering = j
                    break
            if entering is None:
                return True
            leaving = None
            best = None
            for i in range(len(tab)):
                if tab[i][entering] > 0:
                    ratio = tab[i][-1] / tab[i][entering]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best, leaving = ratio, i
            if leaving is None:
                return False
            pivot(leaving, entering)

    # phase I: minimize the sum of artificials
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    simplex(cost1, range(ncols))
    value = sum(cost1[basis[i]] * tab[i][-1] for i in range(len(tab)))
    if value != 0:
        return False
    if require_positive is None:
        return True
    # drive remaining artificials out of the basis (they sit at level zero)
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del basis[i]
            else:
                pivot(i, col)
    # phase II on the real columns: maximize the required coordinate
    cost2 = [Fraction(0)] * (ncols + 1)
    cost2[require_positive] = Fraction(-1)
    bounded = simplex(cost2, range(n))
    if not bounded:
        return True
    optimum = sum(tab[i][-1] for i in range(len(tab)) if basis[i] == require_positive)
    return optimum > 0


def integer_cone_contains(generators: list[tuple], target: tuple) -> bool:
    """Is target a nonnegative-integer combination of the generators?"""
    gens = [g for g in generators if any(g)]
    memo: dict[tuple, bool] = {}

    def rec(t: tuple) -> bool:
        if all(x == 0 for x in t):
            return True
        if t in memo:
            return memo[t]
        memo[t] = False
        for g in gens:
            r = tuple(a - b for a, b in zip(t, g))
            # all our cones live in the positive orthant of coroot coordinates
            if all(x >= 0 for x in r) and rec(r):
                memo[t] = True
                break
        return memo[t]

    return rec(tuple(target))
