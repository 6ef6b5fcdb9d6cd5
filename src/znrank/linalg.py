"""Small dense linear algebra on lists of lists.

Exact routines work over Fraction; the determinant clears denominators per
row and runs fraction-free (Bareiss) elimination so intermediates stay
integer. The floating solver uses partial pivoting. Sizes here are desk
scale.
"""

import math
from fractions import Fraction

from znrank.errors import SingularSystem


def _gauss_jordan(a, rhs, kind, pivot_row):
    """Solve a x = rhs with entries converted by kind; pivot_row(m, c) picks
    the row that holds the pivot of column c."""
    n = len(a)
    vector = rhs and not isinstance(rhs[0], list)
    cols = [[x] for x in rhs] if vector else [list(r) for r in rhs]
    m = [[kind(x) for x in row] + [kind(x) for x in cols[i]] for i, row in enumerate(a)]
    for c in range(n):
        piv = pivot_row(m, c)
        if not m[piv][c]:
            raise SingularSystem("singular linear system")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    sol = [row[n:] for row in m]
    return [row[0] for row in sol] if vector else sol


def solve_exact(a, rhs):
    """Solve a x = rhs over Fractions. rhs may be a vector or a list of
    columns given as a matrix (list of rows). Raises SingularSystem."""
    return _gauss_jordan(a, rhs, Fraction, lambda m, c: next((r for r in range(c, len(m)) if m[r][c]), c))


def solve_float(a, rhs):
    """Solve a x = rhs in floating point with partial pivoting."""
    return _gauss_jordan(a, rhs, float, lambda m, c: max(range(c, len(m)), key=lambda r: abs(m[r][c])))


def det_bareiss_int(m):
    """Determinant of an integer matrix, fraction-free. Destroys m."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_exact(a):
    """Exact determinant of a Fraction matrix via per-row clearing plus
    integer Bareiss elimination."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    denom = Fraction(1)
    rows = []
    for row in a:
        frs = [Fraction(x) for x in row]
        l = math.lcm(*(f.denominator for f in frs)) if frs else 1
        denom *= l
        rows.append([int(f * l) for f in frs])
    return Fraction(det_bareiss_int(rows), 1) / denom
