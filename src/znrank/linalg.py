"""Small dense linear algebra on lists of lists.

Exact routines work over Fraction: the solver by Gauss-Jordan elimination,
the determinant by plain Gaussian elimination, the product of its pivots.
The floating solver uses partial pivoting. Sizes here are desk scale.
"""

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


def det_exact(a):
    """Exact determinant of a square matrix by Gaussian elimination over
    Fractions: each row swap flips the sign, and the determinant is the
    product of the pivots, 0 once a column has no nonzero pivot."""
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det
