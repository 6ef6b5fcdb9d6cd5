from fractions import Fraction
from itertools import permutations

import pytest

from znrank.errors import SingularSystem
from znrank.linalg import det_exact, solve_exact, solve_float
from helpers import rng_for

F = Fraction


def test_solve_exact_vector():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = solve_exact(a, [F(5), F(10)])
    assert x == [F(1), F(3)]


def test_solve_exact_matrix_rhs():
    a = [[F(1), F(1)], [F(0), F(1)]]
    x = solve_exact(a, [[F(3), F(1)], [F(2), F(0)]])
    assert x == [[F(1), F(1)], [F(2), F(0)]]


def test_solve_singular():
    a = [[F(1), F(1)], [F(2), F(2)]]
    with pytest.raises(SingularSystem):
        solve_exact(a, [F(1), F(1)])
    with pytest.raises(SingularSystem):
        solve_float([[1.0, 1.0], [2.0, 2.0]], [1.0, 1.0])


def test_solve_float_matches_exact():
    a = [[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(4)]]
    rhs = [F(1), F(2), F(3)]
    xe = solve_exact([row[:] for row in a], rhs[:])
    xf = solve_float([[float(x) for x in row] for row in a], [float(b) for b in rhs])
    assert max(abs(float(e) - f) for e, f in zip(xe, xf)) < 1e-12


def test_det_exact_integer_known_values():
    assert det_exact([[2]]) == 2
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[0, 1], [1, 0]]) == -1
    # needs a row swap to start
    assert det_exact([[0, 2, 1], [1, 0, 0], [3, 1, 1]]) == -1
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([]) == 1


def _leibniz(a):
    """Sum over permutations s of sign(s) prod_i a[i][s(i)]; the sign is
    the parity of the inversions."""
    n = len(a)
    total = Fraction(0)
    for s in permutations(range(n)):
        inversions = sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= a[i][s[i]]
        total += term
    return total


def test_det_exact_matches_the_leibniz_sum_random():
    # small signed Fractions, zeros among them, n = 0..5: some matrices made
    # singular (a repeated row, a zero column), some nonsingular ones needing
    # a row swap (a zero leading entry)
    rng = rng_for("det-leibniz")
    seen = set()
    for i in range(300):
        n = i % 6
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        if n >= 2 and i % 4 == 1:
            a[rng.randrange(1, n)] = list(a[0])
        elif n >= 1 and i % 4 == 2:
            c = rng.randrange(n)
            for row in a:
                row[c] = Fraction(0)
        elif n >= 2 and i % 4 == 3:
            a[0][0] = Fraction(0)
        want = _leibniz(a)
        got = det_exact(a)
        assert got == want and type(got) is Fraction
        seen.add("singular" if not want else "row swap" if n and not a[0][0] else "plain")
    assert seen == {"singular", "row swap", "plain"}


def test_det_exact_known_value():
    a = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
    d = det_exact(a)
    assert d == F(1, 2) * F(1, 5) - F(1, 3) * F(1, 4)
