from fractions import Fraction

import pytest

from znrank.errors import SingularSystem
from znrank.linalg import det_bareiss_int, det_exact, solve_exact, solve_float

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


def test_det_bareiss_known_values():
    assert det_bareiss_int([[2]]) == 2
    assert det_bareiss_int([[1, 2], [3, 4]]) == -2
    assert det_bareiss_int([[0, 1], [1, 0]]) == -1
    # needs a row swap to start
    assert det_bareiss_int([[0, 2, 1], [1, 0, 0], [3, 1, 1]]) == -1
    assert det_bareiss_int([[1, 2], [2, 4]]) == 0
    assert det_bareiss_int([]) == 1


def test_det_exact_known_value():
    a = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
    d = det_exact(a)
    assert d == F(1, 2) * F(1, 5) - F(1, 3) * F(1, 4)
