from fractions import Fraction

import pytest

from znrank.arborescence import (
    Arborescence,
    all_root_polynomials,
    arborescence_weight,
    enumerate_arborescences,
    enumerated_root_weight,
    exact_limit_from_polynomials,
    mctt_stationary,
    min_degree,
    perturbed_root_polynomial,
    root_weight_minor,
    root_weights,
    skeleton_identity_check,
)
from znrank.errors import GuardExceeded, NotIrreducible
from znrank.graph import (
    RowStochasticMatrix,
    StateSpace,
    classify_states,
    parse_edge_list,
    uniform_matrix,
)
from znrank.polynomial import EpsPolynomial, sum_polynomials
from helpers import (
    rand_general_q,
    rand_irreducible,
    rand_reducible_no_transient,
    rand_sizes,
    rand_stochastic,
    rand_with_transients,
    rng_for,
)

F = Fraction

K3 = "a b\nb a\na c\nc a\nb c\nc b\n"


def test_enumerate_k3_counts_and_order():
    g = parse_edge_list(K3)
    for root in range(3):
        arbs = enumerate_arborescences(g, root)
        assert len(arbs) == 3
        assert all(a.root == root for a in arbs)
        # lexicographic in the parent maps
        dicts = [tuple(sorted(a.as_dict().items())) for a in arbs]
        assert dicts == sorted(dicts)


def test_enumerate_excludes_self_loops_and_cycles():
    g = parse_edge_list("a a\na b\nb a\n")
    arbs = enumerate_arborescences(g, 0)
    assert [a.as_dict() for a in arbs] == [{1: 0}]


def test_enumeration_guards():
    g = parse_edge_list("\n".join(f"n{i} n{(i + 1) % 13}" for i in range(13)))
    with pytest.raises(GuardExceeded):
        enumerate_arborescences(g, 0)
    k3 = parse_edge_list(K3)
    with pytest.raises(GuardExceeded):
        enumerate_arborescences(k3, 0, budget=1)


def test_arborescence_weight():
    p = RowStochasticMatrix(StateSpace(3), ((0, F(1, 2), F(1, 2)), (1, 0, 0), (1, 0, 0)))
    a = Arborescence(0, ((1, 0), (2, 0)))
    assert arborescence_weight(a, p) == 1
    b = Arborescence(1, ((0, 2), (2, 0)))
    assert arborescence_weight(b, p) == F(1, 2)


def test_minor_fixture():
    p = RowStochasticMatrix(StateSpace(3), ((0, F(1, 2), F(1, 2)), (1, 0, 0), (1, 0, 0)))
    assert [root_weight_minor(p, r) for r in range(3)] == [F(1), F(1, 2), F(1, 2)]
    assert root_weights(p) == (F(1), F(1, 2), F(1, 2))
    assert mctt_stationary(p).values == (F(1, 2), F(1, 4), F(1, 4))


def test_minor_equals_enumeration_random():
    rng = rng_for("minor-vs-enum")
    for _ in range(25):
        p = rand_irreducible(rng, rng.randint(2, 6))
        for r in range(p.n):
            assert root_weight_minor(p, r) == enumerated_root_weight(p, r)


def test_minor_handles_self_loops():
    # self-loops cancel inside I - P, enumeration skips them outright
    p = RowStochasticMatrix(StateSpace(2), ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))))
    for r in range(2):
        assert root_weight_minor(p, r) == enumerated_root_weight(p, r)


def test_mctt_requires_irreducible():
    p = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    with pytest.raises(NotIrreducible):
        mctt_stationary(p)


def test_float_minor_close_to_exact():
    rng = rng_for("minor-float")
    for _ in range(10):
        p = rand_irreducible(rng, rng.randint(2, 6))
        pf = p.to_float()
        for r in range(p.n):
            assert abs(float(root_weight_minor(p, r)) - root_weight_minor(pf, r)) < 1e-12


def test_polynomials_worked_fixture():
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q = uniform_matrix(3)
    polys = all_root_polynomials(p, q)
    expected = EpsPolynomial((0, F(2, 3), F(-1, 3)))
    assert polys == (expected, expected, expected)
    assert min_degree(polys[0]) == 1
    lim = exact_limit_from_polynomials(p, q)
    assert lim.values == (F(1, 3), F(1, 3), F(1, 3))


def test_polynomials_transient_fixture():
    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    )
    q = RowStochasticMatrix(
        StateSpace(3),
        ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 0)),
    )
    polys = all_root_polynomials(p, q)
    assert polys[0] == EpsPolynomial((0, F(5, 8), F(1, 8)))
    assert polys[1] == EpsPolynomial((0, F(1, 2), F(1, 4)))
    assert polys[2] == EpsPolynomial((0, 0, F(3, 4)))
    total = polys[0] + polys[1] + polys[2]
    assert total.min_degree() == 1  # m - 1 with m = 2 closed classes
    lim = exact_limit_from_polynomials(p, q)
    assert lim.values == (F(5, 9), F(4, 9), F(0))


def test_polynomial_evaluation_matches_direct_stationary():
    from znrank.stationary import stationary_direct
    from znrank.sweep import perturbed_matrix

    rng = rng_for("poly-vs-direct")
    for _ in range(8):
        p = rand_irreducible(rng, rng.randint(2, 5))
        q = uniform_matrix(p.n)
        polys = all_root_polynomials(p, q)
        eps = F(1, rng.randint(7, 50))
        pe = perturbed_matrix(p, q, eps)
        pi = stationary_direct(pe)
        total = sum((h(eps) for h in polys), F(0))
        for i, h in enumerate(polys):
            assert h(eps) / total == pi[i]


def _rand_p(rng, n):
    kind = rng.randrange(4)
    if kind == 0:
        return rand_stochastic(rng, n)
    if kind == 1:
        return rand_irreducible(rng, n)
    if kind == 2 and n >= 2:
        t = rng.randint(1, n - 1)
        return rand_with_transients(rng, rand_sizes(rng, rng.randint(1, n - t), total_cap=n - t), t)
    return rand_reducible_no_transient(rng, rand_sizes(rng, rng.randint(1, n), total_cap=n))


def test_interpolated_polynomials_match_enumeration_random():
    # any support: transients, several closed classes, general Q and unions
    # that are not strongly connected
    rng = rng_for("interpolation-vs-enumeration")
    for n in range(1, 9):
        for _ in range(12):
            p = _rand_p(rng, n)
            q = rand_stochastic(rng, p.n) if rng.random() < 0.5 else rand_general_q(rng, p.n)
            polys = all_root_polynomials(p, q)
            assert polys == tuple(perturbed_root_polynomial(p, q, r) for r in range(p.n))
            assert root_weights(p) == tuple(root_weight_minor(p, r) for r in range(p.n))


def test_polynomial_sum_equals_pairwise_sum_random():
    # transient states and unions with several closed classes give zero
    # root polynomials
    rng = rng_for("polynomial-sum")
    zeros = 0
    for n in range(1, 9):
        for _ in range(12):
            p = _rand_p(rng, n)
            q = rand_stochastic(rng, p.n) if rng.random() < 0.5 else rand_general_q(rng, p.n)
            polys = all_root_polynomials(p, q)
            zeros += sum(h.is_zero() for h in polys)
            pairwise = EpsPolynomial()
            for h in polys:
                pairwise = pairwise + h
            total = sum_polynomials(polys)
            assert total == pairwise
            assert all(type(c) is Fraction for c in total.coeffs)
    assert zeros > 0
    assert sum_polynomials(()) == EpsPolynomial()
    assert sum_polynomials((EpsPolynomial(), EpsPolynomial())).is_zero()


def test_float_root_weights_match_exact_random():
    # the float reduction never subtracts: relative error near one ulp, and
    # exactly 0.0 where no arborescence exists
    rng = rng_for("float-root-weights")
    for n in range(1, 13):
        for _ in range(15):
            p = _rand_p(rng, n)
            exact = root_weights(p)
            for x, h in zip(root_weights(p.to_float()), exact):
                assert type(x) is float
                if h == 0:
                    assert x == 0.0
                else:
                    assert abs(x - float(h)) <= 1e-12 * float(h)


def test_polynomial_guards():
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q = uniform_matrix(3)
    with pytest.raises(GuardExceeded):
        perturbed_root_polynomial(p, q, 0, budget=1)
    with pytest.raises(GuardExceeded):
        all_root_polynomials(p, q, n_guard=2)


def test_exact_limit_needs_connected_union():
    p = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    q = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    with pytest.raises(NotIrreducible):
        exact_limit_from_polynomials(p, q)


def test_skeleton_identity_fixture():
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q = uniform_matrix(3)
    report = skeleton_identity_check(p, q, classify_states(p))
    assert report["m"] == 2
    assert report["class_sizes"] == [2, 1]
    assert report["num_skeletons"] == 2
    assert report["num_equal"] == 1
    assert report["num_discrepant"] == 1
    by_root = {sk["root"]: sk for sk in report["skeletons"]}
    assert by_root[0]["lhs"] == "2/3" and by_root[0]["rhs"] == "1/3"
    assert by_root[1]["lhs"] == "1/3" and by_root[1]["rhs"] == "1/3"


def test_skeleton_identity_rejects_transients_and_loose_q():
    from znrank.errors import TransientStatesPresent

    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    )
    with pytest.raises(TransientStatesPresent):
        skeleton_identity_check(p, uniform_matrix(3), classify_states(p))
    p2 = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q2 = RowStochasticMatrix(
        StateSpace(3),
        ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 3), F(1, 3), F(1, 3))),
    )
    with pytest.raises(ValueError):
        skeleton_identity_check(p2, q2, classify_states(p2))


def test_root_polynomials_interpolate_on_n_minus_m_plus_one_points(monkeypatch):
    # G_r(k) has degree at most n - m, m the number of P's closed classes, so
    # n - m + 1 evaluations determine it: one pass at m = n (identity P), n
    # at m = 1, and the polynomials still match enumeration, transient
    # roots included
    import znrank.arborescence

    rng = rng_for("interpolation-points")
    calls = []
    root_sums = znrank.arborescence.root_sums
    monkeypatch.setattr(znrank.arborescence, "root_sums", lambda *a: calls.append(1) or root_sums(*a))
    seen = set()
    for n in range(1, 8):
        for kind in ("identity", "irreducible", "classes", "transient"):
            if kind == "identity":
                p = RowStochasticMatrix(StateSpace(n), tuple({x: 1} for x in range(n)))
            elif kind == "irreducible":
                p = rand_irreducible(rng, n)
            elif kind == "classes":
                p = rand_reducible_no_transient(rng, rand_sizes(rng, rng.randint(1, n), total_cap=n))
            elif n >= 2:
                t = rng.randint(1, n - 1)
                p = rand_with_transients(rng, rand_sizes(rng, rng.randint(1, n - t), total_cap=n - t), t)
            else:
                continue
            m = classify_states(p).m
            q = rand_general_q(rng, p.n)
            del calls[:]
            polys = all_root_polynomials(p, q)
            assert len(calls) == p.n - m + 1
            assert polys == tuple(perturbed_root_polynomial(p, q, r) for r in range(p.n))
            seen.add((kind, m == 1, m == p.n, bool(classify_states(p).transient)))
    assert {("identity", False, True, False), ("irreducible", True, False, False),
            ("transient", True, False, True), ("transient", False, False, True)} <= seen
