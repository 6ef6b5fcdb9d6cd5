import math
from fractions import Fraction

import pytest

import znrank.arborescence
from znrank.arborescence import (
    SKELETON_M_GUARD,
    SYMBOLIC_N_GUARD,
    Arborescence,
    all_root_polynomials,
    arborescence_weight,
    enumerate_arborescences,
    enumerated_root_weight,
    exact_limit_from_polynomials,
    mctt_stationary,
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
        parents = [a.parents for a in arbs]
        assert parents == sorted(parents)


def test_arborescences_are_immutable_value_records():
    trees = enumerate_arborescences(parse_edge_list("a b\nb a\nb c\nc a\n"), 0)
    assert repr(trees) == ("[Arborescence(root=0, parents=((1, 0), (2, 0))),"
                           " Arborescence(root=0, parents=((1, 2), (2, 0)))]")
    twin = Arborescence(0, ((1, 0), (2, 0)))
    assert trees[0] == twin and hash(trees[0]) == hash(twin)
    assert dict(twin.parents) == {1: 0, 2: 0}
    with pytest.raises(AttributeError):
        twin.root = 1


def test_enumerate_excludes_self_loops_and_cycles():
    g = parse_edge_list("a a\na b\nb a\n")
    arbs = enumerate_arborescences(g, 0)
    assert [a.parents for a in arbs] == [((1, 0),)]


def test_enumeration_guards(monkeypatch):
    g = parse_edge_list("\n".join(f"n{i} n{(i + 1) % 13}" for i in range(13)))
    with pytest.raises(GuardExceeded):
        enumerate_arborescences(g, 0)
    k3 = parse_edge_list(K3)
    monkeypatch.setattr(znrank.arborescence, "DEFAULT_ASSIGNMENT_BUDGET", 1)
    with pytest.raises(GuardExceeded, match="^4 candidate assignments exceed the budget of 1$"):
        enumerate_arborescences(k3, 0)


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
        floats = root_weights(p.to_float())  # the float tree sums, against the exact minors
        for r in range(p.n):
            assert abs(float(root_weight_minor(p, r)) - floats[r]) < 1e-12


def test_tree_theorem_cross_checks_refuse_float_matrices():
    p = RowStochasticMatrix(StateSpace(3), ((0, F(1, 2), F(1, 2)), (1, 0, 0), (1, 0, 0))).to_float()
    checks = (lambda: root_weight_minor(p, 0), lambda: enumerated_root_weight(p, 0), lambda: mctt_stationary(p),
              lambda: arborescence_weight(Arborescence(0, ((1, 0), (2, 0))), p))
    for check in checks:
        with pytest.raises(ValueError, match="need exact"):
            check()


def test_polynomials_worked_fixture():
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q = uniform_matrix(3)
    polys = all_root_polynomials(p, q)
    expected = EpsPolynomial((0, F(2, 3), F(-1, 3)))
    assert polys == (expected, expected, expected)
    assert polys[0].min_degree() == 1
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
        values = [sum(c * eps**d for d, c in enumerate(h.coeffs)) for h in polys]
        total = sum(values, F(0))
        for i, v in enumerate(values):
            assert v / total == pi[i]


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
    # that are not strongly connected; unit and 30-digit weights in one row
    # give coefficients far apart in size
    rng, weights = rng_for("interpolation-vs-enumeration"), rng_for("interpolation-weights")

    def unit_or_int30(rng):
        return rng.choice((1, WIDE_WEIGHTS["int30"](rng)))

    heavy = 0
    for n in range(1, 11):
        for _ in range(12 if n < 9 else 4):
            p = _rand_p(rng, n)
            q = rand_stochastic(rng, p.n) if rng.random() < 0.5 else rand_general_q(rng, p.n)
            if weights.random() < 0.5:
                p, q = _reweighted(weights, p, unit_or_int30), _reweighted(weights, q, unit_or_int30)
                heavy += 1
            polys = all_root_polynomials(p, q)
            assert polys == tuple(perturbed_root_polynomial(p, q, r) for r in range(p.n))
            assert root_weights(p) == tuple(root_weight_minor(p, r) for r in range(p.n))
    assert heavy > 30


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
            zeros += sum(not h.nums for h in polys)
            pairwise = EpsPolynomial()
            for h in polys:
                pairwise = pairwise + h
            total = sum_polynomials(polys)
            assert total == pairwise
            assert all(type(c) is Fraction for c in total.coeffs)
    assert zeros > 0
    assert sum_polynomials(()) == EpsPolynomial()
    assert sum_polynomials((EpsPolynomial(), EpsPolynomial())).nums == ()


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


def test_root_weights_are_the_constant_terms_random():
    # H_r(0) is P's sum of arborescence weights at r, which `oracle --q`
    # prints as P's root weights: 0 at every transient state, and at every
    # root when P has several closed classes
    rng = rng_for("root-weights-constant-terms")
    kinds = set()
    for n in range(1, 10):
        for _ in range(12):
            p = _rand_p(rng, n)
            q = rand_stochastic(rng, p.n) if rng.random() < 0.5 else rand_general_q(rng, p.n)
            part = classify_states(p)
            constants = tuple((*h.coeffs, Fraction(0))[0] for h in all_root_polynomials(p, q))
            assert constants == root_weights(p)
            if part.m > 1:
                assert not any(constants)
                kinds.add("closed classes")
            elif part.transient:
                assert all(constants[x] == 0 for x in part.transient) and any(constants)
                kinds.add("transient")
    assert kinds == {"closed classes", "transient"}


def test_polynomial_guards(monkeypatch):
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q = uniform_matrix(3)
    monkeypatch.setattr(znrank.arborescence, "DEFAULT_ASSIGNMENT_BUDGET", 1)
    with pytest.raises(GuardExceeded):
        perturbed_root_polynomial(p, q, 0)
    big = uniform_matrix(SYMBOLIC_N_GUARD + 1)
    with pytest.raises(GuardExceeded, match=f"n = 11 exceeds the symbolic guard {SYMBOLIC_N_GUARD}"):
        all_root_polynomials(big, big)


def test_refusals_keep_their_messages():
    # every refusal of the enumeration and polynomial routes, with its message
    g = parse_edge_list("a b\nb a\n")
    with pytest.raises(ValueError, match="^root 2 outside the state space$"):
        enumerate_arborescences(g, 2)
    u = uniform_matrix(3)
    for root in (5, -1):
        for route in (lambda: perturbed_root_polynomial(u, u, root), lambda: enumerated_root_weight(u, root),
                      lambda: root_weight_minor(u, root)):
            with pytest.raises(ValueError, match=f"^root {root} outside the state space$"):
                route()
    p2, q3 = uniform_matrix(2), uniform_matrix(3)
    for route in (lambda: perturbed_root_polynomial(p2, q3, 0), lambda: all_root_polynomials(p2, q3)):
        with pytest.raises(ValueError, match="^P and Q must share a state space$"):
            route()
    big = uniform_matrix(SYMBOLIC_N_GUARD + 1)
    for route in (lambda: perturbed_root_polynomial(big, big, 0), lambda: enumerated_root_weight(big, 0)):
        with pytest.raises(GuardExceeded, match=f"^n = 11 exceeds the symbolic guard {SYMBOLIC_N_GUARD}$"):
            route()
    m = SKELETON_M_GUARD + 1
    absorbing = RowStochasticMatrix(StateSpace(m), tuple({i: 1} for i in range(m)))
    with pytest.raises(GuardExceeded, match=f"^m = 6 exceeds the skeleton guard {SKELETON_M_GUARD}$"):
        skeleton_identity_check(absorbing, uniform_matrix(m))


def test_exact_limit_needs_connected_union():
    p = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    q = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    with pytest.raises(NotIrreducible):
        exact_limit_from_polynomials(p, q)


def test_skeleton_identity_fixture():
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q = uniform_matrix(3)
    report = skeleton_identity_check(p, q)
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
        skeleton_identity_check(p, uniform_matrix(3))
    p2 = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    q2 = RowStochasticMatrix(
        StateSpace(3),
        ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 3), F(1, 3), F(1, 3))),
    )
    with pytest.raises(ValueError):
        skeleton_identity_check(p2, q2)


def test_root_polynomials_come_from_one_pass_of_degree_at_most_n_minus_m(monkeypatch):
    # one root_sums pass gives every G_r; G_r has degree at most n - m, m the
    # number of P's closed classes, and the polynomials still match
    # enumeration, transient roots included. G_r(k) is (k + 1)^(n-1) H_r(1 /
    # (k + 1)) up to a constant, so its coefficient of k^d is sum_i h_i
    # C(n - 1 - i, d) for H_r's coefficients h_i.
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
            assert len(calls) == 1
            for h in polys:
                g = [sum(c * math.comb(p.n - 1 - i, d) for i, c in enumerate(h.coeffs)) for d in range(p.n)]
                assert not any(g[p.n - m + 1:])
            assert polys == tuple(perturbed_root_polynomial(p, q, r) for r in range(p.n))
            seen.add((kind, m == 1, m == p.n, bool(classify_states(p).transient)))
    assert {("identity", False, True, False), ("irreducible", True, False, False),
            ("transient", True, False, True), ("transient", False, False, True)} <= seen


def _reweighted(rng, m, weight):
    """m's support, self-loops included, with fresh weights weight(rng),
    each row normalised."""
    rows = []
    for x in range(m.n):
        w = {y: F(weight(rng)) for y, v in enumerate(m.row(x)) if v}
        total = sum(w.values())
        rows.append({y: v / total for y, v in w.items()})
    return RowStochasticMatrix(StateSpace(m.n), tuple(rows))


def _assert_matches_enumeration(p, q):
    polys = all_root_polynomials(p, q)
    assert polys == tuple(perturbed_root_polynomial(p, q, r) for r in range(p.n))
    return polys


WIDE_WEIGHTS = {
    "int30": lambda rng: 10**30 + rng.randrange(10**6),
    "den20": lambda rng: F(rng.randrange(1, 10**20), rng.randrange(10**19, 10**20)),
}


@pytest.mark.parametrize("kind", sorted(WIDE_WEIGHTS))
def test_root_polynomials_with_wide_weights_match_enumeration(kind):
    # row denominators of 30 or 20 digits: G_r's coefficients fill fields of
    # hundreds of bits
    rng = rng_for(f"wide-weights-{kind}")
    for n in range(1, 8):
        for _ in range(3):
            p = _reweighted(rng, _rand_p(rng, n), WIDE_WEIGHTS[kind])
            q = _reweighted(rng, rand_general_q(rng, p.n), WIDE_WEIGHTS[kind])
            _assert_matches_enumeration(p, q)


def test_root_polynomials_on_complete_unions_match_enumeration():
    # irreducible P and uniform Q: every arborescence exists, so G_r(1)
    # comes within a few bits of the row-sum bound
    rng = rng_for("complete-unions")
    for n in range(1, 8):
        for weight in (lambda rng: rng.randint(1, 9), *WIDE_WEIGHTS.values()):
            p = _reweighted(rng, rand_irreducible(rng, n), weight)
            polys = _assert_matches_enumeration(p, uniform_matrix(n))
            assert all(h.nums for h in polys)


def test_root_polynomials_fill_their_fields():
    # an in-tree to an absorbing root r, P on each tree edge and Q mostly on
    # the self-loop: G_r(1) equals the row-sum bound, and the coefficients of
    # (N - (N - 1) eps)^(n-1), whose magnitudes sum to (2 N - 1)^(n-1), come
    # within a few bits of the digit bound G_r(1) 2^(n-1)
    rng = rng_for("full-fields")
    for n in range(2, 8):
        for _ in range(3):
            parent = [None] + [rng.randrange(x) for x in range(1, n)]
            nn = 10**30 + rng.randrange(10**6)
            p = RowStochasticMatrix(StateSpace(n), tuple({0: 1} if x == 0 else {parent[x]: 1} for x in range(n)))
            q = RowStochasticMatrix(StateSpace(n), tuple(
                {0: 1} if x == 0 else {parent[x]: F(1, nn), x: 1 - F(1, nn)} for x in range(n)))
            polys = _assert_matches_enumeration(p, q)
            assert not any(h.nums for h in polys[1:])
            assert polys[0].coeffs[0] == 1


def test_zero_root_polynomials_match_enumeration():
    # unions with several closed classes have no spanning arborescence, and
    # a root transient in the union has none either
    rng = rng_for("zero-root-polynomials")
    for n in range(2, 8):
        for _ in range(3):
            sizes = rand_sizes(rng, rng.randint(2, n), total_cap=n)
            p = _reweighted(rng, rand_reducible_no_transient(rng, sizes), WIDE_WEIGHTS["int30"])
            assert not any(h.nums for h in _assert_matches_enumeration(p, p))
            t = rng.randint(1, n - 1)
            base = rand_with_transients(rng, rand_sizes(rng, 1, total_cap=n - t), t)
            p, q = (_reweighted(rng, base, WIDE_WEIGHTS["den20"]) for _ in range(2))  # Q on P's support
            polys = _assert_matches_enumeration(p, q)
            transient = classify_states(p).transient
            assert [x for x in range(p.n) if not polys[x].nums] == sorted(transient)
