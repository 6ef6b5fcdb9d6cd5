"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every criterion is deterministic: seeded generators, pinned
tolerances, exact rational assertions wherever the arithmetic is exact.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

from znrank.arborescence import (
    all_root_polynomials,
    enumerate_arborescences,
    enumerated_root_weight,
    exact_limit_from_polynomials,
    mctt_stationary,
    root_weight_minor,
    skeleton_identity_check,
)
from znrank.graph import (
    RowStochasticMatrix,
    StateSpace,
    classify_states,
    ones_outer,
    parse_edge_list,
    uniform_matrix,
)
from znrank.models import bt_leaf_formula_check, simple_random_walk
from znrank.polynomial import EpsPolynomial
from znrank.stationary import Distribution, absorption_probabilities, stationary_direct
from znrank.sweep import (
    DEFAULT_FLOAT_GRID,
    convergence_report,
    epsilon_sweep,
    exact_first_order,
    extrapolate_limit,
    first_order_estimate,
    perturbed_matrix,
)
from znrank.zero_noise import (
    adjudicate,
    limit_rank,
    personalization_gamma,
)
from helpers import (
    rand_block_q,
    rand_irreducible,
    rand_personalization,
    rand_reducible_no_transient,
    rand_sizes,
    rand_stochastic,
    rand_strong_digraph,
    rand_with_transients,
    rng_for,
)

F = Fraction

# pinned tolerances
FLOAT_STATIONARY_TOL = 1e-10          # criterion 1, floating route
SWEEP_NOISE_FLOOR = 1e-10             # criterion 4, eps-independent instances
EXTRAPOLATION_TOL = 10 * DEFAULT_FLOAT_GRID[-1]  # criterion 7: 10 * eps_min
FIRST_ORDER_REL_TOL = F(1, 10000)     # criterion 9

WORKED_P = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
TRANSIENT_P = RowStochasticMatrix(
    StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
)
K3 = parse_edge_list("a b\nb a\na c\nc a\nb c\nc b\n")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"\n[acceptance] criterion {num:02d} {name}: PASS")


def reducible_block_instances(tag, count):
    """Transient-free reducible chains paired with block perturbations."""
    rng = rng_for(tag)
    out = []
    for _ in range(count):
        m = rng.randint(2, 4)
        sizes = rand_sizes(rng, m)
        p = rand_reducible_no_transient(rng, sizes)
        q, _ = rand_block_q(rng, sizes)
        out.append((p, q, m))
    return out


def linf(a, b):
    return max(abs(float(x) - float(y)) for x, y in zip(a, b))


def test_criterion_01_tree_stationary_matches_direct():
    with criterion(1, "tree-theorem stationary equals the direct solve"):
        rng = rng_for("mctt-vs-direct")
        for _ in range(200):
            p = rand_irreducible(rng, rng.randint(2, 8))
            assert mctt_stationary(p).values == stationary_direct(p).values
            assert linf(mctt_stationary(p).values, stationary_direct(p.to_float()).values) <= FLOAT_STATIONARY_TOL


def test_criterion_02_minor_matches_enumeration():
    with criterion(2, "tree-theorem minor equals the enumerated weight sum"):
        rng = rng_for("minor-vs-enumeration")
        for _ in range(100):
            p = rand_stochastic(rng, rng.randint(2, 7))
            for root in range(p.n):
                assert root_weight_minor(p, root) == enumerated_root_weight(p, root)


def test_criterion_03_total_polynomial_degree_law():
    with criterion(3, "total perturbation polynomial has degree m-1"):
        for p, q, m in reducible_block_instances("degree-and-limit", 50):
            total = EpsPolynomial()
            for h in all_root_polynomials(p, q):
                total = total + h
            assert total.min_degree() == m - 1


def test_criterion_04_class_chain_limit_vs_oracle_and_sweep():
    with criterion(4, "class-chain limit equals the oracle; sweep errors decay"):
        resolved = 0
        for p, q, _ in reducible_block_instances("degree-and-limit", 50):
            limit = limit_rank(p, q, mode="theorem3")
            assert limit.node_limit.values == exact_limit_from_polynomials(p, q).values
            rep = convergence_report(epsilon_sweep(p.to_float(), q.to_float()))
            if rep["verdict"] == "pass":
                # errors stay below the fitted C * eps envelope, slope >= 0.8
                resolved += 1
            else:
                # block perturbations keep class masses eps-invariant, and
                # uniform-stationary blocks make the whole law eps-invariant;
                # then the float errors sit at the solver noise floor and the
                # log-log slope is meaningless
                assert rep["max_error"] <= SWEEP_NOISE_FLOOR
        assert resolved >= 5  # enough instances genuinely resolve the decay


def test_criterion_05_worked_adjudication_fixture():
    with criterion(5, "worked fixture: oracle values and uniform-mass discrepancy"):
        p, q = WORKED_P, uniform_matrix(3)
        third = (F(1, 3), F(1, 3), F(1, 3))
        for eps in (F(1, 10), F(1, 100), F(1, 1000), F(1, 7)):
            assert stationary_direct(perturbed_matrix(p, q, eps)).values == third
        limit = limit_rank(p, q, mode="theorem3")
        assert limit.class_masses.values == (F(2, 3), F(1, 3))  # |C_k| / n
        assert limit.node_limit.values == third
        pred = limit_rank(p, None, mode="theorem2")
        assert pred.node_limit.values == (F(1, 4), F(1, 4), F(1, 2))
        assert max(abs(a - b) for a, b in zip(pred.node_limit.values, third)) == F(1, 6)
        report = adjudicate(p, q)
        assert report["oracle"] == ["1/3", "1/3", "1/3"]
        assert report["methods"]["theorem2"]["verdict"] == "discrepant"
        assert report["methods"]["theorem2"]["max_deviation"] == "1/6"
        assert report["methods"]["theorem3"]["verdict"] == "exact"


def test_criterion_06_personalization_class_masses():
    with criterion(6, "personalization masses equal nu per class, oracle agrees"):
        rng = rng_for("personalization")
        for _ in range(30):
            m = rng.randint(2, 4)
            sizes = rand_sizes(rng, m)
            p = rand_reducible_no_transient(rng, sizes)
            part = classify_states(p)
            nu = Distribution(rand_personalization(rng, p.n))
            class_nu = tuple(sum(nu.values[x] for x in c) for c in part.closed_classes)
            assert personalization_gamma(nu, part).pi_gamma.values == class_nu
            oracle = exact_limit_from_polynomials(p, ones_outer(nu.values, p.states))
            assert tuple(
                sum(oracle.values[x] for x in c) for c in part.closed_classes
            ) == class_nu


def test_criterion_07_extended_reduction_validation():
    with criterion(7, "extended reduction matches sweeps and the exact fixture"):
        rng = rng_for("extended-sweep")
        for _ in range(30):
            m = rng.randint(1, 3)
            sizes = rand_sizes(rng, m, total_cap=5)
            p = rand_with_transients(rng, sizes, rng.randint(1, 3))
            q = uniform_matrix(p.n, p.states)
            pred = limit_rank(p, q, mode="extended").node_limit.values
            assert linf(pred, extrapolate_limit(p, q)) <= EXTRAPOLATION_TOL
        # fixed fixture, exact to leading order
        p, q = TRANSIENT_P, uniform_matrix(3)
        assert absorption_probabilities(p).row_for(2) == (F(2, 3), F(1, 3))
        ext = limit_rank(p, q, mode="extended")
        assert ext.class_masses.values == (F(5, 9), F(4, 9))
        assert exact_limit_from_polynomials(p, q).values == (F(5, 9), F(4, 9), F(0))
        assert ext.node_limit.values == (F(5, 9), F(4, 9), F(0))


def test_criterion_08_walk_minor_counts_arborescences():
    with criterion(8, "walk minors scale to integer arborescence counts"):
        rng = rng_for("walk-identity")
        import math

        for _ in range(30):
            g = rand_strong_digraph(rng, rng.randint(2, 7))
            p = simple_random_walk(g)
            degs = [g.out_degree(u) for u in range(g.states.n)]
            prod = math.prod(degs)
            for i in range(g.states.n):
                count = len(enumerate_arborescences(g, i))
                assert root_weight_minor(p, i) * prod / degs[i] == count
        p3 = simple_random_walk(K3)
        degs = [2, 2, 2]
        counts = [int(root_weight_minor(p3, i) * 8 / degs[i]) for i in range(3)]
        assert counts == [3, 3, 3]


def test_criterion_09_first_order_derivative():
    with criterion(9, "difference quotient matches the exact derivative at zero"):
        eps_pair = (F(1, 1000), F(1, 10000))
        for p, q, _ in reducible_block_instances("first-order-01", 20):
            est = first_order_estimate(p, q, eps_pair)
            exact = exact_first_order(p, q)
            scale = max(F(1), max(abs(x) for x in exact))
            assert max(abs(a - b) for a, b in zip(est, exact)) / scale <= FIRST_ORDER_REL_TOL
        # symmetric fixture: the stationary law never moves
        p = RowStochasticMatrix(StateSpace(2), ((0, 1), (1, 0)))
        q = uniform_matrix(2)
        assert first_order_estimate(p, q, eps_pair) == (F(0), F(0))
        assert exact_first_order(p, q) == (F(0), F(0))


def _skeleton_schema_ok(report):
    assert set(report) == {
        "m", "class_sizes", "skeletons", "num_skeletons", "num_equal", "num_discrepant",
    }
    assert isinstance(report["m"], int)
    assert all(isinstance(s, int) for s in report["class_sizes"])
    assert report["num_skeletons"] == len(report["skeletons"])
    assert report["num_equal"] + report["num_discrepant"] == report["num_skeletons"]
    for sk in report["skeletons"]:
        assert set(sk) == {"root", "edges", "lhs", "rhs", "equal"}
        assert isinstance(sk["root"], int)
        assert isinstance(sk["lhs"], str) and "/" in sk["lhs"]
        assert isinstance(sk["rhs"], str) and "/" in sk["rhs"]
        assert isinstance(sk["equal"], bool)


def _leaf_schema_ok(report):
    assert set(report) == {"n", "weights", "pi", "leaf_expression", "ratio", "proportional"}
    assert isinstance(report["n"], int)
    assert isinstance(report["proportional"], bool)
    for key in ("weights", "pi", "leaf_expression", "ratio"):
        assert len(report[key]) == report["n"]
        assert all(isinstance(x, str) for x in report[key])


def test_criterion_10_adjudication_reports_deterministic():
    with criterion(10, "identity-check reports are deterministic and well formed"):
        a = skeleton_identity_check(WORKED_P, uniform_matrix(3))
        b = skeleton_identity_check(WORKED_P, uniform_matrix(3))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        _skeleton_schema_ok(a)
        w = (F(1), F(2), F(3))
        c = bt_leaf_formula_check(K3, w)
        d = bt_leaf_formula_check(K3, w)
        assert json.dumps(c, sort_keys=True) == json.dumps(d, sort_keys=True)
        _leaf_schema_ok(c)
        # verdicts themselves are data, recorded by the unit suite
