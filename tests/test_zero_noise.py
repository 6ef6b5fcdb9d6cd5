import json
from fractions import Fraction

import pytest

from znrank.arborescence import SYMBOLIC_N_GUARD
from znrank.errors import GammaReducible, NotIrreducible, TransientStatesPresent
from znrank.graph import (
    RowStochasticMatrix,
    StateSpace,
    classify_states,
    ones_outer,
    uniform_matrix,
)
from znrank.rational import FLOAT
from znrank.stationary import Distribution, absorption_probabilities, class_stationary
from znrank.zero_noise import (
    adjudicate,
    build_gamma,
    extended_gamma,
    limit_rank,
    personalization_gamma,
    report_to_json,
)
from helpers import (
    rand_block_q,
    rand_general_q,
    rand_mixed_chain,
    rand_personalization,
    rand_q,
    rand_reducible_no_transient,
    rand_sizes,
    rand_with_transients,
    rng_for,
)

F = Fraction

REPORT_KEYS = [
    "mode",
    "classes",
    "transient",
    "gamma",
    "pi_gamma",
    "per_class_stationary",
    "class_masses",
    "node_limit",
    "labels",
]


def cycle_plus_absorber():
    return RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))


def test_build_gamma_uniform_sizes():
    p = cycle_plus_absorber()
    chain = build_gamma(p, uniform_matrix(3))
    assert (chain.gamma.row(0), chain.gamma.row(1)) == ((F(2, 3), F(1, 3)), (F(2, 3), F(1, 3)))
    assert chain.pi_gamma.values == (F(2, 3), F(1, 3))


def test_build_gamma_block_fixture():
    # within-class uniform block perturbation with gamma = [[1/3,1/3],[1/2,0]]
    p = cycle_plus_absorber()
    q = RowStochasticMatrix(
        StateSpace(3),
        (
            (F(1, 3), F(1, 3), F(1, 3)),
            (F(1, 3), F(1, 3), F(1, 3)),
            (F(1, 2), F(1, 2), 0),
        ),
    )
    chain = build_gamma(p, q)
    assert (chain.gamma.row(0), chain.gamma.row(1)) == ((F(2, 3), F(1, 3)), (F(1), F(0)))
    assert chain.pi_gamma.values == (F(3, 4), F(1, 4))
    report = limit_rank(p, q, mode="theorem3")
    assert report.node_limit.values == (F(3, 8), F(3, 8), F(1, 4))


def test_build_gamma_rejects_transients_and_reducible():
    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    )
    with pytest.raises(TransientStatesPresent):
        build_gamma(p, uniform_matrix(3))
    # identity perturbation never moves mass between classes: the union
    # support of P and Q has two closed classes, and no route has a limit
    p2 = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    q2 = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    with pytest.raises(NotIrreducible, match="^the union support of P and Q has more than one closed class$"):
        build_gamma(p2, q2)
    # Q leaves each class only through a transient state that P sends back:
    # the union is one closed class, and the oracle has the limit
    p4 = RowStochasticMatrix(StateSpace(4), ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)))
    q4 = RowStochasticMatrix(StateSpace(4), ((0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)))
    with pytest.raises(GammaReducible, match="more than one closed class") as refused:
        extended_gamma(p4, q4)
    assert "oracle --q" in str(refused.value) and "adjudicate" not in str(refused.value)


def test_limit_rank_general_rejects_transients():
    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    )
    with pytest.raises(TransientStatesPresent):
        limit_rank(p, uniform_matrix(3), mode="theorem3")


def test_limit_rank_refuses_an_unknown_mode():
    # a call limit_rank(p, q, part) from before P carried its partition puts it in mode
    p = cycle_plus_absorber()
    for mode in ("bogus", classify_states(p)):
        with pytest.raises(ValueError, match="unknown limit mode"):
            limit_rank(p, uniform_matrix(3), mode)


def test_limit_rank_refuses_a_mixed_pair_before_any_class_law(monkeypatch):
    import znrank.zero_noise

    calls = []
    monkeypatch.setattr(znrank.zero_noise, "class_stationary", lambda p: calls.append(p))
    p, q = cycle_plus_absorber(), uniform_matrix(3)
    for pm, qm in ((p, q.to_float()), (p.to_float(), q)):
        for mode in ("auto", "theorem3", "extended"):
            with pytest.raises(ValueError, match=f"P is {pm.numeric_mode} but Q is {qm.numeric_mode}"):
                limit_rank(pm, qm, mode=mode)
    assert calls == []
    monkeypatch.undo()
    assert limit_rank(p, q.to_float(), mode="theorem2").node_limit == limit_rank(p, None, mode="theorem2").node_limit


def test_personalization_gamma():
    p = cycle_plus_absorber()
    nu = Distribution((F(1, 5), F(3, 10), F(1, 2)))
    chain = personalization_gamma(nu, classify_states(p))
    assert chain.pi_gamma.values == (F(1, 2), F(1, 2))
    report = limit_rank(p, ones_outer(nu.values, p.states), mode="theorem3")
    assert report.node_limit.values == (F(1, 4), F(1, 4), F(1, 2))
    # a float nu sums its members' floats in order; a transient state is refused
    floats = personalization_gamma(Distribution((0.1, 0.2, 0.7), FLOAT), classify_states(p))
    assert floats.pi_gamma.values == (0.1 + 0.2, 0.7) and floats.gamma.dens is None
    p_transient = RowStochasticMatrix(StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4))))
    with pytest.raises(TransientStatesPresent, match="^personalization reduction needs a transient-free chain$"):
        personalization_gamma(nu, classify_states(p_transient))


def test_personalization_gamma_gives_a_zero_class_no_mass():
    p = cycle_plus_absorber()
    nu = Distribution((F(1, 2), F(1, 2), F(0)))
    assert personalization_gamma(nu, classify_states(p)).pi_gamma.values == (F(1), F(0))
    report = limit_rank(p, ones_outer(nu.values, p.states), mode="theorem3")
    assert report.node_limit.values == (F(1, 2), F(1, 2), F(0))


def test_extended_gamma_fixture():
    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    )
    q = RowStochasticMatrix(
        StateSpace(3),
        ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 0)),
    )
    report = limit_rank(p, q, mode="extended")
    assert report.mode == "extended"
    assert report.class_masses.values == (F(5, 9), F(4, 9))
    assert report.node_limit.values == (F(5, 9), F(4, 9), F(0))
    assert report == limit_rank(p, q, mode="extended")
    # transient-free chains reduce to the plain construction
    p0 = cycle_plus_absorber()
    plain = build_gamma(p0, uniform_matrix(3))
    ext = extended_gamma(p0, uniform_matrix(3))
    assert ext.gamma.rows == plain.gamma.rows


def test_limit_records_keep_their_repr():
    p = RowStochasticMatrix(StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4))))
    report = limit_rank(p, uniform_matrix(3), mode="extended")
    law = "Distribution(values=(Fraction(5, 9), Fraction(4, 9)), numeric_mode='exact')"
    gamma = ("GammaChain(gamma=RowStochasticMatrix(states=StateSpace(n=2, labels=('C1', 'C2')),"
             " rows={(0, 1): {0: Fraction(5, 9), 1: Fraction(4, 9)}},"
             f" numeric_mode='exact'), pi_gamma={law})")
    assert repr(report.gamma_chain) == gamma
    assert repr(report) == (
        "LimitReport(partition=ClassPartition(closed_classes=((0,), (1,)), transient=(2,)), per_class_stationary=("
        "Distribution(values=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), numeric_mode='exact'),"
        " Distribution(values=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), numeric_mode='exact')),"
        f" gamma_chain={gamma}, class_masses={law}, node_limit=Distribution(values=(Fraction(5, 9), Fraction(4, 9),"
        " Fraction(0, 1)), numeric_mode='exact'), mode='extended', labels=('0', '1', '2'))")
    for record, field in ((report, "mode"), (report.gamma_chain, "gamma")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(TypeError):  # a RowStochasticMatrix or Distribution field is unhashable
            hash(record)


def test_theorem2_prediction_reports_uniform_masses():
    p = cycle_plus_absorber()
    pred = limit_rank(p, None, mode="theorem2")
    assert pred.mode == "theorem2"
    assert pred.gamma_chain is None
    assert pred.class_masses.values == (F(1, 2), F(1, 2))
    assert pred.node_limit.values == (F(1, 4), F(1, 4), F(1, 2))


def test_report_to_json_schema_and_round_trip():
    p = cycle_plus_absorber()
    report = limit_rank(p, uniform_matrix(3), mode="theorem3")
    obj = report_to_json(report)
    assert list(obj.keys()) == REPORT_KEYS
    assert obj["gamma"] == [["2/3", "1/3"], ["2/3", "1/3"]]
    assert obj["gamma"][0] is obj["gamma"][1]  # a shared Gamma row is formatted once
    assert obj["node_limit"] == ["1/3", "1/3", "1/3"]
    json.dumps(obj)  # serializable
    obj2 = report_to_json(limit_rank(p, None, mode="theorem2"))
    assert obj2["gamma"] is None
    assert list(obj2.keys()) == REPORT_KEYS


def test_adjudicate_worked_fixture():
    p = cycle_plus_absorber()
    report = adjudicate(p, uniform_matrix(3))
    assert report["oracle_mode"] == "exact-polynomial"
    assert report["oracle"] == ["1/3", "1/3", "1/3"]
    assert report["methods"]["theorem3"]["verdict"] == "exact"
    assert report["methods"]["theorem2"]["verdict"] == "discrepant"
    assert report["methods"]["theorem2"]["max_deviation"] == "1/6"


def test_adjudicate_leading_order_oracle_on_floats():
    p = cycle_plus_absorber().to_float()
    report = adjudicate(p, uniform_matrix(3).to_float())
    assert report["oracle_mode"] == "leading-order"
    assert report["methods"]["theorem3"]["verdict"] == "pass"
    assert report["methods"]["theorem2"]["verdict"] == "discrepant"


def test_adjudicate_with_transients_uses_extended():
    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    )
    q = RowStochasticMatrix(
        StateSpace(3),
        ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 0)),
    )
    report = adjudicate(p, q)
    assert report["oracle_mode"] == "exact-polynomial"
    assert "extended" in report["methods"]
    assert report["methods"]["extended"]["verdict"] == "exact"


def test_adjudicate_passes_the_class_chain_limit_across_the_guard():
    # exact inputs up to SYMBOLIC_N_GUARD states meet the polynomial oracle
    # and must match it exactly; larger and float ones meet the float
    # leading-order limit and must pass within the rounding floor
    rng = rng_for("adjudicate-class-chain")
    kinds = ("uniform", "personalized", "block", "general", "partly shared")
    seen = set()
    for trial in range(40):
        kind = kinds[trial % len(kinds)]
        n = rng.randint(2, 16)
        t = 0 if kind == "block" else rng.randint(0, min(3, n - 2))
        sizes = rand_sizes(rng, rng.randint(1, 3), hi=6, total_cap=n - t)
        p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
        q = rand_q(rng, kind, p, sizes)
        for pm, qm in ((p, q), (p.to_float(), q.to_float())):
            report = adjudicate(pm, qm)
            (method,) = set(report["methods"]) - {"theorem2"}
            polynomial = pm.numeric_mode == "exact" and p.n <= SYMBOLIC_N_GUARD
            assert report["oracle_mode"] == ("exact-polynomial" if polynomial else "leading-order")
            assert report["methods"][method]["verdict"] == ("exact" if polynomial else "pass"), (kind, p.n)
            seen.add((pm.numeric_mode, p.n > SYMBOLIC_N_GUARD))
    assert len(seen) == 4


def test_general_route_matches_oracle_random():
    from znrank.arborescence import exact_limit_from_polynomials

    rng = rng_for("general-vs-oracle")
    for _ in range(10):
        sizes = rand_sizes(rng, rng.randint(2, 3), total_cap=5)
        p = rand_reducible_no_transient(rng, sizes)
        q, _ = rand_block_q(rng, sizes)
        report = limit_rank(p, q, mode="theorem3")
        oracle = exact_limit_from_polynomials(p, q)
        assert report.node_limit.values == oracle.values


def test_general_q_matches_oracle_random():
    from znrank.arborescence import exact_limit_from_polynomials

    rng = rng_for("general-q-vs-oracle")
    checked = {False: 0, True: 0}
    refused = 0
    for trial in range(61):
        with_transients = trial % 2 == 1
        if trial == 60:
            # repro-two-closed: Q leaves a and b only for the transient
            # state that P sends back, so Gamma is the identity
            with_transients = True
            p = RowStochasticMatrix(StateSpace(4), ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)))
            q = RowStochasticMatrix(StateSpace(4), ((0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)))
        else:
            t = rng.randint(1, 2) if with_transients else 0
            sizes = rand_sizes(rng, rng.randint(2, 3), total_cap=7 - t)
            if not 3 <= sum(sizes) + t <= 7:
                continue
            if with_transients:
                p = rand_with_transients(rng, sizes, t)
            else:
                p = rand_reducible_no_transient(rng, sizes)
            q = rand_general_q(rng, p.n)
        mode = "extended" if with_transients else "theorem3"
        try:
            report = limit_rank(p, q, mode=mode)
        except GammaReducible:
            # only a reduced chain with several closed classes is refused
            part = classify_states(p)
            absorb = absorption_probabilities(p) if with_transients else None
            rows = _per_state_reduced_rows(q, part, class_stationary(p), absorb)
            assert classify_states(RowStochasticMatrix(StateSpace(part.m), tuple(map(tuple, rows)))).m >= 2
            refused += 1
            continue
        oracle = exact_limit_from_polynomials(p, q)
        assert report.node_limit.values == oracle.values
        floats = limit_rank(p.to_float(), q.to_float(), mode=mode).node_limit.values
        assert max(abs(a - float(b)) for a, b in zip(floats, oracle.values)) < 1e-12
        checked[with_transients] += 1
    assert checked[False] >= 20 and checked[True] >= 15 and refused >= 1


def _per_state_reduced_rows(q, part, laws, absorb):
    """Reference Gamma: Q(x, C_j) formed state by state, then weighted by
    pi_k(x) one member at a time, in the mode's own arithmetic."""
    zero = 0.0 if q.numeric_mode == "float" else F(0)
    owner = {y: j for j, c in enumerate(part.closed_classes) for y in c}
    rows = []
    for k, ck in enumerate(part.closed_classes):
        row = [zero] * part.m
        for x in ck:
            mass = [zero] * part.m
            for y, v in q.rows[x].items():
                if y in owner:
                    mass[owner[y]] += v
                else:
                    for j, a in enumerate(absorb.row_for(y)):
                        mass[j] += v * a
            for j in range(part.m):
                row[j] += laws[k][x] * mass[j]
        rows.append(row)
    return rows


def _gamma_rows(p, q):
    """extended_gamma's rows of Gamma, dense."""
    gamma = extended_gamma(p, q).gamma
    return [list(gamma.row(i)) for i in range(gamma.n)]


def test_reduced_rows_equal_the_per_state_sum():
    # Gamma's rows equal the reference formed member by member: exactly in
    # exact mode, within the rounding floor in float
    from znrank.sweep import rounding_floor

    rng = rng_for("reduced-rows-per-state")
    kinds = ("uniform", "personalized", "block", "general", "partly shared")
    seen = set()
    for trial in range(100):
        kind = kinds[trial % len(kinds)]
        sizes = rand_sizes(rng, rng.randint(1, 3))
        t = 0 if kind == "block" else rng.choice((0, 1, 2))  # block Q lives on closed classes only
        p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
        q = rand_q(rng, kind, p, sizes)
        part = classify_states(p)
        absorb = absorption_probabilities(p) if part.transient else None
        want = _per_state_reduced_rows(q, part, class_stationary(p), absorb)
        rows = _gamma_rows(p, q)
        assert rows == want, kind
        floats = _gamma_rows(p.to_float(), q.to_float())
        assert all(abs(a - b) <= rounding_floor(p.n) for r, w in zip(floats, want) for a, b in zip(r, w)), kind
        seen.add((kind, bool(part.transient)))
    assert len(seen) == 9


def _grouped_reduced_rows(q, part, laws, absorb):
    """Reference exact Gamma in the grouped form: the members of a class
    that hold one Q row object are weighted once, by their summed law
    entries."""
    owner = {y: j for j, c in enumerate(part.closed_classes) for y in c}
    rows = []
    for k, ck in enumerate(part.closed_classes):
        groups = {}  # id of a Q row -> [summed law entries, a member]
        for x in ck:
            groups.setdefault(id(q.rows[x]), [F(0), x])[0] += laws[k][x]
        row = [F(0)] * part.m
        for w, x in groups.values():
            for y, v in q.rows[x].items():
                for j, a in [(owner[y], 1)] if y in owner else enumerate(absorb.row_for(y)):
                    row[j] += w * v * a
        rows.append(row)
    return rows


def _heavy(rng, m):
    """m with a 30-digit weight, 10^30 + 1, on one entry of some distinct
    rows, each then normalised again; rows shared by several states stay
    shared."""
    done = {}
    for row in m.rows:
        if id(row) not in done:
            w = dict(row)
            if rng.random() < 0.4:
                w[rng.choice(list(w))] *= 10**30 + 1
            total = sum(w.values())
            done[id(row)] = {j: v / total for j, v in w.items()}
    return RowStochasticMatrix(m.states, tuple(done[id(row)] for row in m.rows))


def test_reduced_rows_float_keeps_its_bits():
    # on rows with 30-digit weights too, exact rows equal the grouped form
    # and float rows are within the rounding floor of them
    from znrank.sweep import rounding_floor

    rng = rng_for("reduced-rows-float-bits")
    kinds = ("uniform", "personalized", "block", "partly shared", "general")
    seen = set()
    for trial in range(150):
        kind = kinds[trial % len(kinds)]
        t = 0 if kind == "block" else rng.randint(0, 3)
        sizes = rand_sizes(rng, rng.randint(1, 3), hi=5, total_cap=12 - t)
        p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
        q = rand_q(rng, kind, p, sizes)
        heavy = trial % 3 == 0
        if heavy:
            p, q = _heavy(rng, p), _heavy(rng, q)
        part = classify_states(p)
        absorb = absorption_probabilities(p) if part.transient else None
        rows = _gamma_rows(p, q)
        assert rows == _grouped_reduced_rows(q, part, class_stationary(p), absorb), kind
        floats = _gamma_rows(p.to_float(), q.to_float())
        assert all(abs(a - b) <= rounding_floor(p.n) for r, w in zip(floats, rows) for a, b in zip(r, w)), kind
        seen.add((kind, bool(part.transient), heavy))
    assert len(seen) == 18, sorted(seen)


def test_unichain_gamma_gives_its_transient_classes_mass_zero():
    # every Q row goes to b or t and P sends t to b: in Gamma, C2 = {b} is
    # closed and C1 = {a} transient. The union of the supports is not
    # strongly connected, but P_eps has one closed class, {b, t}.
    from znrank.stationary import unichain_law
    from znrank.sweep import perturbed_matrix

    p = RowStochasticMatrix(StateSpace(3), ((1, 0, 0), (0, 1, 0), (0, 1, 0)))
    q = ones_outer((F(0), F(2, 3), F(1, 3)))
    report = limit_rank(p, q, mode="extended")
    assert report.gamma_chain.pi_gamma.values == (F(0), F(1))
    assert report.node_limit.values == (F(0), F(1), F(0))
    law = unichain_law(perturbed_matrix(p, q, F(1, 10**12)))
    assert max(abs(a - b) for a, b in zip(law.values, report.node_limit.values)) < F(1, 10**11)


def _one_row_q(rng, kind, p, part):
    """Q = 1 nu^T, every row one object, for a kind of nu: "uniform",
    "full" (positive everywhere), "transient" (mass on transient states
    only) or "no-mass" (some closed classes get none)."""
    if kind == "uniform":
        return uniform_matrix(p.n)
    nu = list(rand_personalization(rng, p.n))
    if kind == "transient":
        nu = [x if s in part.transient else 0 for s, x in enumerate(nu)]
    elif kind == "no-mass":
        dropped = rng.sample(part.closed_classes, rng.randint(1, part.m - 1))
        nu = [0 if any(s in c for c in dropped) else x for s, x in enumerate(nu)]
    total = sum(nu)
    return ones_outer([x / total for x in nu])


def test_one_row_gamma_equals_the_general_route():
    # for Q = 1 nu^T, Gamma is m references to nu's routed class masses and
    # pi_Gamma those masses; the same Q with its rows held as separate
    # objects takes the general route, each class's Q mass weighted by its
    # class law and Gamma solved, and agrees, exactly in exact mode and
    # within the rounding floor in float
    from znrank.sweep import rounding_floor

    rng = rng_for("one-row-gamma")
    seen = set()
    for trial in range(400):
        t = trial % 5
        sizes = rand_sizes(rng, rng.randint(1, 4), hi=4, total_cap=10)
        p = rand_mixed_chain(rng, sizes, t) if trial % 2 else rand_with_transients(rng, sizes, t)
        part = classify_states(p)
        kinds = ["uniform", "full"] + (["transient"] if t else []) + (["no-mass"] if part.m > 1 else [])
        kind = kinds[trial // 10 % len(kinds)]
        q = _one_row_q(rng, kind, p, part)
        for pm, qm in ((p, q), (p.to_float(), q.to_float())):
            chain = extended_gamma(pm, qm)
            assert len({id(row) for row in chain.gamma.num_rows}) == 1
            separate = RowStochasticMatrix(qm.states, tuple(dict(row) for row in qm.num_rows), qm.numeric_mode, qm.dens)
            want = extended_gamma(pm, separate)
            if pm.numeric_mode == "exact":
                assert chain == want, (kind, trial)
            else:
                floor = rounding_floor(p.n)
                assert all(abs(a - b) <= floor for i in range(part.m)
                           for a, b in zip(chain.gamma.row(i), want.gamma.row(i))), (kind, trial)
                assert all(abs(a - b) <= floor for a, b in zip(chain.pi_gamma.values, want.pi_gamma.values))
        seen.add((kind, t > 0, trial % 2))
    assert len(seen) == 14, sorted(seen)
