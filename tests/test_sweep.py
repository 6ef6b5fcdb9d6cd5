from fractions import Fraction

import pytest

import znrank.sweep
from znrank.arborescence import exact_limit_from_polynomials
from znrank.errors import EpsOutOfRange, GammaReducible, NotIrreducible
from znrank.graph import (
    DANGLING_POLICIES,
    RowStochasticMatrix,
    StateSpace,
    parse_edge_list,
    require_unichain_union,
    to_stochastic,
    uniform_matrix,
)
from znrank.stationary import _law, _mixed_rows, stationary_direct
from znrank.zero_noise import limit_rank
from znrank.sweep import (
    DEFAULT_EXACT_GRID,
    DEFAULT_FLOAT_GRID,
    _perturbed_laws,
    _shared_q_rows,
    convergence_report,
    epsilon_sweep,
    exact_first_order,
    extrapolate_limit,
    first_order_estimate,
    parse_eps_grid,
    perturbed_matrix,
)
from helpers import (
    assert_stationary,
    fractions_built,
    rand_irreducible,
    rand_mixed_chain,
    rand_partly_shared_q,
    rand_q,
    rand_reducible_no_transient,
    rand_sizes,
    rand_stochastic,
    rand_with_transients,
    rng_for,
)

F = Fraction


def cycle_plus_absorber():
    return RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))


def test_perturbed_matrix_exact_and_float():
    p = cycle_plus_absorber()
    q = uniform_matrix(3)
    pe = perturbed_matrix(p, q, F(1, 10))
    assert pe.numeric_mode == "exact"
    assert pe.entry(0, 0) == F(1, 30)
    assert pe.entry(0, 1) == F(9, 10) + F(1, 30)
    pf = perturbed_matrix(p.to_float(), q.to_float(), 0.1)
    assert pf.numeric_mode == "float"
    with pytest.raises(EpsOutOfRange):
        perturbed_matrix(p, q, F(0))
    with pytest.raises(EpsOutOfRange):
        perturbed_matrix(p, q, F(3, 2))
    with pytest.raises(ValueError):
        perturbed_matrix(p, uniform_matrix(2), F(1, 10))


def test_exact_sweep_worked_fixture():
    p = cycle_plus_absorber()
    result = epsilon_sweep(p, uniform_matrix(3))
    assert result.eps_grid == DEFAULT_EXACT_GRID
    for pi in result.pi_table:
        assert pi.values == (F(1, 3), F(1, 3), F(1, 3))
    assert all(e == 0 for e in result.errors)
    report = convergence_report(result)
    assert report["verdict"] == "exact for all tested eps"
    assert report["fitted_C"] == 0.0


def test_float_sweep_converges_linearly():
    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    ).to_float()
    q = uniform_matrix(3).to_float()
    result = epsilon_sweep(p, q)
    assert result.eps_grid == DEFAULT_FLOAT_GRID
    report = convergence_report(result)
    assert report["verdict"] == "pass"
    assert report["slope"] >= 0.8
    assert all(e <= report["fitted_C"] * g * (1 + 1e-12) for e, g in zip(report["errors"], report["eps"]))


def test_float_sweep_of_eps_invariant_law_is_exact():
    # every law equals the limit, so the float errors are rounding noise
    # (0 to 1.1e-16), not a failed convergence
    two_class = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    absorbing = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    block = RowStochasticMatrix(StateSpace(2), ((F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))))
    for p, q in ((two_class, uniform_matrix(3)), (absorbing, block)):
        result = epsilon_sweep(p.to_float(), q.to_float(), grid=parse_eps_grid("1e-1..1e-14"))
        assert max(result.errors) < 1e-15
        assert convergence_report(result)["verdict"] == "exact for all tested eps"
    # a law that moves with eps by far less than it does at any eps in the
    # grid is still measured, not rounded away
    p = RowStochasticMatrix(StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4))))
    result = epsilon_sweep(p.to_float(), uniform_matrix(3).to_float(), grid=(1e-12, 1e-13, 1e-14))
    assert convergence_report(result)["verdict"] == "pass"


def test_sweep_result_keeps_its_repr():
    p = RowStochasticMatrix(StateSpace(2), ((0, 1), (1, 0)))
    result = epsilon_sweep(p, uniform_matrix(2), grid=(F(1, 2), F(1, 4)))
    half = "Distribution(values=(Fraction(1, 2), Fraction(1, 2)), numeric_mode='exact')"
    assert repr(result) == (f"SweepResult(eps_grid=(Fraction(1, 2), Fraction(1, 4)), pi_table=({half}, {half}),"
                            f" predicted_limit={half}, errors=(Fraction(0, 1), Fraction(0, 1)), fitted_slope=None,"
                            " first_order=(Fraction(0, 1), Fraction(0, 1)))")
    with pytest.raises(AttributeError):
        result.errors = ()


def test_sweep_grid_validation():
    p = cycle_plus_absorber()
    q = uniform_matrix(3)
    with pytest.raises(EpsOutOfRange):
        epsilon_sweep(p, q, grid=(F(1, 10), F(2, 1)))
    with pytest.raises(ValueError):
        epsilon_sweep(p, q, grid=(F(1, 100), F(1, 10)))


@pytest.mark.parametrize("eps", [1e-310, 1e-315, 5e-324])
def test_float_sweep_refuses_a_law_that_is_not_finite(eps):
    # state 2 leaves only through the eps leak, so 1 / eps overflows
    pf, qf = cycle_plus_absorber().to_float(), uniform_matrix(3).to_float()
    with pytest.raises(EpsOutOfRange, match=f"^eps = {eps}: the float law is not finite"):
        epsilon_sweep(pf, qf, grid=(0.5, eps))


def test_first_order_symmetric_fixture_is_zero():
    p = RowStochasticMatrix(StateSpace(2), ((0, 1), (1, 0)))
    q = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    exact = exact_first_order(p, q)
    assert exact == (F(0), F(0))
    est = first_order_estimate(p, q, (F(1, 1000), F(1, 10000)))
    assert est == (F(0), F(0))


def test_first_order_estimate_tracks_exact():
    rng = rng_for("fo-tracks")
    found = 0
    for _ in range(12):
        p = rand_irreducible(rng, rng.randint(2, 4))
        q = uniform_matrix(p.n)
        exact = exact_first_order(p, q)
        est = first_order_estimate(p, q, (F(1, 1000), F(1, 10000)))
        scale = max(F(1), max(abs(x) for x in exact))
        err = max(abs(a - b) for a, b in zip(exact, est))
        if err / scale <= F(1, 100):
            found += 1
    # the difference quotient carries an O(eps) truncation term, so most
    # but not necessarily all seeds land within 1e-2 of the derivative
    assert found >= 10


def test_exact_first_order_derivative_identity():
    # d/de (H_i/S) at 0 recomputed against a symbolic quotient rule check
    from znrank.arborescence import all_root_polynomials

    rng = rng_for("fo-identity")
    for _ in range(6):
        p = rand_irreducible(rng, rng.randint(2, 4))
        q = uniform_matrix(p.n)
        polys = all_root_polynomials(p, q)
        total = polys[0]
        for h in polys[1:]:
            total = total + h
        deriv = exact_first_order(p, q)
        s0, s1 = (*total.coeffs, 0, 0)[:2]
        for i, h in enumerate(polys):
            h0, h1 = (*h.coeffs, 0, 0)[:2]
            num = h1 * s0 - h0 * s1  # (h' S - h S')(0)
            assert num / (s0 * s0) == deriv[i]


def test_extrapolate_limit_near_truth():
    p = RowStochasticMatrix(
        StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))
    )
    q = RowStochasticMatrix(
        StateSpace(3),
        ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 0)),
    )
    est = extrapolate_limit(p, q)
    truth = (5 / 9, 4 / 9, 0.0)
    assert max(abs(a - b) for a, b in zip(est, truth)) < 1e-8


def test_extrapolation_needs_two_eps():
    p = cycle_plus_absorber()
    q = uniform_matrix(3)
    with pytest.raises(ValueError, match="^extrapolation needs two eps values, got 1$"):
        extrapolate_limit(p, q, grid=[1e-3])
    assert len(extrapolate_limit(p, q, grid=[1e-2, 1e-3])) == 3


def test_first_order_matches_sweep_field():
    p = cycle_plus_absorber()
    q = uniform_matrix(3)
    result = epsilon_sweep(p, q)
    pair = (result.eps_grid[-2], result.eps_grid[-1])
    assert result.first_order == first_order_estimate(p, q, pair)
    pf, qf = p.to_float(), q.to_float()
    result = epsilon_sweep(pf, qf)
    assert result.first_order == first_order_estimate(pf, qf, result.eps_grid[-2:])
    assert all(type(v) is float for v in result.first_order)


def test_parse_eps_grid():
    grid = parse_eps_grid("1e-1..1e-4")
    assert len(grid) == 4
    assert abs(grid[0] - 0.1) < 1e-15 and abs(grid[-1] - 1e-4) < 1e-18
    assert parse_eps_grid("0.5, 0.25", exact=True) == (F(1, 2), F(1, 4))
    assert parse_eps_grid("1/2,1/4", exact=True) == (F(1, 2), F(1, 4))
    assert parse_eps_grid("0.5,0.25") == (0.5, 0.25)
    with pytest.raises(EpsOutOfRange):
        parse_eps_grid("1e-4..1e-1")
    with pytest.raises(ValueError):
        parse_eps_grid(" , ")


def test_eps_range_is_exact_in_exact_mode_and_keeps_both_ends():
    deep = parse_eps_grid("1e-1..1e-14", exact=True)
    assert deep == tuple(F(1, 10**k) for k in range(1, 15))
    assert all(type(e) is F for e in deep)
    assert parse_eps_grid("1/3..1/300", exact=True) == (F(1, 3), F(1, 30), F(1, 300))
    # less than half a decade is one step, not a one-point grid
    assert parse_eps_grid("0.5..0.4", exact=True) == (F(1, 2), F(2, 5))
    assert parse_eps_grid("0.5..0.4") == (0.5, 0.4)
    # 1/2, 1/(10 sqrt 5), 1/100: not all rational
    with pytest.raises(ValueError, match="comma list"):
        parse_eps_grid("0.5..0.01", exact=True)


def test_float_eps_range_ends_at_b_exactly():
    grid = parse_eps_grid("1e-2..1e-300")
    assert len(grid) == 299 and grid[0] == 1e-2 and grid[-1] == 1e-300
    assert all(b < a for a, b in zip(grid, grid[1:]))
    # the points before b are a (b / a)^(k / steps), as before
    assert grid[:-1] == tuple(1e-2 * (1e-300 / 1e-2) ** (k / 298) for k in range(298))


@pytest.mark.parametrize("text", ["0.5..5e-324", "1e-1..1e-320"])
def test_float_eps_range_whose_ratio_overflows_is_refused(text):
    with pytest.raises(EpsOutOfRange, match="overflows"):
        parse_eps_grid(text)


def test_sweep_rejects_mode_mismatch_gracefully():
    # float q against exact p is refused; it once fell back to a float sweep
    p = cycle_plus_absorber()
    q = uniform_matrix(3).to_float()
    with pytest.raises(ValueError, match="P is exact but Q is float"):
        epsilon_sweep(p, q)
    result = epsilon_sweep(p.to_float(), q)
    assert result.pi_table[0].numeric_mode == "float"


def test_one_numeric_mode_for_p_q_and_eps():
    # a float Q with an exact P, or the reverse, and a float eps with exact
    # P and Q are refused: none is converted for the caller
    p, q = cycle_plus_absorber(), uniform_matrix(3)
    for pm, qm in ((p, q.to_float()), (p.to_float(), q)):
        message = f"P is {pm.numeric_mode} but Q is {qm.numeric_mode}"
        for call in (lambda: limit_rank(pm, qm), lambda: perturbed_matrix(pm, qm, F(1, 10)),
                     lambda: _perturbed_laws(pm, qm, (F(1, 10),)), lambda: _perturbed_laws(pm, qm, (), limit=True)):
            with pytest.raises(ValueError, match=message):
                call()
    for call in (lambda e: perturbed_matrix(p, q, e), lambda e: _perturbed_laws(p, q, (F(1, 10), e)),
                 lambda e: epsilon_sweep(p, q, grid=(e,)), lambda e: first_order_estimate(p, q, (e, F(1, 100)))):
        with pytest.raises(ValueError, match="eps = 0.1 is a float; exact P and Q take a rational eps"):
            call(0.1)
    with pytest.raises(ValueError, match="pass float P and Q"):  # the limit is read off the float plan
        _perturbed_laws(p, q, (), limit=True)


def test_perturbed_matrix_random_row_sums():
    rng = rng_for("perturb-sums")
    for _ in range(10):
        n = rng.randint(2, 6)
        p = rand_stochastic(rng, n)
        q = rand_stochastic(rng, n)
        pe = perturbed_matrix(p, q, F(rng.randint(1, 9), 10))
        for i in range(n):
            assert sum(pe.row(i)) == 1


def _hub_route_cases(tag, count):
    """(P, Q, kind, transient count) draws whose union support has one
    closed class: P with 1-3 closed classes, with and without transient
    states; Q uniform, personalized, block (transient-free P only), general
    or partly shared. These Q reach every state, so each union is strongly
    connected."""
    rng = rng_for(tag)
    out = []
    while len(out) < count:
        sizes = rand_sizes(rng, rng.randint(1, 3))
        t = rng.choice((0, 0, 1, 2))
        p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
        kinds = ("uniform", "personalized", "general", "partly shared") + (() if t else ("block",))
        kind = kinds[len(out) % len(kinds)]
        q = rand_q(rng, kind, p, sizes)
        try:
            require_unichain_union(p, q)
        except NotIrreducible:
            continue
        out.append((p, q, kind, t))
    return out


def test_hub_route_equals_dense_law_exactly():
    cases = _hub_route_cases("hub-exact", 60)
    grid = (F(1, 2), F(1, 100), F(1, 10**6), F(1))
    for p, q, kind, _ in cases:
        for eps, law in zip(grid, _perturbed_laws(p, q, grid)):  # one elimination order for the grid
            assert law == stationary_direct(perturbed_matrix(p, q, eps)), (kind, eps)
    assert {c[2] for c in cases} == {"uniform", "personalized", "block", "general", "partly shared"}
    assert {c[3] > 0 for c in cases} == {False, True}


def test_hub_route_float_accuracy_down_to_1e14():
    for p, q, kind, _ in _hub_route_cases("hub-float", 40):
        pf, qf = p.to_float(), q.to_float()
        grid = (1e-2, 1e-6, 1e-10, 1e-14)
        for eps, law in zip(grid, _perturbed_laws(pf, qf, grid)):
            exact = stationary_direct(perturbed_matrix(p, q, F(eps))).values
            assert law.numeric_mode == "float"
            rel = max(abs(x - float(y)) / float(y) for x, y in zip(law.values, exact))
            assert rel <= 1e-12, (kind, eps, rel)


def test_float_sweep_laws_are_the_unplanned_elimination_to_the_bit():
    # each eps scales P's values by 1 - eps and rewrites only the slots with
    # a Q part: every law is that of _eliminate on the rows mixed entry by
    # entry, on chains whose rows outside a hub group hold entries with both
    # a P and a Q part
    rng = rng_for("q-slot-rewrite")
    grid = (0.999, 0.5, 1e-1, 1e-3, 1e-6, 1e-10, 1e-14)
    both = hubs = 0
    for trial in range(84):
        sizes = rand_sizes(rng, rng.randint(1, 3), hi=6, total_cap=14)
        t = trial % 7
        p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
        q = rand_q(rng, ("general", "partly shared")[trial % 2], p, sizes)
        p, q, n = p.to_float(), q.to_float(), p.n
        rows = _mixed_rows(p, q, _shared_q_rows(q))[0]
        both += sum(1 for row in rows[:n] for u, v in row.values() if u and v)
        hubs += len(rows) - n
        for e, law in zip(grid, _perturbed_laws(p, q, grid)):
            mixed = [{y: e * u + (1 - e) * v for y, (u, v) in row.items()} for row in rows[:n]]
            x = _law(mixed + [dict(h) for h in rows[n:]])[0][:n]
            total = sum(x, 0.0)
            assert [v.hex() for v in law.values] == [(v / total).hex() for v in x], (trial, e)
    assert both > 100 and hubs > 30


def test_hub_route_keeps_checks():
    p = cycle_plus_absorber()
    q = uniform_matrix(3)
    for eps in (F(0), F(3, 2), -0.5):
        with pytest.raises(EpsOutOfRange):
            _perturbed_laws(p, q, (eps,))
    with pytest.raises(ValueError):
        _perturbed_laws(p, uniform_matrix(2), (F(1, 10),))
    # at eps = 1 the law is that of Q alone, which must have one closed class
    identity = RowStochasticMatrix(StateSpace(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(NotIrreducible):
        _perturbed_laws(p, identity, (F(1),))
    unichain = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 1, 0)))
    assert _perturbed_laws(p, unichain, (F(1),))[0].values == (F(1, 2), F(1, 2), 0)
    assert _perturbed_laws(p.to_float(), q.to_float(), (1.0,))[0].values == (1 / 3,) * 3


def test_float_sweep_never_forms_p_eps(monkeypatch):
    calls = []
    monkeypatch.setattr(znrank.sweep, "perturbed_matrix", lambda *a: calls.append(a))
    p = RowStochasticMatrix(
        StateSpace(4), ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (F(1, 2), F(1, 4), 0, F(1, 4)))
    ).to_float()
    result = epsilon_sweep(p, uniform_matrix(4).to_float())
    assert len(result.pi_table) == 6
    assert convergence_report(result)["verdict"] == "pass"
    assert calls == []


def test_float_sweep_finds_its_elimination_order_once(monkeypatch):
    # float eps replay one plan of the hub chain's reduction; exact eps
    # reuse the elimination order found at the first
    plans, searches = [], []
    plan, law = znrank.sweep._plan, znrank.sweep._law

    def plan_spy(rows):
        plans.append(len(rows))
        return plan(rows)

    def law_spy(rows, dens, order=None):
        searches.append(order is None)
        return law(rows, dens, order)

    monkeypatch.setattr(znrank.sweep, "_plan", plan_spy)
    monkeypatch.setattr(znrank.sweep, "_law", law_spy)
    p = rand_with_transients(rng_for("order-once"), [3, 2, 4], 2)
    q = rand_partly_shared_q(rng_for("order-once-q"), p.n)
    pf, qf = p.to_float(), q.to_float()
    result = epsilon_sweep(pf, qf)
    assert len(result.pi_table) == 6
    assert plans == [p.n + 1] and searches == []
    first_order_estimate(pf, qf, (1e-3, 1e-4))
    extrapolate_limit(pf, qf)
    assert plans == [p.n + 1] * 3 and searches == []
    plans.clear()
    assert len(epsilon_sweep(p, q).pi_table) == 3
    assert plans == [] and searches == [True, False, False]


def _shared_q_rows_reference(q):
    """The grouping as first written: one value key per distinct row object,
    looked up and hashed again for every state."""
    keys = {id(row): tuple(row.items()) for row in {id(r): r for r in q.rows}.values()}
    groups = {}
    for x, row in enumerate(q.rows):
        groups.setdefault(keys[id(row)], []).append(x)
    return [g for g in groups.values() if len(g) > 1]


def test_shared_q_rows_keep_their_groups_and_order():
    rng = rng_for("shared-q-rows")
    copies = 0
    for trial in range(120):
        q = rand_partly_shared_q(rng, rng.randint(1, 30), 1 + trial % 3)
        if trial % 2:
            q = q.to_float()
        got = znrank.sweep._shared_q_rows(q)
        assert got == _shared_q_rows_reference(q)
        copies += sum(len({id(q.rows[x]) for x in g}) > 1 for g in got)  # equal rows, distinct objects
    assert copies >= 50
    assert znrank.sweep._shared_q_rows(uniform_matrix(5)) == [[0, 1, 2, 3, 4]]


def test_exact_hub_route_laws_are_stationary(monkeypatch):
    # law P_eps = law at each eps of a 3-point grid, all on one elimination
    # order. Q has no mass on the transient states of P, so they stay
    # transient in the union; some Q rows are shared, which makes hubs.
    searches = []
    law = znrank.sweep._law

    def spy(rows, dens, order=None):
        searches.append(order is None)
        return law(rows, dens, order)

    monkeypatch.setattr(znrank.sweep, "_law", spy)
    rng = rng_for("hub-stationary")
    grid = (F(1, 3), F(1, 10**4), F("1e-9"))
    for sizes, t in (([3, 2], 1), ([5, 4, 3], 3), ([9, 6], 4), ([12], 2)):
        p = rand_mixed_chain(rng, sizes, t)
        closed = sum(sizes)
        shared = rand_mixed_chain(rng, [closed], 0).row(0) + (0,) * t
        rows = [shared if rng.random() < 0.6 else rand_mixed_chain(rng, [closed], 0).row(0) + (0,) * t
                for _ in range(p.n)]
        q = RowStochasticMatrix(StateSpace(p.n), tuple(rows))
        searches.clear()
        laws = _perturbed_laws(p, q, grid)
        assert searches == [True, False, False]
        for eps, pi in zip(grid, laws):
            assert_stationary(perturbed_matrix(p, q, eps), pi.values)
            assert all(x == 0 for x in pi.values[closed:])


def test_exact_sweep_leaves_its_inputs_alone():
    # the elimination updates its rows in place: the hub rows it gets must
    # be copies of Q's stored rows, taken afresh at every eps
    rng = rng_for("sweep-inputs")
    p = rand_with_transients(rng, [4, 3], 2)
    q = rand_partly_shared_q(rng, p.n, 2)
    assert znrank.sweep._shared_q_rows(q)
    before = [([dict(r) for r in m.num_rows], m.dens) for m in (p, q)]
    laws = _perturbed_laws(p, q, (F(1, 3), F(1, 100), F(1, 10**5)))
    assert [([dict(r) for r in m.num_rows], m.dens) for m in (p, q)] == before
    for eps, pi in zip((F(1, 3), F(1, 100), F(1, 10**5)), laws):
        assert_stationary(perturbed_matrix(p, q, eps), pi.values)


def test_exact_sweep_builds_fractions_only_for_its_laws(monkeypatch):
    # 48 states on the default exact grid: the mixed rows and the laws are
    # integers, so the one Fraction per eps is eps itself, taken in exact
    # mode. Fraction laws renormalized over P's states built 441 to 447;
    # mixing Fraction rows per eps about 14 per state and eps
    rng = rng_for("sweep-fractions")
    p = rand_with_transients(rng, [20, 14, 8], 6)
    for q in (uniform_matrix(p.n), rand_partly_shared_q(rng, p.n, 3)):
        laws, made = fractions_built(monkeypatch, _perturbed_laws, p, q, DEFAULT_EXACT_GRID)
        assert made <= len(DEFAULT_EXACT_GRID), made
        assert [law.values for law in laws] == [stationary_direct(perturbed_matrix(p, q, e)).values
                                                for e in DEFAULT_EXACT_GRID]


def _edge_list(p, dangling):
    """The edge list of P, the states of dangling given no out-edge."""
    lines = [f"v{x}" for x in range(p.n)]
    lines += [f"v{x} v{y} {v}" for x in range(p.n) if x not in dangling for y, v in p.rows[x].items()]
    return "\n".join(lines) + "\n"


def _assert_limit(got, exact, what):
    """got is exact to 1e-12 relative, and exactly 0 where exact is 0."""
    for x, y in zip(got, exact, strict=True):
        assert x == 0 if y == 0 else abs(x - y) <= 1e-12 * y, (what, x, y)


def test_float_sweep_predicts_the_exact_limit():
    # the float prediction, read off the plan of the laws, against the
    # polynomial oracle: n <= 10, 0-3 transient states, dangling states
    # under both policies, every kind of Q
    rng = rng_for("float-sweep-limit")
    kinds = ("uniform", "personalized", "block", "general", "partly shared")
    seen = set()
    for trial in range(200):
        kind = kinds[trial % len(kinds)]
        t = 0 if kind == "block" else rng.randint(0, 3)
        sizes = rand_sizes(rng, rng.randint(1, 3), total_cap=10 - t)
        p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
        policy = None
        if kind != "block" and trial % 3:
            policy = DANGLING_POLICIES[trial % 2]
            g = parse_edge_list(_edge_list(p, rng.sample(range(p.n), rng.randint(1, min(2, p.n)))))
            p = to_stochastic(g, policy)
        q = rand_q(rng, kind, p, sizes)
        try:
            require_unichain_union(p, q)
        except NotIrreducible:
            continue
        exact = exact_limit_from_polynomials(p, q).values
        _assert_limit(epsilon_sweep(p.to_float(), q.to_float()).predicted_limit.values, exact, trial)
        seen.add((kind, policy, t > 0, 0 in exact))
    assert {s[0] for s in seen} == set(kinds) and {s[1] for s in seen} == {None, *DANGLING_POLICIES}
    assert {s[2] for s in seen} == {s[3] for s in seen} == {False, True}


def test_float_sweep_predicts_the_limit_the_reduced_chain_refuses():
    # the union support has one closed class and the reduced chain two:
    # exact limit_rank refuses, the float sweep answers as oracle --q does
    p = to_stochastic(parse_edge_list("a a\nb b\nt a\ns b\n"))
    q = RowStochasticMatrix(p.states, ({2: 1}, {3: 1}, {1: 1}, {0: 1}))
    with pytest.raises(GammaReducible):
        limit_rank(p, q)
    assert exact_limit_from_polynomials(p, q).values == (F(1, 2), F(1, 2), 0, 0)
    assert epsilon_sweep(p.to_float(), q.to_float()).predicted_limit.values == (0.5, 0.5, 0.0, 0.0)


@pytest.mark.parametrize("edges", [
    "a b W\na c\nb a\nc a\nd d\ne a\ne d W\nf\n",  # c carries about 1e-31 of the limit
    "a b W\na c\nb a\nc a W\nc d\nd d\nf\n",  # {a, b, c} leaks to d with about 1e-30
])
def test_float_sweep_predicts_the_limit_of_30_digit_weights(edges):
    # entries of about 1e-30 are order eps^0 like any other P entry, not
    # absent: the float prediction is the exact limit, tiny masses and all
    for policy in DANGLING_POLICIES:
        p = to_stochastic(parse_edge_list(edges.replace("W", str(10**30 + 1))), policy)
        q = uniform_matrix(p.n, p.states)
        exact = exact_limit_from_polynomials(p, q).values
        assert exact == limit_rank(p, q).node_limit.values
        _assert_limit(epsilon_sweep(p.to_float(), q.to_float()).predicted_limit.values, exact, policy)
