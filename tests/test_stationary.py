from fractions import Fraction

import pytest

import znrank.stationary
from znrank.errors import NotIrreducible
from znrank.graph import RowStochasticMatrix, StateSpace, classify_states
from znrank.stationary import (
    AbsorptionTable,
    Distribution,
    absorption_probabilities,
    class_stationary,
    stationary_direct,
    unichain_law,
    _eliminate,
    _law,
    _lead_law,
    _plan,
    _mixed_rows,
    _replay,
    _sparse_rows,
)
from znrank.arborescence import mctt_stationary
from znrank.rational import common_denominator
from znrank.sweep import _shared_q_rows, perturbed_matrix
from helpers import (
    assert_stationary,
    markowitz_reference,
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


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        Distribution((F(3, 2), F(-1, 2)))
    d = Distribution((0.5, 0.5 - 1e-13, -1e-13), "float")
    assert d[2] == 0.0  # tiny negatives clamp
    with pytest.raises(ValueError):
        Distribution((0.5, 0.4), "float")
    with pytest.raises(ValueError, match="^probabilities sum to nan, not 1$"):
        Distribution((float("nan"), 0.5), "float")


def _float_law_reference(values):
    """The float Distribution check as first written: (values, None) or
    (None, (exception type, message))."""
    try:
        vals = tuple(0.0 if -1e-12 < float(x) < 0 else float(x) for x in values)
        if any(x < 0 for x in vals):
            raise ValueError("negative probability")
        if not abs(sum(vals) - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {sum(vals)!r}, not 1")
    except (TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))
    return vals, None


def test_float_distribution_equals_its_reference():
    # values, bits and every refusal and its message equal the loop it
    # replaced, on laws with NaN, infinities, tiny negatives, -0.0, ints,
    # Fractions, strings and non-numbers, in every position
    rng = rng_for("float-law-reference")
    specials = (float("nan"), float("inf"), -float("inf"), -1e-13, -5e-13, -1e-12, -2e-12, -0.0, 0.0,
                -0.25, 1.0, 1, F(1, 3), True, "0.5", "x", None)
    seen = set()
    for trial in range(3000):
        n = rng.randint(0, 6)
        w = [rng.random() for _ in range(n)]
        values = [x / sum(w) for x in w]
        for _ in range(rng.randint(0, 2) if n else 0):
            values[rng.randrange(n)] = rng.choice(specials)
        want, refused = _float_law_reference(values)
        if refused:
            with pytest.raises(refused[0]) as ei:
                Distribution(values, "float")
            assert str(ei.value) == refused[1], values
            seen.add(refused[1].split(" ")[0])
        else:
            got = Distribution(values, "float")
            assert [x.hex() for x in got.values] == [x.hex() for x in want], values
            assert got.nums is got.values and got.den is None
            seen.add("ok")
    assert {"ok", "negative", "probabilities", "could"} <= seen, seen


def test_exact_distribution_checks_keep_their_messages():
    cases = (
        ((F(3, 2), F(-1, 2)), "negative probability"),
        ((F(0), F(-1, 4), F(5, 4)), "negative probability"),
        ((F(1, 2), F(1, 4)), "probabilities sum to 3/4, not 1"),
        ((F(0), 1, F(1, 3)), "probabilities sum to 4/3, not 1"),
    )
    for values, message in cases:
        with pytest.raises(ValueError) as ei:
            Distribution(values)
        assert str(ei.value) == message


def test_integer_and_fraction_laws_agree():
    # Distribution.of_integers(nums, den) is Distribution(values) with
    # values[i] = nums[i] / den: the same values, equality, repr and float
    # bits, and the same refusals
    rng = rng_for("law-forms")
    for _ in range(300):
        n = rng.randint(1, 10)
        nums = [rng.choice((0, rng.randint(1, 9), rng.randint(1, 10**25))) for _ in range(n)]
        nums[rng.randrange(n)] += 1
        nums = [x * rng.choice((1, 6, 2**70)) for x in nums]  # not always in lowest terms
        den = sum(nums)
        values = tuple(F(x, den) for x in nums)
        a, b = Distribution.of_integers(nums, den), Distribution(values)
        assert a.values == b.values == values and all(type(x) is F for x in a.values)
        assert a == b and (a.nums, a.den) == (b.nums, b.den) and repr(a) == repr(b)
        assert [(x / a.den).hex() for x in a.nums] == [float(x).hex() for x in values]
        assert [x / a.den for x in a.nums] == [x / b.den for x in b.nums]
        if n > 1:
            moved = [*nums[1:], nums[0]]
            assert (Distribution.of_integers(moved, den) == a) == (moved == nums)
        neg = list(nums)
        neg[rng.randrange(n)] = -rng.randint(1, 9)
        off = den + rng.choice((-1, 1)) * rng.randint(1, den - 1) if den > 1 else 2
        for bad, bad_den, message in ((neg, den, "negative probability"),
                                      (nums, off, f"probabilities sum to {F(den, off)}, not 1")):
            for make in (lambda: Distribution.of_integers(bad, bad_den),
                         lambda: Distribution(tuple(F(x, bad_den) for x in bad))):
                with pytest.raises(ValueError) as ei:
                    make()
                assert str(ei.value) == message


def test_stationary_direct_fixture():
    p = RowStochasticMatrix(StateSpace(3), ((0, F(1, 2), F(1, 2)), (1, 0, 0), (1, 0, 0)))
    pi = stationary_direct(p)
    assert pi.values == (F(1, 2), F(1, 4), F(1, 4))


def test_stationary_direct_needs_irreducible():
    p = RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1)))
    with pytest.raises(NotIrreducible):
        stationary_direct(p)


def test_float_law_entrywise_accurate_at_tiny_eps():
    # three closed classes joined only by the eps-weighted uniform mixing
    from znrank.graph import uniform_matrix
    from znrank.sweep import perturbed_matrix

    p = rand_reducible_no_transient(rng_for("gth-accuracy"), [4, 3, 2])
    pe = perturbed_matrix(p, uniform_matrix(p.n), F(1, 10**12))
    exact = stationary_direct(pe)
    approx = stationary_direct(pe.to_float())
    assert max(abs(a - float(b)) / float(b) for a, b in zip(approx.values, exact.values)) <= 1e-12


def test_class_stationary_embeds():
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    per = class_stationary(p)
    assert per[0].values == (F(1, 2), F(1, 2), F(0))
    assert per[1].values == (F(0), F(0), F(1))


def test_float_class_laws_share_one_zero():
    # a float law is embedded over one 0.0, which float() keeps: a fresh
    # 0.0 per zero made m x n floats, 6.3 million on a 5000-page web graph
    p = rand_with_transients(rng_for("shared-float-zero"), [3, 2, 4], 3).to_float()
    part = classify_states(p)
    for cls, law in zip(part.closed_classes, class_stationary(p)):
        zeros = [x for s, x in enumerate(law.nums) if s not in cls]
        assert zeros and all(x == 0.0 and type(x) is float for x in zeros)
        assert len({id(x) for x in zeros}) == 1


def test_absorption_fixture_two_thirds():
    p = RowStochasticMatrix(StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(2, 3), F(1, 3), 0)))
    table = absorption_probabilities(p)
    assert table.transient == (2,)
    assert table.row_for(2) == (F(2, 3), F(1, 3))
    assert repr(table) == "AbsorptionTable(transient=(2,), rows=((Fraction(2, 3), Fraction(1, 3)),))"
    twin = AbsorptionTable((2,), ((F(2, 3), F(1, 3)),))
    assert table == twin and hash(table) == hash(twin)
    with pytest.raises(AttributeError):
        table.rows = None
    assert AbsorptionTable((2,), ((0.5, 0.5),)).rows == ((0.5, 0.5),)  # float rows


def test_absorption_fixture_chained_transients():
    p = RowStochasticMatrix(
        StateSpace(4),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (F(1, 4), F(1, 4), F(1, 2), 0)),
    )
    table = absorption_probabilities(p)
    assert table.rows == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


def test_absorption_rows_sum_to_one_random():
    from helpers import rand_with_transients

    rng = rng_for("absorb-sum")
    for _ in range(15):
        p = rand_with_transients(rng, [rng.randint(1, 3), rng.randint(1, 3)], rng.randint(1, 3))
        table = absorption_probabilities(p)
        for row in table.rows:
            assert sum(row) == 1


def _absorption_per_entry(p, part):
    """Absorption rows by per-entry arithmetic in the matrix's own numbers
    after the same censoring: sum of v * a[j][c] over the eliminated row,
    divided by its sum."""
    zero, one = (F(0), F(1)) if p.numeric_mode == "exact" else (0.0, 1.0)
    units = [[one if c == k else zero for c in range(part.m)] for k in range(part.m)]
    a = {s: units[k] for k, cls in enumerate(part.closed_classes) for s in cls}
    rows = [{} if s in a else {j: v for j, v in row.items() if j != s} for s, row in enumerate(p.rows)]
    dens = None
    if p.numeric_mode == "exact":  # each row as integers over the lcm of its denominators
        scaled = [common_denominator(row.values()) for row in rows]
        rows, dens = [dict(zip(row, nums)) for row, (nums, _) in zip(rows, scaled)], [d for _, d in scaled]
    for k in reversed(_eliminate(rows, dens)[0]):
        pivot = sum(rows[k].values())
        a[k] = [sum((v * a[j][c] for j, v in rows[k].items()), zero) / pivot for c in range(part.m)]
    return tuple(tuple(a[t]) for t in part.transient)


def test_absorption_matches_per_entry_arithmetic_random():
    # exact tables equal, float tables bit for bit; the mixed chains carry
    # row denominators far beyond a machine word
    rng = rng_for("absorb-per-entry")
    for i in range(120):
        sizes = rand_sizes(rng, rng.randint(1, 3), total_cap=7)
        t = rng.randint(1, 6)
        p = rand_mixed_chain(rng, sizes, t) if i % 2 else rand_with_transients(rng, sizes, t)
        for m in (p, p.to_float()):
            part = classify_states(m)
            table = absorption_probabilities(m)
            assert table.rows == _absorption_per_entry(m, part)
            assert all(type(x) is (F if m is p else float) for row in table.rows for x in row)


def test_absorption_empty_when_no_transients():
    p = RowStochasticMatrix(StateSpace(2), ((0, 1), (1, 0)))
    table = absorption_probabilities(p)
    assert table.transient == () and table.rows == ()


def _restriction(p, states):
    rows = tuple(tuple(p.entry(i, j) for j in states) for i in states)
    return RowStochasticMatrix(StateSpace(len(states)), rows)


def test_class_laws_equal_tree_theorem():
    # the worked fixtures of the acceptance gate, then its random families
    chains = [
        RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1))),
        RowStochasticMatrix(StateSpace(3), ((1, 0, 0), (0, 1, 0), (F(1, 2), F(1, 4), F(1, 4)))),
    ]
    rng = rng_for("class-laws-vs-mctt")
    for _ in range(40):
        sizes = rand_sizes(rng, rng.randint(2, 4))
        t = rng.randint(0, 2)
        chains.append(rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes))
    for p in chains:
        part = classify_states(p)
        for cls, law in zip(part.closed_classes, class_stationary(p)):
            assert tuple(law[s] for s in cls) == mctt_stationary(_restriction(p, cls)).values
            assert all(law[s] == 0 for s in range(p.n) if s not in cls)


def test_class_laws_equal_of_integers_of_their_embedded_integers():
    # each exact class law is put in lowest terms over its members, then
    # embedded; it must be the law that of_integers makes of the embedded
    # back-substituted integers, field for field. of_integers divides only
    # by a gcd above 1 and keeps its two messages
    for nums, den in (([2, 0, 4], 6), ([1, 0, 2], 3)):
        law = Distribution.of_integers(nums, den)
        assert (law.nums, law.den) == ((1, 0, 2), 3) and type(law.nums) is tuple
    for nums, den, message in (([3, -1], 2, "negative probability"), ([0, -1, 5], 4, "negative probability"),
                               ([2, 1], 4, "probabilities sum to 3/4, not 1")):
        with pytest.raises(ValueError) as ei:
            Distribution.of_integers(nums, den)
        assert str(ei.value) == message
    rng = rng_for("class-laws-of-integers")
    for _ in range(120):
        sizes = rand_sizes(rng, rng.randint(1, 4), hi=6, total_cap=14)
        t = rng.randint(0, 3)
        p = rand_mixed_chain(rng, sizes, t) if rng.random() < 0.5 else rand_with_transients(rng, sizes, t)
        part = classify_states(p)
        for cls, law in zip(part.closed_classes, class_stationary(p)):
            dense = [0] * p.n
            for s, x in zip(cls, _law(*_sparse_rows(p, cls))[0]):
                dense[s] = x
            ref = Distribution.of_integers(dense, sum(dense))
            assert vars(law) == vars(ref)
            assert type(law.nums) is tuple and all(type(x) is int for x in law.nums)


def _assert_absorption_system(p, part, table):
    tr = part.transient
    assert table.transient == tr
    for s, row in zip(tr, table.rows):
        assert sum(row) == 1
        for c, cls in enumerate(part.closed_classes):
            # (I - P_TT) A = P_TC, row s, column c
            lhs = row[c] - sum(p.entry(s, u) * table.row_for(u)[c] for u in tr)
            assert lhs == sum(p.entry(s, y) for y in cls)


def test_absorption_solves_its_system_exactly():
    rng = rng_for("absorb-system")
    checked = 0
    while checked < 40:
        n = rng.randint(2, 12)
        if rng.random() < 0.5:
            p = rand_stochastic(rng, n)  # any support
        else:
            t = rng.randint(1, min(5, n - 1))
            p = rand_with_transients(rng, rand_sizes(rng, rng.randint(1, 3), total_cap=n - t), t)
        part = classify_states(p)
        tr = part.transient
        if not tr:
            continue
        table = absorption_probabilities(p)
        _assert_absorption_system(p, part, table)
        pf = p.to_float()
        floats = absorption_probabilities(pf)
        assert max(abs(a - float(b)) for fr, er in zip(floats.rows, table.rows) for a, b in zip(fr, er)) <= 1e-12
        checked += 1


def test_exact_laws_are_stationary_with_mixed_row_denominators():
    # checked by pi P = pi and sum 1, not against another solver: every exact
    # law comes from the same elimination. Rows mix denominators such as 10,
    # 100, 7 and 2**61 - 1, so their integer forms have unequal scales.
    rng = rng_for("mixed-denominators")
    for n in (2, 3, 5, 8, 13, 21, 30, 40):
        t = rng.randint(0, n // 4)
        m = rng.randint(1, min(3, n - t))
        cuts = sorted(rng.sample(range(1, n - t), m - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n - t])]
        p = rand_mixed_chain(rng, sizes, t)
        part = classify_states(p)
        assert [len(c) for c in part.closed_classes] == sizes
        for cls, law in zip(part.closed_classes, class_stationary(p)):
            assert_stationary(p, law.values)
            assert all(law[s] > 0 for s in cls)
        one_class = rand_mixed_chain(rng, [n - t], t)
        law = unichain_law(one_class)
        assert_stationary(one_class, law.values)
        assert all(x == 0 for x in law.values[n - t:])
        if t:
            _assert_absorption_system(p, part, absorption_probabilities(p))


def test_exact_class_law_does_at_most_n_fraction_operations(monkeypatch):
    # the elimination runs on integers; Fractions only carry the final law
    rng = rng_for("fraction-count")
    p = rand_mixed_chain(rng, [24], 0)
    ops = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(a, b, _op=getattr(Fraction, name)):
            ops.append(1)
            return _op(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    (law,) = class_stationary(p)
    monkeypatch.undo()
    assert len(ops) <= 24
    assert_stationary(p, law.values)


def _hub_chain(rng, sizes, t, kind, eps):
    """Float dict rows of the sweep's hub chain at eps for P with closed
    classes of the given sizes and t transient states, and a Q of the given
    kind ("hubs": several shared rows next to rows of their own)."""
    p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
    q = rand_partly_shared_q(rng, p.n, 3) if kind == "hubs" else rand_q(rng, kind, p, sizes)
    pf, qf = p.to_float(), q.to_float()
    rows, _ = _mixed_rows(pf, qf, _shared_q_rows(qf))
    mixed = [{y: eps * u + (1 - eps) * v for y, (u, v) in row.items()} for row in rows[:p.n]]
    return mixed + [dict(h) for h in rows[p.n:]]


def test_mixed_rows_are_p_eps_with_hubs():
    # at e = 2/7 each state row is the row of (1 - e) P + e Q without its
    # diagonal, a hub member's going to its hub with e; each hub row is the
    # Q row of its group, over Q's own denominator
    rng = rng_for("mixed-rows")
    e = F(2, 7)
    for trial in range(30):
        p = rand_mixed_chain(rng, rand_sizes(rng, rng.randint(1, 3), hi=4), trial % 3)
        q = rand_partly_shared_q(rng, p.n, 1 + trial % 3)
        groups = _shared_q_rows(q) if trial % 2 else []
        hub_of = {x: p.n + k for k, group in enumerate(groups) for x in group}
        rows, dens = _mixed_rows(p, q, groups)
        assert len(rows) == len(dens) == p.n + len(groups)
        pe = perturbed_matrix(p, q, e)
        for x, (row, d) in enumerate(zip(rows, dens)):
            if x >= p.n:
                assert {y: F(v, d) for y, v in row.items()} == q.rows[groups[x - p.n][0]]
                continue
            want = {y: v for y, v in pe.rows[x].items() if y != x}
            if x in hub_of:
                want = {y: (1 - e) * v for y, v in p.rows[x].items() if y != x} | {hub_of[x]: e}
            assert {y: (e * u + (1 - e) * v) / d for y, (u, v) in row.items()} == want
    rows, dens = _mixed_rows(p.to_float(), q.to_float())
    assert dens is None and all(type(v) is float for row in rows for _, v in row.values() if v)


def _float_rows(p):
    return _sparse_rows(p.to_float(), range(p.n))[0]


def test_markowitz_order_is_the_reference_order(monkeypatch):
    rng = rng_for("markowitz-order")
    patterns = []
    for i in range(240):
        if i % 4 == 0:
            sizes, t = ((24, 16, 8), 0) if i % 8 else ((20, 14, 8), 6)
            patterns.append(_hub_chain(rng, sizes, t, ("uniform", "personalized", "hubs")[i % 3], 1e-3))
        elif i % 4 == 1:
            patterns.append(_float_rows(rand_stochastic(rng, rng.randint(1, 60))))  # any support
        else:
            sizes = rand_sizes(rng, rng.randint(1, 4), hi=12, total_cap=40)
            t = rng.randint(0, 5) if i % 4 == 3 else 0
            patterns.append(_float_rows(rand_with_transients(rng, sizes, t) if t
                                        else rand_reducible_no_transient(rng, sizes)))
    for n in (1, 2, 3, 9, 30):  # complete support: the largest keys, (n - 1)**2 * n + s, under n**3 + n
        patterns.append([{j: 1.0 for j in range(n) if j != i} for i in range(n)])
    patterns += [[{}], [{1: 1.0}, {}], [{}, {0: 1.0}], [{}, {}]]  # n = 1 and n = 2, closed or not
    left = []
    for rows in patterns:
        got = _eliminate([dict(r) for r in rows])[0]
        monkeypatch.setattr(znrank.stationary, "_markowitz", markowitz_reference)
        want = _eliminate([dict(r) for r in rows])[0]
        monkeypatch.undo()
        assert got == want
        left.append(len(rows) - len(got))
    assert max(left) >= 3 and min(left) == 1  # rows that empty: several closed classes


def test_replayed_plan_is_the_elimination_to_the_bit():
    rng = rng_for("plan-replay")
    kinds = ("uniform", "personalized", "general", "partly shared", "hubs")
    sizes_seen = []
    for trial in range(120):
        sizes = rand_sizes(rng, rng.randint(1, 3), hi=20, total_cap=50)
        t = rng.choice((0, 0, 2, 6))
        rows = _hub_chain(rng, sizes, t, kinds[trial % 5], 10.0 ** -rng.uniform(1, 14))
        vals = [v for row in rows for v in row.values()]
        order, _, back, _, _ = plan = _plan(rows)
        law = _replay(plan, vals)
        cols = {k: [] for k in order}  # the factors left in place, each k's in its step's order
        for k, i, a in back:
            cols[k].append((i, vals[a]))
        assert (order, cols) == _eliminate([dict(r) for r in rows])
        assert law == _law([dict(r) for r in rows])[0]
        sizes_seen.append(len(rows))
    assert 50 <= max(sizes_seen) <= 60
    two = _float_rows(rand_reducible_no_transient(rng, [3, 4]))
    vals = [v for row in two for v in row.values()]
    message = "^the chain has more than one closed class$"
    with pytest.raises(NotIrreducible, match=message):
        _law([dict(r) for r in two])
    with pytest.raises(NotIrreducible, match=message):
        _replay(_plan(two), vals)


def test_lead_law_of_one_order_is_the_law_to_the_bit():
    # with every entry at order 0 nothing is dropped: each update adds, as
    # _replay's does, and the lead law is the chain's law bit for bit
    rng = rng_for("lead-law-order-0")
    for trial in range(60):
        sizes = rand_sizes(rng, rng.randint(1, 3), hi=12, total_cap=30)
        rows = _hub_chain(rng, sizes, rng.choice((0, 2, 5)), ("uniform", "general", "hubs")[trial % 3], 1e-4)
        vals = [v for row in rows for v in row.values()]
        plan = _plan(rows)
        law = _replay(plan, list(vals))
        assert _lead_law(plan, [0] * len(vals), list(vals), len(rows)) == law
