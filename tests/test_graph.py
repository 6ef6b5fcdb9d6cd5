import json
import math
from fractions import Fraction

import pytest

from znrank.cli import load_q, main
from znrank.errors import InputFormatError, NotIrreducible
from znrank.graph import (
    DANGLING_POLICIES,
    ClassPartition,
    RowStochasticMatrix,
    StateSpace,
    WeightedDigraph,
    _tarjan_sccs,
    classify_states,
    closed_components,
    dump_matrix_json,
    is_irreducible,
    load_matrix_json,
    ones_outer,
    parse_edge_list,
    require_unichain_union,
    to_stochastic,
    uniform_matrix,
)
from znrank.rational import FLOAT, parse_rational
from znrank.zero_noise import extended_gamma
from helpers import (
    fractions_built,
    rand_irreducible,
    rand_personalization,
    rand_q,
    rand_reducible_no_transient,
    rand_row,
    rand_stochastic,
    rand_with_transients,
    rng_for,
)

F = Fraction


def test_state_space_validation():
    with pytest.raises(ValueError, match="^state space needs at least one state$"):
        StateSpace(0)
    with pytest.raises(ValueError, match="^label count does not match n$"):
        StateSpace(2, ("a",))
    with pytest.raises(ValueError, match="^duplicate labels$"):
        StateSpace(2, ("a", "a"))
    assert StateSpace(2).label_list() == ["0", "1"]
    assert StateSpace(2, ("x", "y")).label_list() == ["x", "y"]


def test_digraph_rejects_bad_edges():
    s = StateSpace(2)
    with pytest.raises(ValueError, match=r"^edge \(0, 5\) outside the state space$"):
        WeightedDigraph(s, ((0, 5, F(1)),))
    with pytest.raises(ValueError, match=r"^negative weight on edge \(0, 1\)$"):
        WeightedDigraph(s, ((0, 1, F(-1)),))
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        WeightedDigraph(s, ((0, 1, F(1)), (0, 1, F(2))))


def test_records_print_compare_and_hash_by_their_fields():
    s = StateSpace(2, ["a", "b"])
    part = ClassPartition([[0], [1]], [2])
    assert repr(s) == "StateSpace(n=2, labels=('a', 'b'))"
    assert repr(StateSpace(3)) == "StateSpace(n=3, labels=None)"
    assert repr(part) == "ClassPartition(closed_classes=((0,), (1,)), transient=(2,))"
    assert repr(uniform_matrix(2, s)) == (
        "RowStochasticMatrix(states=StateSpace(n=2, labels=('a', 'b')),"
        " rows={(0, 1): {0: Fraction(1, 2), 1: Fraction(1, 2)}}, numeric_mode='exact')")
    for record, twin, field in ((s, StateSpace(2, ("a", "b")), "labels"),
                                (part, ClassPartition(((0,), (1,)), (2,)), "transient")):
        assert record == twin and hash(record) == hash(twin)
        assert record == tuple(twin)  # a tuple of its fields
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    g = parse_edge_list("a b\nb a 1/2\n")
    assert repr(g) == ("WeightedDigraph(states=StateSpace(n=2, labels=('a', 'b')),"
                       " edges=((0, 1, 1), (1, 0, Fraction(1, 2))))")
    assert g == WeightedDigraph(g.states, ((0, 1, 1), (1, 0, F(1, 2))))
    assert g != WeightedDigraph(g.states, ((0, 1, 1), (1, 0, 1)))
    with pytest.raises(TypeError):
        hash(g)


def test_parse_edge_list_basics():
    g = parse_edge_list("a b\nb a 1/2\nb c 0.5\n# comment\nc a\n")
    assert g.states.label_list() == ["a", "b", "c"]
    assert [(d, w) for s, d, w in g.edges if s == 1] == [(0, F(1, 2)), (2, F(1, 2))]
    assert [(d, w) for s, d, w in g.edges if s == 2] == [(0, F(1))]


def test_parse_edge_list_node_declarations_and_errors():
    g = parse_edge_list("lonely\na b\n")
    assert g.states.label_list() == ["lonely", "a", "b"]
    assert g.out_degree(0) == 0
    with pytest.raises(InputFormatError) as ei:
        parse_edge_list("a b c d\n")
    assert "line 1" in str(ei.value)
    with pytest.raises(InputFormatError):
        parse_edge_list("a b -1\n")
    with pytest.raises(InputFormatError):
        parse_edge_list("a b\na b\n")
    with pytest.raises(InputFormatError):
        parse_edge_list("# nothing\n")


def test_parse_edge_list_reads_weights_as_parse_rational_does():
    tokens = ("3", "007", "0", "\u0663", "3/4", "0.5", "1e3", "9" * 5000)
    for token in tokens:
        try:
            want = parse_rational(token)
        except InputFormatError as exc:
            with pytest.raises(InputFormatError) as ei:
                parse_edge_list(f"a b {token}\n")
            assert str(ei.value) == f"line 1: {exc}"
            continue
        (w,) = [w for _, _, w in parse_edge_list(f"x\na b {token}\n").edges]
        assert w == want and type(w) is type(want)


def test_negative_edge_weight_keeps_its_message():
    for text in ("a b -1\n", "a b 1\nb a -1/2\n", "a b 1\nb a -0.5\n"):
        with pytest.raises(InputFormatError) as ei:
            parse_edge_list(text)
        assert str(ei.value) == f"line {text.count(chr(10))}: negative weight"


def test_stochastic_validation():
    s = StateSpace(2)
    with pytest.raises(ValueError):
        RowStochasticMatrix(s, ((F(1, 2), F(1, 3)), (0, 1)))
    with pytest.raises(ValueError):
        RowStochasticMatrix(s, ((F(3, 2), F(-1, 2)), (0, 1)))
    with pytest.raises(ValueError):
        RowStochasticMatrix(s, ((0.5, 0.6), (0.0, 1.0)), "float")
    with pytest.raises(ValueError, match="^row 0 sums to nan, not 1$"):
        RowStochasticMatrix(s, ({0: float("nan"), 1: 1.0}, {1: 1.0}), "float")
    m = RowStochasticMatrix(s, ((0.5, 0.5), (0.25, 0.75)), "float")
    assert m.numeric_mode == "float"


def test_to_stochastic_dangling_policies():
    g = parse_edge_list("a b 3\na c 1\nb a\nc\n")
    p = to_stochastic(g)
    assert p.row(0) == (F(0), F(3, 4), F(1, 4))
    assert p.row(2) == (F(0), F(0), F(1))  # dangling -> absorbing
    p2 = to_stochastic(g, dangling="uniform_row")
    assert p2.row(2) == (F(1, 3), F(1, 3), F(1, 3))
    with pytest.raises(ValueError):
        to_stochastic(g, dangling="nope")


def test_classify_worked_fixture():
    p = RowStochasticMatrix(StateSpace(3), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    part = classify_states(p)
    assert part.closed_classes == ((0, 1), (2,))
    assert part.transient == ()
    assert part.m == 2
    assert 0 in part.closed_classes[0] and 2 in part.closed_classes[1]


def test_classify_with_transients():
    p = RowStochasticMatrix(
        StateSpace(4),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (F(1, 4), F(1, 4), F(1, 2), 0)),
    )
    part = classify_states(p)
    assert part.closed_classes == ((0,), (1,))
    assert part.transient == (2, 3)


def test_classify_self_loop_class():
    # a self-loop state is its own closed class when nothing leaves it
    p = RowStochasticMatrix(StateSpace(2), ((1, 0), (F(1, 2), F(1, 2))))
    part = classify_states(p)
    assert part.closed_classes == ((0,),)
    assert part.transient == (1,)


def test_float_copy_classifies_its_own_support():
    # 1 / (10**400 + 1) rounds to 0.0, so the float copy loses a -> b: the
    # exact partition, once found, is not carried over by to_float()
    p = to_stochastic(parse_edge_list(f"a b 1\na c {10**400}\nb a\nc a\n"))
    assert p.partition == classify_states(p) == ClassPartition(((0, 1, 2),), ())
    pf = p.to_float()
    assert pf.num_rows[0] == {2: 1.0}
    assert pf.partition == classify_states(pf) == ClassPartition(((0, 2),), (1,))
    assert p.partition.m == 1 and not p.partition.transient


def _brute_force_components(adj, n):
    """(components as sets, closed, transient) from the reachability sets of
    every state: x and y share a component when each reaches the other."""
    reach = []
    for x in range(n):
        seen, todo = {x}, [x]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    comps = {frozenset(y for y in reach[x] if x in reach[y]) for x in range(n)}
    closed = sorted((tuple(sorted(c)) for c in comps if all(reach[x] <= c for x in c)), key=min)
    transient = sorted(x for c in comps if not all(reach[x] <= c for x in c) for x in c)
    return comps, closed, transient


def test_closed_components_match_brute_force_reachability():
    # random digraphs with self-loops, isolated states and dangling states
    # (no out-edge), some with a few edges and some dense
    rng = rng_for("tarjan-vs-reachability")
    for _ in range(300):
        n = rng.randint(1, 16)
        density = rng.choice((0.05, 0.15, 0.4))
        adj = [[w for w in range(n) if rng.random() < density] for _ in range(n)]
        for x in rng.sample(range(n), rng.randint(0, n // 3)):
            adj[x] = []  # dangling, or isolated when nothing enters it
        for x in range(n):
            rng.shuffle(adj[x])
        comps, closed, transient = _brute_force_components(adj, n)
        assert {frozenset(c) for c in _tarjan_sccs(adj, n)} == comps
        assert closed_components(adj, n) == (closed, transient)


def test_closed_components_of_a_long_path_and_cycle():
    # far deeper than the recursion limit: the search stays iterative
    n = 5000
    path = [[x + 1] for x in range(n - 1)] + [[]]
    assert closed_components(path, n) == ([(n - 1,)], list(range(n - 1)))
    cycle = [[(x + 1) % n] for x in range(n)] + [[0]]  # and a state that enters it
    assert closed_components(cycle, n + 1) == ([tuple(range(n))], [n])


def test_is_irreducible():
    assert is_irreducible(RowStochasticMatrix(StateSpace(2), ((0, 1), (1, 0))))
    assert not is_irreducible(RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1))))
    rng = rng_for("irr-smoke")
    for _ in range(10):
        assert is_irreducible(rand_irreducible(rng, rng.randint(1, 7)))


def test_partition_validation():
    with pytest.raises(ValueError, match="^partition cells overlap$"):
        ClassPartition(((0, 1), (1, 2)), ())
    with pytest.raises(ValueError, match="^at least one closed class is required$"):
        ClassPartition((), (0,))


def test_matrix_json_round_trip():
    rng = rng_for("json-rt")
    for _ in range(10):
        p = rand_stochastic(rng, rng.randint(1, 6))
        text = json.dumps(dump_matrix_json(p))
        back = load_matrix_json(text)
        assert back.rows == p.rows


def test_matrix_json_decimal_semantics():
    p = load_matrix_json('{"n": 2, "rows": [[0.1, 0.9], ["1/3", "2/3"]]}')
    assert p.entry(0, 0) == F(1, 10)
    assert p.entry(1, 0) == F(1, 3)


def test_matrix_json_errors():
    with pytest.raises(InputFormatError):
        load_matrix_json("not json")
    with pytest.raises(InputFormatError):
        load_matrix_json('{"n": 2}')
    with pytest.raises(InputFormatError):
        load_matrix_json('{"n": 2, "rows": [[1, 0]]}')
    with pytest.raises(InputFormatError):
        load_matrix_json('{"n": 1, "rows": [[true]]}')
    with pytest.raises(InputFormatError):
        load_matrix_json('{"n": 1, "rows": [["2/1"]]}')  # row sum 2


def test_matrix_json_refuses_non_finite_numbers():
    # an exact Infinity raised OverflowError, and a float NaN passed the row
    # sum check, as no comparison with NaN is true
    for token, shown in (("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan")):
        with pytest.raises(InputFormatError) as ei:
            load_matrix_json(f'{{"n": 2, "rows": [[{token}, 1], [0, 1]]}}')
        assert str(ei.value) == f"expected a finite number, got {shown}"


def test_uniform_and_rank_one():
    u = uniform_matrix(3)
    assert all(x == F(1, 3) for i in range(3) for x in u.row(i))
    nu = (F(1, 5), F(3, 10), F(1, 2))
    q = ones_outer(nu)
    assert all(q.row(i) == nu for i in range(3))


def test_shared_rows_stay_shared_in_float():
    for q in (uniform_matrix(4), ones_outer((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))):
        qf = q.to_float()
        assert len({id(row) for row in qf.rows}) == 1
        assert qf.row(0) == tuple(float(x) for x in q.row(0))
    # rows given as lists of ints: one conversion per distinct row object
    half = [F(1, 2), 0, F(1, 2)]
    m = RowStochasticMatrix(StateSpace(3), (half, [0, 1, 0], half))
    assert m.rows[0] is m.rows[2] and m.row(1) == (F(0), F(1), F(0))
    assert len({id(row) for row in m.to_float().rows}) == 2


def test_repr_prints_each_shared_row_once():
    size = len(repr(uniform_matrix(1000, numeric_mode="float")))  # 11.9 million when printed per state
    assert size < 10**5
    half = {0: F(1, 2), 2: F(1, 2)}
    text = repr(RowStochasticMatrix(StateSpace(3), (half, {1: F(1)}, half)))
    assert "rows={(0, 2): {0: Fraction(1, 2), 2: Fraction(1, 2)}, (1,): {1: Fraction(1, 1)}}" in text


def test_float_row_sum_check_is_exact_on_long_rows():
    # the plain left-to-right sum of 100000 entries 1e-5 misses 1 by 1.9e-12;
    # a failure is reported without its traceback, whose frames hold the rows
    try:
        m = uniform_matrix(100000, numeric_mode="float")
    except ValueError as exc:
        pytest.fail(str(exc), pytrace=False)
    assert m.n == 100000 and len(m.rows[0]) == 100000
    with pytest.raises(ValueError, match="row 0 sums to"):
        RowStochasticMatrix(StateSpace(2), ((0.5, 0.5 + 1e-11), (0.0, 1.0)), "float")


def test_to_stochastic_stores_only_the_edges():
    n = 5000
    g = WeightedDigraph(StateSpace(n), tuple((u, (u + k) % n, F(k)) for u in range(n) for k in (1, 2)))
    p = to_stochastic(g)
    assert sum(len(row) for row in p.rows) == 2 * n
    assert p.rows[7] == {8: F(1, 3), 9: F(2, 3)} and list(p.rows[n - 1]) == [0, 1]


def test_to_stochastic_builds_at_most_nnz_plus_n_fractions(monkeypatch):
    # weights are normalised and stored in integers, numerators over one
    # denominator per row: no Fraction at all. Storing a Fraction per entry
    # made one per entry and one per row sum check; a dense build about n**2
    rng = rng_for("to-stochastic-count")
    n = 60
    edges = {(u, v): rng.randint(1, 9) for u in range(n) for v in rng.sample(range(n), 3)}
    g = WeightedDigraph(StateSpace(n), tuple((u, v, F(w)) for (u, v), w in edges.items()))
    p, made = fractions_built(monkeypatch, to_stochastic, g)
    assert made == 0
    assert sum(len(row) for row in p.rows) == len(edges)


def _token(rng):
    """A weight or mass token: small or big integer, p/q, decimal or zero."""
    return rng.choice((str(rng.randint(1, 9)), str(10**30 + rng.randint(1, 9)),
                       f"{rng.randint(1, 9)}/{rng.randint(1, 40)}", f"{rng.randint(0, 9)}.{rng.randint(1, 999):03d}",
                       "1e-30", "0"))


def _rows(m):
    """Rows as (column, float bits) lists, and the pattern of shared rows."""
    first = {}
    shared = [first.setdefault(id(row), i) for i, row in enumerate(m.rows)]
    return [[(j, x.hex()) for j, x in row.items()] for row in m.rows], shared


def test_float_inputs_are_the_float_of_the_exact_inputs(tmp_path):
    # P and the uniform and personalized Q built in float mode equal the
    # exact ones converted, bit for bit, in column order and row sharing
    rng = rng_for("float-native-inputs")
    for _ in range(80):
        n = rng.randint(1, 20)
        lines = [f"v{x}" for x in range(n)]
        for u in range(n):
            if rng.random() < 0.8:  # else dangling
                lines += [f"v{u} v{v} {_token(rng)}" for v in rng.sample(range(n), rng.randint(1, min(n, 4)))]
        g = parse_edge_list("\n".join(lines))
        for policy in DANGLING_POLICIES:
            exact, flt = to_stochastic(g, policy), to_stochastic(g, policy, FLOAT)
            assert flt.numeric_mode == FLOAT and _rows(flt) == _rows(exact.to_float())
        masses = [(rng.randrange(n), _token(rng)) for _ in range(rng.randint(1, 2 * n))] + [(0, "1")]
        nu = tmp_path / "nu.txt"
        nu.write_text("".join(f"v{x} {m}\n" for x, m in masses))  # nodes repeat
        for spec in ("uniform", f"personalized={nu}"):
            assert _rows(load_q(spec, flt)) == _rows(load_q(spec, exact).to_float())


def _sharing(rows):
    """Index of the first state holding each row object, per state."""
    first = {}
    return [first.setdefault(id(row), i) for i, row in enumerate(rows)]


def _edge_list_rows(g, policy):
    """Exact rows of an edge list by Fraction arithmetic, entry by entry;
    the uniform row of the dangling states is one shared dict."""
    n = g.states.n
    uniform = {j: F(1, n) for j in range(n)}
    rows = []
    for u in range(n):
        out = sorted((d, w) for s, d, w in g.edges if s == u)
        total = sum(F(w) for _, w in out)
        if total:
            rows.append({v: F(w) / total for v, w in out if w})
        else:
            rows.append({u: F(1)} if policy == "self_loop" else uniform)
    return tuple(rows)


def test_exact_matrices_agree_however_built(tmp_path):
    # an edge list under either dangling policy, its rows as Fraction dicts,
    # as dense lists and as matrix JSON give the same matrix: equal rows,
    # entries, ==, repr and shared rows; so do the uniform and
    # personalized Q built from integers and from Fractions
    rng = rng_for("exact-matrix-forms")
    for _ in range(60):
        n = rng.randint(1, 12)
        lines = [f"v{x}" for x in range(n)]
        for u in range(n):
            if rng.random() < 0.8:  # else dangling
                lines += [f"v{u} v{v} {_token(rng)}" for v in rng.sample(range(n), rng.randint(1, min(n, 4)))]
        g = parse_edge_list("\n".join(lines))
        for policy in DANGLING_POLICIES:
            ref = _edge_list_rows(g, policy)
            dense = {id(row): [row.get(j, 0) for j in range(n)] for row in ref}
            built = (
                to_stochastic(g, policy),
                RowStochasticMatrix(g.states, ref),
                RowStochasticMatrix(g.states, tuple(dense[id(row)] for row in ref)),
            )
            obj = {"n": n, "labels": list(g.states.labels), "rows": [[str(x) for x in dense[id(row)]] for row in ref]}
            from_json = load_matrix_json(json.dumps(obj))
            for m in (*built, from_json):
                assert m == built[0] and m.rows == ref
                assert all(list(row) == sorted(row) and all(type(x) is F for x in row.values()) for row in m.rows)
                assert all(m.entry(i, j) == ref[i].get(j, 0) and type(m.entry(i, j)) is F
                           for i in range(n) for j in range(n))
            for m in built:
                assert repr(m) == repr(built[0])
                assert _sharing(m.rows) == _sharing(m.num_rows) == _sharing(ref)
        p = built[0]
        u = F(1, n)
        qs = (load_q("uniform", p), uniform_matrix(n, g.states), ones_outer((u,) * n, g.states),
              RowStochasticMatrix(g.states, ([u] * n,) * n))
        masses = [(rng.randrange(n), _token(rng)) for _ in range(rng.randint(1, 2 * n))] + [(0, "1")]
        nu = [F(0)] * n
        for x, mass in masses:
            nu[x] += F(mass)
        (tmp_path / "nu.txt").write_text("".join(f"v{x} {mass}\n" for x, mass in masses))  # nodes repeat
        personalized = (load_q(f"personalized={tmp_path / 'nu.txt'}", p),
                        ones_outer([x / sum(nu) for x in nu], g.states))
        for group in (qs, personalized):
            for q in group:
                assert q == group[0] and repr(q) == repr(group[0])
                assert _sharing(q.rows) == _sharing(q.num_rows) == [0] * n


def test_to_float_is_the_float_of_each_fraction():
    # the float of an integer ratio over the row denominator is the float of
    # the Fraction in lowest terms, to the bit, down to entries that round
    # to subnormals or to zero
    rng = rng_for("to-float-bits")
    tokens = ("1", "3", "7", str(10**30 + 7), str(2**61 - 1), "1/3", "2/7", "0.1", "1e-30", "1e-310", "1e-330")
    for _ in range(200):
        n = rng.randint(1, 8)
        lines = [f"v{x}" for x in range(n)]
        for u in range(n):
            lines += [f"v{u} v{v} {rng.choice(tokens)}" for v in rng.sample(range(n), rng.randint(1, n))]
        p = to_stochastic(parse_edge_list("\n".join(lines)))
        pf = p.to_float()
        for i, row in enumerate(p.rows):
            assert [pf.entry(i, j).hex() for j in row] == [float(x).hex() for x in row.values()]
            assert set(pf.rows[i]) == {j for j, x in row.items() if float(x)}


def test_float_sweep_on_integer_inputs_builds_no_fraction(tmp_path, monkeypatch, capsys):
    # the float route builds P and Q in floats from the integer weights and
    # masses; building them exactly first made 489 Fractions per sweep
    import znrank.sweep  # noqa: F401  (its exact default grid is made at import)

    rng = rng_for("float-sweep-count")
    n = 30
    # two closed classes of 12 (a cycle plus chords) and 6 transient states
    edges = {(u, (u + 1) % 12 + 12 * (u >= 12)) for u in range(24)}
    edges |= {(u, v) for u in range(n) for v in rng.sample(range(n), 4) if u >= 24 or u // 12 == v // 12}
    (tmp_path / "p.edges").write_text("".join(f"v{u} v{v} {rng.randint(1, 9)}\n" for u, v in sorted(edges)))
    (tmp_path / "nu.txt").write_text("".join(f"v{x} {rng.randint(1, 9)}\n" for x in range(n)))
    for spec in ("uniform", f"personalized={tmp_path / 'nu.txt'}"):
        argv = ["sweep", "--graph", str(tmp_path / "p.edges"), "--numeric", "float", "--format", "json", "--q", spec]
        code, made = fractions_built(monkeypatch, main, argv)
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and len(out["pi"][0]) == n and made == 0


def test_reduced_rows_form_a_shared_q_rows_masses_once(monkeypatch):
    # each class's Q mass is formed in integers over one denominator, the
    # members that hold one Q row object weighted once by their summed law
    # numerators, and routed in integers, so Gamma builds no Fraction; one
    # per entry of Gamma made 9, and Fraction weights per member 336 at n = 48
    built = {}
    for scale in (1, 4):
        rng = rng_for(f"shared-q-count-{scale}")
        sizes = [6 * scale, 4 * scale, 2 * scale]
        p = rand_reducible_no_transient(rng, sizes)
        for kind in ("block", "general", "partly shared"):
            q = rand_q(rng, kind, p, sizes)
            built[kind, p.n] = fractions_built(monkeypatch, extended_gamma, p, q)[1]
    assert set(built.values()) == {0}, built


def test_matrix_json_drops_zeros_and_keeps_its_errors():
    exact = load_matrix_json('{"n": 3, "rows": [[0, 0.0, 1], ["0", "0/5", "1"], ["1/2", 0, 0.5]]}')
    for p, kind in ((exact, F), (exact.to_float(), float)):
        assert p.rows[0] == p.rows[1] == {2: 1} and list(p.rows[2]) == [0, 2]
        assert all(type(x) is kind and x for row in p.rows for x in row.values())
    cases = (
        ('{"n": 2, "rows": [[false, 1], [0, 1]]}', "expected a number, got False"),
        ('{"n": 2, "rows": [["-1/2", "3/2"], [0, 1]]}', "negative entry in row 0"),
        ('{"n": 2, "rows": [[0, 1], ["1/2", "1/3"]]}', "row 1 sums to 5/6, not 1"),
    )
    for text, message in cases:
        with pytest.raises(InputFormatError) as ei:
            load_matrix_json(text)
        assert str(ei.value) == message


def _closed_class_count(p, q):
    """Closed classes of the dense union support of P and Q, by brute
    force: x is recurrent when every state it reaches reaches it back."""
    n = p.n
    adj = [[y for y in range(n) if y != x and (p.entry(x, y) > 0 or q.entry(x, y) > 0)] for x in range(n)]
    reach = []
    for x in range(n):
        seen, todo = {x}, [x]
        while todo:
            for y in adj[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        reach.append(frozenset(seen))
    return len({reach[x] for x in range(n) if all(x in reach[y] for y in reach[x])})


def test_unichain_union_check_matches_dense_union_support():
    rng = rng_for("union-hub-pattern")
    seen = set()
    for _ in range(150):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        p = rand_with_transients(rng, sizes, rng.randint(0, 3))  # classes in order, transients last
        n = p.n
        classes = [list(range(sum(sizes[:k]), sum(sizes[:k + 1]))) for k in range(len(sizes))]
        owner = {x: k for k, c in enumerate(classes) for x in c}

        def q_row(k):
            # 1-3 states of class k, or of the whole chain now and then
            cell = classes[k] if rng.random() < 0.85 else range(n)
            return rand_row(rng, n, support=rng.sample(cell, rng.randint(1, min(3, len(cell)))))

        kind = rng.choice(("shared", "partly", "distinct"))
        shared = [q_row(k) for k in range(len(classes))]  # one row object per class
        rows = []
        for x in range(n):
            k = owner.get(x, rng.randrange(len(classes)))
            share = {"shared": 1, "partly": 0.5, "distinct": 0}[kind] > rng.random()
            rows.append(shared[k] if share else q_row(k))
        q = RowStochasticMatrix(StateSpace(n), tuple(rows))
        unichain = _closed_class_count(p, q) == 1
        seen.add((kind, unichain))
        for pm, qm in ((p, q), (p.to_float(), q.to_float())):
            if unichain:
                require_unichain_union(pm, qm)
            else:
                with pytest.raises(NotIrreducible):
                    require_unichain_union(pm, qm)
    assert seen == {(kind, verdict) for kind in ("shared", "partly", "distinct") for verdict in (True, False)}


def _reference_rows(text, policy):
    """(labels, num_rows, dens) of an edge list read apart from znrank: a
    Fraction per weight, each row divided by its total and then written as
    integers over the lcm of its entries' denominators."""
    labels, out = {}, []
    for raw in text.splitlines():
        toks = raw.split("#")[0].split()
        for tok in toks[:2]:
            if tok not in labels:
                labels[tok] = len(out)
                out.append({})
        if len(toks) > 1:
            out[labels[toks[0]]][labels[toks[1]]] = F(toks[2]) if len(toks) == 3 else F(1)
    n = len(out)
    num_rows, dens = [], []
    for u, weights in enumerate(out):
        total = sum(weights.values())
        if total:
            row = {v: w / total for v, w in sorted(weights.items()) if w}
        else:
            row = {u: F(1)} if policy == "self_loop" else {v: F(1, n) for v in range(n)}
        den = math.lcm(*[x.denominator for x in row.values()])
        num_rows.append({v: x.numerator * (den // x.denominator) for v, x in row.items()})
        dens.append(den)
    return tuple(labels), tuple(num_rows), tuple(dens)


def test_edge_list_rows_match_a_fraction_reference():
    # comments, blank lines, node lines, int, p/q, decimal and zero weights,
    # self-loops and dangling rows, in both modes: the stored integer rows
    # are canonical and each float entry is the float of the exact one
    rng = rng_for("edge-list-reference")
    tokens = ("1", "7", str(10**30 + 3), "3/4", "10/4", "0.5", "2.250", "1e-330", "0", "0/3", "0.0")
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 10)
        names = [f"v{x}" for x in rng.sample(range(50), n)]
        lines = ["# header", ""]
        for u in rng.sample(range(n), n):
            if rng.random() < 0.3:
                lines.append(f"  {names[u]}   # a node line")
            for v in rng.sample(range(n), rng.randint(0, min(n, 4))):
                weight = "" if rng.random() < 0.2 else " " + rng.choice(tokens)
                lines.append(f"{names[u]}\t{names[v]}{weight}" + (" # edge" if rng.random() < 0.1 else ""))
        if all(len(line.split("#")[0].split()) == 2 for line in lines if line.split("#")[0].split()):
            lines.append(names[0])
        text = "\n".join(lines)
        g = parse_edge_list(text)
        for policy in DANGLING_POLICIES:
            labels, num_rows, dens = _reference_rows(text, policy)
            p = to_stochastic(g, policy)
            assert (p.states.labels, p.num_rows, p.dens) == (labels, num_rows, dens)
            assert all(list(row) == sorted(row) for row in p.num_rows)
            pf = to_stochastic(g, policy, FLOAT)
            want = [{v: F(x, den) for v, x in row.items()} for row, den in zip(num_rows, dens)]
            assert [[(v, x.hex()) for v, x in row.items()] for row in pf.num_rows] == [
                [(v, float(x).hex()) for v, x in row.items() if float(x)] for row in want]
            seen.update(("dangling", policy) for u in range(p.n) if not any(w for s, _, w in g.edges if s == u))
            seen.update(("underflow",) for low, row in zip(pf.num_rows, p.num_rows) if len(low) < len(row))
        seen.update(("self-loop",) for u in range(p.n) if u in g.successors(u))
    assert seen >= {("dangling", "self_loop"), ("dangling", "uniform_row"), ("self-loop",), ("underflow",)}


def test_edge_list_errors_keep_their_messages_and_lines():
    cases = (
        ("a b\nb a 1 2\n", "line 2: expected `src dst [weight]`, got 4 fields"),
        ("a b # 1 2\nb a 1 2 3 # x\n", "line 2: expected `src dst [weight]`, got 5 fields"),
        ("a b\n\n# x\nb a x\n", "line 4: bad number 'x': Invalid literal for Fraction: 'x'"),
        ("a b 1/0\n", "line 1: bad number '1/0': Fraction(1, 0)"),
        ("a b 1/-2\n", "line 1: bad number '1/-2': Invalid literal for Fraction: '1/-2'"),
        ("a b -1\n", "line 1: negative weight"),
        ("a b 1\n# x\nb a -1/2\n", "line 3: negative weight"),
        ("a b 1\nb a -0.5\n", "line 2: negative weight"),
        ("a b\nb a\na b 0\n", "line 3: duplicate edge a -> b"),
        ("a b 0\na b 2\n", "line 2: duplicate edge a -> b"),
        ("a a 1/2\nb\na a\n", "line 3: duplicate edge a -> a"),
        ("# nothing\n\n   \n", "no nodes in input"),
        ("", "no nodes in input"),
    )
    for text, message in cases:
        with pytest.raises(InputFormatError) as ei:
            parse_edge_list(text)
        assert str(ei.value) == message, text


def test_matrix_json_errors_keep_their_messages():
    # a row's bad entry comes before any row's sum
    cases = (
        ("not json", "bad JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", 'matrix JSON needs keys "n" and "rows"'),
        ('{"n": 2}', 'matrix JSON needs keys "n" and "rows"'),
        ('{"n": "2", "rows": []}', '"n" must be a positive integer'),
        ('{"n": 0, "rows": []}', '"n" must be a positive integer'),
        ('{"n": 2, "rows": [[1, 0]]}', '"rows" must be an n x n array'),
        ('{"n": 2, "rows": [[1, 0], [1]]}', '"rows" must be an n x n array'),
        ('{"n": 1, "rows": "1"}', '"rows" must be an n x n array'),
        ('{"n": 2, "rows": [[0, 1], [true, 0]]}', "expected a number, got True"),
        ('{"n": 2, "rows": [[false, 1], [0, 1]]}', "expected a number, got False"),
        ('{"n": 2, "rows": [[null, 1], [0, 1]]}', "expected a number, got None"),
        ('{"n": 2, "rows": [[[1], 0], [0, 1]]}', "expected a number, got [1]"),
        ('{"n": 2, "rows": [[{}, 1], [0, 1]]}', "expected a number, got {}"),
        ('{"n": 2, "rows": [[0, 1], [NaN, 1]]}', "expected a finite number, got nan"),
        ('{"n": 2, "rows": [[-Infinity, 1], [0, 1]]}', "expected a finite number, got -inf"),
        ('{"n": 2, "rows": [["1/x", 0], [0, 1]]}', "bad number '1/x': Invalid literal for Fraction: '1/x'"),
        ('{"n": 2, "rows": [["1/0", 0], [0, 1]]}', "bad number '1/0': Fraction(1, 0)"),
        ('{"n": 2, "rows": [["1/2", "1/3"], [0, "y"]]}', "bad number 'y': Invalid literal for Fraction: 'y'"),
        ('{"n": 2, "rows": [["-1/2", "3/2"], [0, 1]]}', "negative entry in row 0"),
        ('{"n": 2, "rows": [[0, 1], [-0.5, 1.5]]}', "negative entry in row 1"),
    )
    sums = (
        ('{"n": 2, "rows": [[0, 1], ["1/2", "1/3"]]}', "row 1 sums to 5/6, not 1"),
        ('{"n": 2, "rows": [[0.5, 0.6], [0, 1]]}', "row 0 sums to 11/10, not 1"),
        ('{"n": 2, "rows": [[1, 1], [0, 1]]}', "row 0 sums to 2, not 1"),
        ('{"n": 2, "rows": [[0, "0/3"], [0, 1]]}', "row 0 sums to 0, not 1"),
    )
    for text, message in cases + sums:
        with pytest.raises(InputFormatError) as ei:
            load_matrix_json(text)
        assert str(ei.value) == message, text
    for labels, message in ((["x", "x"], "duplicate labels"), (["x"], "label count does not match n")):
        with pytest.raises(ValueError, match=message):
            load_matrix_json(json.dumps({"n": 2, "labels": labels, "rows": [[0, 1], [1, 0]]}))


def test_matrix_json_reads_tokens_as_their_exact_values():
    # "p/q" strings with signs, spaces, unicode digits and underscores, and
    # decimal literals, as Fraction reads them; float entries are their floats
    tokens = (" 1/8 ", "+1/8", "١/٨", "1_0/80", "0.125", 0.125, 1.25e-1, "125e-3", "-0", "0/9", 0)
    rng = rng_for("matrix-json-tokens")
    for _ in range(40):
        row = [rng.choice(tokens) for _ in range(8)]
        value = sum(F(x.strip()) if isinstance(x, str) else F(str(x)) for x in row)
        row.append(str(1 - value))
        p = load_matrix_json(json.dumps({"n": 9, "rows": [row] + [[0] * 8 + [1]] * 8}))
        want = {j: F(x.strip()) if isinstance(x, str) else F(str(x)) for j, x in enumerate(row)}
        want = {j: x for j, x in want.items() if x}
        assert p.rows[0] == want and p.dens[0] == math.lcm(*[x.denominator for x in want.values()])
        assert p.to_float().rows[0] == {j: float(x) for j, x in want.items()}


def _union_verdict(p, q):
    try:
        require_unichain_union(p, q)
        return True
    except NotIrreducible:
        return False


def test_unichain_union_skips_the_search_for_one_shared_q_row(monkeypatch):
    # a Q row held by every state answers at once; the same rows as equal
    # but distinct objects take the full search and agree
    import znrank.graph

    rng = rng_for("shared-q-row-union")
    searched = []
    search = znrank.graph.closed_components
    monkeypatch.setattr(znrank.graph, "closed_components", lambda adj, n: searched.append(n) or search(adj, n))
    for _ in range(60):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        p = rand_with_transients(rng, sizes, rng.randint(0, 3))
        nu = rand_personalization(rng, p.n)
        for q in (uniform_matrix(p.n), ones_outer(nu)):
            distinct = RowStochasticMatrix(p.states, tuple(dict(q.rows[0]) for _ in range(p.n)))
            assert distinct == q and len({id(row) for row in distinct.num_rows}) == p.n
            for pm, qm, route in ((p, q, 0), (p, distinct, int(p.n > 1)), (p.to_float(), q.to_float(), 0)):
                del searched[:]
                assert _union_verdict(pm, qm)
                assert len(searched) == route
    # rows of Q shared by a class only, as block= makes them, still refuse
    # a union with two closed classes
    p = RowStochasticMatrix(StateSpace(4), ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
    left, right = {0: F(1, 2), 2: F(1, 2)}, {1: F(1, 2), 3: F(1, 2)}
    q = RowStochasticMatrix(StateSpace(4), (left, right, left, right))
    assert not _union_verdict(p, q) and not _union_verdict(p.to_float(), q.to_float())
