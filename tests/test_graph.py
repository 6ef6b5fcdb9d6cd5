import json
from fractions import Fraction

import pytest

from znrank.errors import InputFormatError
from znrank.graph import (
    ClassPartition,
    RowStochasticMatrix,
    StateSpace,
    WeightedDigraph,
    classify_states,
    dump_matrix_json,
    is_irreducible,
    load_matrix_json,
    ones_outer,
    parse_edge_list,
    serialize_edge_list,
    to_stochastic,
    uniform_matrix,
)
from helpers import rand_irreducible, rand_stochastic, rng_for

F = Fraction


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace(0)
    with pytest.raises(ValueError):
        StateSpace(2, ("a",))
    with pytest.raises(ValueError):
        StateSpace(2, ("a", "a"))
    assert StateSpace(2).label_list() == ["0", "1"]
    assert StateSpace(2, ("x", "y")).label_list() == ["x", "y"]


def test_digraph_rejects_bad_edges():
    s = StateSpace(2)
    with pytest.raises(ValueError):
        WeightedDigraph(s, ((0, 5, F(1)),))
    with pytest.raises(ValueError):
        WeightedDigraph(s, ((0, 1, F(-1)),))
    with pytest.raises(ValueError):
        WeightedDigraph(s, ((0, 1, F(1)), (0, 1, F(2))))


def test_parse_edge_list_basics():
    g = parse_edge_list("a b\nb a 1/2\nb c 0.5\n# comment\nc a\n")
    assert g.states.label_list() == ["a", "b", "c"]
    assert g.out_edges(1) == [(0, F(1, 2)), (2, F(1, 2))]
    assert g.out_edges(2) == [(0, F(1))]


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


def test_edge_list_round_trip():
    text = "a\tb\t1/2\nb\ta\t1/1\na\tc\t1/2\nc\ta\t1/1\n"
    g = parse_edge_list(text)
    s = serialize_edge_list(g)
    assert parse_edge_list(s).edges == g.edges
    assert serialize_edge_list(parse_edge_list(s)) == s


def test_stochastic_validation():
    s = StateSpace(2)
    with pytest.raises(ValueError):
        RowStochasticMatrix(s, ((F(1, 2), F(1, 3)), (0, 1)))
    with pytest.raises(ValueError):
        RowStochasticMatrix(s, ((F(3, 2), F(-1, 2)), (0, 1)))
    with pytest.raises(ValueError):
        RowStochasticMatrix(s, ((0.5, 0.6), (0.0, 1.0)), "float")
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
    assert part.class_of(0) == 0 and part.class_of(2) == 1


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


def test_is_irreducible():
    assert is_irreducible(RowStochasticMatrix(StateSpace(2), ((0, 1), (1, 0))))
    assert not is_irreducible(RowStochasticMatrix(StateSpace(2), ((1, 0), (0, 1))))
    rng = rng_for("irr-smoke")
    for _ in range(10):
        assert is_irreducible(rand_irreducible(rng, rng.randint(1, 7)))


def test_partition_validation():
    with pytest.raises(ValueError):
        ClassPartition(((0, 1), (1, 2)), ())
    with pytest.raises(ValueError):
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


def test_uniform_and_rank_one():
    u = uniform_matrix(3)
    assert all(x == F(1, 3) for row in u.rows for x in row)
    nu = (F(1, 5), F(3, 10), F(1, 2))
    q = ones_outer(nu)
    assert all(row == nu for row in q.rows)


def test_shared_rows_stay_shared_in_float():
    for q in (uniform_matrix(4), ones_outer((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))):
        qf = q.to_float()
        assert len({id(row) for row in qf.rows}) == 1
        assert qf.rows[0] == tuple(float(x) for x in q.rows[0])
    # rows given as lists of ints: one conversion per distinct row object
    half = [F(1, 2), 0, F(1, 2)]
    m = RowStochasticMatrix(StateSpace(3), (half, [0, 1, 0], half))
    assert m.rows[0] is m.rows[2] and m.rows[1] == (F(0), F(1), F(0))
    assert len({id(row) for row in m.to_float().rows}) == 2
