import json
from fractions import Fraction

import pytest

from znrank.errors import (
    GuardExceeded,
    MissingReverseWeight,
    NonpositiveWeight,
    NotIrreducible,
)
from znrank.graph import StateSpace, parse_edge_list
from znrank.models import (
    EdgeComparisons,
    NodeWeights,
    bradley_terry_chain,
    bt_leaf_formula_check,
    pairwise_comparison_chain,
    rumor_source_scores,
    simple_random_walk,
)
from helpers import rand_strong_digraph, rng_for

F = Fraction

K3 = "a b\nb a\na c\nc a\nb c\nc b\n"
PATH = "a b\nb a\nb c\nc b\n"


def test_simple_random_walk_rows():
    g = parse_edge_list("a b 7\na c 3\nb a\nc a\n")
    p = simple_random_walk(g)  # weights are ignored, only support counts
    assert p.row(0) == (F(0), F(1, 2), F(1, 2))
    assert p.row(1) == (F(1), F(0), F(0))


def test_rumor_scores_path_and_k3():
    g = parse_edge_list(PATH)
    scores = rumor_source_scores(simple_random_walk(g), g)
    assert scores.values == (F(1, 3), F(1, 3), F(1, 3))
    g3 = parse_edge_list(K3)
    scores3 = rumor_source_scores(simple_random_walk(g3), g3)
    assert scores3.values == (F(1, 3), F(1, 3), F(1, 3))


def test_rumor_scores_proportional_to_counts():
    from znrank.arborescence import enumerate_arborescences

    rng = rng_for("rumor-counts")
    for _ in range(8):
        g = rand_strong_digraph(rng, rng.randint(2, 6))
        p = simple_random_walk(g)
        scores = rumor_source_scores(p, g)
        counts = [len(enumerate_arborescences(g, r)) for r in range(g.states.n)]
        total = sum(counts)
        assert scores.values == tuple(F(c, total) for c in counts)


def test_rumor_scores_require_out_edges():
    g = parse_edge_list("a b\nb a\nc\n")
    p = simple_random_walk(g)  # c becomes absorbing
    with pytest.raises(NotIrreducible):
        rumor_source_scores(p, g)


def test_node_weights_validation():
    with pytest.raises(NonpositiveWeight, match="^node weights must be strictly positive$"):
        NodeWeights((F(1), F(0)))
    with pytest.raises(NonpositiveWeight):
        NodeWeights((F(-1),))
    w = NodeWeights([1, "1/2"])
    assert repr(w) == "NodeWeights(values=(Fraction(1, 1), Fraction(1, 2)))"
    assert w == NodeWeights((F(1), F(1, 2))) and hash(w) == hash(NodeWeights((F(1), F(1, 2))))
    with pytest.raises(AttributeError):
        w.values = ()


def test_bradley_terry_fixture():
    g = parse_edge_list(K3)
    p = bradley_terry_chain(g, [F(1), F(2), F(3)])
    assert p.row(0) == (F(0), F(2, 5), F(3, 5))
    assert p.row(1) == (F(1, 4), F(0), F(3, 4))
    assert p.row(2) == (F(1, 3), F(2, 3), F(0))
    with pytest.raises(ValueError):
        bradley_terry_chain(g, [F(1), F(2)])


def test_edge_comparisons_validation():
    s = StateSpace(2, ("x", "y"))
    with pytest.raises(MissingReverseWeight, match=r"^comparison \(0, 1\) lacks its reverse \(1, 0\)$"):
        EdgeComparisons(s, (((0, 1), F(3)),))
    with pytest.raises(NonpositiveWeight, match=r"^comparison weight for \(0, 1\) must be positive$"):
        EdgeComparisons(s, (((0, 1), F(0)), ((1, 0), F(1))))
    with pytest.raises(ValueError, match="^self-comparisons are not allowed$"):
        EdgeComparisons(s, (((0, 0), F(1)),))
    with pytest.raises(ValueError, match=r"^comparison \(0, 2\) outside the state space$"):
        EdgeComparisons(s, (((0, 2), F(1)),))
    with pytest.raises(ValueError, match="^D = 0 is below the maximum out-degree 1$"):
        EdgeComparisons(s, (((0, 1), F(3)), ((1, 0), F(1))), d=0)


def test_edge_comparisons_normalise_their_pairs():
    c = EdgeComparisons(StateSpace(2), {(1, 0): 1, (0, 1): "3"})
    assert repr(c) == ("EdgeComparisons(states=StateSpace(n=2, labels=None),"
                       " w_pairs=(((0, 1), Fraction(3, 1)), ((1, 0), Fraction(1, 1))), d=1)")
    twin = EdgeComparisons(StateSpace(2), (((0, 1), F(3)), ((1, 0), F(1))), d=1)
    assert c == twin and hash(c) == hash(twin)
    assert c.pairs_dict() == {(0, 1): 3, (1, 0): 1}
    with pytest.raises(AttributeError):
        c.d = 2


def test_pairwise_fixture():
    s = StateSpace(2, ("x", "y"))
    comps = EdgeComparisons(s, (((0, 1), F(3)), ((1, 0), F(1))), d=1)
    p = pairwise_comparison_chain(comps)
    assert (p.row(0), p.row(1)) == ((F(1, 4), F(3, 4)), (F(1, 4), F(3, 4)))
    from znrank.arborescence import mctt_stationary

    assert mctt_stationary(p).values == (F(1, 4), F(3, 4))


def test_pairwise_default_d_and_diagonal():
    s = StateSpace(3)
    pairs = (
        ((0, 1), F(2)),
        ((1, 0), F(1)),
        ((1, 2), F(1)),
        ((2, 1), F(1)),
    )
    comps = EdgeComparisons(s, pairs)
    assert comps.d == 2  # node 1 compares against two others
    p = pairwise_comparison_chain(comps)
    assert p.row(1) == (F(1, 6), F(7, 12), F(1, 4))
    for i in range(p.n):
        assert sum(p.row(i)) == 1


def test_bt_leaf_check_k2_holds():
    g = parse_edge_list("a b\nb a\n")
    report = bt_leaf_formula_check(g, [F(1), F(2)])
    assert report["proportional"] is True
    assert report["pi"] == ["1/2", "1/2"]


def test_bt_leaf_check_k3_fixture_recorded():
    # frozen measurement: the closed form does not match on this instance
    g = parse_edge_list(K3)
    report = bt_leaf_formula_check(g, [F(1), F(2), F(3)])
    assert report["proportional"] is False
    assert report["pi"] == ["5/22", "4/11", "9/22"]
    assert report["leaf_expression"] == ["15/53", "20/53", "18/53"]
    assert report["ratio"] == ["53/66", "53/55", "53/44"]


def test_bt_leaf_check_deterministic():
    g = parse_edge_list(K3)
    a = json.dumps(bt_leaf_formula_check(g, [F(1), F(2), F(3)]), sort_keys=True)
    b = json.dumps(bt_leaf_formula_check(g, [F(1), F(2), F(3)]), sort_keys=True)
    assert a == b


def test_bt_leaf_check_guard():
    text = "\n".join(f"n{i} n{(i + 1) % 7}\nn{(i + 1) % 7} n{i}" for i in range(7))
    g = parse_edge_list(text)
    with pytest.raises(GuardExceeded):
        bt_leaf_formula_check(g, [F(1)] * 7)
