"""Chain constructors for the worked applications: simple random walks,
rumor-source scores, win-weight ladders and pairwise comparison chains."""

import math
from collections import Counter, namedtuple
from fractions import Fraction

from znrank.errors import GuardExceeded, MissingReverseWeight, NonpositiveWeight, NotIrreducible
from znrank.graph import RowStochasticMatrix, WeightedDigraph, to_stochastic
from znrank.rational import format_rational
from znrank.stationary import Distribution


def simple_random_walk(g, dangling="self_loop"):
    """P(i, j) = 1 / out-degree(i) over the out-neighbors of i."""
    unit_edges = tuple((s, d, Fraction(1)) for s, d, _ in g.edges)
    return to_stochastic(WeightedDigraph(g.states, unit_edges), dangling=dangling)


def rumor_source_scores(p, g):
    """Scores proportional to pi(i) / d_i for the walk chain p on g; for a
    simple random walk this is proportional to the number of arborescences
    rooted at i."""
    from znrank.arborescence import mctt_stationary

    pi = mctt_stationary(p)
    degs = [g.out_degree(u) for u in range(g.states.n)]
    if any(d == 0 for d in degs):
        raise NotIrreducible("a node with no out-edge cannot carry a score")
    raw = [pi[i] / degs[i] for i in range(g.states.n)]
    total = sum(raw)
    return Distribution(tuple(x / total for x in raw), pi.numeric_mode)


class NodeWeights(namedtuple("NodeWeights", "values")):
    """values: strictly positive rationals per node."""

    __slots__ = ()

    def __new__(cls, values):
        vals = tuple(Fraction(v) for v in values)
        if any(v <= 0 for v in vals):
            raise NonpositiveWeight("node weights must be strictly positive")
        return super().__new__(cls, vals)


def bradley_terry_chain(g, w, dangling="self_loop"):
    """Win-weight ladder: from i, move to neighbor j with probability
    w_j / W(i), W(i) the total weight of i's out-neighborhood."""
    if not isinstance(w, NodeWeights):
        w = NodeWeights(tuple(w))
    n = g.states.n
    if len(w.values) != n:
        raise ValueError("need one weight per node")
    edges = tuple((s, d, w.values[d]) for s, d, _ in g.edges)
    return to_stochastic(WeightedDigraph(g.states, edges), dangling=dangling)


class EdgeComparisons(namedtuple("EdgeComparisons", "states w_pairs d")):
    """Directed comparison data on a StateSpace: w_pairs, sorted ((i, j),
    weight) items, gives the weight of i over j. D must be at least the
    maximum out-degree; omitted, it defaults to it."""

    __slots__ = ()

    def __new__(cls, states, w_pairs, d=None):
        norm = {}
        for (i, j), w in dict(w_pairs).items():
            if i == j:
                raise ValueError("self-comparisons are not allowed")
            if not (0 <= i < states.n and 0 <= j < states.n):
                raise ValueError(f"comparison ({i}, {j}) outside the state space")
            w = Fraction(w)
            if w <= 0:
                raise NonpositiveWeight(f"comparison weight for ({i}, {j}) must be positive")
            norm[(i, j)] = w
        for i, j in norm:
            if (j, i) not in norm:
                raise MissingReverseWeight(f"comparison ({i}, {j}) lacks its reverse ({j}, {i})")
        max_out = max(Counter(i for i, _ in norm).values(), default=0)
        d = max_out if d is None else d
        if d < max_out or d < 1:
            raise ValueError(f"D = {d} is below the maximum out-degree {max_out}")
        return super().__new__(cls, states, tuple(sorted(norm.items())), int(d))

    def pairs_dict(self):
        return dict(self.w_pairs)


def pairwise_comparison_chain(c):
    """Comparison chain: p(i, j) = (1/D) w_ij / (w_ij + w_ji) off the
    diagonal, remainder on the diagonal."""
    w = c.pairs_dict()
    rows = [{} for _ in range(c.states.n)]
    for (i, j), wij in c.w_pairs:  # sorted, so each row's columns ascend
        rows[i][j] = Fraction(wij, 1) / (wij + w[(j, i)]) / c.d
    for i, row in enumerate(rows):
        row[i] = 1 - sum(row.values())
        if row[i] < 0:
            raise ValueError(f"row {i} overflows; D = {c.d} is too small")
    return RowStochasticMatrix(c.states, tuple(rows))


def bt_leaf_formula_check(g, w):
    """Adjudicate the closed-form leaf expression for win-weight ladders:
    score(i) compared with sum over arborescences rooted at i of
    W(i) / prod over leaves j of w_j, both normalized. Measurement only."""
    from znrank.arborescence import LEAF_FORMULA_N_GUARD, enumerate_arborescences, mctt_stationary

    n = g.states.n
    if n > LEAF_FORMULA_N_GUARD:
        raise GuardExceeded(f"n = {n} exceeds the leaf-formula guard {LEAF_FORMULA_N_GUARD}")
    if not isinstance(w, NodeWeights):
        w = NodeWeights(tuple(w))
    p = bradley_terry_chain(g, w)
    pi = mctt_stationary(p)  # raises NotIrreducible when g is not strongly connected
    big_w = []
    for i in range(n):
        succ = g.successors(i)
        big_w.append(sum((w.values[j] for j in succ), Fraction(0)))
    raw = []
    for i in range(n):
        total = Fraction(0)
        for a in enumerate_arborescences(g, i):
            has_incoming = {v for _, v in a.parents}
            leaves = [u for u in range(n) if u not in has_incoming and u != i]
            denom = math.prod((w.values[u] for u in leaves), start=Fraction(1))
            total += big_w[i] / denom
        raw.append(total)
    s = sum(raw)
    rhs = [x / s for x in raw]
    ratios = [pi[i] / rhs[i] if rhs[i] != 0 else None for i in range(n)]
    proportional = all(r is not None and r == ratios[0] for r in ratios)
    return {
        "n": n,
        "weights": [format_rational(x) for x in w.values],
        "pi": [format_rational(x) for x in pi.values],
        "leaf_expression": [format_rational(x) for x in rhs],
        "ratio": [None if r is None else format_rational(r) for r in ratios],
        "proportional": proportional,
    }
