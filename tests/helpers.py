"""Seeded random instance generators for the test suite, and a counter of
the Fractions a call builds.

Every generator takes a random.Random so each test controls its own seeds;
string seeds hash deterministically across runs and platforms.
"""

import random
from fractions import Fraction

from znrank.graph import RowStochasticMatrix, StateSpace, WeightedDigraph, ones_outer, uniform_matrix

MAX_W = 6  # integer weights stay small so denominators do too


def fractions_built(monkeypatch, fn, *args):
    """(fn(*args), the number of Fractions it constructed)."""
    made = []
    new = Fraction.__new__

    def counted(cls, *a, **kw):
        made.append(1)
        return new(cls, *a, **kw)

    monkeypatch.setattr(Fraction, "__new__", counted)
    try:
        return fn(*args), len(made)
    finally:
        monkeypatch.undo()


def rng_for(tag):
    return random.Random(tag)


def rand_row(rng, n, support=None):
    """Stochastic row with small rational entries on the given support."""
    if support is None:
        k = rng.randint(1, min(n, 4))
        support = rng.sample(range(n), k)
    weights = {j: rng.randint(1, MAX_W) for j in support}
    total = sum(weights.values())
    return tuple(Fraction(weights.get(j, 0), total) for j in range(n))


def rand_stochastic(rng, n):
    """Arbitrary stochastic matrix; may be reducible or leave transients."""
    return RowStochasticMatrix(StateSpace(n), tuple(rand_row(rng, n) for _ in range(n)))


def _cycle_plus_extras(rng, nodes, extras):
    """Edge set containing a permutation cycle over nodes (hence strongly
    connected) plus a few random extra edges."""
    order = list(nodes)
    rng.shuffle(order)
    edges = set()
    k = len(order)
    for i in range(k):
        if k == 1:
            edges.add((order[0], order[0]))
        else:
            edges.add((order[i], order[(i + 1) % k]))
    for _ in range(extras):
        u, v = rng.choice(order), rng.choice(order)
        if u != v:
            edges.add((u, v))
    return edges


def rand_irreducible(rng, n):
    """Irreducible stochastic matrix: permutation-cycle support + extras."""
    edges = _cycle_plus_extras(rng, range(n), rng.randint(0, n))
    rows = []
    for u in range(n):
        support = sorted(v for (s, v) in edges if s == u)
        rows.append(rand_row(rng, n, support=support))
    return RowStochasticMatrix(StateSpace(n), tuple(rows))


def rand_sizes(rng, m, lo=1, hi=4, total_cap=6):
    """m class sizes in [lo, hi] whose sum stays within the cap."""
    sizes = [rng.randint(lo, hi) for _ in range(m)]
    while sum(sizes) > total_cap:
        i = max(range(m), key=lambda k: sizes[k])
        if sizes[i] == lo:
            break
        sizes[i] -= 1
    return sizes


def rand_reducible_no_transient(rng, sizes):
    """Block-diagonal chain: one irreducible block per closed class."""
    n = sum(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for size in sizes:
        block = rand_irreducible(rng, size)
        for i in range(size):
            for j in range(size):
                rows[offset + i][offset + j] = block.entry(i, j)
        offset += size
    return RowStochasticMatrix(StateSpace(n), tuple(tuple(r) for r in rows))


def rand_block_q(rng, sizes):
    """Block-structured perturbation: Q(x, y) = gamma_ij for x in class i,
    y in class j, with an irreducible class-level support (cycle + extras)
    and rows normalized so sum_j gamma_ij |C_j| = 1."""
    m = len(sizes)
    support = _cycle_plus_extras(rng, range(m), rng.randint(0, m))
    n = sum(sizes)
    starts = [sum(sizes[:k]) for k in range(m)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    gamma = []
    for i in range(m):
        succ = sorted(j for (s, j) in support if s == i)
        if not succ:
            succ = [(i + 1) % m]
        u = {j: rng.randint(1, MAX_W) for j in succ}
        denom = sum(u[j] * sizes[j] for j in succ)
        gamma.append([Fraction(u.get(j, 0), denom) for j in range(m)])
    for i in range(m):
        for x in range(starts[i], starts[i] + sizes[i]):
            for j in range(m):
                for y in range(starts[j], starts[j] + sizes[j]):
                    rows[x][y] = gamma[i][j]
    q = RowStochasticMatrix(StateSpace(n), tuple(tuple(r) for r in rows))
    return q, gamma


def rand_general_q(rng, n):
    """Perturbation with no structure over the classes of P: every row has
    its own random weights, so Q(x, C_j) differs between members x of one
    class. The support holds a cycle through all states, so the union with
    any P is strongly connected and the polynomial oracle has an answer."""
    return rand_irreducible(rng, n)


def rand_partly_shared_q(rng, n, k=1):
    """General Q in which some states share one of k positive rows: part of
    them hold the same row object, the others equal copies of it."""
    own = rand_general_q(rng, n).rows
    pool = [rand_personalization(rng, n) for _ in range(k)]
    rows = []
    for x in range(n):
        pick = rng.choice(("own", "object", "copy"))
        shared = pool[rng.randrange(k)] if k > 1 else pool[0]  # k = 1 keeps the draws of earlier seeds
        rows.append(own[x] if pick == "own" else shared if pick == "object" else tuple(list(shared)))
    return RowStochasticMatrix(StateSpace(n), tuple(rows))


def rand_q(rng, kind, p, sizes):
    """Q of a kind for P: "uniform", "personalized", "block" (P
    transient-free, closed classes of the given sizes in order), "general"
    or "partly shared"."""
    if kind == "uniform":
        return uniform_matrix(p.n)
    if kind == "personalized":
        return ones_outer(rand_personalization(rng, p.n))
    if kind == "block":
        return rand_block_q(rng, sizes)[0]
    if kind == "general":
        return rand_general_q(rng, p.n)
    return rand_partly_shared_q(rng, p.n)


def rand_with_transients(rng, sizes, t):
    """Closed blocks plus t transient states, each with at least one direct
    edge into a closed state."""
    n_closed = sum(sizes)
    n = n_closed + t
    base = rand_reducible_no_transient(rng, sizes)
    rows = [list(base.row(i)) + [Fraction(0)] * t for i in range(n_closed)]
    for s in range(t):
        forced = rng.randrange(n_closed)
        k = rng.randint(0, min(3, n - 1))
        extra = rng.sample([j for j in range(n) if j != n_closed + s], k)
        support = sorted(set([forced] + extra))
        rows.append(list(rand_row(rng, n, support=support)))
    return RowStochasticMatrix(StateSpace(n), tuple(tuple(r) for r in rows))


def rand_dense_stochastic(rng, n):
    """Stochastic matrix with every entry positive."""
    return RowStochasticMatrix(
        StateSpace(n), tuple(rand_row(rng, n, support=range(n)) for _ in range(n))
    )


def rand_personalization(rng, n):
    """Strictly positive probability vector with small denominators."""
    w = [rng.randint(1, MAX_W) for _ in range(n)]
    s = sum(w)
    return tuple(Fraction(x, s) for x in w)


def rand_strong_digraph(rng, n):
    """Strongly connected unit-weight digraph without self-loops."""
    edges = _cycle_plus_extras(rng, range(n), rng.randint(0, n))
    if n == 1:
        edges = set()
    return WeightedDigraph(
        StateSpace(n), tuple((u, v, Fraction(1)) for u, v in sorted(edges))
    )


# decimal weights, the reciprocal of a 61-bit prime and integers: the rows of
# one chain get denominators from 1 to far beyond a machine word
MIXED_WEIGHTS = (Fraction("0.1"), Fraction("0.37"), Fraction(1, 2**61 - 1), Fraction(5, 7), Fraction(1), Fraction(3))


def rand_mixed_chain(rng, sizes, t):
    """Closed classes of the given sizes (a cycle plus extra edges through
    each) and t transient states, each with an edge into a closed state,
    weighted from MIXED_WEIGHTS and row-normalized."""
    n_closed = sum(sizes)
    n = n_closed + t
    edges = set()
    start = 0
    for size in sizes:
        edges |= _cycle_plus_extras(rng, range(start, start + size), 2 * size)
        start += size
    for s in range(n_closed, n):
        edges.add((s, rng.randrange(n_closed)))
        edges |= {(s, v) for v in rng.sample(range(n), min(n, 3))}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        weights = {v: rng.choice(MIXED_WEIGHTS) for (s, v) in sorted(edges) if s == u}
        total = sum(weights.values())
        for v, w in weights.items():
            rows[u][v] = w / total
    return RowStochasticMatrix(StateSpace(n), tuple(tuple(r) for r in rows))


def rand_web_edges(rng, n):
    """Edge list text of a web-like graph on nodes 0, ..., n - 1: a quarter
    of the pages, drawn one by one, are dangling (no out-link; `rank`'s
    default self_loop policy makes each a closed class of its own), the
    others link to int(Pareto(1.5)) distinct pages drawn uniformly, which
    may include the page itself. rng_for(0) at n = 2000 gives 524 closed
    classes and 1476 transient states, at n = 5000 1265 and 3735."""
    lines = [str(u) for u in range(n)]
    for u in range(n):
        if rng.random() >= 0.25:
            lines += [f"{u} {v}" for v in rng.sample(range(n), min(n - 1, int(rng.paretovariate(1.5))))]
    return "\n".join(lines) + "\n"


def markowitz_reference(rows, ins, live, order):
    """The Markowitz order search as first written, the reference for
    stationary._markowitz: each step takes the live state with the fewest
    in- times out-neighbours, ties to the lower index, by scanning every
    live state's key afresh."""
    while live:
        k = min(live, key=lambda s: (len(ins[s]) * len(rows[s]), s))
        live.discard(k)
        order.append(k)
        yield k


def assert_stationary(p, values):
    """values is a probability vector with values P = values, exactly."""
    assert sum(values) == 1 and all(x >= 0 for x in values)
    for j in range(p.n):
        assert sum(values[i] * p.entry(i, j) for i in range(p.n) if values[i]) == values[j], j
