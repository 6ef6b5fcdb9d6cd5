"""State spaces, weighted digraphs, row-stochastic matrices and the
closed-class decomposition.

States are 0-based. Closed communicating classes are the strongly connected
components no positive entry leaves; they are listed in increasing order of
their smallest member. Everything else is transient. A float entry counts
as positive above 0, however small. Matrix rows are sparse, the nonzero
entries in ascending column order; only row(i) and JSON output are dense.
Exact matrices store integer numerators over one denominator per row.
"""

import functools
import json
import math
from collections import namedtuple
from fractions import Fraction
from itertools import compress

from znrank.errors import InputFormatError, NotIrreducible
from znrank.rational import (EXACT, FLOAT, common_denominator, number_to_json, over_lcm, parse_ratio, parse_rational,
                             zero_one)

POSITIVE_EPS = 1e-15


class StateSpace(namedtuple("StateSpace", "n labels")):
    __slots__ = ()

    def __new__(cls, n, labels=None):
        if n < 1:
            raise ValueError("state space needs at least one state")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count does not match n")
            if len(set(labels)) != n:
                raise ValueError("duplicate labels")
        return super().__new__(cls, n, labels)

    def label_list(self):
        if self.labels is not None:
            return list(self.labels)
        return [str(i) for i in range(self.n)]


class WeightedDigraph:
    """Directed graph with nonnegative rational edge weights, each an int
    or a Fraction, no parallel edges, in order of first appearance; a given
    _adj, the out-edges {dst: weight} of each node, is taken as checked."""

    __hash__ = None

    def __init__(self, states, edges, _adj=None):
        self.states, self.edges, self._adj = states, edges, _adj
        if _adj:
            return
        self.edges = tuple((int(s), int(d), w if type(w) is int else Fraction(w)) for s, d, w in edges)
        self._adj = [{} for _ in range(states.n)]
        for s, d, w in self.edges:
            if not (0 <= s < self.states.n and 0 <= d < self.states.n):
                raise ValueError(f"edge ({s}, {d}) outside the state space")
            if w < 0:
                raise ValueError(f"negative weight on edge ({s}, {d})")
            if d in self._adj[s]:
                raise ValueError(f"duplicate edge ({s}, {d})")
            self._adj[s][d] = w

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.states, self.edges) == (other.states, other.edges)

    def __repr__(self):
        return f"WeightedDigraph(states={self.states!r}, edges={self.edges!r})"

    def successors(self, u):
        return list(self._adj[u])

    def out_degree(self, u):
        return len(self._adj[u])


def data_lines(text):
    """(line number, tokens) of each line with data; `#` starts a comment."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield ln, toks


def parse_edge_list(text):
    """Parse edge-list text into a WeightedDigraph.

    Lines hold `src dst [weight]` separated by whitespace; a line with a
    single token declares an isolated node; `#` starts a comment; the weight
    defaults to 1 and accepts "3" (kept as an int), "3/4" or "0.5" (decimal
    semantics, as a Fraction). Node ids become 0-based indices in order of
    first appearance.
    """
    index = {}
    adj = []  # out-edges {dst: weight} of each node, by index
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split() if "#" in raw else raw.split()
        k = len(toks)
        if not k:
            continue
        if k > 3:
            raise InputFormatError(f"expected `src dst [weight]`, got {k} fields", line=ln)
        s = index.setdefault(toks[0], len(adj))
        if s == len(adj):
            adj.append({})
        if k == 1:
            continue
        d = index.setdefault(toks[1], len(adj))
        if d == len(adj):
            adj.append({})
        w = 1
        if k == 3:
            try:  # a decimal integer here; any other token, or one past int's digit limit, by parse_rational
                w = int(toks[2]) if toks[2].isdecimal() else parse_rational(toks[2], line=ln)
            except ValueError:
                w = parse_rational(toks[2], line=ln)
            if w < 0:
                raise InputFormatError("negative weight", line=ln)
        out = adj[s]
        if d in out:
            raise InputFormatError(f"duplicate edge {toks[0]} -> {toks[1]}", line=ln)
        out[d] = w
        edges.append((s, d, w))
    if not index:
        raise InputFormatError("no nodes in input")
    return WeightedDigraph(StateSpace(len(index), tuple(index)), tuple(edges), adj)


def _sparse_row(row, n):
    """(row as a dict, its columns ascending) of a dense sequence of n
    entries or a dict {column: entry}, after checking shape and columns."""
    if not isinstance(row, dict):
        if len(row) != n:
            raise ValueError("matrix shape does not match the state space")
        row = dict(enumerate(row))
    cols = sorted(row)
    if cols and (cols[0] < 0 or cols[-1] >= n):
        raise ValueError("matrix column outside the state space")
    return row, cols


def _float_row(i, row, n, den=None):
    """(row, None) of row i: a dict of its nonzero entries as floats,
    columns ascending (a dict already so is kept), after the row checks: no
    entry below -1e-15 and a sum within 1e-12 of 1. With den the entries
    are integer numerators over den, and a float entry is their int / int
    quotient, the correctly rounded float of the exact entry."""
    row, cols = _sparse_row(row, n)
    if den is not None:
        row = {j: x / den for j, x in row.items()}
    if cols != list(row) or not all(type(x) is float and x for x in row.values()):
        row = {j: x for j, x in ((j, float(row[j])) for j in cols) if x}
    if row and min(row.values()) < -POSITIVE_EPS:
        raise ValueError(f"negative entry in row {i}")
    total = math.fsum(row.values())
    if not abs(total - 1) <= 1e-12:  # NaN fails too
        raise ValueError(f"row {i} sums to {total}, not 1")
    return row, None


def _integer_row(i, row, n, den=None):
    """(numerators, den) of row i: its nonzero entries, columns ascending,
    as integers over den, after the row checks: no negative entry and a
    sum of den. The entries are integer numerators over den or, without
    den, rationals over the lcm of their denominators. Both are divided by
    their gcd, so den is then the lcm of the entries' denominators. A dict
    already so is kept."""
    row, cols = _sparse_row(row, n)
    if den is None:
        values = [row[j] if type(row[j]) in (int, Fraction) else Fraction(row[j]) for j in cols]
        nums, den = common_denominator(values)
        row = {j: x for j, x in zip(cols, nums) if x}
    elif cols != list(row) or not all(row.values()):
        row = {j: row[j] for j in cols if row[j]}
    if row and min(row.values()) < 0:
        raise ValueError(f"negative entry in row {i}")
    total = sum(row.values())
    if total != den:
        raise ValueError(f"row {i} sums to {Fraction(total, den)}, not 1")
    g = math.gcd(*row.values())  # = gcd(den, numerators), as they sum to den
    return ({j: x // g for j, x in row.items()}, den // g) if g > 1 else (row, den)


class RowStochasticMatrix:
    """Row-stochastic matrix, its rows sparse: a dict per row of the
    nonzero entries, columns ascending. A row object shared by several
    states is checked and converted once and stays shared.

    Rows are given as numbers (in exact mode rationals: int, Fraction or
    anything Fraction takes) or, with dens, as integer numerators over
    dens[i] in either mode. An exact matrix stores each row as integer
    numerators over one row denominator, the form stationary._eliminate
    takes: entry (i, j) is num_rows[i][j] / dens[i], with dens[i] the lcm
    of the row's entry denominators, so equal matrices have equal
    numerators and dens. rows, entry, row and the repr give Fractions,
    built on first use. A float matrix stores the entries themselves:
    num_rows is rows and dens is None. entry and the dense row(i) fill in
    the mode's zero."""

    __hash__ = None

    def __init__(self, states, rows, numeric_mode=EXACT, dens=None):
        n = states.n
        if len(rows) != n:
            raise ValueError("matrix shape does not match the state space")
        exact = numeric_mode == EXACT
        if not exact and numeric_mode != FLOAT:
            raise ValueError(f"unknown numeric mode {numeric_mode!r}")
        self.states = states
        self.numeric_mode = numeric_mode
        checked = _integer_row if exact else _float_row
        done = {}  # id of a given row -> (stored row, den)
        stored = []
        for i, row in enumerate(rows):
            got = done.get(id(row))
            if got is None:
                got = done[id(row)] = checked(i, row, n, None if dens is None else dens[i])
            stored.append(got)
        self.num_rows = tuple([row for row, _ in stored])
        self.dens = tuple([den for _, den in stored]) if exact else None
        if not exact:
            self.rows = self.num_rows

    @functools.cached_property
    def rows(self):
        """Exact rows as dicts of Fractions, each distinct row once."""
        done = {}
        for row, den in zip(self.num_rows, self.dens):
            if id(row) not in done:
                done[id(row)] = {j: Fraction(x, den) for j, x in row.items()}
        return tuple(done[id(row)] for row in self.num_rows)

    @functools.cached_property
    def partition(self):
        """classify_states(self), on first use; to_float() gives a new
        matrix, which classifies its own float support."""
        return classify_states(self)

    @functools.cached_property
    def class_laws(self):
        """stationary.class_stationary(self), one law per closed class, on first use."""
        from znrank import stationary

        return stationary.class_stationary(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.states, self.numeric_mode, self.num_rows, self.dens) == (
            other.states, other.numeric_mode, other.num_rows, other.dens)

    def __repr__(self):
        """Each distinct row object once, keyed by the states that share it,
        so the repr of a uniform Q grows as n and not as n²."""
        shared = {}
        for i, row in enumerate(self.rows):
            shared.setdefault(id(row), ([], row))[0].append(i)
        rows = ", ".join(f"{tuple(states)!r}: {row!r}" for states, row in shared.values())
        return f"RowStochasticMatrix(states={self.states!r}, rows={{{rows}}}, numeric_mode={self.numeric_mode!r})"

    @property
    def n(self):
        return self.states.n

    def entry(self, i, j):
        return self.rows[i].get(j, zero_one(self.numeric_mode)[0])

    def row(self, i):
        return tuple(self.entry(i, j) for j in range(self.n))

    def to_float(self):
        """Float copy; rows shared by several states are converted once and
        stay shared."""
        if self.numeric_mode == FLOAT:
            return self
        return RowStochasticMatrix(self.states, self.num_rows, FLOAT, self.dens)

    def support(self, row):
        """Columns of a stored row's positive entries, ascending."""
        return list(row) if self.numeric_mode == EXACT else [j for j, x in row.items() if x > 0]

    def support_successors(self):
        """Adjacency lists of the positive-entry digraph, self-loops left out."""
        return [[j for j in self.support(row) if j != i] for i, row in enumerate(self.num_rows)]


def uniform_matrix(n, states=None, numeric_mode=EXACT):
    return RowStochasticMatrix(states or StateSpace(n), (dict.fromkeys(range(n), 1),) * n, numeric_mode, (n,) * n)


def ones_outer(nu_values, states=None):
    """Rank-one matrix with every row equal to nu."""
    n = len(nu_values)
    return RowStochasticMatrix(states or StateSpace(n), (dict(enumerate(nu_values)),) * n)


class ClassPartition(namedtuple("ClassPartition", "closed_classes transient")):
    """closed_classes: sorted tuples of state indices; transient: the rest."""

    __slots__ = ()

    def __new__(cls, closed_classes, transient):
        closed_classes = tuple(tuple(c) for c in closed_classes)
        transient = tuple(transient)
        all_states = [s for c in closed_classes for s in c] + list(transient)
        if len(all_states) != len(set(all_states)):
            raise ValueError("partition cells overlap")
        if not closed_classes:
            raise ValueError("at least one closed class is required")
        return super().__new__(cls, closed_classes, transient)

    @property
    def m(self):
        return len(self.closed_classes)


def _tarjan_sccs(adj, n):
    """Strongly connected components, iterative, in a deterministic order.
    Each DFS frame keeps an iterator over its successors; a state whose
    component is done gets index n, above every low link, so it needs no
    on-stack flag."""
    index = [-1] * n
    low = [0] * n
    stack = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        work = [(root, iter(adj[root]), len(stack))]
        stack.append(root)
        while work:
            v, succ, base = work[-1]
            for w in succ:
                i = index[w]
                if i == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    work.append((w, iter(adj[w]), len(stack)))
                    stack.append(w)
                    break
                if i < low[v]:
                    low[v] = i
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = stack[base:]
                    del stack[base:]
                    for w in comp:
                        index[w] = n
                    sccs.append(tuple(sorted(comp)))
                elif low[v] < low[work[-1][0]]:  # v is not a root, so it has a parent frame
                    low[work[-1][0]] = low[v]
    return sccs


def require_one_mode(p, q):
    """ValueError unless P and Q share one numeric mode; none is converted."""
    if q.numeric_mode != p.numeric_mode:
        raise ValueError(f"P is {p.numeric_mode} but Q is {q.numeric_mode}; convert both with to_float()")


def require_unichain_union(p, q):
    """Raise NotIrreducible unless the union of the supports of P and Q has
    exactly one closed class. For every eps in (0, 1) that union is the
    support of (1 - eps) P + eps Q, whose stationary law is then unique and
    zero on the transient states. It runs on the hub pattern: x goes to its
    P successors and to a node per distinct Q row, which goes to the row's
    support; no closed class is made of such nodes alone. The node of a Q
    row held by every state lies in every closed class, so in just one."""
    if all(row is q.num_rows[0] for row in q.num_rows):
        return
    adj = p.support_successors()
    hubs = {}  # id of a Q row -> its node
    for x, row in enumerate(q.num_rows):
        if id(row) not in hubs:
            hubs[id(row)] = len(adj)
            adj.append(q.support(row))
        adj[x].append(hubs[id(row)])
    if len(closed_components(adj, len(adj))[0]) > 1:
        raise NotIrreducible("the union support of P and Q has more than one closed class")


def closed_components(adj, n):
    """(closed, transient) of a digraph given by adjacency lists: the
    strongly connected components no edge leaves, in increasing order of
    their smallest member, and the sorted remaining states."""
    closed = []
    transient = []
    for comp in _tarjan_sccs(adj, n):
        members = set(comp)
        leaves = any(w not in members for v in comp for w in adj[v])
        if leaves:
            transient.extend(comp)
        else:
            closed.append(comp)
    closed.sort(key=min)
    transient.sort()
    return closed, transient


def classify_states(p):
    """Closed communicating classes and transient states of P. Every
    transient state reaches a closed class: the components form a DAG whose
    sinks are the closed classes."""
    closed, transient = closed_components(p.support_successors(), p.n)
    return ClassPartition(tuple(closed), tuple(transient))


def is_irreducible(p):
    return p.partition.m == 1 and not p.partition.transient


DANGLING_POLICIES = ("self_loop", "uniform_row")


def to_stochastic(g, dangling="self_loop", numeric_mode=EXACT):
    """Row-normalize a weighted digraph into a stochastic matrix in the
    given numeric mode. Each row's weights are scaled to integers over the
    lcm of their denominators and given with their total as the row
    denominator: an exact entry is stored as that integer ratio, a float
    entry is its correctly rounded quotient, the float of the exact entry.

    Rows with zero total weight follow the dangling policy: "self_loop"
    makes the state absorbing, "uniform_row" spreads mass evenly.
    """
    if dangling not in DANGLING_POLICIES:
        raise ValueError(f"unknown dangling policy {dangling!r}")
    n = g.states.n
    uniform = None
    rows, dens = [], []
    for u, out in enumerate(g._adj):
        row = dict(out)
        if not all(type(w) is int for w in out.values()):  # scale Fraction weights to integers
            row = dict(zip(out, common_denominator(list(out.values()))[0]))
        total = sum(row.values())
        if not total:
            if dangling == "self_loop":
                row, total = {u: 1}, 1
            else:
                row = uniform = uniform or dict.fromkeys(range(n), 1)
                total = n
        rows.append(row)
        dens.append(total)
    return RowStochasticMatrix(g.states, tuple(rows), numeric_mode, tuple(dens))


NUMBER_TYPES = frozenset((int, str, tuple))  # a tuple is a JSON decimal literal read as a ratio


def _json_ratio(x):
    """(a, b) of a JSON entry: an int, a "p/q" string or a decimal literal."""
    if type(x) in NUMBER_TYPES:
        return parse_ratio(x) if type(x) is str else x if type(x) is tuple else (x, 1)
    finite = "finite " if type(x) is float else ""  # a float here is inf or nan
    raise InputFormatError(f"expected a {finite}number, got {x!r}")


def load_matrix_json(text, states=None):
    """Read {"n": int, "rows": [[...]]}, with "labels", a list of n strings,
    optional, and entries as numbers or "p/q" strings, into an exact matrix:
    decimal literals keep decimal semantics. Each row is read as integer
    numerators over the lcm of its entries' denominators and checked once,
    as the matrix is built. Given states of n states, the matrix takes them
    in place of its own, as a Q read for a chain takes the chain's."""
    try:
        obj = json.loads(text, parse_float=parse_ratio)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise InputFormatError('matrix JSON needs keys "n" and "rows"')
    n = obj["n"]
    rows = obj["rows"]
    if type(n) is not int or n < 1:
        raise InputFormatError('"n" must be a positive integer')
    labels = obj.get("labels")
    if labels is not None and (type(labels) is not list or not all(type(x) is str for x in labels)):
        raise InputFormatError('"labels" must be a list of n strings')
    if not isinstance(rows, list) or len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise InputFormatError('"rows" must be an n x n array')
    nums, dens = [], []
    for row in rows:
        # int zeros are the only false entries of a row of numbers; other rows meet _json_ratio's errors
        cols = list(compress(range(n), row) if NUMBER_TYPES.issuperset(map(type, row)) else range(n))
        scaled, den = over_lcm([_json_ratio(row[j]) for j in cols])
        nums.append(dict(zip(cols, scaled)))
        dens.append(den)
    own = StateSpace(n, labels)
    try:
        return RowStochasticMatrix(states if states and states.n == n else own, tuple(nums), EXACT, tuple(dens))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def dump_matrix_json(p):
    obj = {"n": p.n, "rows": [[number_to_json(x) for x in p.row(i)] for i in range(p.n)]}
    if p.states.labels is not None:
        obj["labels"] = list(p.states.labels)
    return obj
