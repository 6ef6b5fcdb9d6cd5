"""Stationary distributions, per-class stationary laws, absorption
probabilities and the tree-theorem arborescence sums of every root, all
from one sparse GTH state reduction in Markowitz order (`_eliminate`), in
exact and float arithmetic alike. The reduced chain, `root_weights` and the
polynomial oracle run on it too. Exact rows are integer numerators over one
denominator per row, the form an exact RowStochasticMatrix stores, so the
reduction reads a matrix without a Fraction and does integer arithmetic,
with a gcd only for a row whose denominator has outgrown _GCD_BITS bits;
an exact law (Distribution) keeps the back-substituted integers over their
sum, and builds no Fraction.

The sweeps and the polynomial oracle reduce the rows of (1 - e) P + e Q
from one builder (`_mixed_rows`), the sweeps at several e and the oracle
at one. A float sweep works the reduction out once from the pattern
(`_plan`) and runs each eps as the same float operations on a flat list
of values (`_replay`), each factor kept in the slot it empties, which
gives the bits of `_law`."""

import functools
import math
from collections import namedtuple
from fractions import Fraction

from znrank.errors import NotIrreducible
from znrank.graph import is_irreducible
from znrank.rational import EXACT, FLOAT, common_denominator, zero_one

_GCD_BITS = 128  # an exact row is put in lowest terms once its denominator is wider


class Distribution:
    """A law on the states 0, ..., n - 1. An exact law stores integer
    numerators nums over one denominator den, in lowest terms; values, [i]
    and the repr give Fractions, built on first use. A float law stores its
    floats: nums is values and den is None."""

    __hash__ = None

    def __init__(self, values, numeric_mode=EXACT):
        if numeric_mode == EXACT:
            vals = tuple(x if type(x) is Fraction else Fraction(x) for x in values)
            law = Distribution.of_integers(*common_denominator(vals))
            self.numeric_mode, self.values, self.nums, self.den = EXACT, vals, law.nums, law.den
            return
        vals = tuple(map(float, values))
        if not min(vals, default=0.0) >= 0:  # a negative, or a NaN first, which min cannot pass
            vals = tuple(0.0 if -1e-12 < x < 0 else x for x in vals)
            if any(x < 0 for x in vals):
                raise ValueError("negative probability")
        if not abs(sum(vals) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"probabilities sum to {sum(vals)!r}, not 1")
        self.numeric_mode, self.values, self.nums, self.den = numeric_mode, vals, vals, None

    @classmethod
    def of_integers(cls, nums, den):
        """The exact law nums[i] / den of integers nums >= 0 that sum to
        den > 0 (a den of 0 raises ZeroDivisionError)."""
        if min(nums, default=0) < 0:
            raise ValueError("negative probability")
        if sum(nums) != den:
            raise ValueError(f"probabilities sum to {Fraction(sum(nums), den)}, not 1")
        law = cls.__new__(cls)
        g = math.gcd(*nums)  # = gcd(den, nums), as they sum to den
        law.numeric_mode, law.nums, law.den = EXACT, tuple([x // g for x in nums] if g > 1 else nums), den // g
        return law

    @functools.cached_property
    def values(self):
        return tuple([Fraction(x, self.den) for x in self.nums])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.numeric_mode, self.nums, self.den) == (other.numeric_mode, other.nums, other.den)

    def __repr__(self):
        return f"Distribution(values={self.values!r}, numeric_mode={self.numeric_mode!r})"

    @property
    def n(self):
        return len(self.nums)

    def __getitem__(self, i):
        return self.values[i]


def linf(xs, ys):
    return max(abs(x - y) for x, y in zip(xs, ys))


def _mixed_rows(p, q, groups=()):
    """(rows, dens) of (1 - e) P + e Q for _eliminate, e left open, from
    the stored rows of P and Q: dict rows without diagonal entries, entry
    (u, v) of row x worth (e u + (1 - e) v) / dens[x], dens[x] being the
    lcm of P's and Q's row denominators at x (1 in float mode, where dens
    is None). Group k of states with equal Q rows gets hub n + k: its
    members go to it with e, over P's denominator alone, and its row is
    their stored Q row object, over Q's denominator, whatever e is.
    Censoring the hubs out gives back (1 - e) P + e Q (stochastic
    complementation, Meyer, SIAM Review 1989)."""
    n = p.n
    p_dens, q_dens = (p.dens, q.dens) if p.dens is not None else ((1,) * n, (1,) * n)
    hub_of = {x: n + k for k, group in enumerate(groups) for x in group}
    rows, dens = [], []
    for x, (p_row, q_row) in enumerate(zip(p.num_rows, q.num_rows)):
        hub = hub_of.get(x)
        q_row, q_den = (q_row, q_dens[x]) if hub is None else ({hub: 1}, 1)  # a hub member's Q goes to its hub
        d = math.lcm(p_dens[x], q_den)
        row = {y: (v * (d // q_den), 0) for y, v in q_row.items() if y != x}
        f = d // p_dens[x]
        for y, v in p_row.items():
            if y != x:
                row[y] = (row[y][0], v * f) if y in row else (0, v * f)
        rows.append(row)
        dens.append(d)
    hubs = [group[0] for group in groups]
    return rows + [q.num_rows[x] for x in hubs], None if p.dens is None else dens + [q_dens[x] for x in hubs]


def _sparse_rows(p, states):
    """P restricted to states, relabelled 0, 1, ..., as the (rows, dens)
    _eliminate takes, read from the matrix's stored rows: dict rows without
    zero or diagonal entries, exact ones over the row denominators of P."""
    pos = {j: k for k, j in enumerate(states)}
    rows = [{pos[j]: v for j, v in p.num_rows[s].items() if j != s and j in pos} for s in states]
    return rows, None if p.dens is None else [p.dens[s] for s in states]


def _markowitz(rows, ins, live, order):
    """Yield the live state with the fewest in- times out-neighbours, ties
    to the lower index, until none is live. The key is kept as one integer
    per state, len(ins[s]) * len(rows[s]) * n + s, in a list, and refreshed
    only where eliminating k can change it: on the states that entered k
    (their rows changed) and on the states of k's row (their in-neighbours
    changed). A state that is eliminated or not live holds n**3 + n, above
    every key, so the pick is min(cost) % n: one list min, and no key
    function per live state."""
    n = len(rows)
    done = n ** 3 + n
    cost = [len(ins[s]) * len(rows[s]) * n + s if s in live else done for s in range(n)]
    while live:
        k = min(cost) % n
        cost[k] = done
        live.discard(k)
        order.append(k)
        yield k
        for s in ins[k]:
            cost[s] = len(ins[s]) * len(rows[s]) * n + s if s in live else done
        for s in rows[k]:
            cost[s] = len(ins[s]) * len(rows[s]) * n + s if s in live else done


def _eliminate(rows, dens=None, order=None):
    """Grassmann-Taksar-Heyman state reduction (Operations Research 1985),
    in place, of the chain with sparse rows (dicts {j: weight}, no diagonal).

    Eliminating k censors the chain to the live states: each i with an
    entry a(i, k) gains a(i, k) / s * a(k, j) on every j of k's row, s being
    the sum of k's row. Nothing subtracts, in any order, so float results
    are entrywise accurate (O'Cinneide, Numer. Math. 1993). Every state with
    a non-empty row goes, leaving one absorbing state per closed class. The
    order is Markowitz's (Management Science 1957) unless given; a chain
    with the same pattern can reuse it.

    Float rows (dens None) hold the a(i, j). Exact rows hold integers over
    one denominator per row, a(i, j) = rows[i][j] / dens[i], and the update
    is fraction-free at the row level (cf. Bareiss, Math. Comp. 1968): row i
    is multiplied by S, the integer sum of k's row, gains rows[i][k] times
    k's row, and dens[i] becomes dens[i] * S; once dens[i] has more than
    _GCD_BITS bits, the row and dens[i] are divided by their gcd. Per entry
    that is int * and + only. A row not in lowest terms has the same ratios,
    and every reader of the rows reads them only as ratios.

    Returns (order, cols). cols[k] lists each live i that entered k, as
    (i, a(i, k) / s) in float and as (i, rows[i][k], dens[i]), taken before
    the update, in exact mode. k's row and dens[k] stay as they were.
    """
    n = len(rows)
    ins = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            ins[j].add(i)
    if order is None:
        order = []
        live = {k for k in range(n) if rows[k]}
        steps = _markowitz(rows, ins, live, order)
    else:
        live, steps = set(), order
    cols = {}
    for k in steps:
        row_k = rows[k]
        pivot = sum(row_k.values())
        col = cols[k] = []
        for i in ins[k]:
            row_i = rows[i]
            f = row_i.pop(k)
            if dens is None:
                f /= pivot
                col.append((i, f))
            else:
                col.append((i, f, dens[i]))
                for j in row_i:
                    row_i[j] *= pivot
            for j, v in row_k.items():
                if j != i:
                    old = row_i.get(j)
                    if old is None:
                        row_i[j] = f * v
                        ins[j].add(i)
                    else:
                        row_i[j] = old + f * v
            if dens is not None:
                d = dens[i] * pivot
                if d.bit_length() > _GCD_BITS:
                    g = math.gcd(d, *row_i.values())
                    if g > 1:
                        d //= g
                        for j in row_i:
                            row_i[j] //= g
                dens[i] = d
            if not row_i:
                live.discard(i)  # i is now absorbing: the last state of its closed class
        for j in row_k:
            ins[j].discard(k)
    return order, cols


def _back_substitute(rows, dens, order, cols):
    """Unnormalised stationary vector x after _eliminate left one state:
    x starts at 1 on the state left, and x_k = sum of x_i a(i, k) / s over
    the states i that entered k. In exact mode x stays integral: x_k =
    (d_k / S_k) * sum of x_i r(i, k) / d_i over k's column, put over S_k
    times the lcm of the column's d_i and reduced by one gcd. A denominator
    left over multiplies every entry of x, which keeps their ratios."""
    if dens is None:  # one += per term, as _replay adds (sum() compensates floats from Python 3.12)
        x = [1.0] * len(rows)
        for k in reversed(order):
            c = 0.0
            for i, f in cols[k]:
                c += x[i] * f
            x[k] = c
        return x
    x = [1] * len(rows)
    for k in reversed(order):
        col = cols[k]
        lcm = math.lcm(*[d for _, _, d in col])
        num = dens[k] * sum(x[i] * c * (lcm // d) for i, c, d in col)
        den = sum(rows[k].values()) * lcm
        g = math.gcd(num, den)
        if g != den:
            scale = den // g
            x = [v * scale for v in x]
        x[k] = num // g
    return x


def _plan(rows):
    """The float reduction of _eliminate worked out on the pattern of rows
    alone, for _replay. Slot s is the s-th value of rows, read row by row
    in dict order; each fill-in entry gets the next free slot. No entry of
    a float GTH reduction cancels, so the fill-in, the Markowitz order and
    the iteration orders do not depend on the values, and every chain with
    this pattern reduces the same way.

    Returns (order, steps, back, size, n): per pivot k in order, a step
    (the tuple of k's row slots, entries), with one entry (slot a of
    a(i, k), the (source, target) slot pairs of i's update) per state i that
    enters k; back lists (k, i, a) for every such entry, in
    back-substitution order (k late to early in order, each k's i as its
    step has them); size counts input and fill-in slots, n the rows. Slot a
    empties as k goes, and no later step reads it."""
    n = len(rows)
    size = 0
    pattern = []
    for row in rows:
        pattern.append({j: s for s, j in enumerate(row, size)})
        size += len(row)
    ins = [set() for _ in range(n)]
    for i, row in enumerate(pattern):
        for j in row:
            ins[j].add(i)
    order = []
    steps = []
    cols = []
    live = {k for k in range(n) if pattern[k]}
    for k in _markowitz(pattern, ins, live, order):
        row_k = pattern[k]
        entries = []
        col = []
        for i in ins[k]:
            row_i = pattern[i]
            a = row_i.pop(k)
            pairs = []
            for j, s in row_k.items():
                if j != i:
                    t = row_i.get(j)
                    if t is None:
                        t = row_i[j] = size
                        size += 1
                        ins[j].add(i)
                    pairs.append((s, t))
            entries.append((a, pairs))
            col.append((k, i, a))
            if not row_i:
                live.discard(i)
        for j in row_k:
            ins[j].discard(k)
        steps.append((tuple(row_k.values()), entries))
        cols.append(col)
    return order, steps, [t for col in reversed(cols) for t in col], size, n


def _replay(plan, vals):
    """Stationary law, normalised, of the float chain whose input values
    are vals in slot order (see _plan): _eliminate's float operations in
    _eliminate's order along the plan, then _back_substitute's along back,
    x[k] from 0.0 adding x[i] a(i, k) / s term by term, so the law is
    _law's to the bit. vals is extended and updated in place; each factor
    a(i, k) / s is kept in slot a, which k's step empties. Raises
    NotIrreducible when the chain has several closed classes."""
    order, steps, back, size, n = plan
    if len(order) != n - 1:
        raise NotIrreducible("the chain has more than one closed class")
    vals += [0.0] * (size - len(vals))  # fill-in: 0.0 + f * v is f * v
    get = vals.__getitem__
    for row_k, entries in steps:
        pivot = sum(map(get, row_k))
        for a, pairs in entries:
            f = vals[a] = vals[a] / pivot
            for s, t in pairs:
                vals[t] += f * vals[s]
    x = [1.0] * n
    for k in order:
        x[k] = 0.0
    for k, i, a in back:
        x[k] += x[i] * vals[a]
    total = sum(x, 0.0)
    return [v / total for v in x]


def _lead_law(plan, orders, coefs, n):
    """Limit as e -> 0 of the law, on the states 0, ..., n - 1, of a chain
    with one closed class whose input slot s (see _plan) holds an entry
    with leading term coefs[s] e^orders[s]: _replay along the plan that
    keeps only leading terms. A pivot is the sum of its row's terms of
    least order; where an update meets a slot, a lower order replaces it,
    an equal one adds and a higher one drops, and back-substitution along
    back keeps the least order likewise, each x[k] starting empty (order
    inf, 0.0). Every term is positive, so leading terms never cancel and
    are those of the exact series (the stochastically stable states of
    Wicks & Greenwald, UAI 2005). The limit is the least-order entries of
    x among the first n, normalised. orders and coefs are extended and
    updated in place, each factor kept in the slot it empties as _replay
    keeps it."""
    order, steps, back, size, count = plan
    orders += [math.inf] * (size - len(orders))  # a fill-in slot is empty until its first term
    coefs += [0.0] * (size - len(coefs))
    for row_k, entries in steps:
        low = min(map(orders.__getitem__, row_k))
        pivot = sum([coefs[s] for s in row_k if orders[s] == low])
        for a, pairs in entries:
            fo, fc = orders[a], coefs[a] = orders[a] - low, coefs[a] / pivot
            for s, t in pairs:
                o = fo + orders[s]
                if o < orders[t]:
                    orders[t], coefs[t] = o, fc * coefs[s]
                elif o == orders[t]:
                    coefs[t] += fc * coefs[s]
    x_order, x = [0] * count, [1.0] * count
    for k in order:
        x_order[k], x[k] = math.inf, 0.0  # an empty column: x_k = 0
    for k, i, a in back:
        o = x_order[i] + orders[a]
        if o < x_order[k]:
            x_order[k], x[k] = o, x[i] * coefs[a]
        elif o == x_order[k]:
            x[k] += x[i] * coefs[a]
    low = min(x_order[:n])
    lead = [c if o == low else 0.0 for o, c in zip(x_order[:n], x)]
    total = sum(lead, 0.0)
    return [c / total for c in lead]


def _law(rows, dens=None, order=None):
    """(law, elimination order) of the chain with the given dict rows and
    row denominators (see _eliminate), which must have one closed class,
    else NotIrreducible; transient states get 0. The law is normalised
    floats, or in exact mode the back-substituted integers x of the law
    x / sum(x)."""
    order, cols = _eliminate(rows, dens, order)
    if len(order) != len(rows) - 1:
        raise NotIrreducible("the chain has more than one closed class")
    x = _back_substitute(rows, dens, order, cols)
    if dens is None:
        total = sum(x, 0.0)
        x = [v / total for v in x]
    return x, order


def root_sums(rows, dens=None):
    """(sums, den): sums[r] / den is the sum of arborescence weights rooted
    at state r of the chain with the given dict rows and row denominators
    (see _eliminate); floats over 1 or, in exact mode, integers over one
    common integer den.

    The reduction's pivots s_k (S_k / d_k in exact mode) are the Schur
    complement pivots of the Laplacian L = D - W, so their product is the
    minor of L at the state b left, which by the Markov chain tree theorem
    is the sum at b. The sum at r is that times x_r / x_b, x being the
    back-substituted vector, since the sums are a left null vector of L.
    With more than one closed class no spanning arborescence exists and
    every sum is 0.
    """
    n = len(rows)
    order, cols = _eliminate(rows, dens)
    if len(order) != n - 1:
        return [0.0 if dens is None else 0] * n, 1
    x = _back_substitute(rows, dens, order, cols)
    minor = math.prod(sum(rows[k].values()) for k in order)
    if dens is None:
        return [minor * v for v in x], 1  # x is 1 at b
    (b,) = set(range(n)).difference(order)
    return [minor * v for v in x], math.prod(dens[k] for k in order) * x[b]


def unichain_law(p):
    """Unique stationary law of a chain with one closed class, zero on its
    transient states, by sparse GTH state reduction. Raises NotIrreducible
    when the chain has several closed classes."""
    x = _law(*_sparse_rows(p, range(p.n)))[0]
    return Distribution(x, FLOAT) if p.dens is None else Distribution.of_integers(x, sum(x))


def stationary_direct(p):
    """Unique stationary law of an irreducible chain by sparse GTH state
    reduction in Markowitz order; NotIrreducible for any other chain."""
    if not is_irreducible(p):
        raise NotIrreducible("stationary_direct needs an irreducible chain")
    return unichain_law(p)


def class_stationary(p):
    """Stationary law of P restricted to each closed class, embedded into
    the full state space with zeros elsewhere, a float law's zeros all one
    0.0; an exact law is the class's integers x over sum(x), checked and
    put in lowest terms once."""
    out = []
    for cls in p.partition.closed_classes:
        x = _law(*_sparse_rows(p, cls))[0]
        law = [0.0 if p.dens is None else 0] * p.n
        for s, v in zip(cls, x):
            law[s] = v
        out.append(Distribution(law, FLOAT) if p.dens is None else Distribution.of_integers(law, sum(x)))
    return tuple(out)


class AbsorptionTable(namedtuple("AbsorptionTable", "transient rows")):
    """rows[t][k] = probability that transient state t is absorbed in class k,
    in the matrix's own numbers: Fractions, or floats."""

    __slots__ = ()

    def row_for(self, state):
        return self.rows[self.transient.index(state)]


def _absorbing_reduction(p):
    """(rows, order) of _eliminate on P with its closed states absorbing:
    it removes the transient states in order, and rows[k][j] / sum(rows[k])
    is the chance that k next meets j among states later in order or closed."""
    closed = {s for cls in p.partition.closed_classes for s in cls}
    rows = [{} if s in closed else {j: v for j, v in row.items() if j != s} for s, row in enumerate(p.num_rows)]
    return rows, _eliminate(rows, None if p.dens is None else list(p.dens))[0]


def absorption_probabilities(p):
    """Probability that each transient state is absorbed into each closed
    class, by censoring the transient states onto the closed states, each
    made absorbing: an eliminated row over its sum is the next-state law
    among states whose absorption is known by then, so a state's row is
    that law's average of theirs, in the matrix's own numbers (Fractions in
    exact mode). No command builds the |T| x m table: zero_noise pushes Q's
    mass along the same elimination, and the table is the reference it is
    tested against."""
    part = p.partition
    m = part.m
    zero, one = zero_one(p.numeric_mode)
    units = [[one if c == k else zero for c in range(m)] for k in range(m)]
    a = {s: units[k] for k, cls in enumerate(part.closed_classes) for s in cls}
    rows, order = _absorbing_reduction(p)
    for k in reversed(order):
        row = rows[k]
        pivot = sum(row.values())
        a[k] = [sum((v * a[j][c] for j, v in row.items()), zero) / pivot for c in range(m)]
    return AbsorptionTable(part.transient, tuple(tuple(a[t]) for t in part.transient))
