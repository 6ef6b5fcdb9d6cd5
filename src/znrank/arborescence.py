"""Spanning arborescences, tree-theorem stationary laws and exact
perturbation polynomials.

An arborescence rooted at r assigns every other node one out-neighbor so
that iterating the assignment reaches r; its weight is the product of the
chosen entries. Independent routes to the same numbers live here: full
enumeration (the search kernel, exponential in n), principal minors of
I - P (the tree theorem), and the GTH state reduction of stationary.py,
the one elimination every route shares, which gives the sums for every
root at once (stationary.root_sums). The perturbation oracle builds the
sum-over-trees polynomials in the mixing parameter from one integer run of
that reduction at a point large enough to read every coefficient off the
result (Kronecker substitution), and keeps each as integer coefficients
over one denominator, up to the limit law; enumeration and the minors stay
as independent cross-checks, on exact matrices only. Only root_weights and
root_weight_ratios take a float matrix, and answer in floating point.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import product as iter_product

from znrank.errors import GuardExceeded, NotIrreducible, TransientStatesPresent
from znrank.graph import is_irreducible, require_unichain_union
from znrank.kernels import enumerate_parents, sum_tree_products
from znrank.linalg import det_exact
from znrank.polynomial import EpsPolynomial, sum_polynomials
from znrank.rational import EXACT, FLOAT, format_rational
from znrank.stationary import Distribution, _mixed_rows, _sparse_rows, root_sums

DEFAULT_ASSIGNMENT_BUDGET = 10_000_000
ENUMERATION_N_GUARD = 12
SYMBOLIC_N_GUARD = 10
SKELETON_M_GUARD = 5
LEAF_FORMULA_N_GUARD = 6  # models.bt_leaf_formula_check


class Arborescence(namedtuple("Arborescence", "root parents")):
    """parents: sorted (node, chosen out-neighbor) pairs, root absent."""

    __slots__ = ()


def _assignment_count(cands, nodes):
    count = 1
    for u in nodes:
        count *= len(cands[u])
        if count == 0:
            return 0
    return count


def _check_budget(cands, nodes, budget):
    count = _assignment_count(cands, nodes)
    if count > budget:
        raise GuardExceeded(
            f"{count} candidate assignments exceed the budget of {budget}"
            " (pass budget= to override)"
        )


def enumerate_arborescences(g, root, budget=DEFAULT_ASSIGNMENT_BUDGET):
    """All arborescences of the digraph g rooted at root, in lexicographic
    order of their parent maps. Self-loops can never appear in one."""
    n = g.states.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} outside the state space")
    if n > ENUMERATION_N_GUARD:
        raise GuardExceeded(f"n = {n} exceeds the enumeration guard {ENUMERATION_N_GUARD}")
    cands = [sorted(v for v in g.successors(u) if v != u) for u in range(n)]
    nodes = [u for u in range(n) if u != root]
    _check_budget(cands, nodes, budget)
    out = []
    for vec in enumerate_parents(n, root, cands):
        pairs = tuple((u, vec[u]) for u in nodes)
        out.append(Arborescence(root, pairs))
    return out


def arborescence_weight(a, w):
    """Product of the exact matrix entries along the arborescence's edges."""
    _require_exact(w)
    return math.prod((w.entry(u, v) for u, v in a.parents), start=Fraction(1))


def _support_cands(w, extra=None):
    """Sorted positive-entry candidates per node, self-loops excluded;
    extra is a second matrix whose support is unioned in."""
    cands = w.support_successors()
    if extra is not None:
        cands = [sorted(set(a).union(b)) for a, b in zip(cands, extra.support_successors())]
    return cands


def enumerated_root_weight(w, root, budget=DEFAULT_ASSIGNMENT_BUDGET):
    """Sum of arborescence weights rooted at root of an exact matrix, via
    the search kernel. One integer sum per root; each row contributes
    exactly one factor, so the common denominator is the product of per-row
    lcms.
    """
    _require_exact(w)
    n = w.n
    cands = _support_cands(w)
    _check_budget(cands, [u for u in range(n) if u != root], budget)
    denom = 1
    factors = []
    for u in range(n):
        row = [w.entry(u, v) for v in cands[u]]
        l = math.lcm(*(x.denominator for x in row)) if row else 1
        if u != root:
            denom *= l
        factors.append([(int(x * l),) for x in row])
    return Fraction(sum_tree_products(n, root, cands, factors, 1)[0], denom)


def root_weight_minor(w, root):
    """Tree-theorem route: determinant of I - W, W exact, with the root
    row and column deleted. Equals the sum of arborescence weights at the
    root."""
    _require_exact(w)
    idx = [i for i in range(w.n) if i != root]
    return det_exact([[(i == j) - w.entry(i, j) for j in idx] for i in idx])


def root_weight_ratios(w):
    """(sums, den): sums[r] / den is the sum of arborescence weights at root r, from one GTH
    reduction of w (stationary.root_sums); integers, or floats with den None in float mode."""
    sums, den = root_sums(*_sparse_rows(w, range(w.n)))
    return sums, (None if w.numeric_mode == FLOAT else den)


def root_weights(w):
    """Sum of arborescence weights at every root, in either numeric mode."""
    sums, den = root_weight_ratios(w)
    return tuple(sums) if den is None else tuple(Fraction(v, den) for v in sums)


def mctt_stationary(p):
    """Exact stationary law from the tree theorem: pi(i) proportional to
    the root-i minor of I - P."""
    _require_exact(p)
    if not is_irreducible(p):
        raise NotIrreducible("the tree-theorem stationary law needs an irreducible chain")
    vals = [root_weight_minor(p, r) for r in range(p.n)]
    total = sum(vals)
    return Distribution(tuple(v / total for v in vals), EXACT)


def _require_exact(*mats):
    for m in mats:
        if m.numeric_mode != EXACT:
            raise ValueError("the tree-theorem routes need exact (rational) matrices")


def perturbed_root_polynomial(p, q, root, budget=DEFAULT_ASSIGNMENT_BUDGET):
    """Exact polynomial, in the mixing weight, of the sum of arborescence
    weights rooted at root for (1-eps) P + eps Q.

    Enumeration runs over the union support of P and Q; each edge carries
    the linear factor P(u,v) + eps (Q(u,v) - P(u,v)).
    """
    _require_exact(p, q)
    n = p.n
    if q.n != n:
        raise ValueError("P and Q must share a state space")
    if n > SYMBOLIC_N_GUARD:
        raise GuardExceeded(f"n = {n} exceeds the symbolic guard {SYMBOLIC_N_GUARD}")
    cands = _support_cands(p, extra=q)
    nodes = [u for u in range(n) if u != root]
    _check_budget(cands, nodes, budget)
    denom = 1
    factors = []
    for u in range(n):
        pairs = [(p.entry(u, v), q.entry(u, v) - p.entry(u, v)) for v in cands[u]]
        dens = [x.denominator for a, b in pairs for x in (a, b)]
        l = math.lcm(*dens) if dens else 1
        if u != root:
            denom *= l
        factors.append([(int(a * l), int(b * l)) for a, b in pairs])
    return EpsPolynomial.of_integers(sum_tree_products(n, root, cands, factors, 2), denom)


def all_root_polynomials(p, q):
    """Root polynomials H_r(eps), for every root r, of (1-eps) P + eps Q,
    from one integer reduction (stationary.root_sums) read by Kronecker
    substitution; no enumeration.

    stationary._mixed_rows gives row u of P and Q as integer rows A_u and
    B_u over l_u, and W = (K-1) A + B is P_eps at eps = 1/K up to the row
    factor K l_u, on the union support. So G_r = H_r(W) is sum_j h_j
    K^(top-j), top = n - 1, where h_j / prod_(u != r) l_u is the eps^j
    coefficient of H_r. With g_d the coefficients of G_r(k) = H_r(k A + B),
    which are non-negative integers, H_r(eps) prod_(u != r) l_u = sum_d g_d
    (1-eps)^d eps^(top-d), so |h_j| <= G_r(1) 2^top < K / 2 for K = 2^b,
    b being n plus the bit length of the product of W_1's row sums (each
    taken as at least 1), which bounds G_r(1). The h_j are then the signed
    base-K digits of G_r (von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4).
    """
    _require_exact(p, q)
    n = p.n
    if q.n != n:
        raise ValueError("P and Q must share a state space")
    if n > SYMBOLIC_N_GUARD:
        raise GuardExceeded(f"n = {n} exceeds the symbolic guard {SYMBOLIC_N_GUARD}")
    rows, lcms = _mixed_rows(p, q)
    bits = n + math.prod(max(1, sum(u + v for u, v in row.values())) for row in rows).bit_length()
    k = 1 << bits
    mask, half = k - 1, k >> 1
    sums, den = root_sums([{y: (k - 1) * v + u for y, (u, v) in row.items()} for row in rows], [1] * n)
    total = math.prod(lcms)
    top = n - 1
    offset = sum(half << i * bits for i in range(n))  # every digit h_j + K/2 lies in [0, K)
    polys = []
    for r, h in enumerate(sums):
        g = h // den + offset  # exact: minors of an integer matrix are integers
        coeffs = [((g >> (top - j) * bits) & mask) - half for j in range(n)]
        polys.append(EpsPolynomial.of_integers(coeffs, total // lcms[r]))
    return tuple(polys)


def exact_limit_from_polynomials(p, q):
    """Exact small-mixing limit of the stationary law of (1-eps) P + eps Q:
    the ratio of lowest-order coefficients of the root polynomials.

    Works with transient states present; their limit mass is zero.
    """
    _require_exact(p, q)
    require_unichain_union(p, q)
    return limit_from_root_polynomials(all_root_polynomials(p, q))[0]


def limit_from_root_polynomials(polys):
    """(limit, total) from root polynomials already built: the limit law is the
    lowest-order coefficients, integers over their lcm, normalised; total is their sum."""
    total = sum_polynomials(polys)
    d = total.min_degree()
    den = math.lcm(*[h.den for h in polys])
    lead = [h.nums[d] * (den // h.den) if d < len(h.nums) else 0 for h in polys]
    return Distribution.of_integers(lead, sum(lead)), total


def skeleton_identity_check(p, q):
    """Adjudicate, per skeleton, the claimed identity between the product
    of reduced-chain weights and the label-averaged product of Q entries.

    A skeleton is an arborescence over the class indices (edges restricted
    to positive reduced weights). For each one the report records

        lhs = prod over skeleton edges (u, v) of Gamma(u, v)
        rhs = (prod_k |C_k|)^-1 * sum over labelings (x_1..x_m) in
              C_1 x ... x C_m of prod over skeleton edges of Q(x_u, x_v)

    computed literally, and whether they are equal. Requires P free of
    transient states and block-structured Q; nothing downstream assumes the
    identity, this is measurement only.
    """
    _require_exact(q)
    part = p.partition
    if part.transient:
        raise TransientStatesPresent("skeleton adjudication needs a transient-free partition")
    cells = list(part.closed_classes)
    if any(len({q.entry(x, y) for x in ci for y in cj}) > 1 for ci in cells for cj in cells):
        raise ValueError("Q is not block structured over the closed classes")
    m = part.m
    if m > SKELETON_M_GUARD:
        raise GuardExceeded(f"m = {m} exceeds the skeleton guard {SKELETON_M_GUARD}")
    sizes = [len(c) for c in cells]
    gamma = [
        [sum((q.entry(x, y) for x in cells[i] for y in cells[j]), Fraction(0)) / sizes[i] for j in range(m)]
        for i in range(m)
    ]
    cands = [sorted(j for j in range(m) if j != i and gamma[i][j] > 0) for i in range(m)]
    size_prod = math.prod(sizes)
    skeletons = []
    n_equal = 0
    for root in range(m):
        for vec in enumerate_parents(m, root, cands):
            edges = tuple((u, vec[u]) for u in range(m) if u != root)
            lhs = math.prod((gamma[u][v] for u, v in edges), start=Fraction(1))
            rhs = Fraction(0)
            for labels in iter_product(*cells):
                rhs += math.prod((q.entry(labels[u], labels[v]) for u, v in edges), start=Fraction(1))
            rhs /= size_prod
            equal = lhs == rhs
            n_equal += equal
            skeletons.append(
                {
                    "root": root,
                    "edges": [list(e) for e in edges],
                    "lhs": format_rational(lhs),
                    "rhs": format_rational(rhs),
                    "equal": equal,
                }
            )
    return {
        "m": m,
        "class_sizes": sizes,
        "skeletons": skeletons,
        "num_skeletons": len(skeletons),
        "num_equal": n_equal,
        "num_discrepant": len(skeletons) - n_equal,
    }
