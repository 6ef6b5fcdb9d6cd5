"""Arborescence search kernels for the enumeration route.

Both kernels walk parent assignments depth first: every non-root node
picks one out-neighbor, and an assignment closing a cycle is rejected as
soon as the closing edge is tried (one check, _acyclic, for both), so the
search visits exactly the spanning arborescences pointing at the root plus
the rejected prefixes. Candidate lists must be sorted; the emitted order is
then lexicographic in the parent vector. Edge factors are linear, a + b eps.
The cost is exponential in n: these serve the small-n tree-theorem
cross-checks, not the oracle.
"""


def _acyclic(parent, u, v):
    """Whether parent u -> v keeps the partial assignment acyclic: the walk
    up from v stops at an unassigned node (the root among them) before u."""
    while v != u:
        if parent[v] < 0:
            return True
        v = parent[v]
    return False


def enumerate_parents(n, root, cands):
    """All acyclic parent assignments as tuples of length n (root slot -1)."""
    nodes = [u for u in range(n) if u != root]
    parent = [-1] * n
    out = []

    def rec(level):
        if level == len(nodes):
            out.append(tuple(parent))
            return
        u = nodes[level]
        for v in cands[u]:
            if _acyclic(parent, u, v):
                parent[u] = v
                rec(level + 1)
                parent[u] = -1

    rec(0)
    return out


def sum_tree_products(n, root, cands, factors):
    """Sum over spanning arborescences rooted at root of the product of the
    per-edge linear factors a + b eps, given as integer pairs (a, b) in
    factors (aligned with cands). Returns the n coefficients of the sum,
    lowest degree first, as Python ints.
    """
    nodes = [u for u in range(n) if u != root]
    acc = [0] * n
    parent = [-1] * n

    def rec(level, prod):  # prod: coefficients of the running product, length level + 1
        if level == len(nodes):
            for d, c in enumerate(prod):
                acc[d] += c
            return
        u = nodes[level]
        for v, (a, b) in zip(cands[u], factors[u]):
            if _acyclic(parent, u, v):
                parent[u] = v
                rec(level + 1, [a * x + b * y for x, y in zip(prod + [0], [0] + prod)])
                parent[u] = -1

    rec(0, [1])
    return acc
