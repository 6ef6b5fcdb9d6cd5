"""Arborescence search kernels for the enumeration route.

Both kernels walk parent assignments depth first: every non-root node
picks one out-neighbor, assignments closing a cycle are rejected as soon as
the closing edge is tried, so the search visits exactly the spanning
arborescences pointing at the root plus the rejected prefixes. Candidate
lists must be sorted; the emitted order is then lexicographic in the parent
vector. The cost is exponential in n: these serve the small-n tree-theorem
cross-checks, not the oracle.
"""


def enumerate_parents(n, root, cands):
    """All acyclic parent assignments as tuples of length n (root slot -1)."""
    nodes = [u for u in range(n) if u != root]
    k = len(nodes)
    parent = [-1] * n
    out = []

    def walk_ok(u, v):
        w = v
        while True:
            if w == u:
                return False
            if w == root or parent[w] < 0:
                return True
            w = parent[w]

    def rec(level):
        if level == k:
            vec = parent[:]
            vec[root] = -1
            out.append(tuple(vec))
            return
        u = nodes[level]
        for v in cands[u]:
            if walk_ok(u, v):
                parent[u] = v
                rec(level + 1)
                parent[u] = -1

    rec(0)
    return out


def sum_tree_products(n, root, cands, factors, width):
    """Sum over spanning arborescences rooted at root of the product of the
    per-edge integer coefficient tuples in factors (aligned with cands).
    Returns the coefficient list, length (n-1)*(width-1) + 1, of Python ints.
    """
    nodes = [u for u in range(n) if u != root]
    k = len(nodes)
    out_len = k * (width - 1) + 1
    acc = [0] * out_len
    parent = [-1] * n
    # running products along the assignment stack, padded to full length
    prods = [[0] * out_len for _ in range(k + 1)]
    prods[0][0] = 1

    def rec(level):
        if level == k:
            row = prods[k]
            for d in range(out_len):
                acc[d] += row[d]
            return
        u = nodes[level]
        base = prods[level]
        nxt = prods[level + 1]
        blen = level * (width - 1) + 1
        nlen = blen + width - 1
        for ci, v in enumerate(cands[u]):
            w = v
            ok = True
            while True:
                if w == u:
                    ok = False
                    break
                if w == root or parent[w] < 0:
                    break
                w = parent[w]
            if not ok:
                continue
            f = factors[u][ci]
            for d in range(nlen):
                nxt[d] = 0
            for i in range(blen):
                c = base[i]
                if c:
                    for j in range(width):
                        fj = f[j]
                        if fj:
                            nxt[i + j] += c * fj
            parent[u] = v
            rec(level + 1)
            parent[u] = -1

    rec(0)
    return acc
