"""Answer checks made apart from znrank.

Everything here works from the benchmark's own exact matrices (see pools.py)
with its own arithmetic: Fraction for exact answers and Decimal at 40
significant digits for the floating-point references. Nothing imports
znrank, and no answer is compared with a stored copy of znrank's output.

Each check returns (ok, digits, reason). digits is the fewest correct
significant digits over the entries checked, capped at DIGITS_CAP; an exact
answer that checks out scores the cap.
"""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS_CAP = 20.0
FLOAT_RTOL = 1e-6  # relative tolerance on every float entry
REF_PREC = 40  # significant digits of the Decimal references
SWEEP_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)  # znrank's default float grid
POLY_POINTS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))


def solve_fraction(a, b):
    """Solve a X = b over Fractions by Gauss-Jordan; b is a list of rows."""
    n = len(a)
    m = [list(map(Fraction, ra)) + list(map(Fraction, rb)) for ra, rb in zip(a, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def absorption(chain, p_rows):
    """A[t][j]: probability that transient state t is absorbed in class j,
    from (I - P_TT) A = P_(T -> C_j)."""
    tr = chain.transient
    if not tr:
        return {}
    a = [[int(s == t) - p_rows[s].get(t, 0) for t in tr] for s in tr]
    b = [[sum((p_rows[s].get(y, 0) for y in cls), Fraction(0)) for cls in chain.classes] for s in tr]
    return dict(zip(tr, solve_fraction(a, b)))


def gth(a):
    """Stationary law of an irreducible row-stochastic dense matrix by
    Grassmann-Taksar-Heyman state reduction. It never subtracts, so it is
    entrywise accurate in any arithmetic the entries bring (Fraction or
    Decimal)."""
    n = len(a)
    a = [list(r) for r in a]
    s = [None] * n
    for k in range(n - 1, 0, -1):
        rk = a[k][:k]
        s[k] = sum(rk[1:], rk[0])
        for i in range(k):
            f = a[i][k]
            if f:
                f = f / s[k]
                a[i][:k] = [x + f * y for x, y in zip(a[i][:k], rk)]
    x = [a[0][0] * 0 + 1]
    for k in range(1, n):
        x.append(sum((x[i] * a[i][k] for i in range(1, k)), x[0] * a[0][k]) / s[k])
    total = sum(x[1:], x[0])
    return [v / total for v in x]


def class_of(chain):
    out = {}
    for j, cls in enumerate(chain.classes):
        for x in cls:
            out[x] = j
    return out


def limit_failure(chain, p_rows, q_rows, pi, absorb=None):
    """Why pi is not the zero-noise limit, or None when it is. The limit is
    the unique law that is stationary for P, vanishes off the closed classes
    and whose class masses balance at first order in eps:
    m_j = sum_x pi(x) [Q(x, C_j) + sum_t Q(x, t) A(t, j)]."""
    n = chain.n
    if len(pi) != n:
        return f"{len(pi)} entries for {n} states"
    if any(x < 0 for x in pi):
        return "negative entry"
    if sum(pi) != 1:
        return f"sums to {sum(pi)}"
    if any(pi[t] != 0 for t in chain.transient):
        return "mass on a transient state"
    image = [Fraction(0)] * n
    for x, px in enumerate(pi):
        if px:
            for y, pxy in p_rows[x].items():
                image[y] += px * pxy
    if image != list(pi):
        return "pi P != pi"
    if absorb is None:
        absorb = absorption(chain, p_rows)
    cls = class_of(chain)
    m = len(chain.classes)
    inflow = [Fraction(0)] * m
    for x, px in enumerate(pi):
        if not px:
            continue
        for y, qxy in q_rows[x].items():
            w = px * qxy
            if y in cls:
                inflow[cls[y]] += w
            else:
                for j, a in enumerate(absorb[y]):
                    inflow[j] += w * a
    masses = [sum((pi[x] for x in c), Fraction(0)) for c in chain.classes]
    if inflow != masses:
        return "class masses do not balance at first order"
    return None


def _fractions(values):
    return [Fraction(v) for v in values]


def check_rank(slot, out):
    pi = _fractions(json.loads(out)["node_limit"])
    why = limit_failure(slot.chain, slot.chain.rows(), slot.q_rows, pi)
    return (why is None, DIGITS_CAP, why)


def _poly_value(coeffs, e):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * e + c
    return acc


def check_oracle(slot, out):
    """Root weights w with w (I - P) = 0; root polynomials H with
    H(e) (I - P_e) = 0 at POLY_POINTS; their total and minimal degree; and
    the exact limit through the limit checks."""
    obj = json.loads(out)
    chain, q_rows = slot.chain, slot.q_rows
    p_rows = chain.rows()
    n = chain.n

    def is_stationary(h, rows_at):
        image = [Fraction(0)] * n
        for x, hx in enumerate(h):
            if hx:
                for y, v in rows_at(x):
                    image[y] += hx * v
        return image == h

    w = _fractions(obj["root_weights"])
    if len(w) != n or not is_stationary(w, lambda x: p_rows[x].items()):
        return (False, 0.0, "root weights are not stationary for P")
    polys = [_fractions(c) for c in obj["polynomials"]]
    if len(polys) != n:
        return (False, 0.0, "wrong number of root polynomials")
    width = max(len(c) for c in polys)
    total = [sum((c[d] for c in polys if d < len(c)), Fraction(0)) for d in range(width)]
    while total and total[-1] == 0:
        total.pop()
    if _fractions(obj["total_polynomial"]) != total:
        return (False, 0.0, "total polynomial is not the sum of the root polynomials")
    if obj["min_degree"] != next(d for d, c in enumerate(total) if c):
        return (False, 0.0, "wrong minimal degree")
    for e in POLY_POINTS:
        h = [_poly_value(c, e) for c in polys]
        if any(x < 0 for x in h) or sum(h) <= 0:
            return (False, 0.0, f"root polynomials are not positive weights at eps={e}")

        def mixed(x, e=e):
            row = {y: (1 - e) * v for y, v in p_rows[x].items()}
            for y, v in q_rows[x].items():
                row[y] = row.get(y, 0) + e * v
            return row.items()

        if not is_stationary(h, mixed):
            return (False, 0.0, f"H(e) (I - P_e) != 0 at eps={e}")
    why = limit_failure(chain, p_rows, q_rows, _fractions(obj["exact_limit"]))
    return (why is None, DIGITS_CAP, why)


def _digits(x, ref):
    """Correct significant digits of float x against an exact or Decimal
    reference; None when ref is 0 and x is not."""
    if ref == 0:
        return DIGITS_CAP if x == 0 else None
    if isinstance(ref, Fraction):
        rel = abs(Fraction(x) - ref) / abs(ref)
    else:
        rel = abs(Decimal(x) - ref) / abs(ref)
    return DIGITS_CAP if rel == 0 else min(DIGITS_CAP, -math.log10(rel))


def sweep_references(slot):
    """Decimal stationary laws of (1 - e) P + e Q at every grid point (e is
    the binary value of the float grid point), and the exact zero-noise
    limit."""
    chain = slot.chain
    p_rows = chain.rows()
    n = chain.n
    with localcontext() as ctx:
        ctx.prec = REF_PREC

        def dec(x):
            return Decimal(x.numerator) / Decimal(x.denominator)

        p_dense = [[dec(r.get(y, Fraction(0))) for y in range(n)] for r in p_rows]
        q_dense = [[dec(r.get(y, Fraction(0))) for y in range(n)] for r in slot.q_rows]
        laws = []
        for e in SWEEP_GRID:
            d = Decimal(e)
            a = [[(1 - d) * x + d * y for x, y in zip(pr, qr)] for pr, qr in zip(p_dense, q_dense)]
            laws.append(gth(a))
    absorb = absorption(chain, p_rows)
    limit = exact_limit(chain, p_rows, slot.q_rows, absorb)
    return laws, limit


def exact_limit(chain, p_rows, q_rows, absorb):
    """pi(x) = pi_k(x) * mu_k for x in C_k: pi_k is the stationary law of P
    on C_k and mu that of the reduced chain
    G(i, j) = sum_{x in C_i} pi_i(x) [Q(x, C_j) + sum_t Q(x, t) A(t, j)]."""
    cls = class_of(chain)
    m = len(chain.classes)
    per_class = []
    gamma = []
    for c in chain.classes:
        law = gth([[p_rows[x].get(y, Fraction(0)) for y in c] for x in c])
        per_class.append(law)
        row = [Fraction(0)] * m
        for x, px in zip(c, law):
            for y, qxy in q_rows[x].items():
                if y in cls:
                    row[cls[y]] += px * qxy
                else:
                    for j, a in enumerate(absorb[y]):
                        row[j] += px * qxy * a
        gamma.append(row)
    mu = gth(gamma)
    pi = [Fraction(0)] * chain.n
    for c, law, mass in zip(chain.classes, per_class, mu):
        for x, px in zip(c, law):
            pi[x] = px * mass
    return pi


def compare_floats(values, refs, what):
    """(fewest digits, reason or None) for float values against references
    at relative tolerance FLOAT_RTOL."""
    if len(values) != len(refs):
        return 0.0, f"{what}: {len(values)} entries for {len(refs)}"
    worst = DIGITS_CAP
    for i, (x, r) in enumerate(zip(values, refs)):
        d = _digits(x, r)
        if d is None or d < -math.log10(FLOAT_RTOL):
            return 0.0, f"{what}: entry {i} = {x!r}, reference {float(r)!r}"
        worst = min(worst, d)
    return worst, None


def check_sweep(slot, out, refs=None):
    obj = json.loads(out)
    laws, limit = sweep_references(slot) if refs is None else refs
    if tuple(obj["eps"]) != SWEEP_GRID or len(obj["pi"]) != len(SWEEP_GRID):
        return (False, 0.0, f"grid {obj['eps']} is not the default grid")
    worst = DIGITS_CAP
    for e, row, ref in zip(SWEEP_GRID, obj["pi"], laws):
        d, why = compare_floats(row, ref, f"pi at eps={e}")
        if why:
            return (False, 0.0, why)
        worst = min(worst, d)
    d, why = compare_floats(obj["predicted_limit"], limit, "predicted limit")
    if why:
        return (False, 0.0, why)
    return (True, min(worst, d), None)


CHECKS = {"rank-exact": check_rank, "sweep-float": check_sweep, "oracle-exact": check_oracle}
