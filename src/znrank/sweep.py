"""Numerical sweeps over the mixing weight: per-eps stationary laws,
convergence-order fits and first-order estimates.

The sweep is the empirical check on the limit predictions. Exact mode (all
rational, including the grid) gives exact per-eps stationary laws. Floating
mode stays accurate on grids down to 1e-14: every per-eps law comes from GTH
state reduction, which never subtracts, and the one closed class that makes
the law unique is checked once on the union support of P and Q, not on each
P_eps. States outside that class are transient and get 0.

The reduction never forms the dense P_eps. States that share a Q row send
their eps mass to one hub state whose row is that Q row, so the chain stays
as sparse as P; censoring the hubs out gives back P_eps exactly (stochastic
complementation, Meyer, SIAM Review 1989). The chain is built once per
sweep from the stored rows of P and Q (stationary._mixed_rows), each entry
as coefficients over a row denominator, so an exact row at eps = a/b is
integers, with no Fraction. Its pattern does not depend on eps, so a float
sweep plans the reduction once and replays it on the values at each eps,
and an exact sweep reuses the elimination order found at its first eps.

The predicted limit of a float sweep is read off the same plan: replayed
on the leading terms of the entries in eps (stationary._lead_law), it gives
the limit as eps -> 0 of the hub chain's law, whatever the reduced class
chain looks like; zero_noise.adjudicate takes it as its leading-order
oracle. An exact sweep takes its prediction from zero_noise.limit_rank.

`zero_noise` is imported inside epsilon_sweep on its exact-prediction
branch, and `arborescence` and `polynomial` inside exact_first_order, the
only code here that calls them, so a float sweep loads none of them.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction

from znrank.errors import EpsOutOfRange
from znrank.graph import RowStochasticMatrix, require_one_mode, require_unichain_union
from znrank.rational import EXACT, FLOAT
from znrank.stationary import Distribution, _law, _lead_law, _mixed_rows, _plan, _replay, linf, unichain_law

DEFAULT_FLOAT_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DEFAULT_EXACT_GRID = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))


def _mixing_eps(p, q, grid):
    """The eps of grid, each in (0, 1], in the one numeric mode that P and Q
    must share: Fractions for exact P and Q, which refuse a float eps, else
    floats."""
    if q.n != p.n:
        raise ValueError("P and Q must share a state space")
    require_one_mode(p, q)
    exact = p.numeric_mode == EXACT
    for eps in grid:
        if not 0 < eps <= 1:
            raise EpsOutOfRange(f"eps = {eps} outside (0, 1]")
        if exact and isinstance(eps, float):
            raise ValueError(f"eps = {eps} is a float; exact P and Q take a rational eps")
    return [Fraction(eps) if exact else float(eps) for eps in grid]


def perturbed_matrix(p, q, eps):
    """(1 - eps) P + eps Q, in the numeric mode of P and Q. eps must lie in
    (0, 1]."""
    (e,) = _mixing_eps(p, q, (eps,))
    rows = tuple(
        {j: (1 - e) * p.entry(i, j) + e * q.entry(i, j) for j in sorted(p.rows[i].keys() | q.rows[i].keys())}
        for i in range(p.n)
    )
    return RowStochasticMatrix(p.states, rows, p.numeric_mode)


def _shared_q_rows(q):
    """Groups of two or more states whose Q rows are equal, in order of
    their first member. States are first grouped by row object, so each
    distinct row object is hashed once, as stored: an exact row's
    denominator is the sum of its numerators."""
    members = {}
    for x, row in enumerate(q.num_rows):
        members.setdefault(id(row), []).append(x)
    groups = {}
    for xs in members.values():
        groups.setdefault(tuple(q.num_rows[xs[0]].items()), []).extend(xs)
    return [sorted(g) for g in groups.values() if len(g) > 1]


def _perturbed_laws(p, q, grid, limit=False):
    """Stationary laws of (1 - eps) P + eps Q for each eps of grid, P and Q
    in one numeric mode (_mixing_eps). It first runs
    require_unichain_union(p, q), which leaves the hub chain one closed
    class; its transient states, hubs among them, get 0. Below eps = 1 each
    is the hub chain's law on the states of P, renormalized. With limit set,
    float P and Q only, returns (laws, the float limit as eps -> 0), the
    limit read off the plan of the hub chain by _lead_law. A float law that
    is not finite raises EpsOutOfRange naming its eps.

    Every eps is checked before the chain's rows are built, once. Their
    pattern does not depend on eps and no entry cancels, so the reduction
    is worked out once: float eps replay one _plan on the flat list of the
    values at eps, e u + (1 - e) v on the slots with a Q part u and P's
    value times 1 - eps on the others, and exact eps reuse the order found
    at the first."""
    grid = _mixing_eps(p, q, grid)
    exact = p.numeric_mode == EXACT
    if limit and exact:
        raise ValueError("the leading-order limit is read off the float plan; pass float P and Q")
    require_unichain_union(p, q)
    n = p.n
    rows, dens = _mixed_rows(p, q, _shared_q_rows(q))
    if not exact:  # one plan of the hub chain for every eps and the limit
        plan = _plan(rows)
        coefs = [(float(u), float(v)) for row in rows[:n] for u, v in row.values()]
        hub_vals = [v for h in rows[n:] for v in h.values()]
    order = None
    laws = []
    for e in grid:
        if e == 1:
            laws.append(unichain_law(q))
        elif exact:  # at e = a/b, row x is a u + (b - a) v over b dens[x]
            a, b = e.numerator, e.denominator
            mixed = [{y: a * u + (b - a) * v for y, (u, v) in row.items()} for row in rows[:n]]
            hubs = [dict(h) for h in rows[n:]]  # the elimination updates rows in place
            x, order = _law(mixed + hubs, [b * d for d in dens[:n]] + dens[n:], order)
            laws.append(Distribution.of_integers(x[:n], sum(x[:n])))
        else:
            stay = 1 - e  # at u = 0.0, e u + stay v is stay v
            vals = [e * u + stay * v if u else stay * v for u, v in coefs]
            law = _replay(plan, vals + hub_vals)[:n]
            total = sum(law, 0.0)
            if not math.isfinite(total):  # below eps of about 1e-308, 1 / eps can overflow
                raise EpsOutOfRange(f"eps = {e}: the float law is not finite; use a larger eps")
            laws.append(Distribution([v / total for v in law], FLOAT))
    if not limit:
        return laws
    orders = [0 if v else 1 for _, v in coefs] + [0] * len(hub_vals)  # P's entries order 0, Q's alone 1
    lead = [v or u for u, v in coefs] + hub_vals
    return laws, Distribution(_lead_law(plan, orders, lead, n), FLOAT)


# pi_table holds one Distribution per eps, errors the L-inf distance to the prediction per eps, fitted_slope a
# float (None when too few errors are positive), first_order the difference quotient at the two smallest eps
SweepResult = namedtuple("SweepResult", "eps_grid pi_table predicted_limit errors fitted_slope first_order")


def _fit_slope(eps, errors):
    pts = [(math.log(float(e)), math.log(float(r))) for e, r in zip(eps, errors) if float(r) > 1e-300]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else None


def check_eps_grid(grid):
    """grid as a tuple, after checking that it is strictly decreasing
    within (0, 1)."""
    grid = tuple(grid)
    if any(not 0 < e < 1 for e in grid):
        raise EpsOutOfRange("values must lie in (0, 1)")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("values must be strictly decreasing")
    return grid


def _difference_quotient(eps_pair, laws):
    """(x - y) / (e1 - e2) entrywise for the laws x, y at e1, e2: from the
    integers of the laws, one Fraction per entry, when both are exact, and
    in floating point otherwise."""
    (e1, e2), (x, y) = eps_pair, laws
    if x.den is not None and y.den is not None:
        gap = Fraction(e1) - Fraction(e2)
        return tuple(Fraction((a * y.den - b * x.den) * gap.denominator, x.den * y.den * gap.numerator)
                     for a, b in zip(x.nums, y.nums))
    gap = float(e1) - float(e2)
    return tuple((float(a) - float(b)) / gap for a, b in zip(x.values, y.values))


def epsilon_sweep(p, q, grid=None):
    """Stationary laws along a strictly decreasing grid of mixing weights,
    with per-eps L-inf distance to the predicted limit, P and Q in one
    numeric mode. Exact P and Q take limit_rank's limit; float ones take
    the limit from the plan of the laws themselves (_perturbed_laws with
    limit set), which needs no partition, class laws or reduced chain."""
    exact = p.numeric_mode == EXACT
    grid = check_eps_grid((DEFAULT_EXACT_GRID if exact else DEFAULT_FLOAT_GRID) if grid is None else grid)
    if exact:
        from znrank.zero_noise import limit_rank

        predicted = limit_rank(p, q).node_limit
        table = _perturbed_laws(p, q, grid)
        ref, e = predicted.nums, predicted.den  # max |a / d - b / e| per eps, one Fraction per number
        errors = [Fraction(max([abs(a * e - b * pi.den) for a, b in zip(pi.nums, ref)]), pi.den * e) for pi in table]
    else:  # the limit read off the float plan of the laws
        table, predicted = _perturbed_laws(p, q, grid, limit=True)
        errors = [linf(pi.values, predicted.values) for pi in table]
    return SweepResult(
        eps_grid=grid,
        pi_table=tuple(table),
        predicted_limit=predicted,
        errors=tuple(errors),
        fitted_slope=_fit_slope(grid, errors),
        first_order=_difference_quotient(grid[-2:], table[-2:]) if len(grid) >= 2 else None,
    )


def first_order_estimate(p, q, eps_pair):
    """First derivative of the stationary law at zero mixing, estimated by
    the difference quotient between two small weights, in the numeric mode
    of P and Q: exact P and Q take rational weights."""
    if eps_pair[0] == eps_pair[1]:
        raise ValueError("the two eps values must differ")
    return _difference_quotient(eps_pair, _perturbed_laws(p, q, eps_pair))


def exact_first_order(p, q):
    """Exact derivative at zero mixing of the stationary law, from the
    polynomial route: d/de of H_i(e) / S(e) at 0 after the common leading
    power is removed."""
    from znrank.arborescence import all_root_polynomials
    from znrank.polynomial import sum_polynomials

    polys = all_root_polynomials(p, q)
    total = sum_polynomials(polys)
    d = total.min_degree()
    s0, s1 = (total.nums[d:d + 2] + (0,))[:2]
    # every root polynomial is nonnegative near 0, so its minimal degree is
    # at least that of the total
    return tuple(Fraction((h1 * s0 - h0 * s1) * total.den, h.den * s0 * s0)
                 for h in polys for h0, h1 in [(h.shift_down(d).nums + (0, 0))[:2]])


def extrapolate_limit(p, q, grid=None):
    """Affine extrapolation to zero mixing from the two smallest grid
    points, in floating point."""
    pf, qf = p.to_float(), q.to_float()
    if grid is None:
        grid = DEFAULT_FLOAT_GRID
    grid = tuple(grid)
    if len(grid) < 2:
        raise ValueError(f"extrapolation needs two eps values, got {len(grid)}")
    e1, e2 = float(grid[-2]), float(grid[-1])
    pi1, pi2 = _perturbed_laws(pf, qf, (e1, e2))
    # value at 0 of the line through (e1, pi1), (e2, pi2)
    return tuple(b - e2 * (a - b) / (e1 - e2) for a, b in zip(pi1.values, pi2.values))


def rounding_floor(n):
    """4 n ulps of 1: a float difference of n-state laws up to this is
    rounding, since GTH gives each law entrywise to a few ulps."""
    return 4 * n * sys.float_info.epsilon


def convergence_report(result):
    """Summary dict with a verdict: exact when all errors vanish, otherwise
    pass when errors stay below the fitted linear envelope and the fitted
    slope is at least 0.8. A floating error within the rounding floor counts
    as zero, so a law that does not depend on eps does not fail on noise."""
    floating = any(isinstance(e, float) for e in result.errors)
    floor = rounding_floor(result.predicted_limit.n) if floating else 0.0
    errs = [float(e) for e in result.errors]
    eps = [float(e) for e in result.eps_grid]
    if all(e <= floor for e in errs):
        verdict = "exact for all tested eps"
        fitted_c = 0.0
    else:
        fitted_c = max(r / e for r, e in zip(errs, eps))
        envelope_ok = all(r <= fitted_c * e * (1 + 1e-12) for r, e in zip(errs, eps))
        slope_ok = result.fitted_slope is not None and result.fitted_slope >= 0.8
        verdict = "pass" if envelope_ok and slope_ok else "fail"
    return {
        "eps": eps,
        "errors": errs,
        "max_error": max(errs) if errs else 0.0,
        "fitted_C": fitted_c,
        "slope": result.fitted_slope,
        "verdict": verdict,
    }


def _int_root(x, k):
    """The k-th root of the positive integer x, or None when it is not an
    integer (Newton's method in integers, from above)."""
    r = 1 << -(-x.bit_length() // k)
    while (s := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = s
    return r if r**k == x else None


def parse_eps_grid(text, exact=False):
    """Grid syntax: "a..b" for log-spaced decades from a down to b, or a
    comma list. A range has one step per whole decade, at least one, and
    keeps both ends. Values parse as rationals in exact mode, where a range
    whose points are not all rational is refused."""
    text = text.strip()
    if ".." in text:
        a_txt, b_txt = text.split("..", 1)
        a, b = (Fraction(a_txt), Fraction(b_txt)) if exact else (float(a_txt), float(b_txt))
        if not (0 < b < a < 1):
            raise EpsOutOfRange(f"bad range {text!r}: need 0 < b < a < 1")
        if not exact:
            if a / b == math.inf:
                raise EpsOutOfRange(f"bad range {text!r}: a / b overflows a float")
            steps = max(1, round(math.log10(a / b)))
            return (*(a * (b / a) ** (k / steps) for k in range(steps)), b)
        ratio = b / a  # each step multiplies by its steps-th root
        steps = max(1, round(math.log10(ratio.denominator) - math.log10(ratio.numerator)))
        roots = [_int_root(x, steps) for x in (ratio.numerator, ratio.denominator)]
        if None in roots:
            raise ValueError(f"the {steps + 1} log-spaced points of {text!r} are not all rational;"
                             " give the grid as a comma list, e.g. 1/10,1/100")
        return tuple(a * Fraction(*roots) ** k for k in range(steps + 1))
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        vals.append(Fraction(tok) if exact else float(tok))
    if not vals:
        raise ValueError("empty eps grid")
    return tuple(vals)
