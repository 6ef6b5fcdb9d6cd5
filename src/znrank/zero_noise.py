"""Zero-noise limits: the reduced class chain and limit reports.

For (1-eps) P + eps Q with P reducible, the limit stationary law factors
into per-class stationary laws weighted by the stationary law of a reduced
chain over the closed classes. Row i of the reduced chain is class i's Q
mass, each member weighted by the class stationary law, so any Q is
allowed, and the chain may have transient classes, which get mass 0, but
only one closed class. The plain reduction requires no transient states;
the extended reduction carries the mass that lands on a transient state
on into the classes that absorb it. That follows from censoring: the chain
watched on its closed states only, the stochastic complement of P_eps
(Meyer, SIAM Review 1989), has the law of P_eps there up to normalisation,
and to first order in eps it is (1 - eps) P + eps Q' on them, where Q'
sends the mass Q(x, t) on a transient state t on into C_j with the
absorption probability A(t, j). Every class's mass is pushed along one
absorbing elimination of P, with no |T| x m table of A. Without transient
states the two reductions coincide, and `limit_rank` is the one route to
either.

`arborescence`, which loads the kernels, linalg and polynomial modules, is
imported inside `adjudicate` and on the GammaReducible path, the only code
here that calls it, so a `rank` process neither loads nor compiles them.
"""

import math
from collections import namedtuple
from fractions import Fraction

from znrank.errors import GammaReducible, NotIrreducible, TransientStatesPresent
from znrank.graph import RowStochasticMatrix, StateSpace, require_one_mode, require_unichain_union
from znrank.rational import EXACT, FLOAT, number_to_json, ratios_to_json
from znrank.stationary import (
    Distribution,
    _absorbing_reduction,
    linf,
    unichain_law,
)


# reduced chain over the closed classes: gamma, a RowStochasticMatrix, and its law pi_gamma
GammaChain = namedtuple("GammaChain", "gamma pi_gamma")

# gamma_chain is None for the uniform prediction; mode is "theorem3", "theorem2" or "extended"
LimitReport = namedtuple("LimitReport",
                         "partition per_class_stationary gamma_chain class_masses node_limit mode labels")


def _gamma_chain_from_rows(rows, dens):
    """Gamma with the given rows over dens, float when dens is None, and its
    law: mu itself, with no solve, when every row is one object mu
    (Gamma = 1 mu^T), else the GTH law."""
    states = StateSpace(len(rows), tuple(f"C{k + 1}" for k in range(len(rows))))
    try:
        gamma = RowStochasticMatrix(states, tuple(rows), FLOAT if dens is None else EXACT, dens)
    except ValueError as exc:
        raise GammaReducible(f"reduced chain is not stochastic: {exc}") from None
    if all(row is rows[0] for row in rows):
        mu = [gamma.num_rows[0].get(j, 0) for j in range(gamma.n)]
        law = Distribution(mu, FLOAT) if dens is None else Distribution.of_integers(mu, gamma.dens[0])
        return GammaChain(gamma, law)
    try:
        law = unichain_law(gamma)  # classes that are transient in Gamma get mass 0
    except NotIrreducible:
        from znrank.arborescence import SYMBOLIC_N_GUARD

        raise GammaReducible(
            "reduced class chain has more than one closed class; the limit may still exist:"
            f" `znrank oracle --q` computes it from the perturbed chain, up to {SYMBOLIC_N_GUARD} states"
        ) from None
    return GammaChain(gamma, law)


def _routed_rows(p, sources, of_class):
    """(rows, dens) of Gamma for _gamma_chain_from_rows over P's partition,
    in P's numeric mode. sources maps a key to (row, den): a dict row of
    integer numerators over den, or of floats with den 1. Row i is the class
    masses of sources[of_class[i]], one row object per source: its mass on
    each closed class, plus the mass it puts on transient states, which goes
    on into the classes that absorb it. As the absorbing elimination of P
    removes k, the mass that reached k goes on over k's row to states
    removed later or closed: one pass per source over one elimination, built
    only if a source reaches a transient state. Exact masses over one den
    are added as integers, others with a gcd each (their lcm had 32849 bits,
    mu's den 1318, on a 5000-page web graph); dens is None in float mode."""
    part, exact = p.partition, p.dens is not None

    def total(terms):  # (num, den) of the sum of the masses num / den in terms
        if not exact:
            return sum([a / e for a, e in terms], 0.0), 1
        a, d = 0, terms[0][1] if terms else 1
        for b, e in terms:
            if e == d:
                a += b
            else:
                a, d = a * e + b * d, d * e
                g = math.gcd(a, d)
                a, d = a // g, d // g
        g = math.gcd(a, d)
        return a // g, d // g

    reduction = None  # (rows, order) of the absorbing elimination, built on first use
    routed = {}
    for s, (row, den) in sources.items():
        inflow = {y: [(v, den)] for y, v in row.items()}  # state -> the masses that reach it
        if not inflow.keys().isdisjoint(part.transient):
            rows, order = reduction = reduction or _absorbing_reduction(p)
            for k in order:
                if k in inflow:
                    a, e = total(inflow.pop(k))
                    e *= sum(rows[k].values())
                    for j, v in rows[k].items():
                        inflow.setdefault(j, []).append((a * v, e))
        masses = [total([t for y in c if y in inflow for t in inflow[y]]) for c in part.closed_classes]
        d = math.lcm(*[e for _, e in masses])
        routed[s] = [a * (d // e) for a, e in masses], d
    return [routed[s][0] for s in of_class], [routed[s][1] for s in of_class] if exact else None


def build_gamma(p, q):
    """Reduced chain: Gamma(i, j) is the Q mass from class i into class j,
    averaged over the members of class i with the class stationary law of P.
    Requires a transient-free P."""
    if p.partition.transient:
        raise TransientStatesPresent("the plain reduction needs a transient-free chain")
    return extended_gamma(p, q)


def personalization_gamma(nu, part):
    """Reduced chain for rank-one perturbations with every row equal to nu:
    all rows of Gamma are the one row of nu's mass per closed class, summed
    in member order, which is Gamma's law; a class without mass is transient
    in Gamma."""
    if part.transient:
        raise TransientStatesPresent("personalization reduction needs a transient-free chain")
    exact = nu.den is not None
    row = [sum([nu.nums[x] for x in c], 0 if exact else 0.0) for c in part.closed_classes]
    return _gamma_chain_from_rows([row] * part.m, (nu.den,) * part.m if exact else None)


def extended_gamma(p, q):
    """Reduced chain with transient states folded in: row i is the routed
    class mass of r_i = sum over x in C_i of pi_i(x) Q(x, .), whose mass
    on a transient state t continues into class j with the absorption
    probability A(t, j), as it does to first order in eps in the stochastic
    complement of P_eps on the closed states (Meyer, SIAM Review 1989).
    Without transient states this is the plain reduced chain. r_i is formed
    over one denominator, the members that hold one Q row object weighted
    once by their summed law numerators; a class whose members all hold one
    row object routes that row as it is, and when every class routes one
    row, Gamma = 1 mu^T is not solved. P's class laws (p.class_laws) are
    read only if some class needs them. If Gamma is refused, a union
    support of P and Q with several closed classes is reported first. P
    and Q must share one numeric mode."""
    require_one_mode(p, q)
    q_dens = q.dens or (1,) * q.n
    sources, of_class = {}, []  # key -> (row, den) to route; the key of each class's source
    for k, ck in enumerate(p.partition.closed_classes):
        row = q.num_rows[ck[0]]
        if all(q.num_rows[x] is row for x in ck):  # the class routes its one Q row as it is
            key, source = id(row), (row, q_dens[ck[0]])
        else:
            groups = {}  # id of a Q row -> the members that hold it
            for x in ck:
                groups.setdefault(id(q.num_rows[x]), []).append(x)
            law = p.class_laws[k]
            weights = [(sum([law.nums[x] for x in xs]), xs[0]) for xs in groups.values()]
            lcm = math.lcm(*[q_dens[x] for _, x in weights])
            row = {}
            for w, x in weights:
                f = w * (lcm // q_dens[x])
                for y, v in q.num_rows[x].items():
                    row[y] = row.get(y, 0) + f * v
            key, source = -1 - k, (row, (law.den or 1) * lcm)  # no id is negative
        sources[key] = source
        of_class.append(key)
    try:
        return _gamma_chain_from_rows(*_routed_rows(p, sources, of_class))
    except GammaReducible:
        require_unichain_union(p, q)
        raise


def limit_rank(p, q, mode="auto"):
    """Limit of the stationary law of (1-eps) P + eps Q as eps vanishes:
    per-class stationary laws weighted by the class masses of mode.
      theorem3  the reduced-chain stationary law; P must be transient-free;
      extended  the same with mass on transient states routed onward by
                absorption probabilities, as censoring onto the closed
                states (a stochastic complement) does;
      theorem2  uniform masses 1/m, a prediction that ignores q;
      auto      extended if P has transient states, else theorem3.
    An unknown mode, or an exact/float mix of P and Q in any mode but
    theorem2, is refused (ValueError) before any class law is solved."""
    if mode not in ("auto", "theorem3", "extended", "theorem2"):
        raise ValueError(f"unknown limit mode {mode!r}")
    if mode != "theorem2":
        require_one_mode(p, q)
    part = p.partition
    if mode == "auto":
        mode = "extended" if part.transient else "theorem3"
    if mode == "theorem3" and part.transient:
        raise TransientStatesPresent(
            "P has transient states; use the extended reduction (--mode extended)"
        )
    exact = p.numeric_mode == EXACT
    per_class = p.class_laws
    if mode == "theorem2":
        chain = None
        m = part.m
        masses = Distribution.of_integers((1,) * m, m) if exact else Distribution([1.0 / m] * m, FLOAT)
    else:
        chain = extended_gamma(p, q)
        masses = chain.pi_gamma
    lcm = math.lcm(*[law.den for law in per_class]) if exact else None
    node = [0] * p.n
    for k, (cls, law) in enumerate(zip(part.closed_classes, per_class)):
        f = masses.nums[k] * (lcm // law.den) if exact else masses.nums[k]
        for v in cls:
            node[v] = law.nums[v] * f
    return LimitReport(
        partition=part,
        per_class_stationary=per_class,
        gamma_chain=chain,
        class_masses=masses,
        node_limit=Distribution.of_integers(node, lcm * masses.den) if exact else Distribution(node, FLOAT),
        mode=mode,
        labels=tuple(p.states.label_list()),
    )


def report_to_json(report):
    """Fixed-key JSON form of a LimitReport, exact numbers formatted from
    the integer numerators and denominators that the laws and Gamma store.
    A Gamma row object that several classes share is formatted once."""
    part = report.partition
    g = None if report.gamma_chain is None else report.gamma_chain.gamma
    done = {}  # id of a Gamma row -> its JSON numbers
    gamma = None if g is None else [done[id(row)] if id(row) in done else done.setdefault(
        id(row), ratios_to_json([row.get(j, 0) for j in range(g.n)], den))
        for row, den in zip(g.num_rows, g.dens or (None,) * g.n)]
    masses = report.class_masses
    return {
        "mode": report.mode,
        "classes": [list(c) for c in part.closed_classes],
        "transient": list(part.transient),
        "gamma": gamma,
        "pi_gamma": ratios_to_json(masses.nums, masses.den),
        "per_class_stationary": [ratios_to_json(d.nums, d.den) for d in report.per_class_stationary],
        "class_masses": ratios_to_json(masses.nums, masses.den),
        "node_limit": ratios_to_json(report.node_limit.nums, report.node_limit.den),
        "labels": list(report.labels),
    }


def adjudicate(p, q):
    """Compare the uniform prediction and the class-chain limit against an
    independent oracle: on exact inputs of up to SYMBOLIC_N_GUARD states the
    exact limit of the root polynomials ("exact-polynomial"), otherwise the
    float limit of the perturbed chain's leading terms ("leading-order",
    sweep._perturbed_laws), with the float rounding floor as tolerance.
    Returns a JSON-able report; methods that deviate from the oracle beyond
    tolerance are flagged discrepant."""
    from znrank.arborescence import SYMBOLIC_N_GUARD, exact_limit_from_polynomials
    from znrank.sweep import _perturbed_laws, rounding_floor

    limit = limit_rank(p, q)
    methods = {"theorem2": limit_rank(p, None, "theorem2"), limit.mode: limit}
    if p.numeric_mode == EXACT and p.n <= SYMBOLIC_N_GUARD:
        oracle_mode, oracle_vals = "exact-polynomial", exact_limit_from_polynomials(p, q).values
    else:
        oracle_vals = _perturbed_laws(p.to_float(), q.to_float(), (), limit=True)[1].values
        oracle_mode = "leading-order"

    report = {
        "oracle_mode": oracle_mode,
        "labels": p.states.label_list(),
        "oracle": [number_to_json(x) for x in oracle_vals],
        "methods": {},
    }
    for name in sorted(methods):
        vals = methods[name].node_limit.values
        dev = linf(vals, oracle_vals)  # exact when both sides are, else the float difference
        if isinstance(dev, Fraction):
            verdict = "exact" if dev == 0 else "discrepant"
        else:
            verdict = "pass" if dev <= rounding_floor(p.n) else "discrepant"
        report["methods"][name] = {
            "values": [number_to_json(x) for x in vals],
            "max_deviation": number_to_json(dev),
            "verdict": verdict,
        }
    return report
