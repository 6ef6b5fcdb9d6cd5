"""Self-test of the answer checks in checks.py; needs no znrank.

    python3 perfbench/selftest.py

It shows that the checks accept true limits and reject wrong answers:
  1. the limit check accepts 1/4 1/2 1/4 and rejects 2/9 4/9 1/3 on the
     two-class chain with a general Q that the reduced chain gets wrong;
  2. on random small chains with general Q and transient states, the limit
     the checks derive is within 1e-30 of the exact stationary law of
     (1 - e) P + e Q at e = 1e-40, passes the limit check, and the check
     rejects the same law with class masses weighted 1/|C_k|;
  3. the sweep check accepts a float law equal to its reference and one off
     by 1e-9 relative, and rejects one entry off by 1e-5 relative.
Exits 0 when every case behaves so, 1 otherwise.
"""

import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import pools  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def repro_chain():
    """P = [[0,1,0],[1/2,1/2,0],[0,0,1]], Q = [[0,0,1],[1,0,0],[1,0,0]]."""
    chain = pools.Chain(3, [[0, 1], [2]], [], [(0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 2, 1)])
    q_rows = [{2: Fraction(1)}, {0: Fraction(1)}, {0: Fraction(1)}]
    return chain, q_rows


def case_repro():
    chain, q_rows = repro_chain()
    p_rows = chain.rows()
    right = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    wrong = [Fraction(2, 9), Fraction(4, 9), Fraction(1, 3)]
    expect(checks.limit_failure(chain, p_rows, q_rows, right) is None, "repro: 1/4 1/2 1/4 accepted")
    why = checks.limit_failure(chain, p_rows, q_rows, wrong)
    expect(why is not None, f"repro: 2/9 4/9 1/3 rejected ({why})")
    absorb = checks.absorption(chain, p_rows)
    expect(checks.exact_limit(chain, p_rows, q_rows, absorb) == right, "repro: derived limit is 1/4 1/2 1/4")


def uniform_weight_limit(chain, p_rows, q_rows, absorb):
    """The reduced chain with every class member weighted 1/|C_k|."""
    cls = checks.class_of(chain)
    gamma = []
    for c in chain.classes:
        row = [Fraction(0)] * len(chain.classes)
        for x in c:
            for y, v in q_rows[x].items():
                if y in cls:
                    row[cls[y]] += v / len(c)
                else:
                    for j, a in enumerate(absorb[y]):
                        row[j] += v * a / len(c)
        gamma.append(row)
    mu = checks.gth(gamma)
    pi = [Fraction(0)] * chain.n
    for c, mass in zip(chain.classes, mu):
        law = checks.gth([[p_rows[x].get(y, Fraction(0)) for y in c] for x in c])
        for x, px in zip(c, law):
            pi[x] = px * mass
    return pi


def case_random_general_q(count=12):
    rng = random.Random("selftest-general-q")
    eps = Fraction(1, 10**40)
    for k in range(count):
        chain = pools.draw_chain(rng, [rng.randint(2, 3) for _ in range(3)], rng.randint(0, 2))
        n = chain.n
        p_rows = chain.rows()
        q_rows = []
        for _ in range(n):
            w = [rng.randint(1, pools.MAX_W) for _ in range(n)]
            q_rows.append({y: Fraction(v, sum(w)) for y, v in enumerate(w)})
        mixed = [[(1 - eps) * p_rows[x].get(y, 0) + eps * q_rows[x][y] for y in range(n)] for x in range(n)]
        near = checks.gth(mixed)
        absorb = checks.absorption(chain, p_rows)
        limit = checks.exact_limit(chain, p_rows, q_rows, absorb)
        gap = max(abs(a - b) for a, b in zip(near, limit))
        expect(gap < Fraction(1, 10**30) and checks.limit_failure(chain, p_rows, q_rows, limit) is None,
               f"general Q #{k} (n={n}, {len(chain.transient)} transient): limit accepted, "
               f"within {float(gap):.1e} of pi at eps=1e-40")
        naive = uniform_weight_limit(chain, p_rows, q_rows, absorb)
        expect(checks.limit_failure(chain, p_rows, q_rows, naive) is not None,
               f"general Q #{k}: 1/|C_k| weighting rejected")


def case_sweep():
    rng = random.Random("selftest-sweep")
    slot = pools.uniform_slot(pools.draw_chain(rng, (3, 2, 2), 1), pools.SWEEP_ARGS)
    refs = checks.sweep_references(slot)
    laws, limit = refs

    def output(scale_entry=None, rel=0.0):
        pi = [[float(x) for x in law] for law in laws]
        if scale_entry is not None:
            row, i = scale_entry
            pi[row][i] *= 1.0 + rel
        return json.dumps({"eps": list(checks.SWEEP_GRID), "pi": pi,
                           "predicted_limit": [float(x) for x in limit]})

    ok, digits, why = checks.check_sweep(slot, output(), refs)
    expect(ok and digits > 15, f"sweep: reference law accepted ({digits:.1f} digits)")
    ok, digits, why = checks.check_sweep(slot, output((5, 2), 1e-9), refs)
    expect(ok and 8 < digits < 10, f"sweep: law off by 1e-9 accepted ({digits:.1f} digits)")
    ok, digits, why = checks.check_sweep(slot, output((5, 2), 1e-5), refs)
    expect(not ok, f"sweep: law off by 1e-5 rejected ({why})")


def main():
    case_repro()
    case_random_general_q()
    case_sweep()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
