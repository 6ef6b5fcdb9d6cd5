"""Seeded input pools for the three workloads.

A pool is a fixed list of slots. Each slot has a fixed shape (class sizes,
transient count, kind of perturbation), so the work per slot hardly depends
on the seed; the seed only draws the edges, weights and masses. The slots
that exercise the known general-Q fault are drawn from a fixed seed of their
own, so they are the same inputs in every run.

Every slot carries, next to the CLI argv and the files it reads, the exact
matrices the benchmark's checks need. Nothing here imports znrank.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEGREE = 3  # out-edges per state besides the class cycle
MAX_W = 9  # integer edge weights are drawn from 1..MAX_W
FAULT_SEED = "general-q-fixed"  # seed of the known-fault slots, not --seed


@dataclass
class Chain:
    n: int
    classes: list  # lists of state indices, one per closed class
    transient: list
    edges: list  # (src, dst, integer weight)

    def rows(self):
        """Exact P as sparse rows: list of {dst: Fraction}."""
        out = [{} for _ in range(self.n)]
        for s, d, w in self.edges:
            out[s][d] = out[s].get(d, 0) + w
        for row in out:
            total = sum(row.values())
            for d in row:
                row[d] = Fraction(row[d], total)
        return out

    def edge_text(self):
        lines = [f"s{i}" for i in range(self.n)]
        lines += [f"s{s} s{d} {w}" for s, d, w in self.edges]
        return "\n".join(lines) + "\n"


@dataclass
class Slot:
    kind: str  # uniform | block | personalized | matrix
    chain: Chain
    q_rows: list  # exact Q as sparse rows {dst: Fraction}
    files: dict  # file name -> text
    argv: list  # CLI argv with {dir} standing for the input directory
    known_fault: bool = False


def draw_chain(rng, sizes, n_transient):
    """Closed classes of the given sizes, each strongly connected through a
    random cycle plus DEGREE extra in-class edges per state, and transient
    states whose edges lead anywhere but always include a closed state."""
    n = sum(sizes) + n_transient
    order = list(range(n))
    rng.shuffle(order)
    classes = []
    at = 0
    for size in sizes:
        classes.append(sorted(order[at:at + size]))
        at += size
    classes.sort(key=min)  # znrank lists closed classes by smallest member
    transient = sorted(order[at:])
    closed = [x for c in classes for x in c]
    edges = []
    for cls in classes:
        cyc = list(cls)
        rng.shuffle(cyc)
        for i, u in enumerate(cyc):
            targets = {cyc[(i + 1) % len(cyc)]}
            targets.update(rng.sample(cls, min(DEGREE, len(cls))))
            edges += [(u, v, rng.randint(1, MAX_W)) for v in sorted(targets)]
    for t in transient:
        targets = {rng.choice(closed)}
        targets.update(rng.sample([x for x in range(n) if x != t], DEGREE))
        edges += [(t, v, rng.randint(1, MAX_W)) for v in sorted(targets)]
    return Chain(n, classes, transient, edges)


def fmt(x):
    return f"{x.numerator}/{x.denominator}"


def rank_one_rows(nu):
    row = {i: x for i, x in enumerate(nu) if x}
    return [row] * len(nu)


def uniform_slot(chain, args):
    nu = [Fraction(1, chain.n)] * chain.n
    return Slot("uniform", chain, rank_one_rows(nu), {},
                args + ["--graph", "{dir}/p.edges", "--q", "uniform"])


def personalized_slot(rng, chain, args, per_class=None):
    """Masses on every transient state and on per_class states of each
    closed class (all of them when per_class is None)."""
    mass = [0] * chain.n
    for t in chain.transient:
        mass[t] = rng.randint(1, MAX_W)
    for cls in chain.classes:
        for x in cls if per_class is None else rng.sample(cls, per_class):
            mass[x] = rng.randint(1, MAX_W)
    total = sum(mass)
    nu = [Fraction(m, total) for m in mass]
    text = "".join(f"s{i} {m}\n" for i, m in enumerate(mass) if m)
    return Slot("personalized", chain, rank_one_rows(nu), {"nu.txt": text},
                args + ["--graph", "{dir}/p.edges", "--q", "personalized={dir}/nu.txt"])


def block_slot(rng, chain, args):
    """Q(x, y) = gamma_ij for x in C_i, y in C_j, rows normalized so that
    sum_j gamma_ij |C_j| = 1."""
    sizes = [len(c) for c in chain.classes]
    gamma = []
    for _ in chain.classes:
        r = [rng.randint(1, MAX_W) for _ in chain.classes]
        total = sum(a * s for a, s in zip(r, sizes))
        gamma.append([Fraction(a, total) for a in r])
    rows = [None] * chain.n
    for i, ci in enumerate(chain.classes):
        row = {y: gamma[i][j] for j, cj in enumerate(chain.classes) for y in cj}
        for x in ci:
            rows[x] = row
    text = f"{len(sizes)}\n" + "".join(" ".join(fmt(g) for g in r) + "\n" for r in gamma)
    return Slot("block", chain, rows, {"gamma.txt": text},
                args + ["--graph", "{dir}/p.edges", "--q", "block={dir}/gamma.txt"])


def matrix_slot(rng, chain, args):
    """General Q: every row sends mass to one random state of each closed
    class and one more random state, so rows differ within a class and the
    reduced chain stays irreducible."""
    rows = []
    dense = []
    for _ in range(chain.n):
        targets = {rng.choice(cls) for cls in chain.classes}
        targets.add(rng.randrange(chain.n))
        w = {y: rng.randint(1, MAX_W) for y in sorted(targets)}
        total = sum(w.values())
        row = {y: Fraction(v, total) for y, v in w.items()}
        rows.append(row)
        dense.append([fmt(row[y]) if y in row else 0 for y in range(chain.n)])
    text = json.dumps({"n": chain.n, "rows": dense})
    return Slot("matrix", chain, rows, {"q.json": text},
                args + ["--graph", "{dir}/p.edges", "--q", "matrix={dir}/q.json"],
                known_fault=True)


RANK_ARGS = ["rank", "--numeric", "exact", "--format", "json"]
SWEEP_ARGS = ["sweep", "--numeric", "float", "--format", "json"]
ORACLE_ARGS = ["oracle", "--numeric", "exact"]

# class sizes of the closed classes, and the transient count, per shape
RANK_PLAIN = ((24, 16, 8), 0)
RANK_TRANSIENT = ((20, 14, 8), 6)
SWEEP_PLAIN = ((24, 16, 8), 0)
SWEEP_TRANSIENT = ((20, 14, 8), 6)
ORACLE_SHAPE = ((3, 2, 2), 0)


def rank_pool(seed):
    """13 slots: uniform (3 plain, 2 with transients), block (2),
    personalized (2 plain, 2 with transients), general matrix Q (2, fixed
    inputs, known fault)."""
    rng = random.Random(f"rank-exact:{seed}")
    fixed = random.Random(FAULT_SEED)
    slots = []
    for shape in [RANK_PLAIN] * 3 + [RANK_TRANSIENT] * 2:
        slots.append(uniform_slot(draw_chain(rng, *shape), RANK_ARGS))
    for _ in range(2):
        slots.append(block_slot(rng, draw_chain(rng, *RANK_PLAIN), RANK_ARGS))
    for shape in [RANK_PLAIN] * 2 + [RANK_TRANSIENT] * 2:
        slots.append(personalized_slot(rng, draw_chain(rng, *shape), RANK_ARGS, per_class=2))
    for _ in range(2):
        slots.append(matrix_slot(fixed, draw_chain(fixed, *RANK_PLAIN), RANK_ARGS))
    return slots


def sweep_pool(seed):
    """20 slots on the default float grid: uniform (6 plain, 4 with
    transients), personalized with full support (6 plain, 4 with
    transients)."""
    rng = random.Random(f"sweep-float:{seed}")
    slots = []
    for shape in [SWEEP_PLAIN] * 6 + [SWEEP_TRANSIENT] * 4:
        slots.append(uniform_slot(draw_chain(rng, *shape), SWEEP_ARGS))
    for shape in [SWEEP_PLAIN] * 6 + [SWEEP_TRANSIENT] * 4:
        slots.append(personalized_slot(rng, draw_chain(rng, *shape), SWEEP_ARGS))
    return slots


def oracle_pool(seed):
    """10 slots: personalization on one state per closed class, so the
    union support of P and Q stays sparse."""
    rng = random.Random(f"oracle-exact:{seed}")
    return [personalized_slot(rng, draw_chain(rng, *ORACLE_SHAPE), ORACLE_ARGS, per_class=1)
            for _ in range(10)]


POOLS = {"rank-exact": rank_pool, "sweep-float": sweep_pool, "oracle-exact": oracle_pool}
