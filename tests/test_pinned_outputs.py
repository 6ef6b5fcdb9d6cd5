"""Exact CLI output pinned by digest on seeded random chains.

Each case writes P (and Q's file, if any) into a fresh directory and runs
one command through `znrank.cli.main`; the sha256 of its exit code, stdout
and stderr must equal the digest in `fixtures/pinned_outputs.json`. The
commands are exact `rank`, `sweep --numeric exact`, `oracle --q` and
`adjudicate`, so a change that moves any exact answer, message or exit code
shows here. After a deliberate change of one command's output, rewrite
that command's digests, and only those, with

    PYTHONPATH=src python tests/test_pinned_outputs.py --write COMMAND

which prints the keys whose digest changed; list them in CHANGES.md.

The same cases are also pinned in floating point: `rank`, `sweep --format
json` on the default grid and `adjudicate` with `--numeric float`, under the
command names `rank-float`, `sweep-float` and `adjudicate-float`.

The `g*` cases read P from an edge list (`--graph`) with integer, `p/q` and
decimal weights, a dangling node under each `--dangling` policy, and
`uniform` or `personalized=` Q with integer, fractional and repeated masses;
they run `rank`, `rank-float`, `sweep-float` and, up to `ORACLE_MAX_N`
states, `oracle`.

The `bench*` cases are float sweeps of the benchmark's size and shape: 48
states in closed classes (24, 16, 8), or (20, 14, 8) plus 6 transients, as
a `--graph` edge list with `uniform`, `personalized=` or a `matrix=` Q whose
rows are partly shared, on the default grid and on `--eps 1e-1..1e-14`.
They run `sweep-float`, exact `rank` and, on the default grid only, exact
`sweep`.

`rank`'s `--format tsv` and `--format pretty`, exact and float, are pinned
under the command names `rank-tsv`, `rank-pretty`, `rank-float-tsv` and
`rank-float-pretty` on the `bench*` cases and on `FORMAT_CASES`.

The `big-*` cases run the exact `oracle` and `adjudicate` on edge lists of
8 to 10 nodes whose weights are 30-digit integers or `p/q` with 20-digit
denominators, under `uniform` or `personalized=` Q with masses of the same
kinds, so the root polynomials' integers grow far past a machine word.

The `in-*` cases, pinned under the command name `inputs`, run one full
command each on a malformed edge list, matrix JSON, block file,
personalization file or `model` weights file, or a `model` command missing
its files, so every input error message, its line number and its exit code
show here; a few well-formed inputs with unusual number tokens, and one
`model pairwise --graph` run, ride along.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import (  # noqa: E402
    rand_block_q,
    rand_irreducible,
    rand_personalization,
    rand_reducible_no_transient,
    rand_sizes,
    rand_stochastic,
    rand_with_transients,
    rng_for,
)
from znrank.cli import main  # noqa: E402
from znrank.graph import DANGLING_POLICIES, RowStochasticMatrix, StateSpace  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "pinned_outputs.json"
FORMATS = ("tsv", "pretty")
FORMAT_COMMANDS = tuple(f"{command}-{fmt}" for command in ("rank", "rank-float") for fmt in FORMATS)
FORMAT_CASES = ("repro-unichain", "g18-n9-frac-self_loop-repeated")  # a transient state; labels and p/q weights
INPUT_COMMAND = "inputs"
COMMANDS = ("rank", "sweep", "oracle", "adjudicate", "rank-float", "sweep-float", "adjudicate-float",
            *FORMAT_COMMANDS, INPUT_COMMAND)
GRAPH_COMMANDS = ("rank", "rank-float", "sweep-float", "oracle")
BENCH_COMMANDS = ("rank", "sweep", "sweep-float")
WIDE_COMMANDS = ("oracle", "adjudicate")
ORACLE_MAX_N = 10  # the polynomial oracle and adjudicate's exact verdicts stop here


def _matrix_json(rows):
    return json.dumps({"n": len(rows), "rows": [[str(Fraction(x)) for x in r] for r in rows]})


def _shared_q(rng, n):
    """General Q with some rows shared by several states."""
    pool = [rand_irreducible(rng, n).rows[0] for _ in range(max(1, n // 3))]
    own = rand_irreducible(rng, n).rows
    return RowStochasticMatrix(StateSpace(n), tuple(rng.choice(pool) if rng.random() < 0.6 else own[x]
                                                  for x in range(n)))


def _weight(rng, kind):
    """An edge weight token of the given kind: int, frac, dec or mixed."""
    kind = rng.choice(("int", "frac", "dec")) if kind == "mixed" else kind
    if kind == "int":
        return str(rng.choice((1, 2, 3, 7, 9, 10**30 + 1)))
    if kind == "frac":
        return f"{rng.randint(1, 9)}/{rng.randint(1, 12)}"
    return rng.choice(("0.5", "1.25", "3.0", "0.1", "2.75", "0.001"))


def _graph_cases(rng):
    """(name, files, input args) of the --graph cases."""
    cases = []
    kinds = ("int", "frac", "dec", "mixed")
    for i in range(24):
        n = 2 + i % 11
        kind = kinds[i // 2 % 4]
        policy = DANGLING_POLICIES[i % 2]
        dangling = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
        lines = [f"v{x}" for x in range(n)]
        for u in range(n):
            if u in dangling:
                if rng.random() < 0.3:
                    lines.append(f"v{u} v{rng.randrange(n)} 0")  # a zero weight leaves it dangling
                continue
            for v in rng.sample(range(n), rng.randint(1, min(n, 3))):
                lines.append(f"v{u} v{v}" + ("" if rng.random() < 0.2 else f" {_weight(rng, kind)}"))
        files = {"p.edges": "\n".join(lines) + "\n"}
        q = ("uniform", "int", "frac", "repeated")[i // 6]
        if q == "uniform":
            spec = "uniform"
        else:
            nodes = rng.sample(range(n), rng.randint(1, n))
            if q == "repeated":
                nodes += rng.choices(nodes, k=2)
            files["nu.txt"] = "".join(f"v{x} {_weight(rng, 'mixed' if q == 'repeated' else q)}\n"
                                      for x in nodes)
            spec = "personalized=nu.txt"
        args = ["--graph", "p.edges", "--dangling", policy, "--q", spec]
        cases.append((f"g{i:02d}-n{n}-{kind}-{policy}-{q}", files, args))
    return cases


def _bench_edges(rng, sizes, n_transient):
    """(edge list text, closed classes): closed classes of the given sizes,
    each a random cycle plus 3 more in-class edges per state, and transient
    states with 3 edges anywhere plus one into a closed state; integer
    weights 1 to 9, nodes s0, s1, ... in shuffled class order."""
    n = sum(sizes) + n_transient
    order = list(range(n))
    rng.shuffle(order)
    classes, at = [], 0
    for size in sizes:
        classes.append(sorted(order[at:at + size]))
        at += size
    transient = sorted(order[at:])
    closed = [x for c in classes for x in c]
    lines = [f"s{x}" for x in range(n)]
    for cls in classes:
        cyc = rng.sample(cls, len(cls))
        for i, u in enumerate(cyc):
            for v in sorted({cyc[(i + 1) % len(cyc)], *rng.sample(cls, 3)}):
                lines.append(f"s{u} s{v} {rng.randint(1, 9)}")
    for t in transient:
        for v in sorted({rng.choice(closed), *rng.sample([x for x in range(n) if x != t], 3)}):
            lines.append(f"s{t} s{v} {rng.randint(1, 9)}")
    return "\n".join(lines) + "\n", classes


def _bench_q_rows(rng, n, classes):
    """Q rows into one random state of each closed class and one more state;
    about half the states share one of three such rows, so the hub chain
    has several hubs next to states with Q rows of their own."""
    def row():
        targets = sorted({rng.choice(cls) for cls in classes} | {rng.randrange(n)})
        w = {y: rng.randint(1, 9) for y in targets}
        return [Fraction(w.get(y, 0), sum(w.values())) for y in range(n)]

    hubs = [row() for _ in range(3)]
    return [rng.choice(hubs) if rng.random() < 0.5 else row() for _ in range(n)]


def _bench_cases(rng):
    """(name, files, input args) of the benchmark-sized float sweeps."""
    cases = []
    shapes = {"plain": ((24, 16, 8), 0), "transient": ((20, 14, 8), 6)}
    for q in ("uniform", "personalized"):
        for shape, (sizes, t) in shapes.items():
            edges, _ = _bench_edges(rng, sizes, t)
            files = {"p.edges": edges}
            spec = "uniform"
            if q == "personalized":
                files["nu.txt"] = "".join(f"s{x} {rng.randint(1, 9)}\n" for x in range(48))
                spec = "personalized=nu.txt"
            cases.append((f"bench-{q}-{shape}", files, ["--graph", "p.edges", "--q", spec]))
    edges, classes = _bench_edges(rng, *shapes["transient"])
    files = {"p.edges": edges, "q.json": _matrix_json(_bench_q_rows(rng, 48, classes))}
    cases.append(("bench-matrix-transient", files, ["--graph", "p.edges", "--q", "matrix=q.json"]))
    name, files, args = cases[3]
    cases.append((f"{name}-wide", files, [*args, "--eps", "1e-1..1e-14"]))
    return cases


def _wide_weight(rng, kind):
    """A 30-digit integer or a `p/q` with a 20-digit denominator."""
    if kind == "int":
        return str(rng.randrange(10**29, 10**30))
    return f"{rng.randrange(1, 10**20)}/{rng.randrange(10**19, 10**20)}"


def _wide_cases(rng):
    """(name, files, input args) of the `big-*` cases: 8 to 10 nodes, one to
    three closed classes (a cycle plus in-class edges each) and up to two
    transient nodes, every weight and personalization mass wide."""
    cases = []
    for i in range(8):
        n = 8 + i % 3
        kind = ("int", "frac")[i % 2]
        t = i % 3
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n - t), (i + 1) % 3))
        classes = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n - t])]
        lines = [f"v{x}" for x in range(n)]
        for cls in classes:
            for j, u in enumerate(cls):
                for v in sorted({cls[(j + 1) % len(cls)], *rng.sample(cls, min(2, len(cls)))}):
                    lines.append(f"v{u} v{v} {_wide_weight(rng, kind)}")
        for u in order[n - t:]:
            for v in sorted({rng.choice(order[:n - t]), *rng.sample(range(n), 2)}):
                lines.append(f"v{u} v{v} {_wide_weight(rng, kind)}")
        files = {"p.edges": "\n".join(lines) + "\n"}
        q = ("uniform", "personalized")[i // 2 % 2]
        spec = "uniform"
        if q == "personalized":
            files["nu.txt"] = "".join(f"v{x} {_wide_weight(rng, kind)}\n" for x in rng.sample(range(n), 3))
            spec = "personalized=nu.txt"
        cases.append((f"big-n{n}-{kind}-{q}-{i}", files, ["--graph", "p.edges", "--q", spec]))
    return cases


def _input_cases():
    """(name, files, full argv) of the `inputs` cases: edge lists read by
    classify, matrix JSON read as P by classify and as Q by rank, block and
    personalization files read as Q by rank on P with closed classes {a, b}
    and {c}, and `model` weights files, with that P as the --graph."""
    big = "1" + "0" * 5000  # past int's default digit limit for str
    edges = {
        "fields": "a b\nb a 1 2\n",
        "fields-comment": "a b # 1 2 3\nb a 1 2 3 # x\n",
        "number": "a b\nb a x\n",
        "zero-den": "a b 1/0\n",
        "slash-sign": "a b 1/-2\n",
        "spaced-slash": "a b 1 /2\n",
        "negative-int": "a b -1\n",
        "negative-frac": "# c\n\na b 1\nb a -1/2\n",
        "negative-dec": "a b 1\nb a -0.5\n",
        "negative-zero": "a b -0\nb a -0/3\n",
        "duplicate": "a b\nb a\na b 0\n",
        "duplicate-zero-first": "a b 0\na b 2\n",
        "duplicate-self-loop": "a a 1/2\nb\na a\n",
        "empty": "# nothing\n\n   \n",
        "big-int": f"a b {big}\n",
        "big-den": f"a b 1/{big}\n",
        "big-dec": f"a b 1.{big}\n",
        "odd-tokens": "a b +1/2\nb a \u0663\nb c .5\nc a 5.\nc b 1_0\nc c 1E-3\na c \u0661/\u0662\n",
    }
    cases = [(f"in-edges-{k}", {"p.edges": text}, ["classify", "--graph", "p.edges"])
             for k, text in edges.items()]
    for mode in ("exact", "float"):
        cases.append((f"in-edges-odd-tokens-rank-{mode}", {"p.edges": edges["odd-tokens"]},
                      ["rank", "--graph", "p.edges", "--q", "uniform", "--format", "tsv", "--numeric", mode]))
    matrices = {
        "bad-json": "{",
        "keys": '{"n": 2}',
        "n-string": '{"n": "2", "rows": []}',
        "n-zero": '{"n": 0, "rows": []}',
        "n-float": '{"n": 1.0, "rows": [[1]]}',
        "rows-short": '{"n": 2, "rows": [[1, 0]]}',
        "rows-ragged": '{"n": 2, "rows": [[1, 0], [1]]}',
        "rows-string": '{"n": 1, "rows": "1"}',
        "true": '{"n": 2, "rows": [[true, 0], [0, 1]]}',
        "false": '{"n": 2, "rows": [[0, 1], [false, 1]]}',
        "null": '{"n": 2, "rows": [[null, 1], [0, 1]]}',
        "list": '{"n": 2, "rows": [[[1], 0], [0, 1]]}',
        "infinity": '{"n": 2, "rows": [[Infinity, 1], [0, 1]]}',
        "nan": '{"n": 2, "rows": [[0, 1], [NaN, 1]]}',
        "bad-string": '{"n": 2, "rows": [["1/x", 0], [0, 1]]}',
        "zero-den": '{"n": 2, "rows": [["1/0", 0], [0, 1]]}',
        "negative": '{"n": 2, "rows": [["-1/2", "3/2"], [0, 1]]}',
        "negative-decimal": '{"n": 2, "rows": [[0, 1], [-0.5, 1.5]]}',
        "sum": '{"n": 2, "rows": [[0, 1], ["1/2", "1/3"]]}',
        "sum-decimal": '{"n": 2, "rows": [[0.5, 0.6], [0, 1]]}',
        "sum-int": '{"n": 2, "rows": [[1, 1], [0, 1]]}',
        "sum-zero": '{"n": 2, "rows": [[0, "0/3"], [0, 1]]}',
        "token-before-sum": '{"n": 2, "rows": [["1/2", "1/3"], [0, "y"]]}',
        "negative-before-sum": '{"n": 2, "rows": [["-1", "1/2"], [0, 1]]}',
        "labels-duplicate": '{"n": 2, "labels": ["x", "x"], "rows": [[0, 1], [1, 0]]}',
        "labels-count": '{"n": 2, "labels": ["x"], "rows": [[0, 1], [1, 0]]}',
        "size": '{"n": 2, "rows": [[0, 1], [1, 0]]}',
        "odd-tokens": '{"n": 3, "rows": [[" 1/2 ", "+1/4", "0.25"], ["2/4", 0.5, "-0"], ["1e-1", 9e-1, "0/7"]]}',
    }
    p = "a b\nb a\nc c\n"
    for k, text in matrices.items():
        cases.append((f"in-matrix-{k}-p", {"m.json": text}, ["classify", "--matrix", "m.json"]))
        cases.append((f"in-matrix-{k}-q", {"p.edges": p, "q.json": text},
                      ["rank", "--graph", "p.edges", "--q", "matrix=q.json"]))
    cases.append(("in-matrix-odd-tokens-q-float", {"p.edges": p, "q.json": matrices["odd-tokens"]},
                  ["rank", "--graph", "p.edges", "--q", "matrix=q.json", "--numeric", "float"]))
    blocks = {
        "empty": "",
        "m-word": "x\n",
        "m-two": "2 3\n",
        "m-frac": "1/2\n1\n",
        "rows-missing": "2\n1/4 1/2\n",
        "row-width": "2\n1/4\n0 1\n",
        "number": "2\n1/4 x\n0 1\n",
        "zero-den": "2\n1/4 1/0\n0 1\n",
        "m-mismatch": "3\n0 0 1\n0 0 1\n1/2 0 0\n",
        "negative": "2\n1/3 1/3\n-1/2 2\n",
        "sum": "2\n1/3 1/3\n1/2 1/2\n",
        "sum-int": "2\n1 1\n0 1\n",
        "sum-decimal": "# gamma\n2\n\n0.3 0.5 # row 0\n0 1.0\n",
        "sum-before-negative": "2\n1 1\n-1 3\n",
        "odd-tokens": "# m\n 2 # classes\n+1/4 .5\n0 1_0/10\n",
    }
    for k, text in blocks.items():
        cases.append((f"in-block-{k}", {"p.edges": p, "b.txt": text},
                      ["rank", "--graph", "p.edges", "--q", "block=b.txt"]))
    cases.append(("in-block-transient", {"p.edges": "a a\nb b\nt a\n", "b.txt": "2\n1/2 0\n0 1\n"},
                  ["rank", "--graph", "p.edges", "--q", "block=b.txt"]))
    for k, text in {"fields": "a 1 2\n", "index-range": "7 1\n"}.items():
        cases.append((f"in-personalized-{k}", {"p.edges": p, "nu.txt": text},
                      ["rank", "--graph", "p.edges", "--q", "personalized=nu.txt"]))
    bt, pairwise = ["bt", "--graph", "p.edges", "--weights", "w.txt"], ["pairwise", "--weights", "w.txt"]
    models = {  # name: (model argv, weights file or None)
        "bt-fields": (bt, "a 1\nb\n"),
        "bt-unknown": (bt, "a 1\nz 1\n"),
        "pairwise-fields": (pairwise, "a b 1\nb a\n"),
        "pairwise-unknown": ([*pairwise, "--graph", "p.edges"], "a b 1\nb z 1\n"),
        "pairwise-empty": (pairwise, "# no comparisons\n"),
        "srw-no-graph": (["srw"], None),
        "bt-no-weights": (bt[:3], None),
        "pairwise-no-weights": (["pairwise", "--graph", "p.edges"], None),
        "pairwise-graph": ([*pairwise, "--graph", "p.edges"], "a b 1\nb a 2\n"),  # c has no comparison
    }
    for k, (args, text) in models.items():
        files = {"p.edges": p} if text is None else {"p.edges": p, "w.txt": text}
        cases.append((f"in-model-{k}", files, ["model", *args]))
    return cases


def _cases():
    """(name, files, input args): files maps file name to text; P is p.json
    or, in the --graph cases, p.edges."""
    matrix_q = ["--matrix", "p.json", "--q", "matrix=q.json"]
    cases = [
        # Q leaves a class only through a transient state that P sends back
        ("repro-unichain", {"p.json": _matrix_json([[1, 0, 0], [0, 1, 0], [1, 0, 0]]),
                            "q.json": _matrix_json([[0, 0, 1], [1, 0, 0], [0, 1, 0]])}, matrix_q),
        # the same with two transient routes: the reduced chain has two closed classes
        ("repro-two-closed", {"p.json": _matrix_json([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]),
                              "q.json": _matrix_json([[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]])},
         matrix_q),
    ]
    rng = rng_for("pinned-outputs")
    q_kinds = ("uniform", "personalized", "block", "matrix", "shared", "sparse")
    for i in range(60):
        n_target = 1 + i % 14
        t = 0 if i % 3 == 0 or n_target < 3 else rng.randint(1, min(3, n_target - 2))
        kind = q_kinds[i % len(q_kinds)]
        if n_target == 1:
            p = RowStochasticMatrix(StateSpace(1), ((Fraction(1),),))
            sizes = [1]
        elif i % 7 == 6:
            p = rand_stochastic(rng, n_target)  # any support
            sizes = None
        else:
            sizes = rand_sizes(rng, rng.randint(1, 3), hi=6, total_cap=n_target - t)
            p = rand_with_transients(rng, sizes, t) if t else rand_reducible_no_transient(rng, sizes)
        n = p.n
        files = {"p.json": _matrix_json([p.row(i) for i in range(n)])}
        if kind == "uniform":
            spec = "uniform"
        elif kind == "personalized":
            nu = list(rand_personalization(rng, n))
            for x in rng.sample(range(n), rng.randint(0, n - 1)):
                nu[x] = 0  # sparse: some classes may get no mass
            files["nu.txt"] = "".join(f"{x} {v}\n" for x, v in enumerate(nu))
            spec = "personalized=nu.txt"
        elif kind == "block" and sizes is not None:
            _, gamma = rand_block_q(rng, sizes)  # exit 3 when P has transients
            files["b.txt"] = f"{len(sizes)}\n" + "".join(" ".join(str(g) for g in row) + "\n" for row in gamma)
            spec = "block=b.txt"
        else:
            if kind == "shared":
                q = _shared_q(rng, n)
            elif kind == "sparse":
                q = rand_stochastic(rng, n)  # the union with P may be disconnected
            else:
                q = rand_irreducible(rng, n)
            files["q.json"] = _matrix_json([q.row(i) for i in range(n)])
            spec = "matrix=q.json"
        cases.append((f"c{i:02d}-n{n}-{kind}", files, ["--matrix", "p.json", "--q", spec]))
    return (cases + _graph_cases(rng_for("pinned-graph-outputs")) + _bench_cases(rng_for("pinned-bench-sweeps"))
            + _wide_cases(rng_for("pinned-wide-outputs")) + _input_cases())


def _argv(full_command, name, args, n):
    if (full_command == INPUT_COMMAND) != name.startswith("in-"):
        return None
    if full_command == INPUT_COMMAND:
        return args
    if full_command in FORMAT_COMMANDS:
        if not (name.startswith("bench") or name in FORMAT_CASES) or "--eps" in args:
            return None
        command, _, fmt = full_command.rpartition("-")
        return ["rank", *args, "--numeric", "float" if "-float" in command else "exact", "--format", fmt]
    command, floating, _ = full_command.partition("-float")
    if full_command not in (BENCH_COMMANDS if name.startswith("bench") else
                            WIDE_COMMANDS if name.startswith("big-") else
                            GRAPH_COMMANDS if args[0] == "--graph" else COMMANDS):
        return None
    if "--eps" in args and full_command != "sweep-float":
        return None
    base = [*args, "--numeric", "float" if floating else "exact"]
    if command == "sweep":
        return ["sweep", *base, "--format", "json"]
    if command in ("oracle", "adjudicate") and n > ORACLE_MAX_N and not floating:
        return None
    return [command, *base]


def _n_states(files):
    """The number of states of a case: the matrix's n, or the node lines of the edge list."""
    if "p.json" in files:
        return json.loads(files["p.json"])["n"]
    return sum(1 for line in files["p.edges"].splitlines() if len(line.split()) == 1)


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest(), code


def compute_digests(workdir, commands=COMMANDS):
    """{case/command: digest} for every case, run in workdir."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, files, args in _cases():
            for fname, text in files.items():
                Path(fname).write_text(text)
            n = None if name.startswith("in-") else _n_states(files)
            for command in commands:
                argv = _argv(command, name, args, n)
                if argv is not None:
                    out[f"{name}/{command}"] = _digest(argv)[0]
            for fname in files:
                os.remove(fname)
    finally:
        os.chdir(cwd)
    return out


@pytest.mark.parametrize("command", COMMANDS)
def test_pinned_outputs(command, tmp_path):
    pinned = {k: v for k, v in json.loads(FIXTURE.read_text()).items() if k.endswith("/" + command)}
    got = compute_digests(tmp_path, (command,))
    assert set(got) == set(pinned)
    changed = sorted(k for k in pinned if got[k] != pinned[k])
    assert not changed, changed


def rewrite(commands, workdir):
    """Recompute the digests of commands in the fixture, leaving every other
    command's as pinned. Returns the keys that changed, appeared or went."""
    pinned = json.loads(FIXTURE.read_text())
    ours = {k for k in pinned if k.rpartition("/")[2] in commands}
    got = compute_digests(workdir, commands)
    digests = {k: v for k, v in pinned.items() if k not in ours} | got
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return sorted(k for k in ours | set(got) if pinned.get(k) != got.get(k))


def test_rewrite_touches_only_its_command(tmp_path, monkeypatch):
    pinned = json.loads(FIXTURE.read_text())
    edited = dict(pinned)
    ours, other = "in-edges-empty/" + INPUT_COMMAND, "repro-unichain/rank"
    edited[ours] = edited[other] = "0" * 64
    edited["gone/" + INPUT_COMMAND] = "0" * 64
    fixture = tmp_path / "pinned.json"
    fixture.write_text(json.dumps(edited))
    monkeypatch.setattr(sys.modules[__name__], "FIXTURE", fixture)
    workdir = tmp_path / "work"
    workdir.mkdir()
    assert rewrite((INPUT_COMMAND,), workdir) == ["gone/" + INPUT_COMMAND, ours]
    assert json.loads(fixture.read_text()) == pinned | {other: "0" * 64}


if __name__ == "__main__":
    import tempfile

    commands = sys.argv[2:]
    if sys.argv[1:2] != ["--write"] or not commands or not set(commands) <= set(COMMANDS):
        sys.exit(f"usage: test_pinned_outputs.py --write COMMAND [COMMAND ...]; commands: {' '.join(COMMANDS)}")
    with tempfile.TemporaryDirectory() as d:
        changed = rewrite(tuple(commands), d)
    for key in changed:
        print(key)
    print(f"{len(changed)} digests of {', '.join(commands)} changed in {FIXTURE}")
