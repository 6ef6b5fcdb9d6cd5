"""Exact CLI output pinned by digest on seeded random chains.

Each case writes P (and Q's file, if any) into a fresh directory and runs
one command through `znrank.cli.main`; the sha256 of its exit code, stdout
and stderr must equal the digest in `fixtures/pinned_outputs.json`. The
commands are exact `rank`, `sweep --numeric exact`, `oracle --q` and
`adjudicate`, so a change that moves any exact answer, message or exit code
shows here. After a deliberate change of output, regenerate the fixture
with

    PYTHONPATH=src python tests/test_pinned_outputs.py --write

and list the changed digests in CHANGES.md.

The same cases are also pinned in floating point: `rank`, `sweep --format
json` on the default grid and `adjudicate` with `--numeric float`, under the
command names `rank-float`, `sweep-float` and `adjudicate-float`.
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
from znrank.graph import RowStochasticMatrix, StateSpace  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "pinned_outputs.json"
COMMANDS = ("rank", "sweep", "oracle", "adjudicate", "rank-float", "sweep-float", "adjudicate-float")
ORACLE_MAX_N = 10  # the polynomial oracle and adjudicate's exact verdicts stop here


def _matrix_json(rows):
    return json.dumps({"n": len(rows), "rows": [[str(Fraction(x)) for x in r] for r in rows]})


def _shared_q(rng, n):
    """General Q with some rows shared by several states."""
    pool = [rand_irreducible(rng, n).rows[0] for _ in range(max(1, n // 3))]
    own = rand_irreducible(rng, n).rows
    return RowStochasticMatrix(StateSpace(n), tuple(rng.choice(pool) if rng.random() < 0.6 else own[x]
                                                  for x in range(n)))


def _cases():
    """(name, files, q spec): files maps file name to text; p.json is P."""
    cases = [
        # Q leaves a class only through a transient state that P sends back
        ("repro-unichain", {"p.json": _matrix_json([[1, 0, 0], [0, 1, 0], [1, 0, 0]]),
                            "q.json": _matrix_json([[0, 0, 1], [1, 0, 0], [0, 1, 0]])}, "matrix=q.json"),
        # the same with two transient routes: the reduced chain has two closed classes
        ("repro-two-closed", {"p.json": _matrix_json([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]),
                              "q.json": _matrix_json([[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]])},
         "matrix=q.json"),
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
        cases.append((f"c{i:02d}-n{n}-{kind}", files, spec))
    return cases


def _argv(command, spec, n):
    command, floating, _ = command.partition("-float")
    base = ["--matrix", "p.json", "--numeric", "float" if floating else "exact", "--q", spec]
    if command == "sweep":
        return ["sweep", *base, "--format", "json"]
    if command in ("oracle", "adjudicate") and n > ORACLE_MAX_N and not floating:
        return None
    return [command, *base]


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
        for name, files, spec in _cases():
            for fname, text in files.items():
                Path(fname).write_text(text)
            n = json.loads(files["p.json"])["n"]
            for command in commands:
                argv = _argv(command, spec, n)
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


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pinned_outputs.py --write")
    with tempfile.TemporaryDirectory() as d:
        digests = compute_digests(d)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {FIXTURE}")
