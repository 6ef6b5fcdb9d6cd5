import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import znrank.cli
import znrank.errors
from znrank.cli import UsageError, canonical_dumps, main
from znrank.errors import InputFormatError, ZnrankError
from helpers import fractions_built, rand_web_edges, rng_for

TWO_CLASS = "a b\nb a\nc c\n"
TRANSIENT = "a a\nb b\nt a 1/2\nt b 1/4\nt t 1/4\n"
K3 = "a b\nb a\na c\nc a\nb c\nc b\n"
BLOCKS = "2\n1/3 1/3\n1/2 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def wpath(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


ERROR_CLASSES = sorted((c for c in vars(znrank.errors).values() if isinstance(c, type) and issubclass(c, ZnrankError)),
                       key=lambda c: c.__name__)


@pytest.mark.parametrize("exc", [*ERROR_CLASSES, ValueError, OSError, UsageError], ids=lambda c: c.__name__)
def test_exit_code_follows_the_exception_class(capsys, monkeypatch, exc):
    # a usage error exits 1; malformed input, an unreadable file or a refused
    # value 2; every other znrank error is a failed precondition, 3
    def refused(args):
        raise exc("refused")

    monkeypatch.setattr(znrank.cli, "load_p", refused)
    code, prefix = {UsageError: (1, "usage error"), InputFormatError: (2, "data error"), OSError: (2, "data error"),
                    ValueError: (2, "data error")}.get(exc, (3, "precondition failed"))
    assert run(capsys, "classify", "--graph", "p.edges") == (code, "", f"{prefix}: refused\n")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "znrank 0.1.0"


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 1


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    import znrank.cli

    built = []
    init = znrank.cli.Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(znrank.cli.Parser, "__init__", counted)
    znrank.cli.build_parser.cache_clear()
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    assert run(capsys, "classify", "--graph", g)[0] == 0
    assert built.count("znrank") == 1
    n_built = len(built)
    code, _, err = run(capsys, "rank", "--graph", g)  # --q missing
    assert code == 1 and "usage error" in err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "znrank 0.1.0"
    assert len(built) == n_built  # no parser, top-level or sub, built after the first call


def test_canonical_dumps_is_indented_json():
    values = [
        {}, [], (), "top", 3, None, 1e300, {"a": [], "b": {}, "c": ()}, [[], [{}], [[[]]]],
        [1, [2.5, [True, [None, False, "x"]]], {"k": {"l": [0, -0.0]}}],
        {"nan": float("nan"), "inf": [float("inf"), float("-inf")], "tiny": [5e-324, 1e-320]},
        {"s": 'h\u00e9llo \u2603\n\t"q"\\', "u": ["\u65e5\u672c", "\x00\u2028", "\U0001f600"], "\u00e9": 1},
        {1: "int key", None: [1], True: {"k": 2.5}, 2.5: [], "s": {3: None}},
        {"t": (1, (2.0, "3")), "mixed": [1, [2], {"a": 3}, "4"]},
        {"eps": [0.1, 0.01], "pi": [[0.25, 0.75], [0.5, 0.5]], "report": {"slope": 1.0, "ok": True}},
    ]
    for obj in values:
        assert canonical_dumps(obj) == json.dumps(obj, indent=2) + "\n"


def test_classify_json(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "classify", "--graph", g)
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "n": 3,
        "labels": ["a", "b", "c"],
        "classes": [[0, 1], [2]],
        "transient": [],
        "m": 2,
    }
    assert out.endswith("\n")


def test_classify_pretty(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TRANSIENT)
    code, out, _ = run(capsys, "classify", "--graph", g, "--format", "pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n = 3, closed classes: 2, transient states: 1"
    assert lines[1] == "  C1 = {a}"
    assert lines[3] == "  transient = {t}"


def test_classify_matrix_input(tmp_path, capsys):
    m = wpath(
        tmp_path,
        "m.json",
        json.dumps({"n": 2, "labels": ["u", "v"], "rows": [["0", "1"], ["1", "0"]]}),
    )
    code, out, _ = run(capsys, "classify", "--matrix", m)
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 1 and obj["labels"] == ["u", "v"]


def test_matrix_header_is_checked(tmp_path, capsys):
    # labels that are not a list of n strings crashed with a traceback or
    # printed as non-strings, and "n": true was read as n = 1
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    labels = '"labels" must be a list of n strings'
    for header, message in (({"labels": 5}, labels), ({"labels": [[1]]}, labels), ({"labels": [None]}, labels),
                            ({"labels": [1]}, labels), ({"n": True}, '"n" must be a positive integer')):
        m = wpath(tmp_path, "m.json", json.dumps({"n": 1, "rows": [[1]], **header}))
        assert run(capsys, "classify", "--matrix", m) == (2, "", f"data error: {message}\n"), header
        assert run(capsys, "rank", "--graph", g, "--q", f"matrix={m}") == (2, "", f"data error: {message}\n")


@pytest.mark.parametrize("numeric", ["exact", "float"])
@pytest.mark.parametrize("source", ["--graph", "--matrix"])
def test_every_q_comes_back_in_the_mode_of_p(tmp_path, source, numeric):
    # so no command hands the library an exact/float mix, which it refuses
    from znrank.cli import build_parser, load_p, load_q

    chain = {"--graph": ("p.txt", TWO_CLASS),
             "--matrix": ("p.json", json.dumps({"n": 3, "rows": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}))}[source]
    p = load_p(build_parser().parse_args(["rank", source, wpath(tmp_path, *chain), "--q", "uniform",
                                          "--numeric", numeric]))
    q_rows = [["0", "1/2", "1/2"], [1, 0, 0], ["1/3", "1/3", "1/3"]]
    specs = ("uniform", "personalized=" + wpath(tmp_path, "nu.txt", "0 1\n2 2\n"),
             "block=" + wpath(tmp_path, "b.txt", BLOCKS),
             "matrix=" + wpath(tmp_path, "q.json", json.dumps({"n": 3, "rows": q_rows})))
    for spec in specs:
        assert (p.numeric_mode, load_q(spec, p).numeric_mode) == (numeric, numeric), spec


def test_graph_and_matrix_together_is_usage_error(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, _, err = run(capsys, "classify", "--graph", g, "--matrix", g)
    assert code == 1
    assert "usage error" in err


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "classify", "--graph", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "data error" in err


def test_bad_edge_line_reports_line_number(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", "a b\nb a x y\n")
    code, _, err = run(capsys, "classify", "--graph", g)
    assert code == 2
    assert "line 2" in err


def test_rank_requires_q(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, _, err = run(capsys, "rank", "--graph", g)
    assert code == 1


def test_rank_uniform_json(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", "uniform")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "theorem3"
    assert obj["node_limit"] == ["1/3", "1/3", "1/3"]
    assert obj["class_masses"] == ["2/3", "1/3"]
    assert obj["gamma"] == [["2/3", "1/3"], ["2/3", "1/3"]]


def test_rank_block_q(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    b = wpath(tmp_path, "b.txt", BLOCKS)
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", f"block={b}")
    assert code == 0
    obj = json.loads(out)
    assert obj["node_limit"] == ["3/8", "3/8", "1/4"]
    assert obj["class_masses"] == ["3/4", "1/4"]


def test_block_q_shares_one_row_per_class(tmp_path):
    from znrank.cli import parse_block_q
    from znrank.graph import parse_edge_list, to_stochastic

    p = to_stochastic(parse_edge_list(TWO_CLASS))
    q = parse_block_q(BLOCKS, p)
    assert q.rows[0] is q.rows[1]
    assert q.row(0) == (F(1, 3), F(1, 3), F(1, 3))
    assert q.row(2) == (F(1, 2), F(1, 2), F(0))


def test_rank_personalized_q(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    nu = wpath(tmp_path, "nu.txt", "a 1\nb 1\nc 2\n")
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", f"personalized={nu}")
    assert code == 0
    obj = json.loads(out)
    assert obj["class_masses"] == ["1/2", "1/2"]
    assert obj["node_limit"] == ["1/4", "1/4", "1/2"]


def test_rank_general_q_weights_members_by_class_law(tmp_path, capsys):
    # Q is not constant on the class {0, 1}, whose stationary law is (1/3, 2/3)
    pm = wpath(tmp_path, "p.json", json.dumps({"n": 3, "rows": [[0, 1, 0], ["1/2", "1/2", 0], [0, 0, 1]]}))
    qm = wpath(tmp_path, "q.json", json.dumps({"n": 3, "rows": [[0, 0, 1], [1, 0, 0], [1, 0, 0]]}))
    code, out, _ = run(capsys, "rank", "--matrix", pm, "--q", f"matrix={qm}", "--format", "tsv")
    assert code == 0
    assert out == "0\t1/4\n1\t1/2\n2\t1/4\n"
    code, out, _ = run(capsys, "adjudicate", "--matrix", pm, "--q", f"matrix={qm}")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle"] == ["1/4", "1/2", "1/4"]
    assert obj["methods"]["theorem3"]["verdict"] == "exact"


def test_rank_answers_a_unichain_reduced_chain(tmp_path, capsys):
    # Q leaves {a} only through t, which P sends back: Gamma has the closed
    # class {C1} and the transient class {C2}, which gets mass 0
    g = wpath(tmp_path, "g.txt", "a a\nb b\nt a\n")
    qm = wpath(tmp_path, "q.json", json.dumps({"n": 3, "rows": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}))
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", f"matrix={qm}", "--format", "tsv")
    assert code == 0
    assert out == "a\t1/1\nb\t0/1\nt\t0/1\n"
    code, out, _ = run(capsys, "oracle", "--graph", g, "--q", f"matrix={qm}")
    assert json.loads(out)["exact_limit"] == ["1/1", "0/1", "0/1"]


def test_rank_refuses_a_reduced_chain_with_two_closed_classes(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", "a a\nb b\nt a\ns b\n")
    qm = wpath(tmp_path, "q.json", json.dumps(
        {"n": 4, "rows": [[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]]}))
    code, _, err = run(capsys, "rank", "--graph", g, "--q", f"matrix={qm}")
    assert code == 3
    assert "more than one closed class" in err and "oracle --q" in err
    assert "adjudicate" not in err
    code, out, _ = run(capsys, "oracle", "--graph", g, "--q", f"matrix={qm}")
    assert json.loads(out)["exact_limit"] == ["1/2", "1/2", "0/1", "0/1"]
    # with Q the identity the union support itself has two closed classes:
    # rank refuses as oracle --q does, and names no route
    g = wpath(tmp_path, "g2.txt", "a a\nb b\n")
    qm = wpath(tmp_path, "q2.json", json.dumps({"n": 2, "rows": [[1, 0], [0, 1]]}))
    union = "precondition failed: the union support of P and Q has more than one closed class\n"
    for command in ("rank", "oracle"):
        assert run(capsys, command, "--graph", g, "--q", f"matrix={qm}")[::2] == (3, union)


def test_rank_matrix_q_size_mismatch(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    qm = wpath(tmp_path, "q.json", json.dumps({"n": 2, "rows": [["0", "1"], ["1", "0"]]}))
    code, _, err = run(capsys, "rank", "--graph", g, "--q", f"matrix={qm}")
    assert code == 2
    assert "3 states" in err


def test_matrix_q_is_checked_once_with_the_chains_states(tmp_path, capsys, monkeypatch):
    # Q from matrix JSON is built and checked once, with P's states in place
    # of its own; a size mismatch keeps its message, after Q's own row checks
    from znrank.cli import load_q
    from znrank.graph import RowStochasticMatrix, parse_edge_list, to_stochastic

    p = to_stochastic(parse_edge_list(K3))
    rows = [["0", "1/2", "1/2"], ["1", "0", "0"], ["1/3", "1/3", "1/3"]]
    qm = wpath(tmp_path, "q.json", json.dumps({"n": 3, "labels": ["x", "y", "z"], "rows": rows}))
    init = RowStochasticMatrix.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RowStochasticMatrix, "__init__", counted)
    q = load_q(f"matrix={qm}", p)
    monkeypatch.undo()
    assert len(calls) == 1 and q.states is p.states
    assert q == RowStochasticMatrix(p.states, tuple(tuple(F(x) for x in row) for row in rows))
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    for q_rows, message in (([["0", "1"], ["1", "0"]], "Q is 2 x 2 but the chain has 3 states"),
                            ([["1/2", "1"], ["1", "0"]], "row 0 sums to 3/2, not 1")):
        qm = wpath(tmp_path, "q.json", json.dumps({"n": 2, "rows": q_rows}))
        assert run(capsys, "rank", "--graph", g, "--q", f"matrix={qm}") == (2, "", f"data error: {message}\n")


def _chain_48(rng, degree, n_transient):
    """Edge list of 48 states: closed classes (24, 16, 8), or (20, 14, 8)
    with n_transient transient states, each state with a cycle edge and
    degree more edges (transient ones anywhere, but one into a closed
    state), integer weights 1 to 9."""
    sizes = (24, 16, 8) if not n_transient else (20, 14, 8)
    lines, at = [f"s{x}" for x in range(48)], 0
    for size in sizes:
        cls = list(range(at, at + size))
        for i, u in enumerate(cls):
            for v in {cls[(i + 1) % size], *rng.sample(cls, min(degree, size))}:
                lines.append(f"s{u} s{v} {rng.randint(1, 9)}")
        at += size
    for t in range(at, 48):
        for v in {rng.randrange(at), *rng.sample([x for x in range(48) if x != t], degree)}:
            lines.append(f"s{t} s{v} {rng.randint(1, 9)}")
    return "\n".join(lines) + "\n"


def test_exact_rank_builds_no_fraction_per_entry(tmp_path, capsys, monkeypatch):
    # P and Q are stored as integer rows from the edge list and masses, the
    # laws, Gamma and the limit as integers over one denominator, and the
    # report is formatted from those integers, so a uniform or personalized
    # rank job builds no Fraction. Fraction laws, limit and output made 122
    # to 128; a Fraction per entry of P and Q made 366 to 437 at 3 edges per
    # state and 627 to 690 at 9
    import znrank.zero_noise  # noqa: F401  (imported by the first rank call)

    rng = rng_for("rank-fraction-count")
    nu = wpath(tmp_path, "nu.txt", "".join(f"s{x} {rng.randint(1, 9)}\n" for x in range(48)))
    for n_transient in (0, 6):
        built = {}
        for degree in (3, 9):
            g = wpath(tmp_path, "g.txt", _chain_48(rng, degree, n_transient))
            for spec in ("uniform", f"personalized={nu}"):
                argv = ["rank", "--graph", g, "--numeric", "exact", "--q", spec]
                code, made = fractions_built(monkeypatch, main, argv)
                assert code == 0 and json.loads(capsys.readouterr().out)["mode"] != "theorem2"
                built[degree, spec] = made
        assert set(built.values()) == {0}, built


def test_uniform_rank_on_a_web_like_graph_takes_the_one_row_route(tmp_path, capsys, monkeypatch):
    # 400 pages, 103 closed classes and 294 transient states: uniform Q is
    # one shared row, so rank reads the class masses off its routed row,
    # with no law of Gamma, and tsv formats no report. Equal rows held as
    # separate objects take the general route, which solves Gamma once and
    # prints the same bytes. Both route every class's mass over one
    # absorbing elimination of P, and neither builds the absorption table.
    import znrank.cli
    import znrank.graph
    import znrank.stationary
    import znrank.zero_noise

    calls = []
    for module, name in ((znrank.zero_noise, "_absorbing_reduction"), (znrank.zero_noise, "unichain_law"),
                         (znrank.stationary, "absorption_probabilities")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(znrank.zero_noise, "report_to_json", None)  # tsv must not call it
    g = wpath(tmp_path, "web.txt", rand_web_edges(rng_for(0), 400))
    argv = ["rank", "--graph", g, "--numeric", "exact", "--q", "uniform", "--format", "tsv"]
    code, one_row, _ = run(capsys, *argv)
    assert code == 0 and calls == ["_absorbing_reduction"]

    def separate_rows(n, states, mode):
        return znrank.graph.RowStochasticMatrix(states, tuple(dict.fromkeys(range(n), 1) for _ in range(n)), mode,
                                                (n,) * n)

    monkeypatch.setattr(znrank.cli, "uniform_matrix", separate_rows)
    calls.clear()
    code, general, _ = run(capsys, *argv)
    assert code == 0 and calls == ["_absorbing_reduction", "unichain_law"]
    assert one_row == general and one_row.count("\n") == 400 and "0/1" in one_row


def test_exact_sweep_builds_a_fraction_per_eps_and_first_order_entry(tmp_path, capsys, monkeypatch):
    # the errors, the first-order quotient and the printed laws come from the
    # laws' integers: one Fraction per eps for eps itself and one for its
    # error, three for the gap of the two smallest and one per entry of the
    # first-order estimate. Reading every law's values and subtracting them
    # made 627 to 630 at 48 states
    import znrank.sweep  # noqa: F401  (imported by the first sweep call)
    import znrank.zero_noise  # noqa: F401

    rng = rng_for("sweep-fraction-count")
    nu = wpath(tmp_path, "nu.txt", "".join(f"s{x} {rng.randint(1, 9)}\n" for x in range(48)))
    for n_transient in (0, 6):
        g = wpath(tmp_path, "g.txt", _chain_48(rng, 3, n_transient))
        for spec in ("uniform", f"personalized={nu}"):
            argv = ["sweep", "--graph", g, "--numeric", "exact", "--q", spec, "--format", "json"]
            code, made = fractions_built(monkeypatch, main, argv)
            out = json.loads(capsys.readouterr().out)
            assert code == 0 and len(out["pi"]) == 3 and len(out["first_order"]) == 48
            assert made <= 48 + 2 * 3 + 3, (spec, made)


def test_rank_refuses_non_finite_matrix_entries(tmp_path, capsys):
    # a data error, exit 2: an exact Infinity ended in an OverflowError
    # traceback, with the exit code of a usage error
    for token, shown in (("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan")):
        m = wpath(tmp_path, "m.json", f'{{"n": 2, "rows": [[{token}, 1], [0, 1]]}}')
        for numeric in ("exact", "float"):
            assert run(capsys, "rank", "--matrix", m, "--numeric", numeric, "--q", "uniform") == (
                2, "", f"data error: expected a finite number, got {shown}\n")


def test_rank_bad_q_spec(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, _, err = run(capsys, "rank", "--graph", g, "--q", "bogus")
    assert code == 1


def test_rank_theorem3_rejects_transients(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TRANSIENT)
    code, _, err = run(capsys, "rank", "--graph", g, "--q", "uniform", "--mode", "theorem3")
    assert code == 3
    assert "precondition failed" in err and "--mode extended" in err


def test_rank_auto_uses_extended_with_transients(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TRANSIENT)
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", "uniform")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "extended"
    assert obj["node_limit"] == ["5/9", "4/9", "0/1"]
    assert obj["transient"] == [2]


def test_rank_tsv(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    b = wpath(tmp_path, "b.txt", BLOCKS)
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", f"block={b}", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["a\t3/8", "b\t3/8", "c\t1/4"]


def test_rank_pretty_theorem2_banner(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", "uniform",
                       "--mode", "theorem2", "--format", "pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PREDICTION")
    assert "mode: theorem2" in lines
    assert "a\t1/4" in lines and "c\t1/2" in lines


def test_rank_float_mode(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", "uniform", "--numeric", "float")
    assert code == 0
    obj = json.loads(out)
    assert obj["node_limit"] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_rank_float_keeps_entries_below_1e_15(tmp_path, capsys):
    # {a, b} leaks to c, and {a, b, c} to d, with weight 1 against 10^30 + 1:
    # entries near 1e-30 still count, so d alone is closed in float mode too
    w = 10**30 + 1
    g = wpath(tmp_path, "g.txt", f"a b {w}\na c\nb a\nc a {w}\nc d\nd d\n")
    for numeric in ("exact", "float"):
        code, out, _ = run(capsys, "rank", "--graph", g, "--q", "uniform", "--numeric", numeric)
        assert code == 0
        obj = json.loads(out)
        assert (obj["classes"], obj["transient"]) == ([[3]], [0, 1, 2])
        assert [F(x) for x in obj["node_limit"]] == [0, 0, 0, 1]


def test_adjudicate_float_oracle_sees_entries_far_below_eps(tmp_path, capsys):
    # the chain above: extrapolating from eps = 1e-5 and 1e-6 gave the oracle
    # 0.375 0.375 5.3e-23 0.25 and called the right limit discrepant; the
    # leading-order limit gives d all the mass
    w = 10**30 + 1
    g = wpath(tmp_path, "g.txt", f"a b {w}\na c\nb a\nc a {w}\nc d\nd d\n")
    code, out, _ = run(capsys, "adjudicate", "--graph", g, "--q", "uniform", "--numeric", "float")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle_mode"] == "leading-order"
    assert obj["oracle"] == [0.0, 0.0, 0.0, 1.0]
    assert obj["methods"]["extended"] == {"values": [0.0, 0.0, 0.0, 1.0], "max_deviation": 0.0, "verdict": "pass"}


def test_sweep_exact_tsv(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "sweep", "--graph", g, "--q", "uniform")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# eps\tpi0\tpi1\tpi2\tlinf_error"
    assert lines[1] == "1/10\t1/3\t1/3\t1/3\t0/1"
    assert len(lines) == 4


def test_sweep_custom_grid(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--eps", "1/5,1/7")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("1/5\t")
    assert lines[2].startswith("1/7\t")


def test_sweep_bad_eps_values(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, _, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--eps", "2,0.5")
    assert code == 1
    assert "bad --eps" in err


def test_sweep_eps_must_decrease(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, _, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--eps", "0.5,0.5")
    assert code == 1
    assert "bad --eps" in err


@pytest.mark.parametrize("eps", ["1/10"])
def test_sweep_one_eps_has_no_first_order(tmp_path, capsys, eps):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--eps", eps, "--format", "json")
    assert code == 0, err
    obj = json.loads(out)
    assert len(obj["eps"]) == 1 and len(obj["pi"]) == 1
    assert obj["first_order"] is None


def test_sweep_short_eps_range_keeps_both_ends(tmp_path, capsys):
    # half a decade is one step: 0.4 is kept, not rounded away
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    for numeric, eps in (("exact", ["1/2", "2/5"]), ("float", [0.5, 0.4])):
        code, out, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--numeric", numeric,
                             "--eps", "0.5..0.4", "--format", "json")
        assert code == 0, err
        obj = json.loads(out)
        assert obj["eps"] == eps and len(obj["pi"]) == 2
        assert obj["first_order"] is not None


def test_sweep_exact_eps_range_runs_exact_laws(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TRANSIENT)
    code, out, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--numeric", "exact",
                         "--eps", "1e-1..1e-14", "--format", "json")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["eps"] == [f"1/{10**k}" for k in range(1, 15)]
    assert all(isinstance(x, str) for row in obj["pi"] for x in row)
    assert obj["report"]["verdict"] == "pass"
    code, _, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--numeric", "exact", "--eps", "0.5..0.01")
    assert code == 1
    assert "bad --eps" in err and "comma list" in err


def test_sweep_float_json(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TRANSIENT)
    code, out, _ = run(capsys, "sweep", "--graph", g, "--q", "uniform",
                       "--numeric", "float", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["eps"]) == 6
    assert obj["predicted_limit"] == pytest.approx([5 / 9, 4 / 9, 0.0])
    assert obj["report"]["verdict"] == "pass"
    assert obj["report"]["slope"] >= 0.8


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_sweep_float_refuses_an_eps_whose_law_overflows(tmp_path, capsys, fmt):
    # c leaves only through the eps leak, so 1 / eps overflows at eps = 1e-310
    g = wpath(tmp_path, "g.txt", "a b\nb a\nc c\n")
    code, out, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--numeric", "float",
                         "--eps", "0.5,1e-310", "--format", fmt)
    assert code == 3
    assert "eps = 1e-310" in err
    assert "nan" not in (out + err).lower()


@pytest.mark.parametrize("eps", ["0.5..5e-324", "1e-1..1e-320"])
def test_sweep_float_eps_range_past_the_float_range_is_a_usage_error(tmp_path, capsys, eps):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--numeric", "float", "--eps", eps)
    assert code == 1 and out == ""
    assert err.startswith("usage error: bad --eps:") and "overflows" in err


def test_sweep_float_down_to_1e14(tmp_path, capsys):
    # three closed classes (6, 4, 2); at eps = 1e-14 the uniform entries
    # eps/12 lie under the float positivity threshold of 1e-15
    g = wpath(tmp_path, "g.txt", "a b 2\nb c\nc d 3\nd e\ne f 2\nf a\nb e\nd a 4\n"
                                 "g h\nh i 2\ni j\nj g 3\nh j\nk l\nl k 2\n")
    code, out, err = run(capsys, "sweep", "--graph", g, "--q", "uniform", "--numeric", "float",
                         "--format", "json", "--eps", "1e-1..1e-14")
    assert code == 0, err
    rep = json.loads(out)["report"]
    assert len(rep["eps"]) == 14
    assert rep["verdict"] == "pass"
    assert 0.99 <= rep["slope"] <= 1.01
    # the error stays first order in eps all the way down
    c = rep["errors"][0] / rep["eps"][0]
    assert all(0.5 * c <= r / e <= 2 * c for r, e in zip(rep["errors"], rep["eps"]))


def test_oracle_without_q(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", K3)
    code, out, _ = run(capsys, "oracle", "--graph", g)
    assert code == 0
    obj = json.loads(out)
    assert obj["numeric"] == "exact"
    assert obj["root_weights"] == ["3/4", "3/4", "3/4"]
    assert "polynomials" not in obj


def test_oracle_float_root_weight_without_arborescence_is_zero(tmp_path, capsys):
    # state 2 is transient, so no arborescence is rooted there; the float
    # weight must be 0.0, not rounding noise
    m = wpath(tmp_path, "m.json", '{"n": 3, "rows": [["2/3","1/3","0"],["1","0","0"],["0","2/3","1/3"]]}')
    code, out, _ = run(capsys, "oracle", "--matrix", m, "--numeric", "exact")
    assert code == 0
    assert json.loads(out)["root_weights"] == ["2/3", "2/9", "0/1"]
    code, out, _ = run(capsys, "oracle", "--matrix", m, "--numeric", "float")
    assert code == 0
    weights = json.loads(out)["root_weights"]
    assert weights[2] == 0.0
    assert weights[:2] == pytest.approx([2 / 3, 2 / 9], rel=1e-15)


def test_seed_option_is_gone(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", K3)
    assert run(capsys, "rank", "--graph", g, "--q", "uniform", "--seed", "1")[0] == 1
    w = wpath(tmp_path, "w.txt", "x y 3\ny x 1\n")
    assert run(capsys, "model", "pairwise", "--weights", w, "--seed", "1")[0] == 1


def test_oracle_and_model_have_no_format_option(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", K3)
    assert run(capsys, "oracle", "--graph", g, "--format", "json")[0] == 1
    assert run(capsys, "model", "srw", "--graph", g, "--format", "json")[0] == 1


def test_oracle_with_q(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "oracle", "--graph", g, "--q", "uniform")
    assert code == 0
    obj = json.loads(out)
    assert obj["min_degree"] == 1
    assert obj["exact_limit"] == ["1/3", "1/3", "1/3"]
    assert len(obj["polynomials"]) == 3


def test_oracle_with_q_builds_each_polynomial_once(tmp_path, capsys, monkeypatch):
    import znrank.arborescence as arb
    import znrank.stationary as st

    passes = []
    searches = []
    enumerated = []
    eliminate, markowitz = st._eliminate, st._markowitz

    def counted(rows, *args):
        passes.append(len(rows))
        return eliminate(rows, *args)

    def searched(*args):
        searches.append(len(args[0]))
        return markowitz(*args)

    monkeypatch.setattr(st, "_eliminate", counted)
    monkeypatch.setattr(st, "_markowitz", searched)
    monkeypatch.setattr(arb, "perturbed_root_polynomial", lambda *a, **k: enumerated.append(a))
    g = wpath(tmp_path, "g.txt", K3)
    code, out, _ = run(capsys, "oracle", "--graph", g, "--q", "uniform")
    assert code == 0
    assert json.loads(out)["exact_limit"] == ["1/3", "1/3", "1/3"]
    # one engine pass at k = 2^B that every root polynomial is read from;
    # P's root weights are their constant terms, with no pass of their own
    assert passes == [3]
    assert searches == [3]
    assert enumerated == []


def test_oracle_with_q_ten_states_matches_rank(tmp_path, capsys):
    # 3 closed classes (sizes 4, 3, 2) and a transient state: far beyond
    # what enumeration finishes in a test, equal to the reduced chain
    edges = "a b\nb c\nc d\nd a\na c 2\ne f\nf g\ng e\nf e 3\nh i\ni h\nt a\nt h 2\nt t\n"
    g = wpath(tmp_path, "g.txt", edges)
    code, out, _ = run(capsys, "oracle", "--graph", g, "--q", "uniform")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 10
    assert obj["min_degree"] == 2
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", "uniform")
    assert code == 0
    assert obj["exact_limit"] == json.loads(out)["node_limit"]


def test_rank_classifies_at_most_three_times(tmp_path, capsys, monkeypatch):
    import znrank.graph

    calls = []
    original = znrank.graph.classify_states

    def counted(p):
        calls.append(p.n)
        return original(p)

    monkeypatch.setattr(znrank.graph, "classify_states", counted)  # where RowStochasticMatrix.partition looks
    g = wpath(tmp_path, "g.txt", "a b\nb a\nc d\nd c\nd e\ne c\nf f\n")
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", "uniform")
    assert code == 0
    assert json.loads(out)["class_masses"] == ["1/3", "1/2", "1/6"]
    assert len(calls) <= 3
    assert calls.count(6) == 1  # the 6-state P once; p.partition keeps it


@pytest.mark.parametrize("argv", [
    ("rank", "--q", "block={b}"),
    ("rank", "--mode", "theorem2", "--q", "uniform"),
    ("adjudicate", "--q", "uniform"),
    ("adjudicate", "--q", "block={b}"),
    ("sweep", "--format", "json", "--q", "block={b}"),
    ("classify",),
    ("sweep", "--numeric", "exact", "--format", "json", "--q", "uniform"),
])
def test_commands_classify_p_once(tmp_path, capsys, monkeypatch, argv):
    import znrank.graph

    calls = []
    original = znrank.graph.classify_states

    def counted(p):
        calls.append(p.n)
        return original(p)

    monkeypatch.setattr(znrank.graph, "classify_states", counted)  # where RowStochasticMatrix.partition looks
    g = wpath(tmp_path, "g.txt", "a b\nb a\nc d\nd c\nd e\ne c\nf f\n")
    b = wpath(tmp_path, "b.txt", "3\n1/6 1/6 1/6\n1/6 1/6 1/6\n1/6 1/6 1/6\n")
    code, out, _ = run(capsys, argv[0], "--graph", g, *(a.format(b=b) for a in argv[1:]))
    assert code == 0 and json.loads(out)
    assert calls.count(6) == 1  # the 6-state P once; p.partition keeps it


@pytest.mark.parametrize("spec", ["uniform", "personalized={nu}"])
def test_float_sweep_reads_its_limit_off_its_plan(tmp_path, capsys, monkeypatch, spec):
    # one plan of the hub chain gives the laws and the predicted limit: no
    # partition of P, class laws or reduced chain
    import znrank.graph
    import znrank.stationary
    import znrank.sweep
    import znrank.zero_noise

    plans = []
    plan = znrank.sweep._plan

    def plan_spy(rows):
        plans.append(len(rows))
        return plan(rows)

    def refused(*args, **kwargs):
        raise AssertionError("a float sweep needs no partition, class law or limit_rank")

    monkeypatch.setattr(znrank.sweep, "_plan", plan_spy)
    for mod, names in ((znrank.graph, ("classify_states",)),
                       (znrank.zero_noise, ("limit_rank",)),
                       (znrank.stationary, ("class_stationary",))):
        for name in names:
            monkeypatch.setattr(mod, name, refused)
    g = wpath(tmp_path, "g.txt", "a b\nb a\nc d\nd c\nd e\ne c\nf f\nt a\nt f\n")
    nu = wpath(tmp_path, "nu.txt", "a 1\nc 2\nt 3\n")
    code, out, err = run(capsys, "sweep", "--graph", g, "--numeric", "float", "--format", "json",
                         "--q", spec.format(nu=nu))
    assert (code, err) == (0, "")
    assert plans == [8]  # 7 states and the one hub of their shared Q row
    limit = json.loads(out)["predicted_limit"]
    assert limit[-1] == 0 and sum(limit) == pytest.approx(1)


def test_commands_store_no_zero_entry(tmp_path, capsys, monkeypatch):
    import znrank.graph

    cls = znrank.graph.RowStochasticMatrix
    init = cls.__init__
    stored = []

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stored.extend(x for row in self.num_rows for x in row.values())

    monkeypatch.setattr(cls, "__init__", recorded)
    g = wpath(tmp_path, "g.txt", "a b\nb a\nc d\nd c\nd e\ne c\nf f\nt a\nt f 0\nz\n")
    m = wpath(tmp_path, "p.json", json.dumps({"n": 3, "rows": [[0, 1, "0"], ["1/2", "0/4", 0.5], [0.0, 0, 1]]}))
    qm = wpath(tmp_path, "q.json", json.dumps({"n": 3, "rows": [[0, "0", 1], [1, 0, 0.0], [0, "1/2", "1/2"]]}))
    b = wpath(tmp_path, "b.txt", "3\n1/6 1/6 1/6\n0 1/3 0\n1/6 1/6 1/6\n")
    for argv in (
        ("rank", "--graph", g, "--q", "uniform"),
        ("sweep", "--graph", g, "--numeric", "float", "--q", "uniform"),
        ("rank", "--graph", g, "--dangling", "uniform_row", "--q", "uniform"),
        ("adjudicate", "--matrix", m, "--q", f"matrix={qm}"),
        ("oracle", "--matrix", m, "--q", f"matrix={qm}"),
        ("sweep", "--matrix", m, "--q", f"matrix={qm}"),
    ):
        assert run(capsys, *argv)[0] == 0, argv
    g2 = wpath(tmp_path, "g2.txt", "a b\nb a\nc d\nd c\nd e\ne c\nf f\n")
    assert run(capsys, "rank", "--graph", g2, "--q", f"block={b}")[0] == 0
    assert stored and all(stored)


def test_oracle_with_q_needs_connected_union(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    qm = wpath(tmp_path, "q.json", json.dumps({"n": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, _, err = run(capsys, "oracle", "--graph", g, "--q", f"matrix={qm}")
    assert code == 3
    assert "more than one closed class" in err


def test_unichain_union_answers_on_rank_oracle_sweep_and_adjudicate(tmp_path, capsys):
    # P has classes {a, b} and {c} and a transient t; Q puts mass on b and c
    # only, so the union support of P and Q has one closed class, {a, b, c},
    # and t stays transient in every P_eps
    g = wpath(tmp_path, "g.txt", "a b\nb a\nb b\nc c\nt a\nt c\n")
    nu = wpath(tmp_path, "nu.txt", "a 0\nb 1\nc 2\nt 0\n")
    spec = f"personalized={nu}"
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", spec)
    assert code == 0
    limit = json.loads(out)["node_limit"]
    assert limit == ["1/9", "2/9", "2/3", "0/1"]
    code, out, _ = run(capsys, "oracle", "--graph", g, "--q", spec)
    assert code == 0
    assert json.loads(out)["exact_limit"] == limit
    code, out, _ = run(capsys, "sweep", "--graph", g, "--q", spec, "--numeric", "exact", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["predicted_limit"] == limit and obj["report"]["verdict"] == "pass"
    # every row is the stationary law of P_eps = (1 - eps) P + eps Q
    p = ((0, 1, 0, 0), (F(1, 2), F(1, 2), 0, 0), (0, 0, 1, 0), (F(1, 2), 0, F(1, 2), 0))
    q = (0, F(1, 3), F(2, 3), 0)
    for eps, row in zip(obj["eps"], obj["pi"]):
        e, pi = F(eps), [F(x) for x in row]
        assert sum(pi) == 1 and pi[3] == 0
        assert all(sum(pi[x] * ((1 - e) * p[x][y] + e * q[y]) for x in range(4)) == pi[y] for y in range(4))
    code, out, _ = run(capsys, "adjudicate", "--graph", g, "--q", spec)
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle"] == limit and obj["methods"]["extended"]["verdict"] == "exact"


def test_oracle_with_q_needs_exact(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, _, err = run(capsys, "oracle", "--graph", g, "--q", "uniform", "--numeric", "float")
    assert code == 1
    assert "exact" in err


def test_adjudicate_flags_uniform_prediction(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "adjudicate", "--graph", g, "--q", "uniform")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle_mode"] == "exact-polynomial"
    assert obj["oracle"] == ["1/3", "1/3", "1/3"]
    assert obj["methods"]["theorem3"]["verdict"] == "exact"
    assert obj["methods"]["theorem2"]["verdict"] == "discrepant"
    assert obj["methods"]["theorem2"]["max_deviation"] == "1/6"


def test_adjudicate_pretty(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    code, out, _ = run(capsys, "adjudicate", "--graph", g, "--q", "uniform",
                       "--format", "pretty")
    assert code == 0
    assert out.splitlines()[0] == "oracle: exact-polynomial"
    assert "verdict discrepant" in out


def test_model_srw(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", K3)
    code, out, _ = run(capsys, "model", "srw", "--graph", g)
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][0] == ["0/1", "1/2", "1/2"]
    assert obj["labels"] == ["a", "b", "c"]


def test_model_srw_requires_graph(capsys):
    code, _, err = run(capsys, "model", "srw")
    assert code == 1


def test_model_bt(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", K3)
    w = wpath(tmp_path, "w.txt", "a 1\nb 2\nc 3\n")
    code, out, _ = run(capsys, "model", "bt", "--graph", g, "--weights", w)
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == [
        ["0/1", "2/5", "3/5"],
        ["1/4", "0/1", "3/4"],
        ["1/3", "2/3", "0/1"],
    ]


def test_model_bt_missing_weight_entry(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", K3)
    w = wpath(tmp_path, "w.txt", "a 1\nb 2\n")
    code, _, err = run(capsys, "model", "bt", "--graph", g, "--weights", w)
    assert code == 2
    assert "missing weights" in err


def test_model_pairwise(tmp_path, capsys):
    w = wpath(tmp_path, "pairs.txt", "x y 3\ny x 1\n")
    code, out, _ = run(capsys, "model", "pairwise", "--weights", w, "--d", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["labels"] == ["x", "y"]
    assert obj["rows"] == [["1/4", "3/4"], ["1/4", "3/4"]]


def test_model_pairwise_missing_reverse(tmp_path, capsys):
    w = wpath(tmp_path, "pairs.txt", "x y 3\n")
    code, _, err = run(capsys, "model", "pairwise", "--weights", w)
    assert code == 3
    assert "reverse" in err


def test_block_file_wrong_m(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    b = wpath(tmp_path, "b.txt", "3\n0 0 1\n0 0 1\n1/2 0 0\n")
    code, _, err = run(capsys, "rank", "--graph", g, "--q", f"block={b}")
    assert code == 2
    assert "2 closed classes" in err


def test_block_file_bad_row_sum(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    b = wpath(tmp_path, "b.txt", "2\n1/3 1/3\n1/2 1/2\n")
    code, _, err = run(capsys, "rank", "--graph", g, "--q", f"block={b}")
    assert code == 2
    assert "row sum" in err


def test_block_q_rejects_transients(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TRANSIENT)
    b = wpath(tmp_path, "b.txt", BLOCKS)
    code, _, err = run(capsys, "rank", "--graph", g, "--q", f"block={b}")
    assert code == 3


def test_personalization_unknown_node(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    nu = wpath(tmp_path, "nu.txt", "z 1\n")
    code, _, err = run(capsys, "rank", "--graph", g, "--q", f"personalized={nu}")
    assert code == 2
    assert "unknown node" in err


def test_personalization_no_mass(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    nu = wpath(tmp_path, "nu.txt", "a 0\n")
    code, _, err = run(capsys, "rank", "--graph", g, "--q", f"personalized={nu}")
    assert code == 2
    assert "no mass" in err


def test_personalization_mass_checks_keep_their_messages(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    cases = (
        ("a 1\nb -1/2\n", "line 2: negative mass"),
        ("a -0.5\n", "line 1: negative mass"),
        ("a 0\nb 0/3\nc 0.0\n", "personalization vector has no mass"),
    )
    for text, message in cases:
        nu = wpath(tmp_path, "nu.txt", text)
        code, _, err = run(capsys, "rank", "--graph", g, "--q", f"personalized={nu}")
        assert code == 2
        assert err == f"data error: {message}\n"


def test_dangling_uniform_row_policy(tmp_path, capsys):
    g = wpath(tmp_path, "g.txt", "a b\nb a\nc\n")
    code, out, _ = run(capsys, "classify", "--graph", g, "--dangling", "uniform_row")
    assert code == 0
    obj = json.loads(out)
    # a uniform exit row makes c transient instead of absorbing
    assert obj["transient"] == [2]
    assert obj["m"] == 1


def test_oracle_with_q_builds_no_fraction(tmp_path, capsys, monkeypatch):
    # 3 closed classes (3, 2, 2), integer weights and mass on one state per
    # class, as in the benchmark's oracle job. The input is read into
    # integer rows, and the root polynomials, their total, the limit and the
    # root weights stay integers up to the printed "p/q" (52 Fractions when
    # each coefficient was a Fraction, 200+ with pairwise sums)
    rng = rng_for("oracle-fraction-budget")
    classes = ((0, 1, 2), (3, 4), (5, 6))
    edges = {}
    for cls in classes:
        for u, v in zip(cls, cls[1:] + cls[:1]):
            edges[u, v] = rng.randint(1, 9)
        for u in cls:
            edges.setdefault((u, rng.choice(cls)), rng.randint(1, 9))
    text = "".join(f"s{u} s{v} {w}\n" for (u, v), w in edges.items())
    g = wpath(tmp_path, "g.txt", text)
    nu = wpath(tmp_path, "nu.txt", "".join(f"s{rng.choice(cls)} {rng.randint(1, 9)}\n" for cls in classes))
    (code, out, _), made = fractions_built(monkeypatch, run, capsys, "oracle", "--graph", g,
                                           "--q", f"personalized={nu}")
    assert code == 0
    assert json.loads(out)["min_degree"] == 2
    assert made == 0


def test_block_file_errors_keep_their_messages(tmp_path, capsys):
    # each message and line number of parse_block_q, on P with the closed
    # classes {a, b} and {c}; the matrix checks the expanded rows, in class
    # order, and the block row it refuses is named
    g = wpath(tmp_path, "g.txt", TWO_CLASS)
    cases = (
        ("", "expected m and then m rows, got 0 rows"),
        ("# only a comment\n", "expected m and then m rows, got 0 rows"),
        ("x\n", "line 1: first value must be the class count m"),
        ("\n2 3\n", "line 2: first value must be the class count m"),
        ("2\n1/4 1/2\n", "expected m and then m rows, got 1 rows"),
        ("2\n1/4\n0 1\n", "line 2: expected 2 values per row"),
        ("2\n1/4 x\n0 1\n", "line 2: bad number 'x': Invalid literal for Fraction: 'x'"),
        ("2\n# gamma\n1/4 1/2\n0 1/0\n", "line 4: bad number '1/0': Fraction(1, 0)"),
        ("3\n0 0 1\n0 0 1\n1/2 0 0\n", "block file has m = 3 but the chain has 2 closed classes"),
        ("1\n1\n", "block file has m = 1 but the chain has 2 closed classes"),
        ("2\n1/3 1/3\n-1/2 2\n", "negative block value in row 1"),
        ("2\n-1/4 3/2\n0 1\n", "negative block value in row 0"),
        ("2\n1/3 1/3\n1/2 1/2\n", "block row 1 expands to row sum 3/2, not 1 (sum_j gamma_ij |C_j| must be 1)"),
        ("2\n1 1\n-1 3\n", "block row 0 expands to row sum 3, not 1 (sum_j gamma_ij |C_j| must be 1)"),
        ("2\n0.3 0.5\n0 1.0\n", "block row 0 expands to row sum 11/10, not 1 (sum_j gamma_ij |C_j| must be 1)"),
        ("2\n0 0\n0 1\n", "block row 0 expands to row sum 0, not 1 (sum_j gamma_ij |C_j| must be 1)"),
    )
    for text, message in cases:
        b = wpath(tmp_path, "b.txt", text)
        assert run(capsys, "rank", "--graph", g, "--q", f"block={b}") == (2, "", f"data error: {message}\n"), text
    odd = wpath(tmp_path, "odd.txt", "# m\n 2 # classes\n+1/4 .5\n1/8 1_5/20\n")
    plain = wpath(tmp_path, "plain.txt", "2\n1/4 1/2\n1/8 3/4\n")
    code, out, _ = run(capsys, "rank", "--graph", g, "--q", f"block={odd}")
    assert code == 0 and (code, out) == run(capsys, "rank", "--graph", g, "--q", f"block={plain}")[:2]


def test_exact_rank_reads_block_and_matrix_q_without_a_fraction(tmp_path, capsys, monkeypatch):
    # "p/q" block values and matrix entries are read straight into integer
    # rows; reading them as Fractions made 27 per block= job and about 190
    # per matrix= job at 48 states
    import znrank.zero_noise  # noqa: F401  (imported by the first rank call)

    rng = rng_for("rank-fraction-count-q-files")
    sizes = (24, 16, 8)
    classes = [range(0, 24), range(24, 40), range(40, 48)]
    g = wpath(tmp_path, "g.txt", _chain_48(rng, 3, 0))
    gamma = []
    for _ in sizes:
        r = [rng.randint(1, 9) for _ in sizes]
        total = sum(a * s for a, s in zip(r, sizes))
        gamma.append(" ".join(f"{a}/{total}" for a in r))
    b = wpath(tmp_path, "b.txt", f"3\n" + "\n".join(gamma) + "\n")
    rows = []
    for _ in range(48):
        w = {y: rng.randint(1, 9) for y in {rng.choice(c) for c in classes} | {rng.randrange(48)}}
        rows.append([f"{w[y]}/{sum(w.values())}" if y in w else 0 for y in range(48)])
    qm = wpath(tmp_path, "q.json", json.dumps({"n": 48, "rows": rows}))
    for spec in (f"block={b}", f"matrix={qm}"):
        argv = ["rank", "--graph", g, "--numeric", "exact", "--q", spec]
        code, made = fractions_built(monkeypatch, main, argv)
        assert code == 0 and len(json.loads(capsys.readouterr().out)["node_limit"]) == 48
        assert made == 0, spec


@pytest.mark.parametrize("module", ["znrank", "znrank.cli"])
def test_python_m_prints_the_version(module):
    # runs __main__.py, and the sys.exit(main()) at the foot of cli.py
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", module, "--version"], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "znrank 0.1.0\n", "")


def test_no_command_runs_a_cross_check(tmp_path, capsys, monkeypatch):
    # the tree-theorem references (the minors of I - P, the absorption table,
    # the enumeration and its budget) are library cross-checks: every command
    # answers with all of them made to raise, in every znrank module holding one
    import importlib
    import pkgutil

    import znrank

    def refused(*args, **kwargs):
        raise AssertionError("a command ran a cross-check")

    for info in pkgutil.iter_modules(znrank.__path__):
        if info.name == "__main__":  # running it runs the CLI
            continue
        module = importlib.import_module(f"znrank.{info.name}")
        for name in ("det_exact", "absorption_probabilities", "root_weight_minor", "sum_tree_products",
                     "enumerate_parents", "_check_budget"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    two = wpath(tmp_path, "two.txt", TWO_CLASS)
    t = wpath(tmp_path, "t.txt", TRANSIENT)
    # 11 states: two closed classes and transient states feeding both
    big = wpath(tmp_path, "big.txt", "a b\nb a\nc d\nd e\ne c\n"
                + "".join(f"t{i} {'a' if i % 2 else 'c'}\nt{i} t{(i + 1) % 6}\n" for i in range(6)))
    k3 = wpath(tmp_path, "k3.txt", K3)
    w = wpath(tmp_path, "w.txt", "a 1\nb 2\nc 3\n")
    pairs = wpath(tmp_path, "pairs.txt", "x y 3\ny x 1\n")
    argvs = [("classify", "--graph", t)]
    for numeric in ("exact", "float"):
        argvs += [("rank", "--graph", t, "--q", "uniform", "--numeric", numeric, "--mode", mode)
                  for mode in ("auto", "theorem2", "extended")]
        argvs += [("sweep", "--graph", t, "--q", "uniform", "--numeric", numeric)]
        argvs += [("adjudicate", "--graph", g, "--q", "uniform", "--numeric", numeric) for g in (two, t, big)]
    argvs += [("oracle", "--graph", t), ("oracle", "--graph", t, "--q", "uniform"),
              ("model", "srw", "--graph", k3), ("model", "bt", "--graph", k3, "--weights", w),
              ("model", "pairwise", "--weights", pairs, "--d", "1")]
    oracles = []
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "adjudicate":
            obj = json.loads(out)
            oracles.append((argv[-1], len(obj["oracle"]), obj["oracle_mode"]))
    assert oracles == [("exact", 3, "exact-polynomial"), ("exact", 3, "exact-polynomial"),
                       ("exact", 11, "leading-order"), ("float", 3, "leading-order"),
                       ("float", 3, "leading-order"), ("float", 11, "leading-order")]
