"""Numbers in JSON output are formatted by their own type: a Fraction as a
"p/q" string, any other number as a JSON float. An int that reached the
formatter in an exact run would print as 3.0, so every number of an exact
run must be a "p/q" string and every number of a float run a JSON float,
also where class masses, reduced-chain entries or law entries are zero."""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import rand_sizes, rand_with_transients, rng_for  # noqa: E402
from znrank.cli import main  # noqa: E402
from znrank.zero_noise import adjudicate  # noqa: E402

RATIONAL = re.compile(r"-?\d+/[1-9]\d*")


def _numbers(command, obj):
    """The formatted numbers of one command's JSON output."""
    if command == "rank":
        fields = [obj["pi_gamma"], obj["class_masses"], obj["node_limit"]]
        fields += obj["per_class_stationary"] + (obj["gamma"] or [])
    elif command == "sweep":
        fields = [obj["eps"], obj["predicted_limit"], obj["errors"], obj["first_order"] or []] + obj["pi"]
    elif command == "oracle":
        fields = [obj["root_weights"], obj.get("exact_limit", [])]
    else:
        fields = [obj["oracle"]]
        fields += [m["values"] + [m["max_deviation"]] for m in obj["methods"].values()]
    return [x for field in fields for x in field]


def _case(rng, k):
    """P with transient states, and a personalization vector on one closed
    class and, every other case, one transient state: the other classes get
    no mass and the reduced chain has zero entries."""
    sizes = rand_sizes(rng, rng.randint(2, 3), hi=3, total_cap=7)
    p = rand_with_transients(rng, sizes, rng.randint(1, 2))
    first = range(sizes[0])
    nu = {x: rng.randint(1, 5) for x in rng.sample(first, rng.randint(1, len(first)))}
    if k % 2:
        nu[p.n - 1] = 1
    rows = [[str(x) for x in p.row(i)] for i in range(p.n)]
    return json.dumps({"n": p.n, "rows": rows}), "".join(f"{x} {w}\n" for x, w in nu.items())


def test_exact_json_numbers_are_rationals_and_float_json_numbers_are_floats(tmp_path, capsys):
    rng = rng_for("json-numbers")
    saw_zero_mass = saw_zero_gamma = False
    for k in range(12):
        p_text, nu_text = _case(rng, k)
        (tmp_path / "p.json").write_text(p_text)
        (tmp_path / "nu.txt").write_text(nu_text)
        base = ["--matrix", str(tmp_path / "p.json"), "--q", f"personalized={tmp_path / 'nu.txt'}"]
        for numeric in ("exact", "float"):
            for command in ("rank", "sweep", "oracle", "adjudicate"):
                argv = [command, "--numeric", numeric, *base]
                if command == "sweep":
                    argv += ["--format", "json"]
                if command == "oracle" and numeric == "float":
                    argv = argv[:-2]  # the polynomial oracle is exact only
                code = main(argv)
                out, err = capsys.readouterr()
                assert code == 0, (argv, err)
                obj = json.loads(out)
                numbers = _numbers(command, obj)
                assert numbers
                if numeric == "exact":
                    bad = [x for x in numbers if not (isinstance(x, str) and RATIONAL.fullmatch(x))]
                else:
                    bad = [x for x in numbers if type(x) is not float]
                assert not bad, (argv, bad)
                if command == "rank" and numeric == "exact":
                    saw_zero_mass |= "0/1" in obj["class_masses"]
                    saw_zero_gamma |= any("0/1" in row for row in obj["gamma"])
    assert saw_zero_mass and saw_zero_gamma


def test_adjudicate_float_inputs_report_float_deviations():
    # an exact P with a float Q is refused; it once dropped to floating point
    rng = rng_for("json-numbers-mixed")
    for _ in range(6):
        sizes = rand_sizes(rng, rng.randint(2, 3), hi=3, total_cap=7)
        p = rand_with_transients(rng, sizes, rng.randint(1, 2))
        q = rand_with_transients(rng, [p.n], 0).to_float()  # one irreducible class over all states
        with pytest.raises(ValueError, match="P is exact but Q is float"):
            adjudicate(p, q)
        report = adjudicate(p.to_float(), q)
        assert report["oracle_mode"] == "leading-order"
        assert set(report["methods"]) == {"theorem2", "extended"}
        for name, entry in report["methods"].items():
            assert type(entry["max_deviation"]) is float, name
            assert entry["verdict"] in ("pass", "discrepant"), name
        assert report["methods"]["extended"]["verdict"] == "pass"
        assert all(type(x) is float for x in report["methods"]["theorem2"]["values"])
        assert all(type(x) is float for x in report["methods"]["extended"]["values"])
        assert all(type(x) is float for x in report["oracle"])
