"""The command-line examples of README.md, run as written.

Each `$ znrank ...` line in a sh block runs in a fresh directory that holds
the example inputs (`cat NAME` followed by `# line` lines) and must print
what follows it. Full outputs match byte for byte. An output with `...`
lines is an excerpt of JSON: every `"key": value` line shown must match the
output at the same nesting, a list ending in `, ...]` matches a prefix, and
floats match to a relative 1e-12.

The Library python block runs line by line in one namespace, and each
`expression  # value` line must give value as its repr.
"""

import json
import math
import re
import shlex
from pathlib import Path

from znrank.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README, flags=re.S | re.M)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)


def _input_files():
    files = {}
    name = None
    for block in SH_BLOCKS:
        for line in block.splitlines():
            if line.startswith("cat "):
                name = line[4:]
                files[name] = ""
            elif name and line.startswith("# "):
                files[name] += line[2:] + "\n"
            else:
                name = None
    return files


def _examples():
    """(command, expected output) for every `$ ` line."""
    out = []
    for block in SH_BLOCKS:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, expected = chunk.partition("\n")
            out.append((command, expected))
    return out


def _close(shown, actual, prefix=False):
    if isinstance(shown, float) or isinstance(actual, float):
        return math.isclose(shown, actual, rel_tol=1e-12)
    if isinstance(shown, list) and isinstance(actual, list):
        if len(shown) != len(actual) and not (prefix and len(shown) < len(actual)):
            return False
        return all(_close(a, b) for a, b in zip(shown, actual))
    return shown == actual


def _check_excerpt(expected, obj):
    path = []
    for raw in expected.splitlines():
        line = raw.strip()
        if line in ("{", "...") or (line in ("}", "},") and not path):
            continue
        if line in ("}", "},"):
            path.pop()
            continue
        key, value = re.fullmatch(r'"(\w+)": (.*?),?', line).groups()
        node = obj
        for k in path:
            node = node[k]
        if value == "{":
            path.append(key)
            continue
        prefix = value.endswith(", ...]")
        shown = json.loads(value[: -len(", ...]")] + "]" if prefix else value)
        assert _close(shown, node[key], prefix), (key, shown, node[key])


def test_readme_examples(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = _input_files()
    assert {"two_class.edges", "transient.edges"} <= set(files)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    examples = _examples()
    assert len(examples) >= 8
    for command, expected in examples:
        argv = shlex.split(command)
        if argv[0] == "printf":
            assert argv[2] == ">", command
            (tmp_path / argv[3]).write_text(argv[1].encode().decode("unicode_escape"))
            continue
        assert argv[0] == "znrank", command
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, command
        if "..." in expected:
            _check_excerpt(expected, json.loads(out))
        else:
            assert out == expected, command


def test_readme_library_example():
    (block,) = PYTHON_BLOCKS
    namespace = {}
    shown = 0
    for line in block.splitlines():
        code, sep, value = line.partition("  # ")
        if sep:
            assert repr(eval(code, namespace)) == value.strip(), line
            shown += 1
        else:
            exec(line, namespace)
    assert shown >= 4
