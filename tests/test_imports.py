"""Imports in src/znrank. Every module-level import is used in its module
or re-exported through its __all__, and every name in znrank.__all__
resolves on the package, so a name that a change leaves behind shows here. No module imports dataclasses, typing or inspect, which cost a
cold start several milliseconds. Each command, run in a fresh interpreter,
loads only the znrank modules it calls."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "znrank"
SLOW_STDLIB = {"dataclasses", "typing", "inspect"}
ORACLE_MODULES = {"znrank.arborescence", "znrank.kernels", "znrank.linalg", "znrank.polynomial"}


def unused_imports(source):
    """Names that the module-level imports of source bind and that neither
    a name in the module nor its __all__ reads."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used - exported)


def slow_stdlib_imports(source):
    """The modules of SLOW_STDLIB that source imports, at any nesting."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return sorted(found & SLOW_STDLIB)


def test_every_import_is_used():
    unused = {path.name: names for path in sorted(SRC.glob("*.py")) if (names := unused_imports(path.read_text()))}
    assert not unused, unused


def test_unused_imports_shows_a_leftover_and_reads_all():
    source = ("import math\nimport os.path\nfrom errors import GuardExceeded, Other as O\n"
              "__all__ = ['O']\n\ndef f():\n    return os.path.join(math.pi)\n")
    assert unused_imports(source) == ["GuardExceeded"]


def test_no_module_imports_slow_stdlib():
    found = {path.name: names for path in sorted(SRC.glob("*.py")) if (names := slow_stdlib_imports(path.read_text()))}
    assert not found, found


def test_slow_stdlib_imports_reads_every_nesting():
    source = ("import os, typing.re\nfrom .dataclasses import x\nfrom znrank.inspect import y\n\n"
              "def f():\n    import dataclasses as dc\n\n"
              "class C:\n    def g(self):\n        if True:\n            from inspect import signature\n")
    assert slow_stdlib_imports(source) == ["dataclasses", "inspect", "typing"]


def test_every_export_resolves():
    import znrank

    missing = [name for name in znrank.__all__ if not hasattr(znrank, name)]
    assert not missing, missing


def loaded_by(tmp_path, code):
    """The modules that code loads in a fresh interpreter, beyond those the
    interpreter loads before it runs (site may preload typing, say)."""
    (tmp_path / "g.txt").write_text("a a\nb b\nt a 1/2\nt b 1/4\nt t 1/4\n")  # two classes, one transient
    script = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def run_cli(*argv):
    """Code that runs the CLI on argv and fails unless it exits with 0."""
    return f"import znrank.cli\nassert znrank.cli.main({list(argv)!r}) == 0\n"


def test_import_cli_loads_no_route_module(tmp_path):
    loaded = loaded_by(tmp_path, "import znrank.cli")
    assert "znrank.cli" in loaded
    later = SLOW_STDLIB | {"znrank.polynomial", "znrank.arborescence", "znrank.zero_noise", "znrank.sweep"}
    assert loaded & later == set()


def test_exact_rank_loads_no_oracle_module(tmp_path):
    loaded = loaded_by(tmp_path, run_cli("rank", "--numeric", "exact", "--graph", "g.txt", "--q", "uniform"))
    assert "znrank.zero_noise" in loaded
    assert loaded & (SLOW_STDLIB | ORACLE_MODULES) == set()


def test_float_sweep_loads_neither_oracle_nor_reduced_chain(tmp_path):
    loaded = loaded_by(tmp_path, run_cli("sweep", "--numeric", "float", "--graph", "g.txt", "--q", "uniform"))
    assert "znrank.sweep" in loaded
    assert loaded & (SLOW_STDLIB | ORACLE_MODULES | {"znrank.zero_noise"}) == set()


def test_model_srw_loads_no_oracle_module(tmp_path):
    loaded = loaded_by(tmp_path, run_cli("model", "srw", "--graph", "g.txt"))
    assert "znrank.models" in loaded
    assert loaded & (SLOW_STDLIB | ORACLE_MODULES) == set()


def test_oracle_routes_and_package_exports_load_on_demand(tmp_path):
    code = ("from znrank import EpsPolynomial\nfrom znrank import *\nimport znrank\n"
            "assert EpsPolynomial is znrank.polynomial.EpsPolynomial\n"
            "assert all(name in globals() for name in znrank.__all__)\n"
            + run_cli("oracle", "--graph", "g.txt", "--q", "uniform")
            + run_cli("adjudicate", "--graph", "g.txt", "--q", "uniform"))
    assert ORACLE_MODULES <= loaded_by(tmp_path, code)
