"""The traced benchmark run (`perfbench/run.py --trace 1`) patches znrank
functions by name; every name it looks up must exist, or the traced run
raises AttributeError, and every module it looks up must be loaded by then,
or it raises KeyError. The benchmark's answer checks pass their own
self-test (`perfbench/selftest.py`)."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = [
        f"{modname}.{attr}"
        for _, modname, attr, _ in tracing.LAYERS
        if not hasattr(importlib.import_module(modname), attr)
    ]
    assert missing == []


def test_worker_imports_load_every_traced_module():
    """The traced worker imports these znrank modules before Tracer.install,
    which looks each traced module up in sys.modules; a module that znrank
    now loads only inside a function would be missing there."""
    worker = (TRACING.parent / "worker.py").read_text()
    names = [a.name for node in ast.walk(ast.parse(worker)) if isinstance(node, ast.Import)
             for a in node.names if a.name.startswith("znrank.")]
    assert names == ["znrank.cli", "znrank.arborescence", "znrank.sweep", "znrank.zero_noise"]
    script = "".join(f"import {name}\n" for name in names) + (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "print(*sorted({modname for _, modname, _, _ in tracing.LAYERS} - set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(TRACING.parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_benchmark_answer_checks_pass_their_self_test():
    done = subprocess.run([sys.executable, str(TRACING.parent / "selftest.py")], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 failures"
