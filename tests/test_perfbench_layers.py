"""The traced benchmark run (`perfbench/run.py --trace 1`) patches znrank
functions by name; every name it looks up must exist, or the traced run
raises AttributeError."""

import importlib
import importlib.util
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
