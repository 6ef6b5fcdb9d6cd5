"""Every module-level import in src/znrank is used in its module or
re-exported through its __all__, so a name that a change leaves behind
shows here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "znrank"


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


def test_every_import_is_used():
    unused = {path.name: names for path in sorted(SRC.glob("*.py")) if (names := unused_imports(path.read_text()))}
    assert not unused, unused


def test_unused_imports_shows_a_leftover_and_reads_all():
    source = ("import math\nimport os.path\nfrom errors import GuardExceeded, Other as O\n"
              "__all__ = ['O']\n\ndef f():\n    return os.path.join(math.pi)\n")
    assert unused_imports(source) == ["GuardExceeded"]
