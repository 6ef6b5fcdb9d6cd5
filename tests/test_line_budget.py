"""The size of src/znrank: the newline count of its modules, the total
that `wc -l src/znrank/*.py` prints, stays within the line budget."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "znrank"
LINE_BUDGET = 3086  # ROADMAP, standing rules (aim 2): src/znrank stays at or below this many lines


def test_package_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/znrank has {lines} lines, over the budget of {LINE_BUDGET}"
