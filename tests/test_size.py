"""Source size budget: the package stays within 2,341 lines, its size when
the budget was last tightened, so new work pays for itself in deletions."""
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "darbouxflow"
LINE_BUDGET = 2341


def test_source_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SOURCE.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/darbouxflow has {lines} lines, budget {LINE_BUDGET}"
