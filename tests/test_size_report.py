"""``SIZE.json`` is the tree's size ledger (``tools/size_report.py``): a
change that grows or shrinks the tree or its surface rewrites it, so the
change's diff shows by how much."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size_report.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("size_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_committed_ledger_matches_the_tree():
    tool = load_tool()
    changes = tool.diff(json.loads(tool.LEDGER.read_text()), tool.measure())
    assert not changes, "run `python tools/size_report.py`; SIZE.json is stale:\n" + "\n".join(changes)


def test_the_diff_names_each_change():
    tool = load_tool()
    old = {"lines": {"src": 10}, "routes": ["GET /a", "GET /b"], "gone": 1}
    new = {"lines": {"src": 7}, "routes": ["GET /a", "GET /c"], "new": [1]}
    assert tool.diff(old, new) == [
        "gone: removed",
        "lines.src: 10 -> 7 (-3)",
        "new: added [1]",
        "routes: 2 -> 2 (+GET /c, -GET /b)",
    ]
    assert tool.diff(new, new) == []
    assert json.loads(tool.dump(new)) == new
