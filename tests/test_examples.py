"""Every script under ``examples/`` runs to completion.

The examples are the documented entry points; each runs in its own
interpreter, as ``PYTHONPATH=src python examples/<name>.py`` does, with a
120 s timeout (each takes about a second) and its temporary files under
the test's own directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(example, tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(example)],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
