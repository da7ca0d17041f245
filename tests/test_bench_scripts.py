"""Every module under ``benchmarks/`` outside ``harness/`` imports.

The figure, table and ablation scripts are pytest-benchmark modules that
tier-1 does not collect (pytest's default pattern does not match
``bench_*.py``), so a name deleted from ``src/`` could stay imported by one
of them unnoticed.  Each is imported here with ``benchmarks/`` on the path,
as pytest imports it there; none of its benchmarks runs.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(BENCHMARKS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_benchmark_module_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
