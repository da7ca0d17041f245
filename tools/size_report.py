"""The size ledger: how large the tree and its surface are, as ``SIZE.json``.

    python tools/size_report.py    # rewrite SIZE.json, print what changed

It records:

- ``lines``: newline count of every file under ``src/``, ``tests/``,
  ``docs/`` and ``benchmarks/`` that ``.gitignore`` does not name, and of
  ``.github/workflows/ci.yml`` (``wc -l``);
- ``config_fields``: the fields of ``repro.WorkflowConfig``;
- ``cli_flags``: each ``repro`` subcommand's long options (``--help`` aside);
- ``http_routes``: the route table of ``repro.service.app``'s docstring;
- ``public_names``: every ``__all__`` list under ``src/repro``, by module;
- ``store_schema``: the tables a fresh store declares, with their columns.

Tier-1 test count and time depend on the run and the host, so they are not
in the file.  ``tests/test_size_report.py`` fails when the tree and the
committed file disagree, so a change that grows or shrinks the tree
rewrites ``SIZE.json`` and its diff shows by how much.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import fnmatch
import json
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "SIZE.json"
COUNTED = ("src", "tests", "docs", "benchmarks", ".github/workflows/ci.yml")


def _ignored_patterns(root: Path) -> List[str]:
    """The root ``.gitignore``'s patterns (this repository's are all plain
    names and globs, matched against each path component)."""
    lines = (root / ".gitignore").read_text().splitlines()
    return [line.strip().rstrip("/") for line in lines if line.strip() and not line.startswith("#")]


def line_counts(root: Path) -> Dict[str, int]:
    ignored = _ignored_patterns(root)
    counts = {}
    for name in COUNTED:
        top = root / name
        files = [top] if top.is_file() else sorted(path for path in top.rglob("*") if path.is_file())
        counts[name] = sum(
            path.read_bytes().count(b"\n")
            for path in files
            if not any(
                fnmatch.fnmatch(part, pattern)
                for part in path.relative_to(root).parts
                for pattern in ignored
            )
        )
    return counts


def cli_flags() -> Dict[str, List[str]]:
    from repro.cli import build_parser

    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {
        name: sorted(
            option
            for action in command._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        )
        for name, command in sorted(commands.choices.items())
    }


def http_routes() -> List[str]:
    from repro.service import app

    return [
        f"{method} {path}"
        for method, path in re.findall(r"^(GET|POST|DELETE)\s+``(\S+)``", app.__doc__, re.MULTILINE)
    ]


def public_names(root: Path) -> Dict[str, List[str]]:
    names = {}
    package = root / "src"
    for path in sorted((package / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                module = ".".join(path.relative_to(package).with_suffix("").parts)
                names[module.removesuffix(".__init__")] = sorted(ast.literal_eval(node.value))
    return names


def store_schema() -> Dict[str, List[str]]:
    from repro.storage.sqlite import SqliteStore

    with tempfile.TemporaryDirectory() as directory:
        store = SqliteStore(Path(directory) / "store.sqlite")
        try:
            tables = [name for name, in store.query(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
            )]
            return {
                table: [column for _, column, *_ in store.query(f'PRAGMA table_info("{table}")')]
                for table in tables
            }
        finally:
            store.close()


def measure(root: Path = ROOT) -> Dict[str, object]:
    """The ledger of the tree at ``root``."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from repro.core.config import WorkflowConfig

    return {
        "lines": line_counts(root),
        "config_fields": [field.name for field in dataclasses.fields(WorkflowConfig)],
        "cli_flags": cli_flags(),
        "http_routes": http_routes(),
        "public_names": public_names(root),
        "store_schema": store_schema(),
    }


def diff(old: object, new: object, path: str = "") -> List[str]:
    """One line per difference: a count's change, a list's size and its
    added and removed entries, a key present on one side only."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}" if path else key
            if key not in new:
                lines.append(f"{where}: removed")
            elif key not in old:
                lines.append(f"{where}: added {json.dumps(new[key])}")
            else:
                lines.extend(diff(old[key], new[key], where))
        return lines
    if old == new:
        return []
    if isinstance(old, int) and isinstance(new, int):
        return [f"{path}: {old:,} -> {new:,} ({new - old:+,})"]
    if isinstance(old, list) and isinstance(new, list):
        added = [item for item in new if item not in old]
        removed = [item for item in old if item not in new]
        change = ", ".join([f"+{item}" for item in added] + [f"-{item}" for item in removed])
        return [f"{path}: {len(old)} -> {len(new)}" + (f" ({change})" if change else " (order)")]
    return [f"{path}: {json.dumps(old)} -> {json.dumps(new)}"]


def dump(value: object, depth: int = 0) -> str:
    """JSON with one line per dict entry and each list on one line, so a
    diff of the file names the entries that changed."""
    if not isinstance(value, dict):
        return json.dumps(value)
    inner = " " * (depth + 1)
    entries = (f"{inner}{json.dumps(key)}: {dump(item, depth + 1)}" for key, item in value.items())
    return "{\n" + ",\n".join(entries) + "\n" + " " * depth + "}"


def main() -> None:
    current = measure()
    committed = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    changes = diff(committed, current)
    print("\n".join(changes) if changes else "SIZE.json matches the tree")
    LEDGER.write_text(dump(current) + "\n")


if __name__ == "__main__":
    main()
