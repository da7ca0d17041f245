"""Every function, class and method under ``src/repro`` has a caller.

A name earns its place when something other than its tests uses it: code
under ``src/repro``, ``benchmarks/``, ``tools/`` or ``examples/``.  The
census parses those files once and counts every identifier they use —
names, attributes, and string constants that spell an identifier or a
dotted path (the harness's probe tables name their targets that way).
Imports and ``__all__`` lists are not uses, so an ``__init__.py``
re-export does not keep a name alive, and neither does a call a function
makes to itself.  Test modules are not searched.

``ALLOWED`` holds the few names kept without such a caller, each with its
reason: helpers and oracles the tests use while checking something else,
generators reached by name through a registry, and the modules whose fate
ROADMAP items 8 and 9 decide.  A stale entry fails too.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src/repro", "benchmarks", "tools", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")

_HELPER = "tests use it as a helper or an oracle while checking something else"
_REGISTERED = "a registered cluster generator: reached by name (`repro generate-hits --algorithm`)"
_ITEM_8 = "core.crowdsql: ROADMAP item 8 decides whether it gets a caller or goes"
_ITEM_9 = "hit.comparisons: ROADMAP item 9 (ii) bills per-pair latency with it"

ALLOWED = {
    "DawidSkeneResult.decisions": _HELPER,
    "MajorityAggregator.decisions": _HELPER,
    "AsyncCrowdPlatform.ready_count": _HELPER,
    "connected_components": _HELPER,
    "split_components_by_size": _HELPER,
    "Graph.from_edges": _HELPER,
    "Graph.edge_keys": _HELPER,
    "Graph.max_degree_vertex": _HELPER,
    "validate_cluster_cover": _HELPER,
    "coverage_report": _HELPER,
    "PackingSolution.bin_loads": _HELPER,
    "MetricsSnapshot.histogram_sum": _HELPER,
    "MetricsSnapshot.histogram_count": _HELPER,
    "ObsRuntime.current_span": _HELPER,
    "PairSet.to_key_set": _HELPER,
    "RecordStore.from_records": _HELPER,
    "Record.with_attributes": _HELPER,
    "IncrementalSimJoin.tombstone_count": _HELPER,
    "RandomClusterGenerator": _REGISTERED,
    "BFSClusterGenerator": _REGISTERED,
    "DFSClusterGenerator": _REGISTERED,
    "ApproximationClusterGenerator": _REGISTERED,
    "crowd_equijoin": _ITEM_8,
    "pair_hit_comparisons": _ITEM_9,
    "cluster_hit_comparisons_bounds": _ITEM_9,
    "no_duplicate_comparisons": _ITEM_9,
    "all_duplicate_comparisons": _ITEM_9,
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _searched_files():
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if not (path.name.startswith("test_") or path.name == "conftest.py"):
                yield path


def _definitions(tree, module):
    """``(qualified name, name, where)`` of every module- and class-level
    function, class and method of a module, dunders excluded."""
    pending = [(node, "") for node in tree.body]
    while pending:
        node, prefix = pending.pop()
        if not isinstance(node, _DEFINITIONS):
            continue
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield prefix + node.name, node.name, f"{module}:{node.lineno}"
        if isinstance(node, ast.ClassDef):
            pending.extend((child, f"{prefix}{node.name}.") for child in node.body)


def _count_uses(node, enclosing, uses):
    """Add every identifier ``node`` uses to ``uses``, except a definition's
    own name inside its body (recursion is not a caller)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return
    if isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    ):
        return
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        for part in re.split(r"[.:]", node.value):
            if IDENTIFIER.match(part) and part not in enclosing:
                uses[part] += 1
        return
    else:
        name = None
    if name is not None and name not in enclosing:
        uses[name] += 1
    if isinstance(node, _DEFINITIONS):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        _count_uses(child, enclosing, uses)


def census():
    """The definitions under ``src/repro`` and one identifier count over
    every searched file."""
    definitions, uses = [], Counter()
    for path in _searched_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = path.relative_to(ROOT).as_posix()
        if module.startswith("src/repro/"):
            definitions.extend(_definitions(tree, module))
        _count_uses(tree, frozenset(), uses)
    return definitions, uses


@pytest.fixture(scope="module")
def counted():
    return census()


@pytest.mark.gate
def test_every_name_in_src_has_a_caller(counted):
    definitions, uses = counted
    uncalled = sorted(
        f"{where} {qualified}"
        for qualified, name, where in definitions
        if uses[name] == 0 and qualified not in ALLOWED
    )
    assert uncalled == [], (
        "only tests reach these; delete them (or give them a caller):\n  "
        + "\n  ".join(uncalled)
    )


@pytest.mark.gate
def test_no_allowed_entry_is_stale(counted):
    definitions, uses = counted
    names = {qualified: name for qualified, name, _ in definitions}
    missing = sorted(entry for entry in ALLOWED if entry not in names)
    called = sorted(entry for entry in ALLOWED if entry in names and uses[names[entry]])
    assert missing == [], f"ALLOWED names what no longer exists: {missing}"
    assert called == [], f"ALLOWED names what now has a caller: {called}"


def test_the_census_reads_every_searched_directory_and_no_test():
    read = [path.relative_to(ROOT).as_posix() for path in _searched_files()]
    for directory in SEARCHED:
        assert any(name.startswith(directory + "/") for name in read), directory
    assert not [name for name in read if Path(name).name.startswith(("test_", "conftest"))]


RULES = {
    "a call is a use": ("def f():\n    return 1\n\nf()\n", True),
    "a method called on another object is a use":
        ("class C:\n    def f(self):\n        return 1\n\nC().f()\n", True),
    "a sibling method's call is a use":
        ("class C:\n    def f(self):\n        return 1\n\n    def g(self):\n"
         "        return self.f()\n", True),
    "a property read is a use":
        ("class C:\n    @property\n    def f(self):\n        return 1\n\nprint(C().f)\n", True),
    "a probe table's module:name string is a use": ("PROBE = 'repro.m:f'\n", True),
    "recursion is not a use": ("def f(n):\n    return f(n - 1) if n else 0\n", False),
    "a class naming itself in its own body is not a use":
        ("class f:\n    def copy(self) -> 'f':\n        return f()\n", False),
    "an import is not a use": ("from repro.m import f\nimport repro.f\n", False),
    "an __all__ entry is not a use": ("__all__ = ['f']\n", False),
}


@pytest.mark.parametrize("source, used", list(RULES.values()), ids=list(RULES))
def test_census_rules(source, used):
    uses = Counter()
    _count_uses(ast.parse(source), frozenset(), uses)
    assert (uses["f"] > 0) is used
