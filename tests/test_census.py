"""Every function, class, method and parameter under ``src/repro`` has a caller.

A name earns its place when something other than its tests uses it: code
under ``src/repro``, ``benchmarks/``, ``tools/`` or ``examples/``.  The
census parses those files once and counts every identifier they use —
names, attributes, and string constants that spell an identifier or a
dotted path (the harness's probe tables name their targets that way).
Imports and ``__all__`` lists are not uses, so an ``__init__.py``
re-export does not keep a name alive, and neither does a call a function
makes to itself.  Test modules are not searched.

Identifiers are counted, not bindings, so a definition whose name any
other code uses is hidden from the census: a test-only method ``m`` passes
as long as some other ``m`` is called or read anywhere.  Such methods are
checked by hand.

A parameter with a default earns its place when some call in the same
files passes it: by keyword, or by position at or past its index.  Calls
are matched by the callee's name (a class name reaches its ``__init__``),
so the same caveat holds.  A call with ``*``/``**`` arguments or through
``super().__init__(...)`` may pass anything, so it counts as passing every
parameter of its callee; ``cls(...)`` does too inside a class body, and
outside one (a function handed the class) its keywords count for every
constructor.  Dataclass fields are not parameters here.

``ALLOWED`` holds the few names and parameters (``name(parameter=)``)
kept without such a caller, each with its reason: helpers and oracles the
tests use while checking something else, generators reached by name
through a registry, knobs that let a test reach a path the product runs,
deployment settings, and the modules whose fate ROADMAP items 8 and 9
decide.  A stale entry fails too.
"""

import ast
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src/repro", "benchmarks", "tools", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")

_HELPER = "tests use it as a helper or an oracle while checking something else"
_REGISTERED = "a registered cluster generator: reached by name (`repro generate-hits --algorithm`)"
_ITEM_8 = "core.crowdsql: ROADMAP item 8 decides whether it gets a caller or goes"
_ITEM_9 = "hit.comparisons: ROADMAP item 9 (ii) bills per-pair latency with it"
_SMALL_BLOCKS = "tests put block boundaries inside small stores: the blocked path the product runs"
_BUDGET = "tests exhaust the node budget to reach the FFD fallback the product can take"
_DEPLOYMENT = "a deployment setting: where the full corpora live"

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
    "RecordStore.record_ids": _HELPER,
    "IncrementalSimJoin.record_ids": _HELPER,
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
    "IncrementalSimJoin(block_size=)": _SMALL_BLOCKS,
    "branch_and_bound_packing(max_nodes=)": _BUDGET,
    "load_corpus(data_dir=)": _DEPLOYMENT,
    "crowd_equijoin(likelihood_threshold=)": _ITEM_8,
    "crowd_equijoin(cluster_size=)": _ITEM_8,
    "crowd_equijoin(config=)": _ITEM_8,
    "crowd_equijoin(seed=)": _ITEM_8,
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _searched_files():
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if not (path.name.startswith("test_") or path.name == "conftest.py"):
                yield path


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, module):
    """``(qualified name, name, where)`` of every module- and class-level
    function, class and method of a module, dunders excluded."""
    pending = [(node, "") for node in tree.body]
    while pending:
        node, prefix = pending.pop()
        if not isinstance(node, _DEFINITIONS):
            continue
        if not _is_dunder(node.name):
            yield prefix + node.name, node.name, f"{module}:{node.lineno}"
        if isinstance(node, ast.ClassDef):
            pending.extend((child, f"{prefix}{node.name}.") for child in node.body)


def _parameters(tree, module):
    """``(entry, callees, parameter, index, where)`` of every defaulted
    parameter of a module- or class-level function, method or
    ``__init__``.  ``callees`` are the names a call uses (the class name
    and :data:`_ANY_CLASS` for ``__init__``); ``index`` is the position
    past ``self``/``cls``, or ``None`` for a keyword-only parameter."""
    pending = [(node, None, "") for node in tree.body]
    while pending:
        node, owner, prefix = pending.pop()
        if isinstance(node, ast.ClassDef):
            pending.extend((child, node.name, f"{prefix}{node.name}.") for child in node.body)
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _is_dunder(node.name) and node.name != "__init__":
            continue
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        static = any(
            isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
            for decorator in node.decorator_list
        )
        if owner is not None and not static:
            positional = positional[1:]
        if node.name == "__init__":
            callees, label = (owner, _ANY_CLASS), prefix[:-1]
        else:
            callees, label = (node.name,), prefix + node.name
        first_default = len(positional) - len(arguments.defaults)
        defaulted = [(argument, index) for index, argument in enumerate(positional)
                     if index >= first_default]
        defaulted += [(argument, None) for argument, default
                      in zip(arguments.kwonlyargs, arguments.kw_defaults) if default is not None]
        for argument, index in defaulted:
            yield (f"{label}({argument.arg}=)", callees, argument.arg, index,
                   f"{module}:{node.lineno}")


#: The callee of ``cls(...)`` outside a class body: every constructor.
_ANY_CLASS = None
#: The keyword that stands for "every parameter".
_EVERYTHING = "*"


def _record_calls(node, owner, calls):
    """Add what every call under ``node`` passes to ``calls``: callee name →
    ``[most positional arguments, keyword names]``, where the keyword
    :data:`_EVERYTHING` marks a call that may pass anything.  ``owner`` is
    the innermost enclosing class."""
    if isinstance(node, ast.ClassDef):
        owner = node
    if isinstance(node, ast.Call):
        function = node.func
        everything = any(isinstance(argument, ast.Starred) for argument in node.args) or any(
            keyword.arg is None for keyword in node.keywords
        )
        callees = []
        if isinstance(function, ast.Name) and function.id == "cls":
            callees = [_ANY_CLASS if owner is None else owner.name]
            everything |= owner is not None
        elif isinstance(function, ast.Name):
            callees = [function.id]
        elif (
            isinstance(function, ast.Attribute)
            and function.attr == "__init__"
            and isinstance(function.value, ast.Call)
            and getattr(function.value.func, "id", None) == "super"
        ):
            callees = [base.id if isinstance(base, ast.Name) else base.attr
                       for base in owner.bases]
            everything = True
        elif isinstance(function, ast.Attribute):
            callees = [function.attr]
        for callee in callees:
            passed = calls[callee]
            if callee is not _ANY_CLASS:
                passed[0] = max(passed[0], len(node.args))
            passed[1].update(keyword.arg for keyword in node.keywords if keyword.arg)
            if everything:
                passed[1].add(_EVERYTHING)
    for child in ast.iter_child_nodes(node):
        _record_calls(child, owner, calls)


def _passed(calls, callee, parameter, index):
    positional, keywords = calls.get(callee, (0, ()))
    return (
        _EVERYTHING in keywords
        or parameter in keywords
        or (index is not None and index < positional)
    )


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


@dataclass
class Census:
    definitions: list  # (qualified name, name, where)
    uses: Counter  # identifier -> count
    parameters: list  # (entry, callees, parameter, index, where)
    calls: dict  # callee -> [most positional arguments, keyword names]

    def unused_parameters(self):
        """``(entry, where)`` of every defaulted parameter no call passes."""
        return [
            (entry, where)
            for entry, callees, parameter, index, where in self.parameters
            if not any(_passed(self.calls, callee, parameter, index) for callee in callees)
        ]


def census():
    """One parse of every searched file: the definitions and defaulted
    parameters under ``src/repro``, every identifier used and what every
    call passes."""
    result = Census([], Counter(), [], defaultdict(lambda: [0, set()]))
    for path in _searched_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = path.relative_to(ROOT).as_posix()
        if module.startswith("src/repro/"):
            result.definitions.extend(_definitions(tree, module))
            result.parameters.extend(_parameters(tree, module))
        _count_uses(tree, frozenset(), result.uses)
        _record_calls(tree, None, result.calls)
    return result


@pytest.fixture(scope="module")
def counted():
    return census()


@pytest.mark.gate
def test_every_name_in_src_has_a_caller(counted):
    definitions, uses = counted.definitions, counted.uses
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
def test_every_parameter_in_src_has_a_caller(counted):
    unpassed = sorted(
        f"{where} {entry}" for entry, where in counted.unused_parameters()
        if entry not in ALLOWED
    )
    assert unpassed == [], (
        "only tests pass these; make each default a constant in the body "
        "(or give it a caller):\n  " + "\n  ".join(unpassed)
    )


@pytest.mark.gate
def test_no_allowed_entry_is_stale(counted):
    names = {qualified: name for qualified, name, _ in counted.definitions}
    parameters = {entry for entry, *_ in counted.parameters}
    unused = {entry for entry, _ in counted.unused_parameters()}
    missing = sorted(entry for entry in ALLOWED if entry not in {*names, *parameters})
    called = sorted(
        entry for entry in ALLOWED
        if (entry in names and counted.uses[names[entry]])
        or (entry in parameters and entry not in unused)
    )
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


PARAMETER_RULES = {
    "a keyword is a use": ("def f(x=1):\n    pass\n\nf(x=2)\n", True),
    "a position at the index is a use": ("def f(a, x=1):\n    pass\n\nf(1, 2)\n", True),
    "a position before the index is not a use": ("def f(a, x=1):\n    pass\n\nf(1)\n", False),
    "no call is not a use": ("def f(x=1):\n    pass\n", False),
    "a method's position counts past self":
        ("class C:\n    def f(self, x=1):\n        pass\n\nC().f(2)\n", True),
    "a class call reaches __init__": ("class f:\n    def __init__(self, x=1):\n"
                                      "        pass\n\nf(2)\n", True),
    "a keyword-only parameter is not passed by position":
        ("def f(a=0, *, x=1):\n    pass\n\nf(1, 2)\n", False),
    "** forwarding passes everything": ("def f(x=1):\n    pass\n\nf(**options)\n", True),
    "* forwarding passes everything": ("def f(x=1):\n    pass\n\nf(*options)\n", True),
    "cls(...) in a class body passes everything":
        ("class f:\n    def __init__(self, x=1):\n        pass\n\n"
         "    @classmethod\n    def make(cls):\n        return cls()\n", True),
    "cls(...) outside a class passes its keywords to every class":
        ("class f:\n    def __init__(self, x=1):\n        pass\n\n"
         "def make(cls):\n    return cls(x=2)\n", True),
    "super().__init__(...) passes everything to the bases":
        ("class f:\n    def __init__(self, x=1):\n        pass\n\n"
         "class g(f):\n    def __init__(self):\n        super().__init__()\n", True),
    "a call to another name is not a use": ("def f(x=1):\n    pass\n\ng(x=2)\n", False),
}


@pytest.mark.parametrize(
    "source, used", list(PARAMETER_RULES.values()), ids=list(PARAMETER_RULES)
)
def test_parameter_census_rules(source, used):
    tree = ast.parse(source)
    calls = defaultdict(lambda: [0, set()])
    _record_calls(tree, None, calls)
    result = Census([], Counter(), list(_parameters(tree, "m")), calls)
    [entry] = [entry for entry, _, parameter, *_ in result.parameters if parameter == "x"]
    assert (entry not in {unused for unused, _ in result.unused_parameters()}) is used
