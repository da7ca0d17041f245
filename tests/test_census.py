"""Everything under ``src/repro`` has a reader other than its tests.

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
checked by hand.  Five did pass that way until they were deleted:
``StreamingResolver.votes_for`` (``SimulatedCrowdPlatform.votes_for`` is
called), ``StreamingResolver.covered_pairs`` (``HITBatch.covered_pairs``),
``FaultPlan.to_dict`` (``VoteDelivery.to_dict``), and ``Record.as_dict``
and ``LatencyEstimate.as_dict`` (``StreamingDelta.as_dict``).

A parameter with a default earns its place when some call in the same
files passes it: by keyword, or by position at or past its index.  Calls
are matched by the callee's name (a class name reaches its ``__init__``),
so the same caveat holds.  A call with ``*``/``**`` arguments or through
``super().__init__(...)`` may pass anything, so it counts as passing every
parameter of its callee; ``cls(...)`` does too inside a class body, and
outside one (a function handed the class) its keywords count for every
constructor.  A defaulted dataclass field is a parameter of the generated
``__init__`` (its index counts the fields before it), unless code assigns
it after construction: then it is state, not a knob.  ``x.f = ...``,
``x.f[k] = ...``, ``x.f.append(...)`` and ``setattr`` with ``"f"`` or a
name a tuple or list lists are such assignments.  They are matched by
attribute name too (``self.f`` only inside its own class), so the same
caveat holds.

An attribute — an annotated class-body name or a ``self.x`` a method
assigns — earns its place when something reads it: an expression loads
``.x`` (appending to it is a write), a ``getattr``/``hasattr`` string or a
tuple or list of names spells it, or its class is serialised whole
(``asdict``, ``astuple`` or ``fields`` of ``self``, of the class, or of a
parameter annotated with it).  Reads are counted by attribute name, so a
shared name hides an attribute nothing reads, as a shared name hides a
definition: ``LatencyEstimate.effective_workers`` passed because
``LatencyModel.effective_workers`` is called.

Two blind spots follow, and what falls into them is checked by hand.  A
script under ``benchmarks/`` counts as a caller although tier-1 never runs
it, so a knob whose only callers are such scripts passes: the two-tiered
generator's packing solver and tie-break rule did, set only by two
ablation scripts.  And a field passed by no call and read by no code
passes when another class reads an attribute of the same name: the
``name`` fields of the Fig. 12 rankers did.

Every name a module other than an ``__init__.py`` imports is used in that
module: a name, or part of a string annotation.  An import made for its
side effect says so with ``# noqa: F401``.

``ALLOWED`` holds the few names, parameters (``name(parameter=)``) and
attributes (``Class.attribute``) kept without such a caller or reader,
each with its reason: helpers and oracles the tests use while checking
something else, generators reached by name through a registry, knobs that
let a test reach a path the product runs, deployment settings, results
the tests check the EM against, provenance a library user reads, and the
modules whose fate ROADMAP items 8 and 9 decide.  A stale entry fails too.
"""

import ast
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
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
_DEPLOYMENT = "a deployment setting: where the full corpora live"
_EM_FIT = "tests check the Dawid-Skene EM against it"
_PROVENANCE = ("dataset provenance a library user reads: the ETL lineage and the "
               "generator seeds")

ALLOWED = {
    "DawidSkeneResult.decisions": _HELPER,
    "MajorityAggregator.decisions": _HELPER,
    "AsyncCrowdPlatform.ready_count": _HELPER,
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
    "load_corpus(data_dir=)": _DEPLOYMENT,
    "crowd_equijoin(likelihood_threshold=)": _ITEM_8,
    "crowd_equijoin(cluster_size=)": _ITEM_8,
    "crowd_equijoin(config=)": _ITEM_8,
    "crowd_equijoin(seed=)": _ITEM_8,
    "DawidSkeneResult.worker_accuracy": _EM_FIT,
    "DawidSkeneResult.class_prior": _EM_FIT,
    "DawidSkeneResult.iterations": _EM_FIT,
    "DawidSkeneResult.converged": _EM_FIT,
    "Dataset.metadata": _PROVENANCE,
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


def _is_dataclass(node):
    return any(
        getattr(decorator, "id", None) == "dataclass"
        or getattr(getattr(decorator, "func", None), "id", None) == "dataclass"
        for decorator in node.decorator_list
    )


def _annotation_names(annotation):
    """The names an annotation spells, string annotations parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass


def _fields(nodes, module):
    """``(entry, callees, field, index, where)`` of every defaulted
    dataclass field among ``nodes``: a parameter of the generated
    ``__init__``, ``index`` its position among the fields it takes."""
    for node in nodes:
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
        index = 0
        for statement in node.body:
            if not (isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in _annotation_names(statement.annotation)):
                continue
            value = statement.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                options = {keyword.arg: keyword.value for keyword in value.keywords}
                if getattr(options.get("init"), "value", True) is False:
                    continue
                defaulted = bool({"default", "default_factory"} & set(options))
            else:
                defaulted = value is not None
            if defaulted:
                name = statement.target.id
                yield (f"{node.name}({name}=)", (node.name, _ANY_CLASS), name, index,
                       f"{module}:{statement.lineno}")
            index += 1


def _attributes(nodes, module, assigned):
    """``(entry, class name, attribute, where)`` of every attribute a class
    among ``nodes`` declares: its annotated class-body names (not
    ``ClassVar``/``InitVar``) and each ``self.x`` its methods assign
    (``assigned``: ``(class name, x)`` → line)."""
    declared = {}
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                if (isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and not {"ClassVar", "InitVar"}
                        & set(_annotation_names(statement.annotation))):
                    declared.setdefault((node.name, statement.target.id), statement.lineno)
    for key, line in assigned.items():
        declared.setdefault(key, line)
    for (owner, name), line in declared.items():
        if not _is_dunder(name):
            yield f"{owner}.{name}", owner, name, f"{module}:{line}"


def _unused_imports(nodes, module, lines):
    """``where name`` of every name a module imports and never uses; a
    string annotation is a use, and an import marked ``# noqa: F401`` is
    made for its side effect."""
    imported = {}
    used = set()
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if ("# noqa: F401" in lines[node.lineno - 1]
                    or getattr(node, "module", "") == "__future__"):
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
    return [f"{module}:{line} {name}" for name, line in imported.items() if name not in used]


#: The callee of ``cls(...)`` outside a class body: every constructor.
_ANY_CLASS = None
#: The keyword that stands for "every parameter".
_EVERYTHING = "*"
#: Calls that hand an object over to be serialised field by field.
_SERIALISERS = ("asdict", "astuple", "fields")
#: Methods that add to a container attribute: writes, not reads.
_ADDERS = ("append", "extend")


class _Reader:
    """One walk over a module: every identifier it uses, what every call
    passes, every attribute it reads or assigns and every class it
    serialises, added to a :class:`Census`; and the module's own nodes and
    ``self.x`` assignments, for its declarations."""

    def __init__(self, census):
        self.census = census
        self.nodes = []  # every node walked; an import's, not its aliases
        self.assigned = {}  # (class name, x) -> line of the first self.x = ...

    def walk(self, node, enclosing=frozenset(), owner=None, function=None):
        """``enclosing`` are the definitions around ``node`` (recursion is
        not a caller), ``owner`` the innermost class, ``function`` the
        innermost function."""
        self.nodes.append(node)
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ):
            return
        census = self.census
        if isinstance(node, ast.Name):
            if node.id not in enclosing:
                census.uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if node.attr not in enclosing:
                census.uses[node.attr] += 1
            if isinstance(node.ctx, ast.Load):
                census.reads[node.attr] += 1
            elif self._store(node, owner):
                self.assigned.setdefault((owner.name, node.attr), node.lineno)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                for part in re.split(r"[.:]", node.value):
                    if IDENTIFIER.match(part) and part not in enclosing:
                        census.uses[part] += 1
            return
        elif isinstance(node, ast.Subscript):
            if not isinstance(node.ctx, ast.Load) and isinstance(node.value, ast.Attribute):
                self._store(node.value, owner)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    census.reads[element.value] += 1
                    census.stored.add(element.value)
        elif isinstance(node, ast.Call):
            self._call(node, owner)
            self._read_call(node, owner, function)
        elif isinstance(node, ast.ClassDef):
            owner = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            self.walk(child, enclosing, owner, function)

    def _call(self, node, owner):
        """Record what ``node`` passes: callee name → ``[most positional
        arguments, keyword names]``, where the keyword :data:`_EVERYTHING`
        marks a call that may pass anything."""
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
            passed = self.census.calls[callee]
            if callee is not _ANY_CLASS:
                passed[0] = max(passed[0], len(node.args))
            passed[1].update(keyword.arg for keyword in node.keywords if keyword.arg)
            if everything:
                passed[1].add(_EVERYTHING)

    def _read_call(self, node, owner, function):
        """``getattr``/``hasattr`` read the attribute their string names,
        ``setattr`` assigns it, a serialiser reads every field of the
        classes its argument may be, and ``x.a.append(...)`` writes ``a``."""
        census, callee = self.census, node.func
        name = getattr(callee, "id", getattr(callee, "attr", None))
        constant = [argument.value for argument in node.args[1:2]
                    if isinstance(argument, ast.Constant) and isinstance(argument.value, str)]
        if name in ("getattr", "hasattr"):
            census.reads.update(constant)
        elif name in ("setattr", "__setattr__"):
            census.stored.update(constant)
        elif name in _SERIALISERS and node.args:
            census.serialised.update(_classes_of(node.args[0], owner, function))
        elif (name in _ADDERS and isinstance(callee, ast.Attribute)
              and isinstance(callee.value, ast.Attribute)):
            census.reads[callee.value.attr] -= 1  # the walk below counts it once
            self._store(callee.value, owner)

    def _store(self, attribute, owner):
        """Record an assignment to ``attribute``: as ``C.x`` for ``self.x``
        in a method of class ``C`` (and return True), else as ``x``."""
        if getattr(attribute.value, "id", None) == "self" and owner is not None:
            self.census.stored.add(f"{owner.name}.{attribute.attr}")
            return True
        self.census.stored.add(attribute.attr)
        return False


def _classes_of(argument, owner, function):
    """The class names an expression handed to a serialiser may be: ``self``
    is its class, a class or a constructor call names itself, and a
    parameter is what its annotation names."""
    if isinstance(argument, ast.Call):
        argument = argument.func
    if not isinstance(argument, ast.Name):
        return []
    if argument.id == "self" and owner is not None:
        return [owner.name]
    for parameter in function.args.args if function is not None else ():
        if parameter.arg == argument.id and parameter.annotation is not None:
            return list(_annotation_names(parameter.annotation))
    return [argument.id]


def _passed(calls, callee, parameter, index):
    positional, keywords = calls.get(callee, (0, ()))
    return (
        _EVERYTHING in keywords
        or parameter in keywords
        or (index is not None and index < positional)
    )


@dataclass
class Census:
    definitions: list = field(default_factory=list)  # (qualified name, name, where)
    uses: Counter = field(default_factory=Counter)  # identifier -> count
    parameters: list = field(default_factory=list)  # (entry, callees, parameter, index, where)
    fields: list = field(default_factory=list)  # the same, for defaulted dataclass fields
    calls: dict = field(default_factory=lambda: defaultdict(lambda: [0, set()]))
    attributes: list = field(default_factory=list)  # (entry, class name, attribute, where)
    reads: Counter = field(default_factory=Counter)  # attribute -> reads
    stored: set = field(default_factory=set)  # "x" or "C.x" assigned after construction
    serialised: set = field(default_factory=set)  # classes handed to a serialiser
    unused_imports: list = field(default_factory=list)  # "where name"

    def read(self, text, module):
        """Add one module's source, ``module`` its repository path."""
        tree = ast.parse(text, module)
        reader = _Reader(self)
        reader.walk(tree)
        if module.startswith("src/repro/"):
            self.definitions.extend(_definitions(tree, module))
            self.parameters.extend(_parameters(tree, module))
            self.fields.extend(_fields(reader.nodes, module))
            self.attributes.extend(_attributes(reader.nodes, module, reader.assigned))
            if not module.endswith("/__init__.py"):
                self.unused_imports.extend(
                    _unused_imports(reader.nodes, module, text.splitlines())
                )

    def unused_parameters(self):
        """``(entry, where)`` of every defaulted parameter no call passes,
        and of every defaulted dataclass field no call passes and no code
        assigns after construction."""
        return [
            (entry, where)
            for entry, callees, parameter, index, where in self.parameters + [
                (entry, callees, name, index, where)
                for entry, callees, name, index, where in self.fields
                if not {name, f"{callees[0]}.{name}"} & self.stored
            ]
            if not any(_passed(self.calls, callee, parameter, index) for callee in callees)
        ]

    def unread_attributes(self):
        """``(entry, where)`` of every attribute nothing reads."""
        return [
            (entry, where)
            for entry, owner, attribute, where in self.attributes
            if self.reads[attribute] <= 0 and owner not in self.serialised
        ]


def census():
    """One parse of every searched file."""
    result = Census()
    for path in _searched_files():
        result.read(path.read_text(encoding="utf-8"), path.relative_to(ROOT).as_posix())
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
def test_every_import_in_src_is_used(counted):
    assert counted.unused_imports == [], (
        "imported and never used; delete them:\n  " + "\n  ".join(counted.unused_imports)
    )


@pytest.mark.gate
def test_every_attribute_in_src_is_read(counted):
    unread = sorted(
        f"{where} {entry}" for entry, where in counted.unread_attributes()
        if entry not in ALLOWED
    )
    assert unread == [], (
        "only tests read these; delete them and the work that computes them "
        "(or give them a reader):\n  " + "\n  ".join(unread)
    )


@pytest.mark.gate
def test_no_allowed_entry_is_stale(counted):
    names = {qualified: name for qualified, name, _ in counted.definitions}
    parameters = {entry for entry, *_ in counted.parameters + counted.fields}
    attributes = {entry for entry, *_ in counted.attributes}
    unused = {entry for entry, _ in counted.unused_parameters()}
    unread = {entry for entry, _ in counted.unread_attributes()}
    missing = sorted(
        entry for entry in ALLOWED if entry not in {*names, *parameters, *attributes}
    )
    called = sorted(
        entry for entry in ALLOWED
        if (entry in names and counted.uses[names[entry]])
        or (entry in parameters and entry not in unused)
        or (entry in attributes and entry not in names and entry not in unread)
    )
    assert missing == [], f"ALLOWED names what no longer exists: {missing}"
    assert called == [], f"ALLOWED names what now has a caller: {called}"


def test_the_census_reads_every_searched_directory_and_no_test():
    read = [path.relative_to(ROOT).as_posix() for path in _searched_files()]
    for directory in SEARCHED:
        assert any(name.startswith(directory + "/") for name in read), directory
    assert not [name for name in read if Path(name).name.startswith(("test_", "conftest"))]


def _census_of(source, module="src/repro/m.py"):
    result = Census()
    result.read(source, module)
    return result


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
    assert (_census_of(source).uses["f"] > 0) is used


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
    "a dataclass field passed by keyword is a use":
        ("@dataclass\nclass f:\n    x: int = 1\n\nf(x=2)\n", True),
    "a dataclass field passed at its index is a use":
        ("@dataclass\nclass f:\n    a: int\n    x: int = 1\n\nf(1, 2)\n", True),
    "a dataclass field no call passes is not a use":
        ("@dataclass\nclass f:\n    a: int\n    x: int = 1\n\nf(1)\n", False),
    "a dataclass field assigned after construction is state":
        ("@dataclass\nclass f:\n    x: int = 1\n\nf().x = 2\n", True),
    "a field setattr names from a tuple is state":
        ("@dataclass\nclass f:\n    x: int = 1\n\nfor name in ('x',):\n"
         "    setattr(f(), name, 2)\n", True),
    "a field another class's self assigns is not state":
        ("@dataclass\nclass f:\n    x: int = 1\n\nclass g:\n    def __init__(self):\n"
         "        self.x = 2\n", False),
}


@pytest.mark.parametrize(
    "source, used", list(PARAMETER_RULES.values()), ids=list(PARAMETER_RULES)
)
def test_parameter_census_rules(source, used):
    result = _census_of(source)
    [entry] = [entry for entry, _, parameter, *_ in result.parameters + result.fields
               if parameter == "x"]
    assert (entry not in {unused for unused, _ in result.unused_parameters()}) is used


IMPORT_RULES = {
    "a call is a use": ("from m import x\n\nx()\n", True),
    "a dotted module's head is a use": ("import x.y\n\nx.y.f()\n", True),
    "an annotation is a use": ("from typing import x\n\ndef f(a: x):\n    pass\n", True),
    "a string annotation is a use":
        ("from m import x\n\ndef f(a: 'Optional[x]') -> None:\n    pass\n", True),
    "an attribute of that name is not a use": ("from m import x\n\ny.x()\n", False),
    "an alias is the name bound": ("from m import y as x\n\ny()\n", False),
    "a side-effect import is marked": ("from m import x  # noqa: F401\n", True),
}


@pytest.mark.parametrize("source, used", list(IMPORT_RULES.values()), ids=list(IMPORT_RULES))
def test_import_census_rules(source, used):
    assert (_census_of(source).unused_imports == []) is used


ATTRIBUTE_RULES = {
    "a load is a read": ("class C:\n    def __init__(self):\n        self.x = 1\n\n"
                         "print(C().x)\n", True),
    "a store is not a read": ("class C:\n    def __init__(self):\n        self.x = 1\n\n"
                              "C().x += 1\n", False),
    "appending is a write": ("class C:\n    def __init__(self):\n        self.x = []\n\n"
                             "    def add(self, item):\n        self.x.append(item)\n", False),
    "a dataclass field is declared": ("@dataclass\nclass C:\n    x: int = 0\n", False),
    "a getattr string is a read": ("class C:\n    x: int = 0\n\ngetattr(C(), 'x', 0)\n", True),
    "a tuple of names is a read": ("class C:\n    x: int = 0\n\nNAMES = ('x', 'y')\n", True),
    "asdict(self) serialises the class":
        ("@dataclass\nclass C:\n    x: int = 0\n\n    def to_dict(self):\n"
         "        return asdict(self)\n", True),
    "fields(a parameter) serialises its annotated class":
        ("@dataclass\nclass C:\n    x: int = 0\n\ndef dump(c: C):\n"
         "    return [f.name for f in fields(c)]\n", True),
    "serialising another class reads nothing here":
        ("@dataclass\nclass C:\n    x: int = 0\n\nasdict(D())\n", False),
}


@pytest.mark.parametrize(
    "source, read", list(ATTRIBUTE_RULES.values()), ids=list(ATTRIBUTE_RULES)
)
def test_attribute_census_rules(source, read):
    result = _census_of(source)
    assert "C.x" in {entry for entry, *_ in result.attributes}
    assert ("C.x" not in {entry for entry, _ in result.unread_attributes()}) is read
