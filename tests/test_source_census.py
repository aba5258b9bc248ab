"""Structural guards: one benchmark system, and no definition nothing uses.

An ``ast`` walk over the repository:

* the benchmark is ``benchmarks/e2e`` (``BENCHMARK.json``) and nothing else:
  no module under ``src/``, ``tests/``, ``examples/`` or ``benchmarks/``
  imports ``perf_fastpath`` or names ``BENCH_fastpath.json``, no CI workflow
  runs either or installs ``pytest-benchmark``, and the only Python file under
  ``benchmarks/`` outside ``e2e/`` is ``perf/ack_census.py`` (until ROADMAP
  0(g) turns its count into a metric).  The gates the retired harness ran are
  tier-1 tests; ``CHANGES.md`` maps each to its test;
* no definition under ``src/repro`` is referenced by nothing (ROADMAP item
  10, its zero-reference half): every module-level function, class and name,
  and every method, is named somewhere under ``src/``, ``tests/``,
  ``examples/`` or ``benchmarks/`` outside its own definition — as a name, an
  attribute, an import, or inside a string that parses as an expression
  (``getattr`` names, string annotations, ``__all__``).  Docstrings do not
  count and dunder names are the interpreter's.  What is kept without a
  reference is in ``UNREFERENCED``, with its reason, and the list is exact:
  an entry that gains a reference must leave it.

* no module under ``src/repro`` imports a name it never uses (no linter is
  installed, so this is the tool): a package ``__init__.py`` re-exports and
  a ``# noqa: F401`` line says so, and both are exempt.

* no function under ``src/repro`` writes a module-level table: a name bound
  at module level to a dict, list or set (a display, a comprehension or a
  constructor call, weak mappings included) that a function stores into,
  deletes from, or calls ``clear`` / ``pop`` / ``setdefault`` / ``update`` /
  ``append`` / ``add`` on.  Such a table is process-wide state: what one
  simulation leaves in it changes the next one.  State a run builds belongs
  to an object of the run, such as the simulator's decode memo
  (``Simulator.memos``).  Constant tables (``_DECODERS``, ``RCODES``) pass,
  because nothing writes them.

* no handler under ``src/repro/moqt`` catches ``Exception`` or
  ``BaseException`` (or is a bare ``except:``).  A MoQT session fails one way:
  the decoders raise ``ProtocolViolation`` and nothing else, and the session
  catches exactly that and closes (``docs/quic-receive.md``); a blanket
  handler would swallow a bug, or keep a chunk that failed to decode.

* every value class is compact: a frozen dataclass under ``src/repro/dns``,
  ``src/repro/moqt`` or ``src/repro/core`` is declared ``slots=True``, no
  module there uses ``cached_property`` (it needs an instance ``__dict__``;
  a derived attribute is an ``init=False`` field filled in
  ``__post_init__``), and nothing under ``src/repro`` writes an instance
  ``__dict__`` (a decoder fills slots with ``object.__setattr__``).  One
  subscribed question holds a few dozen of these values (``docs/state.md``).
  The DNS hierarchy's containers are not dataclasses, so they are named:
  ``Name``, ``RRset`` and ``Zone`` each declare ``__slots__`` (a simulated
  hierarchy holds thousands of each).

The census goes by name, so it under-reports: a definition whose name is
also used for something else passes.  Definitions referenced only from
``tests/`` (the other half of item 10) are not checked here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
CORPUS = ("src", "tests", "examples", "benchmarks")

#: ``path::qualname`` under ``src/repro`` kept with no reference, and why.
UNREFERENCED = {
    "dns/types.py::DNSClass._missing_": "enum hook: Enum calls it for a value with no member (CLASS99)",
    "dns/types.py::RecordType._missing_": "enum hook: Enum calls it for a value with no member (TYPE99)",
    "moqt/parameters.py::SetupParameterType": "SETUP parameter keys (MAX_REQUEST_ID), for ROADMAP 3(b)",
    "moqt/parameters.py::VersionSpecificParameterType": "SUBSCRIBE / FETCH parameter keys, for ROADMAP 3(b)",
}

#: A string that may be an expression naming something: a ``getattr`` name,
#: a string annotation, an ``__all__`` entry.
EXPRESSION = re.compile(r"[\w.\[\], |]+")

#: Python files under ``benchmarks/`` that are not the benchmark itself.
BENCHMARK_STRAGGLERS = ["perf/ack_census.py"]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str, path: str) -> list[tuple[str, str, int, int]]:
    """``(path::qualname, name, first line, last line)`` of every module-level
    function, class and assigned name and every method of ``source``."""
    found: list[tuple[str, str, int, int]] = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _dunder(node.name):
                    found.append((f"{path}::{prefix}{node.name}", node.name, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
            elif not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not _dunder(target.id):
                        found.append((f"{path}::{target.id}", target.id, node.lineno, node.end_lineno))

    visit(ast.parse(source).body, "")
    return found


def references(source: str) -> list[tuple[str, int]]:
    """Every ``(name, line)`` ``source`` refers to, docstrings aside."""
    tree = ast.parse(source)
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    found: list[tuple[str, int]] = []

    def names(node: ast.AST, line: int) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                found.append((child.id, line))
            elif isinstance(child, ast.Attribute):
                found.append((child.attr, line))

    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in docstrings or not EXPRESSION.fullmatch(node.value):
                continue
            try:
                names(ast.parse(node.value, mode="eval"), node.lineno)
            except SyntaxError:
                pass
        elif isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
    return found


def index(corpus: dict[str, str]) -> dict[str, list[tuple[str, int]]]:
    """``name -> [(path, line), ...]``: where ``corpus`` (``path`` relative to
    the repository) refers to each name."""
    where: dict[str, list[tuple[str, int]]] = {}
    for path, source in corpus.items():
        for name, line in references(source):
            where.setdefault(name, []).append((path, line))
    return where


def orphans(modules: dict[str, str], *indexes: dict[str, list[tuple[str, int]]]) -> list[str]:
    """``path::qualname`` of every definition in ``modules`` (``path`` relative
    to ``src/repro``) that no index refers to outside the definition itself."""
    found = []
    for path, source in modules.items():
        own = f"src/repro/{path}"
        for qualname, name, first, last in definitions(source, path):
            places = [place for where in indexes for place in where.get(name, ())]
            if not any(file != own or not first <= line <= last for file, line in places):
                found.append(qualname)
    return sorted(found)


@pytest.fixture(scope="module")
def repository():
    """``(modules under src/repro, corpus, index of the corpus)``."""
    modules = {file.relative_to(SRC).as_posix(): file.read_text() for file in sorted(SRC.rglob("*.py"))}
    corpus = {
        file.relative_to(REPO).as_posix(): file.read_text()
        for root in CORPUS
        for file in sorted((REPO / root).rglob("*.py"))
    }
    return modules, corpus, index(corpus)


def test_nothing_under_src_is_referenced_by_nothing(repository):
    modules, _, where = repository
    found = orphans(modules, where)
    assert found == sorted(UNREFERENCED), "\n".join(
        ["referenced by nothing (delete it, or list it in UNREFERENCED with its reason):"]
        + [name for name in found if name not in UNREFERENCED]
        + ["listed in UNREFERENCED but referenced now:"]
        + [name for name in UNREFERENCED if name not in found]
    )


def test_census_catches_what_the_retired_harness_alone_called(repository):
    # E15's 100k macro (experiments/constrained_tiers.py) and one exporter,
    # abridged from the parent, where the harness was their only caller.
    parent_constrained = '''
@dataclass
class ConstrainedMacroResult:
    delivered: int
    expected: int

    @property
    def repaired(self) -> bool:
        return self.delivered == self.expected


def run_constrained_macro(subscribers=100_000, updates=5, seed=7):
    """The lossy regime at E11 macro scale."""
    run = _run_constrained_tree(_lossy_scenario(seed), subscribers, updates, drain=6.0)
    return ConstrainedMacroResult(delivered=run.delivered, expected=subscribers * updates)
'''
    parent_export = '''
def write_spans_jsonl(tracer, path):
    records = spans_to_records(tracer)
    with open(path, "w", encoding="utf-8") as stream:
        _write_jsonl(stream, records)
    return len(records)


def _write_jsonl(stream, records):
    for record in records:
        stream.write(json.dumps(record, separators=(",", ":")))
'''
    modules = {
        "experiments/constrained_macro.py": parent_constrained,
        "telemetry/export.py": parent_export,
    }
    _, _, where = repository
    snippets = index({f"src/repro/{path}": source for path, source in modules.items()})
    assert orphans(modules, where, snippets) == [
        "experiments/constrained_macro.py::run_constrained_macro",
        "telemetry/export.py::write_spans_jsonl",
    ]
    # A name read through ``getattr``, or written in a string annotation, is used.
    hooked = 'handler = getattr(sink, "write_spans_jsonl", None)\nmacro: "run_constrained_macro | None"\n'
    assert orphans(modules, where, snippets, index({"src/repro/hooks.py": hooked})) == []


def unused_imports(source: str, path: str) -> list[str]:
    """Every ``path:line: name`` that ``source`` imports and never uses.

    A use is the bare name anywhere, or inside a string that parses as an
    expression (a string annotation, an ``__all__`` entry).  Imports on a
    ``# noqa: F401`` line and ``from __future__`` are not checked.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[str, int]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if EXPRESSION.fullmatch(node.value):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(child.id for child in ast.walk(expression) if isinstance(child, ast.Name))
    return [f"{path}:{line}: {name}" for name, line in imported if name not in used]


def test_nothing_under_src_imports_what_it_does_not_use(repository):
    modules, _, _ = repository
    found = [
        unused
        for path, source in modules.items()
        if not path.endswith("__init__.py")
        for unused in unused_imports(source, f"src/repro/{path}")
    ]
    assert not found, "\n".join(["imported and never used (delete the import):", *found])


def test_guard_catches_an_unused_import():
    # quic/connection.py's imports as they stood before the guard, abridged.
    parent_connection = """
from __future__ import annotations

from typing import Callable, Protocol
from repro.netsim.packet import Address, Datagram
from repro.quic.stream import (
    QuicStream,
    stream_initiator_is_client,
)
from repro.quic.tls import MOQT_ALPN  # noqa: F401 - re-exported


class ConnectionDelegate(Protocol):
    on_closed: "Callable[[int, str], None]"


def open_stream(peer: Address) -> QuicStream:
    return QuicStream(0)
"""
    assert unused_imports(parent_connection, "quic/connection.py") == [
        "quic/connection.py:5: Datagram",
        "quic/connection.py:6: stream_initiator_is_client",
    ]


def harness_uses(source: str, path: str) -> list[str]:
    """Every ``path:line: what`` where a module imports the retired harness or
    names its reference document."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "BENCH_fastpath" in node.value:
            found.append(f"{path}:{node.lineno}: names BENCH_fastpath")
            continue
        else:
            continue
        if any("perf_fastpath" in module for module in modules):
            found.append(f"{path}:{node.lineno}: imports perf_fastpath")
    return found


def test_one_benchmark_system(repository):
    _, corpus, _ = repository
    this = Path(__file__).resolve().relative_to(REPO).as_posix()
    found = [
        reason
        for path, source in corpus.items()
        if path != this and ("perf_fastpath" in source or "BENCH_fastpath" in source)
        for reason in harness_uses(source, path)
    ]
    assert not found, "\n".join(["the retired perf harness is back:", *found])
    benchmarks = REPO / "benchmarks"
    assert [
        file.relative_to(benchmarks).as_posix()
        for file in sorted(benchmarks.rglob("*.py"))
        if file.relative_to(benchmarks).parts[0] != "e2e"
    ] == BENCHMARK_STRAGGLERS
    assert not (REPO / "BENCH_fastpath.json").exists()
    for workflow in sorted((REPO / ".github" / "workflows").glob("*.yml")):
        text = workflow.read_text()
        for retired in ("perf_fastpath", "BENCH_fastpath", "pytest-benchmark", "benchmarks/bench_"):
            assert retired not in text, f"{workflow.name} still mentions {retired}"


def test_guard_catches_the_harness_coming_back():
    # tests/test_megafan.py's harness import and the CI gate's reference
    # document, as they stood before the harness was retired.
    parent_megafan = """
class TestPerfHarness:
    def _import_harness(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "perf"))
        import perf_fastpath

        return perf_fastpath

    def test_check_against_reference_gates_on_throughput(self, tmp_path):
        from perf_fastpath import check_against_reference

        reference = json.loads(Path("BENCH_fastpath.json").read_text())
"""
    assert harness_uses(parent_megafan, "tests/test_megafan.py") == [
        "tests/test_megafan.py:5: imports perf_fastpath",
        "tests/test_megafan.py:10: imports perf_fastpath",
        "tests/test_megafan.py:12: names BENCH_fastpath",
    ]
    # The e2e benchmark's own check that it does not import the harness is not a use.
    e2e_check = 'assert not any("perf_fastpath" in module for module in imported)\n'
    assert harness_uses(e2e_check, "benchmarks/e2e/test_e2e_bench.py") == []


#: Expressions and calls that build a mutable table when bound to a
#: module-level name.
TABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
TABLE_CONSTRUCTORS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
    "WeakKeyDictionary", "WeakValueDictionary", "WeakSet",
}
#: Methods that write a table.
TABLE_WRITES = {"clear", "pop", "setdefault", "update", "append", "add"}


def _builds_a_table(value: ast.expr | None) -> bool:
    if isinstance(value, TABLE_DISPLAYS):
        return True
    if not isinstance(value, ast.Call):
        return False
    function = value.func
    name = function.id if isinstance(function, ast.Name) else getattr(function, "attr", "")
    return name in TABLE_CONSTRUCTORS


def module_table_writes(source: str, path: str) -> list[str]:
    """Every ``path:line: name`` where a function writes a module-level table.

    A function that binds the name itself (an argument, an assignment)
    without declaring it ``global`` writes its own local, not the table; a
    local bound to the table itself (``cache = _CACHE``) is the table.
    """
    tree = ast.parse(source)
    tables = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _builds_a_table(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            tables.update(target.id for target in targets if isinstance(target, ast.Name))
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = list(ast.walk(function))
        declared = {name for node in body if isinstance(node, ast.Global) for name in node.names}
        local = {node.arg for node in body if isinstance(node, ast.arg)}
        local |= {node.id for node in body if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        # Local name -> the table it names.
        written = {name: name for name in tables - (local - declared)}
        for node in body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in written:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        written[target.id] = written[node.value.id]
        for node in body:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in TABLE_WRITES:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in written:
                found.add((node.lineno, written[target.id]))
    return [f"{path}:{line}: {name}" for line, name in sorted(found)]


def test_no_module_level_table_is_written_at_run_time(repository):
    modules, _, _ = repository
    found = [
        write
        for path, source in modules.items()
        for write in module_table_writes(source, f"src/repro/{path}")
    ]
    assert not found, "\n".join(
        ["a function writes a module-level table (process-wide state: keep it on an object of the run):"]
        + found
    )


def test_guard_catches_a_process_wide_memo():
    # The two module-level decode memos and the per-simulator registry as
    # they stood before the decode memo became the simulator's, abridged.
    parent_memos = """
from weakref import WeakKeyDictionary

_DECODERS = {0x20: ClientSetup, 0x21: ServerSetup}
_CONTROL_MESSAGE_CACHE: dict[tuple[int, bytes], "ControlMessage"] = {}
_MEMOS: WeakKeyDictionary[Simulator, AnswerMemo] = WeakKeyDictionary()
_COMPLETE_STREAM_CACHE = {}


def decode_control_message(key):
    message = _CONTROL_MESSAGE_CACHE.get(key)
    if message is None:
        message = _DECODERS[key[0]].decode_payload(key[1])
        if len(_CONTROL_MESSAGE_CACHE) >= 512:
            _CONTROL_MESSAGE_CACHE.clear()
        _CONTROL_MESSAGE_CACHE[key] = message
    return message


def answer_memo(simulator):
    memo = _MEMOS.get(simulator)
    if memo is None:
        memo = _MEMOS[simulator] = AnswerMemo()
    return memo


def decode_complete_datastream(data):
    cache = _COMPLETE_STREAM_CACHE
    if len(cache) >= 512:
        cache.clear()
    cache[data] = result = _decode(data)
    return result


def shadowing(_DECODERS):
    _DECODERS[0x20] = None
"""
    assert module_table_writes(parent_memos, "moqt/messages.py") == [
        "moqt/messages.py:15: _CONTROL_MESSAGE_CACHE",
        "moqt/messages.py:16: _CONTROL_MESSAGE_CACHE",
        "moqt/messages.py:23: _MEMOS",
        "moqt/messages.py:30: _COMPLETE_STREAM_CACHE",
        "moqt/messages.py:31: _COMPLETE_STREAM_CACHE",
    ]


# ---------------------------------------------------------------- slotted values
#: The packages whose frozen dataclasses must be slotted.
SLOTTED_PACKAGES = ("dns", "moqt", "core")


def _frozen_without_slots(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        function = decorator.func
        name = function.id if isinstance(function, ast.Name) else getattr(function, "attr", "")
        if name != "dataclass":
            continue
        flags = {
            keyword.arg: keyword.value.value
            for keyword in decorator.keywords
            if isinstance(keyword.value, ast.Constant)
        }
        return flags.get("frozen") is True and flags.get("slots") is not True
    return False


def _names_cached_property(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "cached_property" for alias in node.names)
    return getattr(node, "id", None) == "cached_property" or getattr(node, "attr", None) == "cached_property"


def _names_a_dict(node: ast.expr, aliases: set[str]) -> bool:
    """``x.__dict__``, ``vars(x)`` or a local bound to one of them."""
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
        return True
    return isinstance(node, ast.Name) and node.id in aliases


def uncompact_values(source: str, path: str, package: str) -> list[str]:
    """Every ``path:line: what`` that gives a value an instance ``__dict__``.

    In ``SLOTTED_PACKAGES``: a frozen dataclass without ``slots=True`` and any
    mention of ``cached_property``.  Anywhere: a function that writes an
    instance ``__dict__`` — an item store or delete, or an in-place dict
    method, on ``x.__dict__``, on ``vars(x)`` or on a local bound to either.
    """
    tree = ast.parse(source)
    found = set()
    if package in SLOTTED_PACKAGES:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _frozen_without_slots(node):
                found.add((node.lineno, f"frozen dataclass {node.name} without slots=True"))
            if _names_cached_property(node):
                found.add((node.lineno, "cached_property"))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = list(ast.walk(function))
        aliases = {
            target.id
            for node in body
            if isinstance(node, ast.Assign) and _names_a_dict(node.value, set())
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in body:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in TABLE_WRITES:
                target = node.func.value
            else:
                continue
            if _names_a_dict(target, aliases):
                found.add((node.lineno, "writes an instance __dict__"))
    return [f"{path}:{line}: {what}" for line, what in sorted(found)]


def test_every_value_is_slotted(repository):
    modules, _, _ = repository
    found = [
        offence
        for path, source in modules.items()
        for offence in uncompact_values(source, f"src/repro/{path}", path.split("/")[0])
    ]
    assert not found, "\n".join(
        ["a value with an instance __dict__ (slot it, docs/state.md § The rule):"] + found
    )


def test_guard_catches_a_dict_backed_value():
    # Four values and two decoders as they stood before the values were
    # slotted, abridged, plus a ``vars`` write.
    parent_values = """
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class MoqtObject:
    group_id: int
    object_id: int

    @cached_property
    def location(self):
        return Location(self.group_id, self.object_id)


@dataclass(frozen=True, order=True)
class Question:
    qname: Name

    @classmethod
    def from_wire(cls, wire, offset, table=None):
        question = object.__new__(cls)
        fields = question.__dict__
        fields["qname"] = qname
        return question, end


@dataclass(frozen=True, slots=True)
class Flags:
    qr: bool = False


@dataclass(slots=True)
class TrackedSubscription:
    lookups: int = 1


def from_wire(cls, wire):
    rdata = object.__new__(cls)
    rdata.__dict__.update(address=text, _packed=packed, _text=text)
    vars(rdata)["address"] = text
    return rdata
"""
    assert uncompact_values(parent_values, "moqt/objectmodel.py", "moqt") == [
        "moqt/objectmodel.py:3: cached_property",
        "moqt/objectmodel.py:7: frozen dataclass MoqtObject without slots=True",
        "moqt/objectmodel.py:11: cached_property",
        "moqt/objectmodel.py:17: frozen dataclass Question without slots=True",
        "moqt/objectmodel.py:24: writes an instance __dict__",
        "moqt/objectmodel.py:40: writes an instance __dict__",
        "moqt/objectmodel.py:41: writes an instance __dict__",
    ]
    # Outside the value packages only the ``__dict__`` writes count.
    assert uncompact_values(parent_values, "relaynet/spec.py", "relaynet") == [
        "relaynet/spec.py:24: writes an instance __dict__",
        "relaynet/spec.py:40: writes an instance __dict__",
        "relaynet/spec.py:41: writes an instance __dict__",
    ]


#: Classes that are not dataclasses and must declare ``__slots__``:
#: ``path under src/repro -> class names``.
SLOTTED_CONTAINERS = {
    "dns/name.py": ("Name",),
    "dns/rr.py": ("RRset",),
    "dns/zone.py": ("Zone",),
}


def unslotted_containers(source: str, path: str, names: tuple[str, ...]) -> list[str]:
    """Every ``path:line: what`` where a class in ``names`` has no ``__slots__``
    of its own, and ``path: what`` for a class in ``names`` that is missing."""
    found = []
    classes = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}
    for name in names:
        node = classes.get(name)
        if node is None:
            found.append(f"{path}: class {name} not found")
            continue
        slotted = any(
            isinstance(statement, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in (statement.targets if isinstance(statement, ast.Assign) else [statement.target])
            )
            for statement in node.body
        )
        if not slotted:
            found.append(f"{path}:{node.lineno}: class {name} without __slots__")
    return found


def test_every_hierarchy_container_is_slotted(repository):
    modules, _, _ = repository
    found = [
        offence
        for path, names in SLOTTED_CONTAINERS.items()
        for offence in unslotted_containers(modules[path], f"src/repro/{path}", names)
    ]
    assert not found, "\n".join(
        ["a hierarchy container with an instance __dict__ (docs/state.md § The DNS hierarchy):"] + found
    )


def test_guard_catches_a_dict_backed_container():
    # RRset and Zone as they stood before they were slotted, abridged.
    parent_containers = """
class RRset:
    \"""All records sharing an owner name, type and class.\"""

    def __init__(self, name, rdtype, records=(), rdclass=DNSClass.IN):
        self.name = name
        self._records = []


class Zone:
    \"""An authoritative DNS zone.\"""

    slots = ("origin",)

    def __init__(self, origin, soa=None, default_ttl=300):
        self.origin = origin
        self._listeners = []
"""
    assert unslotted_containers(parent_containers, "dns/zone.py", ("RRset", "Zone", "Name")) == [
        "dns/zone.py:2: class RRset without __slots__",
        "dns/zone.py:10: class Zone without __slots__",
        "dns/zone.py: class Name not found",
    ]
    slotted = 'class Zone:\n    __slots__ = ("origin", "_rrsets")\n'
    assert unslotted_containers(slotted, "dns/zone.py", ("Zone",)) == []


# ------------------------------------------------------------ one failure path
#: Where a handler may not catch everything.
NARROW_EXCEPT_PACKAGES = ("moqt",)
BLANKET = {"Exception", "BaseException"}


def blanket_handlers(source: str, path: str) -> list[str]:
    """Every ``path:line: except ...`` that catches ``Exception`` or
    ``BaseException``, alone, in a tuple or as a bare ``except:``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is None or any(isinstance(name, ast.Name) and name.id in BLANKET for name in names):
            found.append(f"{path}:{node.lineno}: {ast.unparse(caught) if caught else 'bare except'}")
    return found


def test_no_blanket_except_under_moqt(repository):
    modules, _, _ = repository
    found = [
        handler
        for path, source in modules.items()
        if path.split("/")[0] in NARROW_EXCEPT_PACKAGES
        for handler in blanket_handlers(source, f"src/repro/{path}")
    ]
    assert not found, "\n".join(
        ["a blanket handler under moqt/ (catch ProtocolViolation, docs/quic-receive.md):"] + found
    )


def test_guard_catches_a_blanket_except():
    # ControlStreamParser.feed's re-buffer block as it stood before the
    # decoders raised ProtocolViolation only, abridged, plus two variants.
    parent_feed = """
def feed(self, data):
    try:
        while offset < length:
            try:
                message_type, payload, offset = read_control_frame(data, offset)
            except NeedMoreData:
                break
            messages.append(decode(message_type, payload))
    except BaseException:
        if not held:
            held += data
        raise


def datagram_frame_received(self, data):
    try:
        track_alias, obj = decode_object_datagram(data)
    except (MoqtError, Exception):
        return
    try:
        self._deliver(track_alias, obj)
    except:
        pass
"""
    assert blanket_handlers(parent_feed, "moqt/messages.py") == [
        "moqt/messages.py:10: BaseException",
        "moqt/messages.py:19: (MoqtError, Exception)",
        "moqt/messages.py:23: bare except",
    ]
    # A narrow handler, a name that merely contains the word, passes.
    narrow = "try:\n    f()\nexcept (ProtocolViolation, NeedMoreData):\n    pass\nexcept MyException:\n    pass\n"
    assert blanket_handlers(narrow, "moqt/session.py") == []
