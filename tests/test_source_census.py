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
    "moqt/errors.py::SessionErrorCode": "session close codes, for ROADMAP 3(a)/3(b)'s typed closes",
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
