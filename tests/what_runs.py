"""What runs, by line: the ``src/repro`` statements no run executes.

Runs, in one process under a ``sys.settrace`` line tracer (stdlib only):
the experiment runner (``python -m repro.experiments.runner``), the seven
``examples/*.py`` (``measurement_study.py`` with argument ``1200``, as the
golden tests run it) and two trials of each of the five end-to-end benchmark
workloads at ``--scale smoke`` (seed 7): a plain one and one that scrapes
the per-layer counters, as ``run.py --trace 1`` does.  Their printed output
is discarded.

A statement is an ``ast`` statement other than a docstring, a ``def`` or a
``class`` (those run at import and tell nothing about what runs), named by
its first line; it ran if the tracer saw a line of it (a compound statement:
of its header or its first body statement).  The report prints, per file
with a statement left unexecuted, the count and the unexecuted lines as
ranges, then the totals per directory and overall.

    PYTHONPATH=src python tests/what_runs.py > what_runs.txt

Nothing is asserted: the report is what CI uploads, and what reads 0 calls
in it is a candidate for deletion, for a test-only listing in
``tests/test_source_census.py`` or for a workload that reaches it.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import ast
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
EXAMPLES = {path.name: [] for path in sorted((REPO / "examples").glob("*.py"))}
EXAMPLES["measurement_study.py"] = ["1200"]
WORKLOADS = ("dns_lookup", "dns_update", "tree_attach", "tree_fanout", "tree_lossy")
SEED = 7
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: Path) -> dict[int, range]:
    """Statement line -> the lines whose execution shows it ran.

    Every statement but a docstring, a ``def`` and a ``class`` (which run at
    import and tell nothing): a simple statement by any of its lines, a
    compound one by its header or its first body statement.
    """
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS + (ast.Module,))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    shown: dict[int, range] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, DEFINITIONS) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno if body else node.end_lineno
        shown[node.lineno] = range(node.lineno, last + 1)
    return shown


class LineTracer:
    """Records the ``(file, line)`` events of frames whose code is under ``src/repro``."""

    def __init__(self) -> None:
        self.executed: dict[str, set[int]] = defaultdict(set)
        self._prefix = str(SRC)

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefix):
            return None
        lines = self.executed[filename]
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def run_everything(tracer: LineTracer) -> None:
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    argv = sys.argv
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer.tracing():
            runpy.run_module("repro.experiments.runner", run_name="__main__")
            import workloads  # the benchmark's module: what it imports runs traced

        calibrator = workloads.Calibrator()
        for name, arguments in EXAMPLES.items():
            path = REPO / "examples" / name
            sys.argv = [str(path), *arguments]
            try:
                with tracer.tracing():
                    runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = argv
        for name in WORKLOADS:
            for scraped in (False, True):
                trial = workloads.Trial(calibrator, tracing=scraped)
                with tracer.tracing():
                    workloads.WORKLOADS[name][0](trial, workloads.SCALES["smoke"][name], SEED)


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in spans)


def report(tracer: LineTracer) -> str:
    rows = []
    by_directory: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        total = statements(path)
        executed = tracer.executed.get(str(path), set())
        missed = [line for line, shown in sorted(total.items()) if executed.isdisjoint(shown)]
        directory = relative.split("/")[0] if "/" in relative else "."
        by_directory[directory][0] += len(missed)
        by_directory[directory][1] += len(total)
        if missed:
            rows.append(f"{relative}: {len(missed)} of {len(total)} unexecuted: {ranges(missed)}")
    missed_total = sum(missed for missed, _ in by_directory.values())
    statement_total = sum(total for _, total in by_directory.values())
    rows.append("")
    rows.append("unexecuted statements by directory")
    rows.extend(
        f"  {directory:12s} {missed:6d} of {total:6d}"
        for directory, (missed, total) in sorted(by_directory.items())
    )
    rows.append(f"src/repro: {missed_total} of {statement_total} statements unexecuted")
    return "\n".join(rows)


def main() -> int:
    tracer = LineTracer()
    run_everything(tracer)
    print(report(tracer))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order follows the hash seed, and with it a few
        # branches: the report is taken at seed 0, as the ledger is.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
