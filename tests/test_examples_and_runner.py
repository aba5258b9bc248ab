"""Smoke tests: every example script prints what it printed before, byte for
byte, and the runner prints its golden tables."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"
#: ``python -m repro.experiments.runner``'s output, byte for byte.  It
#: is deterministic across processes, hash seeds and CPython 3.11 / 3.12; a
#: PR that moves a table re-generates this file, so its diff is the old → new list.
GOLDEN = REPO / "tests" / "golden" / "runner.txt"
#: Where a failed comparison leaves what the runner printed (CI uploads it).
ACTUAL = REPO / "runner_output.txt"
#: Each example's stdout, byte for byte, as ``tests/golden/examples/<name>.txt``
#: (``dynamic_dns.py`` is the one multi-hop user of the network).  They are
#: the same across hash seeds on CPython 3.11; CI runs them on 3.12 as well.
#: A PR that moves one re-generates it with ``PYTHONPATH=src python
#: examples/<name>.py [arguments] > tests/golden/examples/<name>.txt``.
EXAMPLE_GOLDEN = REPO / "tests" / "golden" / "examples"
#: Where a failed comparison leaves what the example printed (CI uploads it).
EXAMPLE_ACTUAL = REPO / "example_output"


def _run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES_DIR / name
    original_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = original_argv


def _assert_example_output(capsys, name: str, argv: list[str] | None = None) -> None:
    _run_example(f"{name}.py", argv)
    output = capsys.readouterr().out.encode("utf-8")
    golden = EXAMPLE_GOLDEN / f"{name}.txt"
    if output != golden.read_bytes():
        EXAMPLE_ACTUAL.mkdir(exist_ok=True)
        (EXAMPLE_ACTUAL / f"{name}.txt").write_bytes(output)
        pytest.fail(
            f"{name}.py output moved: diff {golden.relative_to(REPO)} against "
            f"{EXAMPLE_ACTUAL.name}/{name}.txt"
        )


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        _assert_example_output(capsys, "quickstart")

    def test_cdn_load_balancing(self, capsys):
        _assert_example_output(capsys, "cdn_load_balancing")

    def test_dynamic_dns(self, capsys):
        _assert_example_output(capsys, "dynamic_dns")

    def test_deep_space(self, capsys):
        _assert_example_output(capsys, "deep_space")

    def test_cdn_relay_tree(self, capsys):
        _assert_example_output(capsys, "cdn_relay_tree")

    def test_measurement_study_with_custom_population(self, capsys):
        _assert_example_output(capsys, "measurement_study", argv=["1200"])

    def test_dns_over_relay(self, capsys):
        _assert_example_output(capsys, "dns_over_relay")


@pytest.mark.slow
class TestRunner:
    def test_run_all_produces_every_experiment(self):
        from repro.experiments.runner import render, run_all

        reports = run_all()
        identifiers = [report.experiment_id for report in reports]
        assert identifiers == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7/E8", "E9", "E10", "E11", "E12",
            "E13", "E14", "E15", "E16",
        ]
        for report in reports:
            assert report.table and "-" in report.table
        output = render(reports)
        if output != GOLDEN.read_text():
            ACTUAL.write_text(output)
            pytest.fail(
                f"runner output moved: diff {GOLDEN.relative_to(REPO)} against "
                f"{ACTUAL.name} (re-generate with `PYTHONPATH=src python -m "
                f"repro.experiments.runner > {GOLDEN.relative_to(REPO)}`)"
            )
