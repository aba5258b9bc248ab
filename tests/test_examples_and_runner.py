"""Smoke tests: every example script runs to completion, and so does the runner."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"
#: ``python -m repro.experiments.runner``'s fast-mode output, byte for byte.  It
#: is deterministic across processes, hash seeds and CPython 3.11 / 3.12; a
#: PR that moves a table re-generates this file, so its diff is the old → new list.
GOLDEN = REPO / "tests" / "golden" / "runner_fast.txt"
#: Where a failed comparison leaves what the runner printed (CI uploads it).
ACTUAL = REPO / "runner_output.txt"


def _run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES_DIR / name
    original_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = original_argv


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        _run_example("quickstart.py")
        output = capsys.readouterr().out
        assert "Cold lookup" in output
        assert "pushed update reached the stub" in output

    def test_cdn_load_balancing(self, capsys):
        _run_example("cdn_load_balancing.py")
        output = capsys.readouterr().out
        assert "fewer messages" in output
        assert "kbit/s per stub" in output

    def test_dynamic_dns(self, capsys):
        _run_example("dynamic_dns.py")
        output = capsys.readouterr().out
        assert "pushed to 4 subscribers" in output
        assert "Gbit/s" in output

    def test_deep_space(self, capsys):
        _run_example("deep_space.py")
        output = capsys.readouterr().out
        assert "answer served locally" in output
        assert "new version on Mars" in output

    def test_cdn_relay_tree(self, capsys):
        _run_example("cdn_relay_tree.py")
        output = capsys.readouterr().out
        assert "less origin traffic" in output
        assert "answered from the edge cache: hits=1 misses=0" in output
        assert "the tree absorbs" in output

    def test_measurement_study_with_custom_population(self, capsys):
        _run_example("measurement_study.py", argv=["1200"])
        output = capsys.readouterr().out
        assert "Fig. 1a" in output and "Fig. 1b" in output
        assert "shape matches: True" in output

    def test_dns_over_relay(self, capsys):
        _run_example("dns_over_relay.py")
        output = capsys.readouterr().out
        assert "forwarder via edge-0" in output
        assert "resolver via edge-1" in output
        assert "mid tier only" in output
        assert "push reached forwarder via edge-0" in output


@pytest.mark.slow
class TestRunner:
    def test_run_all_fast_produces_every_experiment(self):
        from repro.experiments.runner import render, run_all

        reports = run_all(fast=True)
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
