"""The relay-tree runs an E11–E16 driver stands up, scraped after it returns.

A driver keeps its :class:`~repro.relaynet.scenario.ScenarioRun` to itself;
``captured_runs(monkeypatch, driver_module)`` records every run the driver
builds, in order, and ``scrape(run)`` is the end-of-run gauge scrape the
end-to-end benchmark takes (``collect_run`` into a fresh registry).  A driver
runs nothing after it has scored its run, so the scrape reads what the
run's end left.
"""

from __future__ import annotations

from repro.relaynet.scenario import Scenario, ScenarioRun
from repro.telemetry import MetricsRegistry
from repro.telemetry.collect import collect_run


def captured_runs(monkeypatch, driver) -> list[ScenarioRun]:
    """Every run ``driver`` (an experiments module) builds from now on."""
    runs: list[ScenarioRun] = []
    build = driver.build_scenario

    def capture(scenario: Scenario) -> ScenarioRun:
        run = build(scenario)
        runs.append(run)
        return run

    monkeypatch.setattr(driver, "build_scenario", capture)
    return runs


def scrape(run: ScenarioRun) -> dict[str, object]:
    """``run``'s network, simulator and tree gauges, by their scraped names."""
    registry = MetricsRegistry()
    collect_run(registry, run.network, run.topology)
    return registry.snapshot()
