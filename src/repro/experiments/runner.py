"""Run every experiment and render a combined report.

``python -m repro.experiments.runner`` executes all experiments with fast
default parameters and prints their tables.  The output is deterministic —
byte for byte, across processes and hash seeds — and committed as
``tests/golden/runner_fast.txt``, which the test suite compares against.
Individual experiments are importable functions, so the benchmarks can run
them with their own parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.experiments.compatibility import run_compatibility
from repro.experiments.constrained_tiers import run_constrained_tiers
from repro.experiments.failure_detection import run_failure_detection
from repro.experiments.fig1a import run_fig1a
from repro.experiments.origin_failover import run_origin_failover
from repro.experiments.fig1b import run_fig1b
from repro.experiments.fig2_sequence import run_fig2
from repro.experiments.flash_crowd import run_flash_crowd
from repro.experiments.query_latency import run_query_latency
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments.relay_fanout import run_relay_fanout
from repro.experiments.report import format_table
from repro.experiments.staleness import run_staleness
from repro.experiments.state_overhead import run_state_overhead
from repro.experiments.traffic import run_traffic
from repro.experiments.usecases import run_usecases


@dataclass
class ExperimentReport:
    """One experiment's identifier, title and rendered table."""

    experiment_id: str
    title: str
    table: str
    result: Any


def run_all(fast: bool = True) -> list[ExperimentReport]:
    """Run every experiment; ``fast`` shrinks populations and durations."""
    reports: list[ExperimentReport] = []

    fig1a = run_fig1a(population=2_000 if fast else 10_000)
    reports.append(
        ExperimentReport("E1", "Fig. 1a — record types and TTL distribution",
                         format_table(fig1a.total_rows()), fig1a)
    )
    fig1b = run_fig1b(
        population=1_000 if fast else 10_000,
        max_domains_per_ttl=60 if fast else None,
    )
    reports.append(
        ExperimentReport("E2", "Fig. 1b — change rate per TTL",
                         format_table(fig1b.rows()), fig1b)
    )
    fig2 = run_fig2()
    reports.append(
        ExperimentReport("E3", "Fig. 2 — recursive DNS-over-MoQT lookup sequence",
                         format_table(fig2.rows()), fig2)
    )
    latency = run_query_latency()
    reports.append(
        ExperimentReport("E4", "§5.2 — query latency per transport scenario",
                         format_table(latency.rows()), latency)
    )
    staleness = run_staleness(ttls=[10, 60] if fast else [10, 60, 300])
    reports.append(
        ExperimentReport("E5", "§5 — update timeliness (staleness)",
                         format_table(staleness.rows()), staleness)
    )
    traffic = run_traffic(duration=120.0 if fast else 600.0,
                          configurations=[(10, 30.0), (60, 600.0)] if fast else None)
    reports.append(
        ExperimentReport("E6", "§5 — upstream message counts (polling vs pub/sub)",
                         format_table(traffic.rows()), traffic)
    )
    usecases = run_usecases(simulated_duration=30.0 if fast else 120.0)
    reports.append(
        ExperimentReport("E7/E8", "§5.3 — use-case traffic estimates",
                         format_table(usecases.rows()), usecases)
    )
    state = run_state_overhead(questions=200 if fast else 1000)
    reports.append(
        ExperimentReport("E9", "§5.1 — state overhead and teardown policies",
                         format_table(state.rows()), state)
    )
    compatibility = run_compatibility(ttl=10 if fast else 30)
    reports.append(
        ExperimentReport("E10", "§4.5 — compatibility / incremental deployment",
                         format_table(compatibility.rows()), compatibility)
    )
    fanout = run_relay_fanout(
        subscriber_counts=(10, 50) if fast else (10, 100, 1000),
        updates=3 if fast else 5,
        mid_relays=2 if fast else 4,
        edge_per_mid=2 if fast else 4,
    )
    reports.append(
        ExperimentReport("E11", "§3/§5.3 — relay fan-out: origin egress vs subscribers",
                         format_table(fanout.rows()), fanout)
    )
    churn = run_relay_churn(
        subscribers=60 if fast else 1000,
        mid_relays=2 if fast else 4,
        edge_per_mid=2 if fast else 4,
        updates_before=2 if fast else 4,
        updates_between=2 if fast else 4,
        updates_after=2 if fast else 4,
    )
    churn_table = "\n\n".join(
        [format_table(churn.rows()), format_table([churn.summary_row()])]
    )
    reports.append(
        ExperimentReport("E12", "§3/§5.3 — relay churn: failover and FETCH gap recovery",
                         churn_table, churn)
    )
    detection = run_failure_detection(
        subscribers=60 if fast else 1000,
        mid_relays=2 if fast else 4,
        edge_per_mid=2 if fast else 4,
        updates_before=2 if fast else 4,
        updates_between=4 if fast else 6,
        updates_after=4 if fast else 6,
    )
    detection_table = "\n\n".join(
        [format_table(detection.rows()), format_table([detection.summary_row()])]
    )
    reports.append(
        ExperimentReport("E13", "§3/§5.3 — in-band failure detection: PTO/idle-driven failover",
                         detection_table, detection)
    )
    failover = run_origin_failover(
        subscribers=60 if fast else 1000,
        mid_relays=2 if fast else 4,
        edge_per_mid=2 if fast else 4,
        updates_before=2 if fast else 4,
        updates_between=4 if fast else 6,
        updates_after=4 if fast else 6,
    )
    failover_table = "\n\n".join(
        [format_table(failover.rows()), format_table([failover.summary_row()])]
    )
    reports.append(
        ExperimentReport("E14", "§3/§5.3 — origin failover: replicated origin, in-band promotion",
                         failover_table, failover)
    )
    constrained = run_constrained_tiers(
        subscribers=20 if fast else 100,
        updates=3 if fast else 5,
        mid_relays=2 if fast else 4,
        edge_per_mid=2 if fast else 4,
    )
    constrained_table = "\n\n".join(
        [
            format_table(constrained.rows()),
            format_table([constrained.loss_sample.as_row()]),
            format_table([constrained.summary_row()]),
        ]
    )
    reports.append(
        ExperimentReport("E15", "§3/§5.3 — constrained tiers: the serialisation-vs-propagation knee",
                         constrained_table, constrained)
    )
    crowd = run_flash_crowd(
        stormers=24 if fast else 100,
        baseline_stormers=(16, 48) if fast else (50, 200),
    )
    crowd_table = "\n\n".join(
        [
            format_table([sample.as_row() for sample in crowd.baselines]),
            format_table([crowd.throttled.as_row()]),
            format_table([crowd.spillover.as_row()]),
            format_table([crowd.summary_row()]),
        ]
    )
    reports.append(
        ExperimentReport("E16", "§3 robustness — flash-crowd admission: bounded relays vs unbounded queues",
                         crowd_table, crowd)
    )
    return reports


def render(reports: list[ExperimentReport]) -> str:
    """The combined report as printed text."""
    return "".join(
        f"== {report.experiment_id}: {report.title}\n{report.table}\n\n"
        for report in reports
    )


def main() -> None:
    """Entry point for ``python -m repro.experiments.runner``."""
    print(render(run_all(fast=True)), end="")


if __name__ == "__main__":
    main()
