"""Run every experiment and render a combined report.

``python -m repro.experiments.runner`` executes all experiments and prints
their tables.  The output is deterministic — byte for byte, across processes
and hash seeds — and committed as ``tests/golden/runner.txt``, which the test
suite compares against.  Individual experiments are importable functions.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def run_all() -> list[ExperimentReport]:
    """Run every experiment at the runner's populations and durations."""
    reports: list[ExperimentReport] = []

    fig1a = run_fig1a(population=2_000)
    reports.append(
        ExperimentReport("E1", "Fig. 1a — record types and TTL distribution",
                         format_table(fig1a.total_rows()))
    )
    fig1b = run_fig1b(population=1_000, max_domains_per_ttl=60)
    reports.append(
        ExperimentReport("E2", "Fig. 1b — change rate per TTL",
                         format_table(fig1b.rows()))
    )
    fig2 = run_fig2()
    reports.append(
        ExperimentReport("E3", "Fig. 2 — recursive DNS-over-MoQT lookup sequence",
                         format_table(fig2.rows()))
    )
    latency = run_query_latency()
    reports.append(
        ExperimentReport("E4", "§5.2 — query latency per transport scenario",
                         format_table(latency.rows()))
    )
    staleness = run_staleness(ttls=[10, 60])
    reports.append(
        ExperimentReport("E5", "§5 — update timeliness (staleness)",
                         format_table(staleness.rows()))
    )
    traffic = run_traffic(configurations=[(10, 30.0), (60, 600.0)], duration=120.0)
    reports.append(
        ExperimentReport("E6", "§5 — upstream message counts (polling vs pub/sub)",
                         format_table(traffic.rows()))
    )
    usecases = run_usecases()
    reports.append(
        ExperimentReport("E7/E8", "§5.3 — use-case traffic estimates",
                         format_table(usecases.rows()))
    )
    state = run_state_overhead()
    reports.append(
        ExperimentReport("E9", "§5.1 — state overhead and teardown policies",
                         format_table(state.rows()))
    )
    compatibility = run_compatibility()
    reports.append(
        ExperimentReport("E10", "§4.5 — compatibility / incremental deployment",
                         format_table(compatibility.rows()))
    )
    fanout = run_relay_fanout(
        subscriber_counts=(10, 50),
        updates=3,
        mid_relays=2,
        edge_per_mid=2,
    )
    reports.append(
        ExperimentReport("E11", "§3/§5.3 — relay fan-out: origin egress vs subscribers",
                         format_table(fanout.rows()))
    )
    churn = run_relay_churn(
        subscribers=60,
        mid_relays=2,
        edge_per_mid=2,
        updates_before=2,
        updates_between=2,
        updates_after=2,
    )
    churn_table = "\n\n".join(
        [format_table(churn.rows()), format_table([churn.summary_row()])]
    )
    reports.append(
        ExperimentReport("E12", "§3/§5.3 — relay churn: failover and FETCH gap recovery",
                         churn_table)
    )
    detection = run_failure_detection(
        subscribers=60,
        mid_relays=2,
        edge_per_mid=2,
        updates_before=2,
        updates_between=4,
        updates_after=4,
    )
    detection_table = "\n\n".join(
        [format_table(detection.rows()), format_table([detection.summary_row()])]
    )
    reports.append(
        ExperimentReport("E13", "§3/§5.3 — in-band failure detection: PTO/idle-driven failover",
                         detection_table)
    )
    failover = run_origin_failover(
        subscribers=60,
        mid_relays=2,
        edge_per_mid=2,
        updates_before=2,
        updates_between=4,
        updates_after=4,
    )
    failover_table = "\n\n".join(
        [format_table(failover.rows()), format_table([failover.summary_row()])]
    )
    reports.append(
        ExperimentReport("E14", "§3/§5.3 — origin failover: replicated origin, in-band promotion",
                         failover_table)
    )
    constrained = run_constrained_tiers()
    constrained_table = "\n\n".join(
        [
            format_table(constrained.rows()),
            format_table([constrained.loss_sample.as_row()]),
            format_table([constrained.summary_row()]),
        ]
    )
    reports.append(
        ExperimentReport("E15", "§3/§5.3 — constrained tiers: the serialisation-vs-propagation knee",
                         constrained_table)
    )
    crowd = run_flash_crowd()
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
                         crowd_table)
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
    print(render(run_all()), end="")


if __name__ == "__main__":
    main()
