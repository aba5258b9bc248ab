"""Experiment drivers: one module per figure / quantitative claim of the paper.

Every experiment follows the same pattern: build a topology on the
discrete-event simulator (or take the workload models directly), run the
scenario, and return a small result dataclass whose fields correspond to the
rows/series the paper reports.  The benchmarks in ``benchmarks/`` call these
drivers; :mod:`repro.experiments.runner` prints every table, and
``tests/golden/runner_fast.txt`` records its fast-mode output.  E11–E16 run
on a relay tree stood up through :mod:`repro.relaynet.scenario`.

| Experiment | Paper artefact | Module |
|---|---|---|
| E1 | Fig. 1a TTL distribution | :mod:`repro.experiments.fig1a` |
| E2 | Fig. 1b change rates | :mod:`repro.experiments.fig1b` |
| E3 | Fig. 2 lookup sequence | :mod:`repro.experiments.fig2_sequence` |
| E4 | §5.2 query latency | :mod:`repro.experiments.query_latency` |
| E5 | §2/§5 update timeliness | :mod:`repro.experiments.staleness` |
| E6 | §2/§5 update traffic | :mod:`repro.experiments.traffic` |
| E7/E8 | §5.3 use-case estimates | :mod:`repro.experiments.usecases` |
| E9 | §5.1 state overhead | :mod:`repro.experiments.state_overhead` |
| E10 | §4.5 compatibility | :mod:`repro.experiments.compatibility` |
| E11 | §3/§5.3 relay fan-out | :mod:`repro.experiments.relay_fanout` |
| E12 | relay churn: failover, gap recovery | :mod:`repro.experiments.relay_churn` |
| E13 | in-band failure detection | :mod:`repro.experiments.failure_detection` |
| E14 | origin failover | :mod:`repro.experiments.origin_failover` |
| E15 | constrained, lossy tiers | :mod:`repro.experiments.constrained_tiers` |
| E16 | flash-crowd admission | :mod:`repro.experiments.flash_crowd` |
"""

from repro.experiments.topology import SmallTopology, SmallTopologyConfig
from repro.experiments.report import format_table

__all__ = ["SmallTopology", "SmallTopologyConfig", "format_table"]
