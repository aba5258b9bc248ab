"""E16 — flash-crowd admission: bounded relays vs. the unbounded baseline.

A flash crowd — thousands of resolvers joining a popular track inside a
few tens of milliseconds — is the robustness case the relay tree has to
survive: §3's payload-oblivious fan-out only helps if an edge relay can
*refuse* work it cannot absorb instead of queueing it without bound.
This experiment injects synchronized subscribe storms
(:meth:`~repro.relaynet.topology.RelayTopology.flash_crowd`) and measures
three regimes on the deterministic simulator:

1. **Baseline (no admission control).**  An unlimited relay takes every
   SUBSCRIBE of a cold-track storm into its pending-subscribe queue while
   the single upstream subscription completes — the queue's high-water
   mark equals the storm size and grows without bound as storms grow.
   Nothing is lost on the simulator, but the pathology the admission
   policy exists to cap is measured directly.
2. **Token-bucket admission.**  The same storm against a rate-limited
   relay: the overflow is answered with ``SUBSCRIBE_ERROR(retry_after)``,
   every rejected client retries once at its reserved token slot, and
   100% are eventually admitted.  Measured completion time and the full
   join-latency distribution must match the closed-form replay in
   :mod:`repro.analysis.admission` **bit-exactly**.
3. **Spillover.**  The geo-concentrated crowd: the storm pinned to one
   edge relay of a wider tier, with client-side spillover enabled —
   rejected subscribers re-home to the least-loaded non-saturated
   sibling, spreading a local hotspot across the tier while still
   admitting everyone.

Determinism: the storms draw nothing from the RNG (every rejection
advertises ``retry_after`` and retries are reservation-scheduled), so
repeated runs with one seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.admission import AdmissionModel, percentile
from repro.moqt.origin import TRACK
from repro.relaynet import AdmissionPolicy, RelayTreeSpec
from repro.relaynet.scenario import Scenario, ScenarioRun, build_scenario
from repro.telemetry import Telemetry

#: Virtual seconds given to tree setup / pre-warm before a storm fires.
SETTLE = 3.0
#: Virtual seconds the simulator runs after the last join to drain retries.
DRAIN = 10.0


def _settled_star(
    seed: int,
    relays: int,
    admission: AdmissionPolicy | None,
    prewarm: int,
    telemetry: Telemetry | None,
) -> ScenarioRun:
    """One star tree below the origin, optionally pre-warmed, and settled."""
    run = build_scenario(
        Scenario(
            spec=RelayTreeSpec.star(relays=relays),
            seed=seed,
            admission=admission,
            telemetry=telemetry,
        )
    )
    if prewarm:
        run.topology.attach_subscribers(prewarm)
        run.topology.subscribe_all(TRACK)
    run.advance(SETTLE)
    return run


# --------------------------------------------------------------------- baseline
@dataclass
class BaselineSample:
    """One cold-track storm against an *unlimited* relay."""

    stormers: int
    admitted: int
    #: Largest pending-subscribe queue the relay ever held — the unbounded
    #: pathology: equals the storm size and keeps growing with it.
    pending_high_water: int
    rejections: int

    def as_row(self) -> dict[str, object]:
        return {
            "scenario": "baseline",
            "stormers": self.stormers,
            "admitted": self.admitted,
            "rejections": self.rejections,
            "pending_high_water": self.pending_high_water,
        }


def _run_baseline(
    stormers: int, window: float, seed: int, telemetry: Telemetry | None
) -> BaselineSample:
    run = _settled_star(seed, relays=1, admission=None, prewarm=0, telemetry=telemetry)
    storm = run.topology.flash_crowd(stormers, window, TRACK)
    run.advance(DRAIN)
    run.collect()
    relay = run.topology.leaves()[0].relay
    return BaselineSample(
        stormers=stormers,
        admitted=storm.admitted,
        pending_high_water=relay.statistics.pending_subscribe_high_water,
        rejections=relay.statistics.admission_rejections,
    )


# -------------------------------------------------------------------- throttled
@dataclass
class ThrottledSample:
    """One storm against a rate-limited relay, measured vs. the model."""

    stormers: int
    window: float
    policy: AdmissionPolicy
    admitted: int
    rejections: int
    measured_completion: float
    model_completion: float
    measured_p99_join: float
    model_p99_join: float
    #: Whether measured completion AND every join latency matched the
    #: closed-form replay float-for-float.
    exact: bool
    #: Analytic drain floor ``(count - depth) / rate`` the measured
    #: completion must dominate.
    drain_floor: float
    pending_high_water: int

    def as_row(self) -> dict[str, object]:
        return {
            "scenario": "throttled",
            "stormers": self.stormers,
            "admitted": self.admitted,
            "rejections": self.rejections,
            "completion_s": round(self.measured_completion, 6),
            "model_s": round(self.model_completion, 6),
            "p99_join_s": round(self.measured_p99_join, 6),
            "model_p99_s": round(self.model_p99_join, 6),
            "drain_floor_s": round(self.drain_floor, 6),
            "exact": self.exact,
            "pending_high_water": self.pending_high_water,
        }


def _run_throttled(
    stormers: int,
    window: float,
    policy: AdmissionPolicy,
    seed: int,
    telemetry: Telemetry | None,
) -> ThrottledSample:
    # Pre-warm one subscriber so the storm's track is live at the relay and
    # every admitted SUBSCRIBE is answered synchronously — the model's
    # no-upstream-round-trip precondition.
    run = _settled_star(seed, relays=1, admission=policy, prewarm=1, telemetry=telemetry)
    tree = run.topology
    start = run.simulator.now
    storm = tree.flash_crowd(stormers, window, TRACK)
    run.advance(DRAIN)
    storm.raise_for_failures()
    run.collect()
    model = AdmissionModel(
        count=stormers,
        window=window,
        start=start,
        policy=policy,
        link_delay=tree.spec.subscriber_link.delay,
    )
    measured_latencies = sorted(record.join_latency for record in storm.records)
    modelled_latencies = sorted(model.join_latencies())
    measured_completion = storm.completion_time or 0.0
    model_completion = model.completion_time()
    relay = tree.leaves()[0].relay
    return ThrottledSample(
        stormers=stormers,
        window=window,
        policy=policy,
        admitted=storm.admitted,
        rejections=relay.statistics.admission_rejections,
        measured_completion=measured_completion,
        model_completion=model_completion,
        measured_p99_join=percentile(measured_latencies, 0.99),
        model_p99_join=model.p99_join_latency(),
        exact=(
            measured_completion == model_completion
            and measured_latencies == modelled_latencies
        ),
        drain_floor=model.drain_time_lower_bound(),
        pending_high_water=relay.statistics.pending_subscribe_high_water,
    )


# -------------------------------------------------------------------- spillover
@dataclass
class SpilloverSample:
    """A storm pinned to one edge relay of a wider tier, spillover on."""

    stormers: int
    leaves: int
    admitted: int
    rejections: int
    spillovers: int
    #: Admitted subscribers per leaf, in leaf order — the hotspot spread.
    per_leaf: tuple[int, ...]
    completion: float

    def as_row(self) -> dict[str, object]:
        return {
            "scenario": "spillover",
            "stormers": self.stormers,
            "leaves": self.leaves,
            "admitted": self.admitted,
            "rejections": self.rejections,
            "spillovers": self.spillovers,
            "per_leaf": "/".join(str(count) for count in self.per_leaf),
            "completion_s": round(self.completion, 6),
        }


def _run_spillover(
    stormers: int,
    window: float,
    leaves: int,
    policy: AdmissionPolicy,
    seed: int,
    telemetry: Telemetry | None,
) -> SpilloverSample:
    run = _settled_star(
        seed, relays=leaves, admission=policy, prewarm=leaves, telemetry=telemetry
    )
    tree = run.topology
    storm = tree.flash_crowd(stormers, window, TRACK, leaf=tree.leaves()[0])
    run.advance(DRAIN)
    storm.raise_for_failures()
    run.collect()
    admitted_on = {node.host.address: 0 for node in tree.leaves()}
    for record in storm.records:
        admitted_on[record.leaf] += 1
    return SpilloverSample(
        stormers=stormers,
        leaves=leaves,
        admitted=storm.admitted,
        rejections=storm.rejections,
        spillovers=storm.spillovers,
        per_leaf=tuple(admitted_on[node.host.address] for node in tree.leaves()),
        completion=storm.completion_time or 0.0,
    )


# ----------------------------------------------------------------------- result
@dataclass
class FlashCrowdResult:
    """All three admission regimes of one seeded E16 run."""

    baselines: list[BaselineSample]
    throttled: ThrottledSample
    spillover: SpilloverSample

    @property
    def baseline_high_water_grows(self) -> bool:
        """Whether the unbounded queue pathology scales with storm size."""
        marks = [sample.pending_high_water for sample in self.baselines]
        return all(
            later > earlier for earlier, later in zip(marks, marks[1:])
        ) and marks[-1] >= self.baselines[-1].stormers

    def rows(self) -> list[dict[str, object]]:
        """One row per scenario run."""
        rows = [sample.as_row() for sample in self.baselines]
        rows.append(self.throttled.as_row())
        rows.append(self.spillover.as_row())
        return rows

    def summary_row(self) -> dict[str, object]:
        """The gates E16's summary table prints and the tests check."""
        return {
            "baseline_high_water_grows": self.baseline_high_water_grows,
            "throttled_all_admitted": self.throttled.admitted == self.throttled.stormers,
            "throttled_rejections": self.throttled.rejections,
            "model_exact": self.throttled.exact,
            "bounded_high_water": self.throttled.pending_high_water,
            "spillover_all_admitted": self.spillover.admitted == self.spillover.stormers,
            "spillovers": self.spillover.spillovers,
        }


def run_flash_crowd(
    stormers: int = 24,
    window: float = 0.05,
    subscribe_rate: float = 200.0,
    bucket_depth: int = 4,
    baseline_stormers: tuple[int, ...] = (16, 48),
    spillover_leaves: int = 3,
    seed: int = 11,
    telemetry: Telemetry | None = None,
) -> FlashCrowdResult:
    """Run E16: baseline pathology, model-exact throttling, spillover.

    Each scenario is its own seeded simulator run (storms are destructive
    to relay state, so they never share a tree).  The throttled scenario
    must admit every stormer with at least one rejection and match
    :class:`~repro.analysis.admission.AdmissionModel` bit-exactly; the
    spillover scenario must admit every stormer while moving some of them
    off the pinned hotspot leaf.  ``telemetry`` reaches every regime: spans
    are cleared per run and each run is scraped at its end, so the gauges
    left standing are the spillover run's.
    """
    policy = AdmissionPolicy(subscribe_rate=subscribe_rate, bucket_depth=bucket_depth)
    baselines = [
        _run_baseline(count, window, seed, telemetry) for count in baseline_stormers
    ]
    throttled = _run_throttled(stormers, window, policy, seed, telemetry)
    spillover = _run_spillover(
        stormers, window, spillover_leaves, policy, seed, telemetry
    )
    return FlashCrowdResult(
        baselines=baselines, throttled=throttled, spillover=spillover
    )
