"""E13 — in-band failure detection: failover with zero control-plane kills.

E12 measured failover with an oracle: the topology controller *knew* a
relay died (it killed it) and evacuated the subtree in the same instant,
so re-attach latency was the pure 3-RTT floor.  Real CDN deployments have
no such oracle — a crashed relay simply stops answering, and the only
failure signals any orphan has are its own QUIC timers.  This experiment
closes that gap: relays are crashed *silently*
(:meth:`repro.relaynet.RelayTopology.crash_relay` — no close frames, no
controller notification) and recovery is driven purely in-band:

* **mid-tier crash → PTO-suspect path.**  Edge relays run keepalive PINGs
  on their uplinks; the first PING after the crash goes unacknowledged,
  consecutive probe timeouts (doubling backoff) reach the suspect
  threshold, and the orphan reports the dead parent through
  :meth:`~repro.relaynet.RelayTopology.report_failure`, which runs the
  ordinary failover policies — pending subscribes are transplanted to the
  new parent instead of erroring back;
* **edge crash → idle-timeout path.**  Subscribers only ever receive, so
  nothing of theirs can go unacknowledged; their shortened idle timeout is
  the detector, firing exactly ``idle_timeout`` after the last packet the
  dead leaf delivered.

Measured per crash and checked against :mod:`repro.analysis.detection`
(with re-attach stacked on the 3-RTT floor of :mod:`repro.analysis.churn`):

* detection latency — from the silent crash to the first in-band report,
  predicted from the orphans' transport state (keepalive phase + probe
  timeout backoff, or the idle deadline) snapshotted at crash time;
* re-attach latency per orphan tier — still the 3-RTT floor, now starting
  at detection rather than at the crash;
* gapless delivery — every subscriber's sequence is exactly the published
  one, duplicate-free and in order, with the detection window's objects
  arriving via the recovery FETCH.

Everything runs on the deterministic simulator: repeated runs with the
same seed produce identical detection latencies and delivery sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.churn import RecoveryModel
from repro.analysis.detection import DetectionModel
from repro.experiments.relay_churn import reattach_models
from repro.moqt.relay import MOQT_ALPN
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.relaynet import FailoverEvent, RelayTreeSpec
from repro.relaynet.scenario import Scenario, build_scenario
from repro.relaynet.topology import RelayNode

#: Floating-point slack when comparing simulator timestamps against the
#: closed-form model (the simulator and the model associate the same sums
#: differently).
MODEL_TOLERANCE = 1e-9
#: The detection run's seed.
SEED = 29


@dataclass
class DetectionSample:
    """One silent crash: how it was detected, how fast, and the failover."""

    killed: str
    killed_tier: str
    crashed_at: float
    #: Which in-band signal the first reporter raised ("pto-suspect" /
    #: "idle-timeout" / "pto-give-up").
    detected_via: str
    #: The path the model predicted would win.
    model_path: str
    #: Seconds from the crash to the first report, measured and predicted.
    detection_latency: float
    model_detection_latency: float
    orphan_relays: int
    orphan_subscribers: int
    #: Measured re-attach latencies (detection → SUBSCRIBE_OK) per tier.
    latencies_by_tier: dict[str, list[float]]
    #: The 3-RTT re-attach floor per orphan tier.
    reattach_model_by_tier: dict[str, RecoveryModel]
    complete: bool

    @property
    def detection_model_ok(self) -> bool:
        """Whether the measured detection matches the closed form."""
        return (
            self.detected_via == self.model_path
            and abs(self.detection_latency - self.model_detection_latency)
            <= MODEL_TOLERANCE
        )

    @property
    def reattach_model_ok(self) -> bool:
        """Whether every orphan re-attached on the 3-RTT floor."""
        for tier, latencies in self.latencies_by_tier.items():
            model = self.reattach_model_by_tier.get(tier)
            if model is None:
                return False
            if any(
                abs(latency - model.reattach_latency) > MODEL_TOLERANCE
                for latency in latencies
            ):
                return False
        return True

    def rows(self) -> list[dict[str, object]]:
        """One row per orphan tier: detection + re-attach, measured vs model."""
        rows: list[dict[str, object]] = []
        for tier, latencies in sorted(self.latencies_by_tier.items()):
            model = self.reattach_model_by_tier.get(tier)
            reattach_model = model.reattach_latency if model is not None else 0.0
            mean = sum(latencies) / len(latencies) if latencies else 0.0
            rows.append(
                {
                    "killed": self.killed,
                    "path": self.detected_via,
                    "orphan_tier": tier,
                    "orphans": len(latencies),
                    "detect_ms": round(self.detection_latency * 1000, 3),
                    "detect_model_ms": round(self.model_detection_latency * 1000, 3),
                    "reattach_ms_mean": round(mean * 1000, 3),
                    "reattach_model_ms": round(reattach_model * 1000, 3),
                    "failover_ms_model": round(
                        (self.model_detection_latency + reattach_model) * 1000, 3
                    ),
                    "complete": self.complete,
                }
            )
        return rows


@dataclass
class FailureDetectionResult:
    """Outcome of the E13 experiment."""

    subscribers: int
    updates: int
    samples: list[DetectionSample]
    gapless_subscribers: int
    delivered_objects: int
    expected_objects: int
    relay_duplicates_dropped: int
    subscriber_duplicates_dropped: int
    recovery_fetches: int
    recovered_objects: int
    subscriber_gap_fetches: int
    #: Uplink failures the relays noticed through transport liveness.
    uplink_failures_detected: int
    #: Failover events whose node was never actually crashed (must be 0).
    false_positive_events: int
    #: Control-plane kill signals issued (must be 0 — that is the point).
    control_plane_kills: int
    #: Per-subscriber delivered group sequences (determinism canary).
    delivery_sequences: dict[int, list[int]] = field(default_factory=dict)
    events: list[FailoverEvent] = field(default_factory=list)

    @property
    def gapless(self) -> bool:
        """Whether every subscriber saw a perfect sequence."""
        return self.gapless_subscribers == self.subscribers

    @property
    def detection_model_ok(self) -> bool:
        """Whether every crash's detection matched the closed form."""
        return all(sample.detection_model_ok for sample in self.samples)

    @property
    def reattach_model_ok(self) -> bool:
        """Whether every orphan re-attached on the 3-RTT floor."""
        return all(sample.reattach_model_ok for sample in self.samples)

    def rows(self) -> list[dict[str, object]]:
        """Per-crash, per-orphan-tier summary rows."""
        return [row for sample in self.samples for row in sample.rows()]

    def summary_row(self) -> dict[str, object]:
        """Headline row for reports."""
        return {
            "subscribers": self.subscribers,
            "updates": self.updates,
            "crashes": len(self.samples),
            "control_plane_kills": self.control_plane_kills,
            "delivered": self.delivered_objects,
            "expected": self.expected_objects,
            "gapless_subs": self.gapless_subscribers,
            "detection_ok": self.detection_model_ok,
            "reattach_ok": self.reattach_model_ok,
            "dup_dropped": self.relay_duplicates_dropped
            + self.subscriber_duplicates_dropped,
            "recovery_fetches": self.recovery_fetches + self.subscriber_gap_fetches,
        }


def detection_model_for_connection(connection: QuicConnection, crashed_at: float) -> DetectionModel:
    """Snapshot a live connection's detector inputs at crash time.

    The bridge between the implementation-independent closed forms in
    :mod:`repro.analysis.detection` and a running
    :class:`~repro.quic.connection.QuicConnection`: the transport's timer
    deadlines, probe timeout and liveness constants become the model's
    inputs (a test pins the analysis-side default constants to the
    transport's, so drift between model and implementation stays visible).
    """
    idle_deadline = connection.idle_deadline
    if idle_deadline is None:
        raise ValueError("connection is closed; nothing left to detect with")
    return DetectionModel(
        crashed_at=crashed_at,
        probe_timeout=connection.probe_timeout,
        next_send_at=connection.keepalive_deadline,
        idle_deadline=idle_deadline,
        suspect_after=connection.LIVENESS_SUSPECT_AFTER,
        backoff_cap=connection.PTO_BACKOFF_EXPONENT_CAP,
        idle_timeout=connection.config.idle_timeout,
    )


def _snapshot_models(
    connections, now: float
) -> list[DetectionModel]:
    """Model the in-band detector of each orphan connection at crash time.

    The closed forms assume a quiescent connection (nothing already
    unacknowledged when the peer dies); the experiment schedules its
    crashes between update bursts so that holds, and fails loudly if not.
    Orphans without a transport (lazy relays that never subscribed — too
    few subscribers for the tree) have nothing to detect with and are
    skipped; at least one observable orphan is required.
    """
    models = []
    for connection in connections:
        if connection is None:
            continue
        if connection.unacked_packets:
            raise RuntimeError(
                "crash scheduled while data was in flight; the closed-form "
                "detection model does not apply"
            )
        models.append(detection_model_for_connection(connection, now))
    if not models:
        raise ValueError(
            "no orphan holds a live uplink/session to the crash victim — "
            "the tree is too sparse for in-band detection (attach more "
            "subscribers so every edge relay subscribes upstream)"
        )
    return models


def _sample(
    event: FailoverEvent,
    crashed_at: float,
    models: list[DetectionModel],
    reattach_model_by_tier: dict[str, RecoveryModel],
) -> DetectionSample:
    """Pair one detected failover with the predictions made at crash time."""
    best = min(models, key=lambda model: model.detected_at)
    return DetectionSample(
        killed=event.node,
        killed_tier=event.tier,
        crashed_at=crashed_at,
        detected_via=event.detected_via,
        model_path=best.path,
        detection_latency=event.detection_latency if event.detection_latency is not None else -1.0,
        model_detection_latency=best.detected_at - crashed_at,
        orphan_relays=len(event.orphans("relay")),
        orphan_subscribers=len(event.orphans("subscriber")),
        latencies_by_tier=event.latencies_by_tier(),
        reattach_model_by_tier=reattach_model_by_tier,
        complete=event.complete,
    )


def run_failure_detection(
    subscribers: int = 1000,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
    updates_before: int = 4,
    updates_between: int = 6,
    updates_after: int = 6,
    keepalive_interval: float = 0.5,
    subscriber_idle_timeout: float = 1.5,
    origins: int = 1,
) -> FailureDetectionResult:
    """Crash relays silently under a live CDN tree; recover purely in-band.

    The stream pushes ``updates_before`` objects, silently crashes a
    mid-tier relay (edge orphans detect via keepalive PTOs — the
    PTO-suspect path), pushes ``updates_between`` more, silently crashes an
    edge relay (its subscribers detect via idle expiry — the idle-timeout
    path), pushes ``updates_after`` more and drains.  No control-plane kill
    signal is ever issued.

    ``origins > 1`` publishes through a replicated
    :class:`~repro.relaynet.origincluster.OriginCluster`.  No origin is
    crashed in this experiment, so detection latencies and delivery
    sequences must be identical either way — the determinism canary the
    E14 battery locks in.
    """
    spec = RelayTreeSpec.cdn(
        mid_relays=mid_relays, edge_per_mid=edge_per_mid, origins=origins
    )
    run = build_scenario(
        Scenario(
            spec=spec,
            seed=SEED,
            uplink_connection=ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), keepalive_interval=keepalive_interval
            ),
            subscriber_connection=ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), idle_timeout=subscriber_idle_timeout
            ),
        )
    )
    topology, simulator = run.topology, run.simulator
    topology.attach_subscribers(subscribers)
    run.record_deliveries()
    # Warm-up must stay shorter than the subscribers' idle timeout: in-band
    # detection cannot tell a dead leaf from a silent one.
    run.advance(min(1.0, 0.6 * subscriber_idle_timeout))

    crashes: list[tuple[float, list[DetectionModel], RelayNode]] = []

    run.push(updates_before)
    # Silently crash a mid-tier relay: its edge children hold keepalive'd
    # uplinks, so the next PING's consecutive probe timeouts are the signal.
    mid_victims = [node for node in topology.tier("mid") if node.alive]
    victim = mid_victims[len(mid_victims) // 2]
    models = _snapshot_models(
        [
            child.relay.upstream_quic_connection
            for child in topology.children(victim)
        ],
        simulator.now,
    )
    crashes.append((simulator.now, models, victim))
    topology.crash_relay(victim)
    run.push(updates_between)

    # Silently crash an edge relay: its subscribers never send, so their
    # (shortened) idle timeout is the only signal they get.
    edge_victims = [node for node in topology.tier("edge") if node.alive]
    victim = edge_victims[0]
    models = _snapshot_models(
        [
            sub.session.connection
            for sub in topology.subscribers
            if sub.leaf is victim
        ],
        simulator.now,
    )
    crashes.append((simulator.now, models, victim))
    topology.crash_relay(victim)
    run.push(updates_after)
    # Bounded drain: long enough for the idle-path detection plus recovery,
    # short enough that healthy-but-quiet subscriber sessions do not idle
    # out and trigger false failovers (the inherent ambiguity of in-band
    # detection; deployments keep subscriber links chatty or accept
    # reconnect churn).
    run.advance(0.5 * subscriber_idle_timeout)

    sequences, gapless, delivered = run.delivery_score()
    counters = run.recovery_counters()
    crashed_names = {node.host.address for _, _, node in crashes}
    false_positives = sum(
        1 for event in topology.events if event.node not in crashed_names
    )
    # Measured, not asserted: any failover that ran through the announced
    # control-plane paths (kill/leave) would show up here and fail the gate.
    control_plane_kills = sum(
        1 for event in topology.events if event.cause in ("kill", "leave")
    )
    reattach = reattach_models(spec)
    samples = []
    for (crashed_at, models, node) in crashes:
        if node.failure_event is not None:
            samples.append(_sample(node.failure_event, crashed_at, models, reattach))
    return FailureDetectionResult(
        subscribers=subscribers,
        updates=run.pushed,
        samples=samples,
        gapless_subscribers=gapless,
        delivered_objects=delivered,
        expected_objects=subscribers * run.pushed,
        relay_duplicates_dropped=counters.relay_duplicates_dropped,
        subscriber_duplicates_dropped=counters.subscriber_duplicates_dropped,
        recovery_fetches=counters.recovery_fetches,
        recovered_objects=counters.recovered_objects,
        subscriber_gap_fetches=counters.subscriber_gap_fetches,
        uplink_failures_detected=counters.uplink_failures_detected,
        false_positive_events=false_positives,
        control_plane_kills=control_plane_kills,
        delivery_sequences=sequences,
        events=list(topology.events),
    )
