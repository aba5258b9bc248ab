"""E14 — origin failover: replicated origin with in-band promote-on-detect.

E13 proved the tree survives any *relay* dying silently; the origin was
still the single point of failure — the one node `report_failure` treated
as indestructible.  This experiment closes the last gap with the same
zero-control-plane discipline:

* the origin is an :class:`~repro.relaynet.origincluster.OriginCluster`
  (one active + warm standbys, each standby's track cache kept current by
  a live MoQT subscription to the active);
* the active is crashed **silently**
  (:meth:`~repro.relaynet.origincluster.OriginCluster.crash_active` — no
  close frames, nobody told); updates keep being pushed into the dead
  active during the outage (they reach nobody — the publisher-side replay
  ring is their only copy);
* the tier-0 relays' keepalive'd uplinks notice through consecutive probe
  timeouts (the PTO-suspect path of E13) and the first detector's report
  (:meth:`~repro.relaynet.topology.RelayTopology.report_origin_failure`)
  runs the deterministic epoch-numbered election: the lowest-index alive
  standby is promoted, the replay ring tops its warm cache up with the
  outage window, and every tier-0 uplink switches to the promoted origin
  over its pre-established link with a gap FETCH against the warm cache.

Measured and checked against :mod:`repro.analysis.promotion`
(= detection + election + the 3-RTT re-attach floor):

* detection latency — from the silent crash to the first in-band report,
  predicted from every tier-0 uplink's transport state snapshotted at
  crash time (first detector wins, exactly like the implementation);
* promotion latency — crash to the last tier-0 relay re-subscribed through
  the promoted standby (the whole population below tier 0 rides along
  untouched, which is what makes origin replication free at CDN scale);
* gapless delivery — every subscriber's sequence is exactly the published
  one across the origin swap, outage-window objects included;
* zero control-plane signals, zero false-positive failovers, exactly one
  epoch step.

Everything runs on the deterministic simulator: repeated runs with the
same seed produce identical detection latencies, delivery sequences and
promotion timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.promotion import ELECTION_LATENCY, PromotionModel, promotion_model
from repro.experiments.failure_detection import MODEL_TOLERANCE, _snapshot_models
from repro.moqt.relay import MOQT_ALPN
from repro.quic.connection import ConnectionConfig
from repro.relaynet import FailoverEvent, RelayTreeSpec
from repro.relaynet.scenario import Scenario, build_scenario

#: The failover run's seed, its origins (the active one and a standby) and
#: the keepalive interval of the tier-0 relays' uplinks.
SEED = 31
ORIGINS = 2
KEEPALIVE_INTERVAL = 0.5


@dataclass
class OriginFailoverResult:
    """Outcome of the E14 experiment."""

    subscribers: int
    updates: int
    origins: int
    #: The promotion failover event (None when detection never fired —
    #: itself a failure the checks surface).
    event: FailoverEvent | None
    #: Cluster epoch after the run (must be exactly 1: one death, one
    #: promotion, no re-elections).
    epoch: int
    promotions: int
    crashed_at: float
    #: Which in-band signal the first detector raised.
    detected_via: str
    #: Measured and predicted crash → first-report latency.
    detection_latency: float | None
    model: PromotionModel
    #: Measured crash → last tier-0 SUBSCRIBE_OK through the new active.
    promotion_latency: float | None
    #: Tier-0 relays re-pointed by the promotion.
    reattached_relays: int
    #: Outage-window objects the replay ring seeded into the new active.
    replayed_objects: int
    gapless_subscribers: int
    delivered_objects: int
    expected_objects: int
    duplicates_dropped: int
    recovery_fetches: int
    recovered_objects: int
    #: Failover events whose node was never actually crashed (must be 0).
    false_positive_events: int
    #: Control-plane kill signals issued (must be 0 — that is the point).
    control_plane_kills: int
    #: Per-subscriber delivered group sequences (determinism canary).
    delivery_sequences: dict[int, list[int]] = field(default_factory=dict)
    events: list[FailoverEvent] = field(default_factory=list)

    @property
    def gapless(self) -> bool:
        """Whether every subscriber saw a perfect sequence across the swap."""
        return self.gapless_subscribers == self.subscribers

    @property
    def detection_model_ok(self) -> bool:
        """Whether the measured detection matches the closed form."""
        return (
            self.detection_latency is not None
            and self.detected_via == self.model.path
            and abs(self.detection_latency - self.model.detection_latency)
            <= MODEL_TOLERANCE
        )

    @property
    def promotion_model_ok(self) -> bool:
        """Whether the measured promotion matches detection + election +
        the 3-RTT re-attach floor, for every re-pointed tier-0 relay."""
        if self.event is None or self.promotion_latency is None:
            return False
        latencies = [
            record.reattach_latency
            for record in self.event.orphans("relay")
            if record.reattach_latency is not None
        ]
        if len(latencies) != self.reattached_relays or not latencies:
            return False
        floor = self.model.reattach_latency
        if any(abs(latency - floor) > MODEL_TOLERANCE for latency in latencies):
            return False
        return (
            abs(self.promotion_latency - self.model.promotion_latency)
            <= MODEL_TOLERANCE
        )

    def rows(self) -> list[dict[str, object]]:
        """Per-phase rows: detection, election, re-attach, end-to-end."""
        detect = self.detection_latency if self.detection_latency is not None else -1.0
        promo = self.promotion_latency if self.promotion_latency is not None else -1.0
        return [
            {
                "phase": "detect",
                "via": self.detected_via,
                "measured_ms": round(detect * 1000, 3),
                "model_ms": round(self.model.detection_latency * 1000, 3),
            },
            {
                "phase": "elect",
                "via": f"epoch {self.epoch}",
                "measured_ms": 0.0,
                "model_ms": round(ELECTION_LATENCY * 1000, 3),
            },
            {
                "phase": "reattach",
                "via": f"{self.reattached_relays} tier-0 uplinks",
                "measured_ms": round((promo - detect) * 1000, 3)
                if promo >= 0 and detect >= 0
                else -1.0,
                "model_ms": round(self.model.reattach_latency * 1000, 3),
            },
            {
                "phase": "promotion",
                "via": "end-to-end",
                "measured_ms": round(promo * 1000, 3),
                "model_ms": round(self.model.promotion_latency * 1000, 3),
            },
        ]

    def summary_row(self) -> dict[str, object]:
        """Headline row for reports."""
        return {
            "subscribers": self.subscribers,
            "updates": self.updates,
            "origins": self.origins,
            "epoch": self.epoch,
            "control_plane_kills": self.control_plane_kills,
            "delivered": self.delivered_objects,
            "expected": self.expected_objects,
            "gapless_subs": self.gapless_subscribers,
            "detect_ms": round(
                (self.detection_latency if self.detection_latency is not None else -1.0)
                * 1000,
                3,
            ),
            "promotion_ms": round(
                (self.promotion_latency if self.promotion_latency is not None else -1.0)
                * 1000,
                3,
            ),
            "detection_ok": self.detection_model_ok,
            "promotion_ok": self.promotion_model_ok,
            "replayed": self.replayed_objects,
            "recovery_fetches": self.recovery_fetches,
        }


def run_origin_failover(
    subscribers: int = 1000,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
    updates_before: int = 4,
    updates_between: int = 6,
    updates_after: int = 6,
) -> OriginFailoverResult:
    """Silently crash the active origin under a live CDN tree; promote in-band.

    The stream pushes ``updates_before`` objects, silently crashes the
    active origin, keeps pushing ``updates_between`` more into the dead
    active (the replay ring is their only copy until the promotion seeds
    them into the standby), pushes ``updates_after`` after recovery has had
    time to run, and drains.  No control-plane signal is ever issued: the
    tier-0 relays' keepalive'd uplinks are the only detectors.

    Subscriber connections keep their default (long) idle timeout: the
    subscribers' leaves never die in this scenario, so nothing below tier 0
    should ever trigger — any failover event except the origin promotion
    counts as a false positive.  The cluster is an active origin and one
    standby.
    """
    spec = RelayTreeSpec.cdn(
        mid_relays=mid_relays, edge_per_mid=edge_per_mid, origins=ORIGINS
    )
    run = build_scenario(
        Scenario(
            spec=spec,
            seed=SEED,
            uplink_connection=ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), keepalive_interval=KEEPALIVE_INTERVAL
            ),
        )
    )
    topology, cluster, simulator = run.topology, run.origin, run.simulator
    topology.attach_subscribers(subscribers)
    run.record_deliveries()
    run.advance(1.0)

    run.push(updates_before)
    # Snapshot every tier-0 uplink's detector state, then crash silently.
    # The model takes the earliest predicted signal across the tier —
    # first detector wins, exactly like the implementation.
    victim = cluster.active
    models = _snapshot_models(
        [node.relay.upstream_quic_connection for node in topology.tiers[0]],
        simulator.now,
    )
    crashed_at = simulator.now
    cluster.crash_active()
    model = promotion_model(min(models, key=lambda m: m.detected_at), spec.tiers[0].uplink.delay)
    run.push(updates_between)
    run.push(updates_after)
    run.advance(3.0)

    sequences, gapless, delivered = run.delivery_score()
    counters = run.recovery_counters()
    event = victim.failure_event
    detection_latency = event.detection_latency if event is not None else None
    promotion_latency = None
    reattached = 0
    if event is not None:
        reattach_times = [
            record.reattached_at
            for record in event.orphans("relay")
            if record.reattached_at is not None
        ]
        reattached = len(reattach_times)
        if reattach_times:
            promotion_latency = max(reattach_times) - crashed_at
    false_positives = sum(
        1 for run_event in topology.events if run_event is not event
    )
    control_plane_kills = sum(
        1 for run_event in topology.events if run_event.cause in ("kill", "leave")
    )
    return OriginFailoverResult(
        subscribers=subscribers,
        updates=run.pushed,
        origins=ORIGINS,
        event=event,
        epoch=cluster.epoch,
        promotions=len(cluster.promotions),
        crashed_at=crashed_at,
        detected_via=event.detected_via if event is not None else "",
        detection_latency=detection_latency,
        model=model,
        promotion_latency=promotion_latency,
        reattached_relays=reattached,
        replayed_objects=sum(p.replayed_objects for p in cluster.promotions),
        gapless_subscribers=gapless,
        delivered_objects=delivered,
        expected_objects=subscribers * run.pushed,
        duplicates_dropped=counters.relay_duplicates_dropped
        + counters.subscriber_duplicates_dropped,
        recovery_fetches=counters.recovery_fetches,
        recovered_objects=counters.recovered_objects,
        false_positive_events=false_positives,
        control_plane_kills=control_plane_kills,
        delivery_sequences=sequences,
        events=list(topology.events),
    )
