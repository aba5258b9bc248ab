"""E12 — relay churn: failover and gap recovery under a live CDN tree.

E11 showed a *static* relay tree keeps origin egress at O(branching
factor).  This experiment shows the tree survives what real CDNs are made
of — relays crashing mid-stream — without breaking the subscriber-facing
contract: every subscriber still observes every object exactly once, in
order.

The run builds the three-tier CDN hierarchy (origin -> mid -> edge ->
subscribers), subscribes the whole population and pushes a stream of
record updates.  Mid-stream it kills one *mid-tier* relay (orphaning a
whole edge subtree) and, later, one *edge* relay (orphaning directly
attached subscribers).  The topology layer re-homes every orphan through
the failover policy; the MoQT layer re-subscribes live tracks through the
new parent, fills the delivery gap with a FETCH against the new parent's
cache, and dedupes by (group, object) ID.

Measured per kill, and checked against :mod:`repro.analysis.churn`:

* re-attach latency per orphan tier — three round trips on the orphan <->
  new-parent link (QUIC handshake, MoQT SETUP, SUBSCRIBE), independent of
  the subscriber count;
* gapless delivery — after the final drain every subscriber's received
  sequence is exactly ``2 .. updates+1``, duplicate-free and in publish
  order, with the gap objects arriving via the recovery FETCH rather than
  the (dead) old parent.

Everything runs on the deterministic simulator: repeated runs with the
same seed produce identical latencies and byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.churn import RecoveryModel, recovery_model
from repro.relaynet import FailoverEvent, RelayTreeSpec
from repro.relaynet.scenario import Scenario, build_scenario
from repro.telemetry import Telemetry


@dataclass
class KillSample:
    """One relay kill: who died, who re-homed, and how fast."""

    cause: str
    killed: str
    killed_tier: str
    at: float
    orphan_relays: int
    orphan_subscribers: int
    #: Measured re-attach latencies grouped by the orphan's tier.
    latencies_by_tier: dict[str, list[float]]
    #: Closed-form prediction per orphan tier (same grouping).
    model_by_tier: dict[str, RecoveryModel]
    complete: bool

    def rows(self) -> list[dict[str, object]]:
        """One row per orphan tier: measured vs. modelled re-attach latency."""
        rows: list[dict[str, object]] = []
        for tier, latencies in sorted(self.latencies_by_tier.items()):
            model = self.model_by_tier.get(tier)
            predicted = model.reattach_latency if model is not None else 0.0
            mean = sum(latencies) / len(latencies) if latencies else 0.0
            rows.append(
                {
                    "killed": f"{self.killed} ({self.cause})",
                    "orphan_tier": tier,
                    "orphans": len(latencies),
                    "reattach_ms_mean": round(mean * 1000, 3),
                    "reattach_ms_max": round(max(latencies) * 1000, 3) if latencies else 0.0,
                    "model_ms": round(predicted * 1000, 3),
                    "complete": self.complete,
                }
            )
        return rows


@dataclass
class RelayChurnResult:
    """Outcome of the churn experiment."""

    subscribers: int
    updates: int
    kills: list[KillSample]
    #: Subscribers whose delivered sequence is exactly the published one
    #: (gapless, duplicate-free, in order).
    gapless_subscribers: int
    delivered_objects: int
    expected_objects: int
    #: Duplicates suppressed below the application: at re-homed relays and
    #: at re-attached subscribers (the FETCH/live overlap).
    relay_duplicates_dropped: int
    subscriber_duplicates_dropped: int
    recovery_fetches: int
    recovered_objects: int
    subscriber_gap_fetches: int
    #: Per-subscriber delivered group sequences, keyed by subscriber index —
    #: the determinism canary compares these bit-for-bit across seeded runs.
    delivery_sequences: dict[int, list[int]] = field(default_factory=dict)
    events: list[FailoverEvent] = field(default_factory=list)

    @property
    def gapless(self) -> bool:
        """Whether every subscriber saw a perfect sequence."""
        return self.gapless_subscribers == self.subscribers

    def rows(self) -> list[dict[str, object]]:
        """Per-kill, per-orphan-tier summary rows."""
        return [row for kill in self.kills for row in kill.rows()]

    def summary_row(self) -> dict[str, object]:
        """Headline row for reports."""
        return {
            "subscribers": self.subscribers,
            "updates": self.updates,
            "kills": len(self.kills),
            "delivered": self.delivered_objects,
            "expected": self.expected_objects,
            "gapless_subs": self.gapless_subscribers,
            "dup_dropped": self.relay_duplicates_dropped + self.subscriber_duplicates_dropped,
            "recovery_fetches": self.recovery_fetches + self.subscriber_gap_fetches,
            "recovered_objects": self.recovered_objects,
        }


def reattach_models(spec: RelayTreeSpec) -> dict[str, RecoveryModel]:
    """The 3-RTT re-attach prediction per orphan tier: orphans of a relay
    tier re-home over their own uplink class, subscribers over the access
    link (a relay tree's sessions wait for SERVER_SETUP)."""
    models = {tier.name: recovery_model(tier.uplink.delay) for tier in spec.tiers}
    models["subscribers"] = recovery_model(spec.subscriber_link.delay)
    return models


def _kill_sample(
    event: FailoverEvent, model_by_tier: dict[str, RecoveryModel]
) -> KillSample:
    """Pair a failover event's measurements with the model's predictions."""
    return KillSample(
        cause=event.cause,
        killed=event.node,
        killed_tier=event.tier,
        at=event.at,
        orphan_relays=len(event.orphans("relay")),
        orphan_subscribers=len(event.orphans("subscriber")),
        latencies_by_tier=event.latencies_by_tier(),
        model_by_tier=model_by_tier,
        complete=event.complete,
    )


def run_relay_churn(
    subscribers: int = 1000,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
    updates_before: int = 4,
    updates_between: int = 4,
    updates_after: int = 4,
    seed: int = 23,
    kill_edge: bool = True,
    origins: int = 1,
    telemetry: Telemetry | None = None,
) -> RelayChurnResult:
    """Kill relays under a live CDN tree and measure the recovery.

    The stream pushes ``updates_before`` objects, kills a mid-tier relay
    (its whole edge subtree re-homes and gap-fills via FETCH), pushes
    ``updates_between`` more, kills an edge relay (its subscribers
    re-attach to surviving leaves), and pushes ``updates_after`` more.
    Set ``kill_edge=False`` for the single mid-tier kill of the E12
    acceptance run.

    ``origins > 1`` publishes through a replicated
    :class:`~repro.relaynet.origincluster.OriginCluster` instead of the
    singleton origin.  No origin is crashed here, so every measured output
    must be identical either way — the determinism canary the E14 battery
    locks in.
    """
    spec = RelayTreeSpec.cdn(
        mid_relays=mid_relays, edge_per_mid=edge_per_mid, origins=origins
    )
    run = build_scenario(
        Scenario(
            spec=spec,
            seed=seed,
            telemetry=telemetry,
        )
    )
    topology = run.topology
    topology.attach_subscribers(subscribers)
    run.record_deliveries()
    run.advance(3.0)

    events: list[FailoverEvent] = []
    run.push(updates_before)
    # Kill a mid-tier relay while an update is still in flight: its edge
    # subtree must re-home and recover the missed objects via FETCH.
    mid_victims = [node for node in topology.tier("mid") if node.alive]
    events.append(topology.kill_relay(mid_victims[len(mid_victims) // 2]))
    run.push(updates_between)
    if kill_edge:
        # Then kill an edge relay: its subscribers re-attach to surviving
        # leaves and gap-fill from their caches.
        edge_victims = [node for node in topology.tier("edge") if node.alive]
        events.append(topology.kill_relay(edge_victims[0]))
    run.push(updates_after)
    run.advance(5.0)

    sequences, gapless, delivered = run.delivery_score()
    counters = run.recovery_counters()
    models = reattach_models(spec)
    run.collect()
    return RelayChurnResult(
        subscribers=subscribers,
        updates=run.pushed,
        kills=[_kill_sample(event, models) for event in events],
        gapless_subscribers=gapless,
        delivered_objects=delivered,
        expected_objects=subscribers * run.pushed,
        relay_duplicates_dropped=counters.relay_duplicates_dropped,
        subscriber_duplicates_dropped=counters.subscriber_duplicates_dropped,
        recovery_fetches=counters.recovery_fetches,
        recovered_objects=counters.recovered_objects,
        subscriber_gap_fetches=counters.subscriber_gap_fetches,
        delivery_sequences=sequences,
        events=events,
    )
