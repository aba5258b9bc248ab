"""E11 — relay fan-out: origin egress vs. subscriber count (§3, §5.3).

The paper argues that payload-oblivious relays let one authoritative server
serve millions of resolvers: arranged in a tree, every tier multiplies the
fan-out while the origin only ever pushes one copy per direct child.  This
experiment builds a three-tier CDN hierarchy (origin -> mid -> edge ->
subscribers) with :mod:`repro.relaynet`, scales the subscriber population,
pushes a batch of record updates, and compares the measured per-tier link
traffic against the closed-form model in :mod:`repro.analysis.fanout`:

* the objects entering each tier must equal ``receivers x updates``;
* origin egress must stay constant (O(branching factor)) as subscribers
  grow — the unicast baseline grows linearly instead;
* wire bytes per tier must match ``messages x bytes_per_update``, where the
  per-update wire size is calibrated once from a minimal one-relay,
  one-subscriber run.

Everything runs on the deterministic simulator, so repeated runs (same seed)
produce identical byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.fanout import FanoutModel, fanout_model, relative_deviation
from repro.moqt.origin import TRACK
from repro.relaynet import RelayNetStats, RelayTreeSpec
from repro.relaynet.scenario import Scenario, build_scenario

#: Updates the calibration run pushes.
CALIBRATION_UPDATES = 4
#: The fan-out runs' seed (the calibration run takes the next one).
SEED = 7


@dataclass
class TreeRun:
    """Everything one seeded tree run measured."""

    #: Update-window statistics delta (setup traffic excluded).
    delta: RelayNetStats
    #: Objects the origin pushed during the window.
    origin_objects: int
    #: Objects delivered to subscriber callbacks during the window.
    delivered: int
    #: Total simulator events scheduled over the whole run.
    events_scheduled: int
    #: ``Network.link_batch_fallback_waves``: a constant 0 (every send is a
    #: link wave), asserted in the tests until ROADMAP 0(a) deletes it.
    link_batch_fallback_waves: int = 0


def _run_tree(scenario: Scenario, subscribers: int, updates: int) -> TreeRun:
    """Stand the tree up, push ``updates`` objects and measure the update window."""
    run = build_scenario(scenario)
    topology = run.topology
    topology.attach_subscribers(subscribers)
    delivered = [0]
    topology.subscribe_all(
        TRACK,
        on_object=lambda subscriber, obj: delivered.__setitem__(0, delivered[0] + 1),
    )
    run.advance(3.0)

    before = RelayNetStats.collect(topology)
    origin_before = run.origin.objects_sent
    delivered_before = delivered[0]
    run.push(updates)
    run.advance(3.0)
    delta = RelayNetStats.collect(topology).delta(before)
    return TreeRun(
        delta=delta,
        origin_objects=run.origin.objects_sent - origin_before,
        delivered=delivered[0] - delivered_before,
        events_scheduled=run.simulator.events_scheduled,
        link_batch_fallback_waves=run.network.link_batch_fallback_waves,
    )


def calibrate_bytes_per_update(seed: int) -> float:
    """Measure the wire bytes of one pushed update on a minimal tree.

    A one-relay, one-subscriber star carries exactly one copy of every update
    on its subscriber link, so the link-byte delta over the update window
    divided by the update count is the per-update wire size (payload plus
    subgroup-stream and QUIC framing) the fan-out model scales up.
    """
    scenario = Scenario(spec=RelayTreeSpec.star(relays=1), seed=seed)
    run = _run_tree(scenario, 1, CALIBRATION_UPDATES)
    if run.delivered != CALIBRATION_UPDATES:
        raise RuntimeError(
            f"calibration run lost updates: {run.delivered}/{CALIBRATION_UPDATES}"
        )
    return run.delta.subscriber_link_bytes / CALIBRATION_UPDATES


@dataclass
class FanoutSample:
    """Measured and modelled traffic for one subscriber count."""

    subscribers: int
    updates: int
    tier_names: tuple[str, ...]
    measured_tier_bytes: tuple[int, ...]
    measured_tier_objects: tuple[int, ...]
    measured_origin_objects: int
    delivered_objects: int
    model: FanoutModel
    #: Total simulator events scheduled over the whole run (setup included) —
    #: the quantity link-batch fan-out keeps from growing with subscribers.
    events_scheduled: int
    #: ``Network.link_batch_fallback_waves``: a constant 0 (every send is a
    #: link wave), read until ROADMAP 0(a) deletes it.
    link_batch_fallback_waves: int = 0

    @property
    def max_tier_byte_deviation(self) -> float:
        """Largest relative error between measured and modelled tier bytes."""
        return max(
            relative_deviation(measured, predicted)
            for measured, predicted in zip(self.measured_tier_bytes, self.model.tier_bytes())
        )

    @property
    def origin_egress_bytes(self) -> int:
        """Measured bytes the origin sent into the top tier."""
        return self.measured_tier_bytes[0]

    def as_row(self) -> dict[str, object]:
        """Summary row: origin egress scaling and model agreement."""
        return {
            "subscribers": self.subscribers,
            "updates": self.updates,
            "origin_objects": self.measured_origin_objects,
            "model_origin": self.model.origin_messages,
            "unicast_origin": self.model.unicast_messages,
            "origin_bytes": self.origin_egress_bytes,
            "model_origin_bytes": round(self.model.origin_egress_bytes),
            "reduction_x": round(self.model.origin_reduction_factor, 2),
            "delivered": self.delivered_objects,
            "expected": self.subscribers * self.updates,
            "max_tier_dev": round(self.max_tier_byte_deviation, 4),
        }

    def tier_rows(self) -> list[dict[str, object]]:
        """One row per tier: measured vs. modelled messages and bytes."""
        rows = []
        for name, measured_bytes, measured_objects, model_messages, model_bytes in zip(
            self.tier_names,
            self.measured_tier_bytes,
            self.measured_tier_objects,
            self.model.tier_messages(),
            self.model.tier_bytes(),
        ):
            rows.append(
                {
                    "subscribers": self.subscribers,
                    "tier": name,
                    "objects": measured_objects,
                    "model_objects": model_messages,
                    "link_bytes": measured_bytes,
                    "model_bytes": round(model_bytes),
                    "deviation": round(
                        relative_deviation(measured_bytes, model_bytes), 4
                    ),
                }
            )
        return rows


@dataclass
class RelayFanoutResult:
    """All samples of the fan-out experiment."""

    samples: list[FanoutSample]

    def rows(self) -> list[dict[str, object]]:
        """Per-sample summary rows."""
        return [sample.as_row() for sample in self.samples]

    def tier_rows(self) -> list[dict[str, object]]:
        """Per-tier detail rows across all samples."""
        return [row for sample in self.samples for row in sample.tier_rows()]


def run_relay_fanout(
    subscriber_counts: tuple[int, ...],
    updates: int,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
    origins: int = 1,
) -> RelayFanoutResult:
    """Run the fan-out experiment over a range of subscriber counts.

    Every sample uses the same three-tier CDN tree (``mid_relays`` mid
    relays, ``mid_relays * edge_per_mid`` edge relays), so origin egress
    staying flat across samples while subscribers grow two orders of
    magnitude is the tree doing its job.
    """
    bytes_per_update = calibrate_bytes_per_update(seed=SEED + 1)
    spec = RelayTreeSpec.cdn(
        mid_relays=mid_relays, edge_per_mid=edge_per_mid, origins=origins
    )
    scenario = Scenario(spec=spec, seed=SEED)
    samples: list[FanoutSample] = []
    for count in subscriber_counts:
        run = _run_tree(scenario, count, updates)
        delta = run.delta
        measured_bytes = delta.tier_uplink_bytes() + (delta.subscriber_link_bytes,)
        measured_objects = tuple(tier.objects_received for tier in delta.tiers) + (
            delta.subscriber_objects_received,
        )
        model = fanout_model(count, updates, spec.tier_sizes(), bytes_per_update)
        samples.append(
            FanoutSample(
                subscribers=count,
                updates=updates,
                tier_names=tuple(tier.name for tier in spec.tiers) + ("subscribers",),
                measured_tier_bytes=measured_bytes,
                measured_tier_objects=measured_objects,
                measured_origin_objects=run.origin_objects,
                delivered_objects=run.delivered,
                model=model,
                events_scheduled=run.events_scheduled,
                link_batch_fallback_waves=run.link_batch_fallback_waves,
            )
        )
    return RelayFanoutResult(samples=samples)
