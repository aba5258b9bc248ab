"""E15 — constrained tiers: the serialisation-vs-propagation knee (§3, §5.3).

E11 charts relay fan-out on ideal links; this experiment reruns the same
CDN tree with *finite per-tier bandwidth* and charts where realism starts to
bite.  Each fan-out hop then costs ``wire_bytes * 8 / bandwidth`` of
serialisation on top of its propagation delay, and as the swept bandwidth
drops there is a knee where the serialisation sum overtakes the propagation
sum — below it, link capacity (not distance) dominates delivery latency.

The measured push-to-delivery time of every update at every subscriber
must equal :class:`repro.analysis.constrained.ConstrainedPathModel`'s closed
form **bit-exactly** (the model replays the simulator's float fold, see the
module docstring there).  The ``fallback_waves`` columns print
``Network.link_batch_fallback_waves``, a constant 0: every send is a link
wave, so no wave can fall back to per-datagram sends.

A separate lossy sample puts independent random loss on the access tier and
a NewReno congestion controller on every relay's downstream side
(:mod:`repro.quic.congestion`), proving the loss-repair path end to end:
all updates are delivered despite drops, and retransmissions and window
reductions are observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.constrained import ConstrainedPathModel, HopSpec, knee_index
from repro.experiments.relay_fanout import calibrate_bytes_per_update
from repro.moqt.origin import TRACK
from repro.moqt.relay import MOQT_ALPN
from repro.netsim.link import LinkConfig
from repro.quic.congestion import NewRenoCongestionController
from repro.quic.connection import ConnectionConfig
from repro.relaynet import RelayNetStats, RelayTreeSpec
from repro.relaynet.scenario import UPDATE_INTERVAL, Scenario, build_scenario
from repro.telemetry import Telemetry

#: Per-tier propagation delays — identical to the unconstrained E11 CDN
#: defaults, so the only variable the sweep moves is bandwidth.
CORE_DELAY = 0.020
METRO_DELAY = 0.010
ACCESS_DELAY = 0.005

#: Descending bandwidth sweep (bits/s), applied to all three hops.  With the
#: calibrated 328 B per update the serialisation sum crosses the 35 ms
#: propagation sum between 250 and 200 kbit/s, so the knee lands mid-sweep.
DEFAULT_BANDWIDTH_SWEEP = (
    10_000_000.0,
    2_000_000.0,
    1_000_000.0,
    500_000.0,
    250_000.0,
    200_000.0,
    100_000.0,
    50_000.0,
)


def _constrained_spec(
    bandwidth: float | None,
    access_loss: float = 0.0,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
) -> RelayTreeSpec:
    """The E11 CDN shape with finite per-tier bandwidth (and optional loss
    on the access tier — the lossy-edge regime)."""
    return RelayTreeSpec.cdn(
        mid_relays=mid_relays,
        edge_per_mid=edge_per_mid,
        core_link=LinkConfig(delay=CORE_DELAY, bandwidth=bandwidth),
        metro_link=LinkConfig(delay=METRO_DELAY, bandwidth=bandwidth),
        access_link=LinkConfig(
            delay=ACCESS_DELAY, bandwidth=bandwidth, loss_rate=access_loss
        ),
    )


#: Consecutive probe timeouts before a lossy-edge connection suspects its
#: peer.  The stock threshold of 2 is a *double-drop* signature: at 0.5 %
#: random loss it false-fires roughly once per 10k packets, and every false
#: suspicion evacuates an entire leaf's subscriber population.  Six PTOs
#: (``loss**6`` per packet, ~1e-14) keeps in-band failure detection armed
#: while making random loss statistically invisible to it.
LOSSY_SUSPECT_AFTER = 6


def _lossy_scenario(
    spec: RelayTreeSpec, seed: int, telemetry: Telemetry | None
) -> Scenario:
    """The lossy-edge regime on ``spec``: NewReno on every relay's downstream
    (fan-out sender) side and the same desensitised failure detector (see
    :data:`LOSSY_SUSPECT_AFTER`) at both ends of the access links."""
    return Scenario(
        spec=spec,
        seed=seed,
        downstream_connection=ConnectionConfig(
            alpn_protocols=(MOQT_ALPN,),
            liveness_suspect_after=LOSSY_SUSPECT_AFTER,
            congestion_controller=NewRenoCongestionController,
        ),
        subscriber_connection=ConnectionConfig(
            alpn_protocols=(MOQT_ALPN,),
            liveness_suspect_after=LOSSY_SUSPECT_AFTER,
        ),
        telemetry=telemetry,
    )


@dataclass
class ConstrainedRun:
    """Everything one constrained tree run measured."""

    #: Update-window statistics delta (setup traffic excluded).
    delta: RelayNetStats
    #: Simulator time each update was pushed at, in push order.
    push_times: list[float]
    #: Per update (same order), every subscriber delivery's absolute time.
    delivery_times: list[list[float]]
    #: Objects delivered to subscriber callbacks during the window.
    delivered: int
    #: ``Network.link_batch_fallback_waves``: a constant 0 (every send is a
    #: link wave), printed in the ``fallback_waves`` columns.
    link_batch_fallback_waves: int
    #: Total simulator events scheduled over the whole run.
    events_scheduled: int


def _run_constrained_tree(
    scenario: Scenario, subscribers: int, updates: int, drain: float = 3.0
) -> ConstrainedRun:
    """Stand the constrained tree up, push updates, record delivery instants.

    Mirrors E11's ``_run_tree`` but keeps absolute per-delivery timestamps
    (the closed-form check compares them bit-exactly) and the network's
    fallback-wave counter.
    """
    run = build_scenario(scenario)
    topology, simulator = run.topology, run.simulator
    topology.attach_subscribers(subscribers)
    delivered = [0]
    push_times: list[float] = []
    delivery_times: list[list[float]] = [[] for _ in range(updates)]

    def on_object(subscriber, obj) -> None:
        delivered[0] += 1
        slot = obj.group_id - 2  # updates are groups 2.., in push order
        if 0 <= slot < len(push_times):
            delivery_times[slot].append(simulator.now)

    topology.subscribe_all(TRACK, on_object=on_object)
    run.advance(3.0)

    before = RelayNetStats.collect(topology)
    delivered_before = delivered[0]
    for _ in range(updates):
        push_times.append(simulator.now)
        run.push(1)
    run.advance(drain)
    delta = RelayNetStats.collect(topology).delta(before)
    run.collect()
    return ConstrainedRun(
        delta=delta,
        push_times=push_times,
        delivery_times=delivery_times,
        delivered=delivered[0] - delivered_before,
        link_batch_fallback_waves=run.network.link_batch_fallback_waves,
        events_scheduled=simulator.events_scheduled,
    )


def calibrate_wire_bytes(updates: int = 4, seed: int = 17) -> int:
    """Exact on-the-wire bytes of one pushed update (one datagram per hop).

    Same minimal one-relay, one-subscriber calibration as E11's byte model,
    but returning the integral per-update size the serialisation model
    needs — a non-integral result would mean the framing is not constant
    per update, which would invalidate the closed form, so it raises.
    """
    value = calibrate_bytes_per_update(updates=updates, seed=seed)
    if not float(value).is_integer():
        raise RuntimeError(f"per-update wire size is not constant: {value}")
    return int(value)


@dataclass
class ConstrainedTierSample:
    """One bandwidth sweep point: measured vs. modelled delivery latency."""

    bandwidth: float
    subscribers: int
    updates: int
    model: ConstrainedPathModel
    #: Mean measured push-to-delivery latency (identical across updates and
    #: subscribers on the symmetric tree; kept as a float for the table).
    measured_latency: float
    #: Whether every delivery time equalled the closed form bit-exactly.
    model_exact: bool
    delivered: int
    link_batch_fallback_waves: int
    events_scheduled: int

    @property
    def serialisation_seconds(self) -> float:
        """Modelled per-update serialisation total along the path."""
        return self.model.serialisation_seconds

    @property
    def propagation_seconds(self) -> float:
        """Propagation total along the path (bandwidth-independent)."""
        return self.model.propagation_seconds

    @property
    def serialisation_dominates(self) -> bool:
        """Whether this sweep point sits at or past the knee."""
        return self.model.serialisation_dominates

    def as_row(self) -> dict[str, object]:
        return {
            "bandwidth_kbps": round(self.bandwidth / 1000.0, 1),
            "latency_ms": round(self.measured_latency * 1000.0, 3),
            "model_ms": round(self.model.delivery_latency() * 1000.0, 3),
            "serialisation_ms": round(self.serialisation_seconds * 1000.0, 3),
            "propagation_ms": round(self.propagation_seconds * 1000.0, 3),
            "dominates": self.serialisation_dominates,
            "model_exact": self.model_exact,
            "delivered": self.delivered,
            "fallback_waves": self.link_batch_fallback_waves,
        }


@dataclass
class ConstrainedLossSample:
    """The lossy-edge run: NewReno on the fan-out side, loss on access links."""

    bandwidth: float
    access_loss: float
    subscribers: int
    updates: int
    delivered: int
    expected: int
    #: Sender-side QUIC retransmissions across the tree's fan-out hops
    #: during the update window (loss repair at work).
    retransmissions: int
    #: NewReno window reductions across the relays' downstream connections.
    congestion_events: int
    link_batch_fallback_waves: int
    events_scheduled: int

    @property
    def repaired(self) -> bool:
        """Whether every update reached every subscriber despite the loss."""
        return self.delivered == self.expected

    def as_row(self) -> dict[str, object]:
        return {
            "bandwidth_kbps": round(self.bandwidth / 1000.0, 1),
            "loss": self.access_loss,
            "delivered": self.delivered,
            "expected": self.expected,
            "repaired": self.repaired,
            "retransmissions": self.retransmissions,
            "congestion_events": self.congestion_events,
            "fallback_waves": self.link_batch_fallback_waves,
        }


@dataclass
class ConstrainedTiersResult:
    """The full E15 sweep plus the lossy-edge sample."""

    samples: list[ConstrainedTierSample]
    loss_sample: ConstrainedLossSample
    wire_bytes: int

    @property
    def model_knee_index(self) -> int:
        """First sweep index where the model says serialisation dominates."""
        return knee_index([sample.model for sample in self.samples])

    @property
    def measured_knee_index(self) -> int:
        """First sweep index where *measured* latency minus propagation
        meets or exceeds propagation; ``-1`` if never."""
        for index, sample in enumerate(self.samples):
            if (
                sample.measured_latency - sample.propagation_seconds
                >= sample.propagation_seconds
            ):
                return index
        return -1

    @property
    def knee_matches_model(self) -> bool:
        """Whether the measured knee lands exactly on the modelled one."""
        return self.measured_knee_index == self.model_knee_index

    @property
    def all_model_exact(self) -> bool:
        """Whether every sweep point matched the closed form bit-exactly."""
        return all(sample.model_exact for sample in self.samples)

    @property
    def total_fallback_waves(self) -> int:
        """Fallback waves across the sweep and the lossy run (must be 0)."""
        return (
            sum(sample.link_batch_fallback_waves for sample in self.samples)
            + self.loss_sample.link_batch_fallback_waves
        )

    def rows(self) -> list[dict[str, object]]:
        """Per-sweep-point table rows."""
        return [sample.as_row() for sample in self.samples]

    def summary_row(self) -> dict[str, object]:
        return {
            "wire_bytes": self.wire_bytes,
            "model_knee": self.model_knee_index,
            "measured_knee": self.measured_knee_index,
            "knee_matches": self.knee_matches_model,
            "all_model_exact": self.all_model_exact,
            "fallback_waves": self.total_fallback_waves,
            "loss_repaired": self.loss_sample.repaired,
            "loss_retransmissions": self.loss_sample.retransmissions,
            "congestion_events": self.loss_sample.congestion_events,
        }


def run_constrained_tiers(
    bandwidths: tuple[float, ...] = DEFAULT_BANDWIDTH_SWEEP,
    subscribers: int = 100,
    updates: int = 5,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
    seed: int = 7,
    access_loss: float = 0.05,
    telemetry: Telemetry | None = None,
) -> ConstrainedTiersResult:
    """Run the E15 bandwidth sweep plus one lossy-edge sample.

    ``bandwidths`` must descend: the knee indices are defined as *first
    index where serialisation dominates*, which is only meaningful on a
    monotone sweep.  ``telemetry`` is threaded into every run and scraped at
    each one's end, so the gauges left standing are the lossy run's.
    """
    if list(bandwidths) != sorted(bandwidths, reverse=True):
        raise ValueError(f"bandwidth sweep must descend: {bandwidths}")
    wire_bytes = calibrate_wire_bytes(seed=seed + 1)
    samples: list[ConstrainedTierSample] = []
    for bandwidth in bandwidths:
        model = ConstrainedPathModel(
            hops=(
                HopSpec(delay=CORE_DELAY, bandwidth=bandwidth),
                HopSpec(delay=METRO_DELAY, bandwidth=bandwidth),
                HopSpec(delay=ACCESS_DELAY, bandwidth=bandwidth),
            ),
            wire_bytes=wire_bytes,
        )
        if not model.no_queueing_below(UPDATE_INTERVAL):
            raise ValueError(
                f"bandwidth {bandwidth} backlogs the FIFO at the push "
                f"interval {UPDATE_INTERVAL}; the closed form would not apply"
            )
        run = _run_constrained_tree(
            Scenario(
                spec=_constrained_spec(
                    bandwidth, mid_relays=mid_relays, edge_per_mid=edge_per_mid
                ),
                seed=seed,
                telemetry=telemetry,
            ),
            subscribers,
            updates,
        )
        exact = True
        latency_total = 0.0
        latency_count = 0
        for push_time, deliveries in zip(run.push_times, run.delivery_times):
            predicted = model.delivery_time(push_time)
            for delivered_at in deliveries:
                if delivered_at != predicted:
                    exact = False
                latency_total += delivered_at - push_time
                latency_count += 1
        samples.append(
            ConstrainedTierSample(
                bandwidth=bandwidth,
                subscribers=subscribers,
                updates=updates,
                model=model,
                measured_latency=latency_total / latency_count if latency_count else 0.0,
                model_exact=exact and latency_count == subscribers * updates,
                delivered=run.delivered,
                link_batch_fallback_waves=run.link_batch_fallback_waves,
                events_scheduled=run.events_scheduled,
            )
        )
    loss_bandwidth = bandwidths[len(bandwidths) // 2]
    loss_run = _run_constrained_tree(
        _lossy_scenario(
            _constrained_spec(loss_bandwidth, access_loss, mid_relays, edge_per_mid),
            seed,
            telemetry,
        ),
        subscribers,
        updates,
        drain=6.0,
    )
    loss_sample = ConstrainedLossSample(
        bandwidth=loss_bandwidth,
        access_loss=access_loss,
        subscribers=subscribers,
        updates=updates,
        delivered=loss_run.delivered,
        expected=subscribers * updates,
        retransmissions=loss_run.delta.downstream_retransmissions,
        congestion_events=loss_run.delta.congestion_events,
        link_batch_fallback_waves=loss_run.link_batch_fallback_waves,
        events_scheduled=loss_run.events_scheduled,
    )
    return ConstrainedTiersResult(
        samples=samples, loss_sample=loss_sample, wire_bytes=wire_bytes
    )
