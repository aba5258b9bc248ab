"""Closed-form delivery latency on bandwidth-constrained relay paths (E15).

With finite per-tier bandwidths, every fan-out hop adds a *serialisation*
term ``wire_bytes * 8 / bandwidth`` on top of its propagation delay.  The
E15 experiment (:mod:`repro.experiments.constrained_tiers`) sweeps tier
bandwidths downwards and charts the knee where the serialisation sum
overtakes the propagation sum — the regime boundary the HotNets paper's
latency argument lives on one side of.

The model here is *exact*, not approximate: relays forward synchronously at
arrival, and as long as each update's per-hop serialisation is shorter than
the push interval the link FIFO is always idle when an update arrives, so
the simulator computes an update's delivery time as the literal left-to-right
fold

    t = push_time
    for each hop:  t = t + wire_bytes * 8 / bandwidth;  t = t + delay

:meth:`ConstrainedPathModel.delivery_latency` replays that fold with the
same float operations in the same order, which is why the experiment can
gate on bit-exact equality between measured and modelled latency rather
than a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HopSpec:
    """One fan-out hop: propagation delay plus optional bandwidth."""

    delay: float
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative: {self.delay}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth}")


@dataclass(frozen=True)
class ConstrainedPathModel:
    """Exact per-update delivery latency along a chain of constrained hops.

    ``wire_bytes`` is the on-the-wire size of one pushed update on every hop
    (identical per hop — the relays re-encode each object into the same
    framing, which E11's exact tier tables pin), calibrated from a minimal
    run just like the fan-out byte model.
    """

    hops: tuple[HopSpec, ...]
    wire_bytes: int

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("at least one hop is required")
        if self.wire_bytes <= 0:
            raise ValueError(f"wire_bytes must be positive: {self.wire_bytes}")

    # -------------------------------------------------------------- latency
    def delivery_time(self, push_time: float) -> float:
        """Absolute delivery time of an update pushed at ``push_time``,
        bit-exact to the simulator.

        The fold mirrors :meth:`repro.netsim.link.Link.transmit_many` hop by hop:
        an idle FIFO starts serialising at the forwarding instant, so each
        hop contributes ``size * 8 / bandwidth`` then ``delay``, in that
        order, accumulated left to right.  Float addition is not
        associative, so exactness only holds for *absolute* times computed
        from the same starting value the simulator used — which is why the
        experiment gates on ``delivered_at == delivery_time(push_time)``
        rather than comparing latencies.
        """
        t = push_time
        bits = self.wire_bytes * 8
        for hop in self.hops:
            if hop.bandwidth is not None:
                t = t + bits / hop.bandwidth
            t = t + hop.delay
        return t

    def delivery_latency(self) -> float:
        """Push-to-delivery latency of one update pushed at time zero."""
        return self.delivery_time(0.0)

    @property
    def propagation_seconds(self) -> float:
        """Sum of the hops' propagation delays (the bandwidth-free floor)."""
        total = 0.0
        for hop in self.hops:
            total = total + hop.delay
        return total

    @property
    def serialisation_seconds(self) -> float:
        """Sum of the hops' serialisation delays for one update."""
        total = 0.0
        bits = self.wire_bytes * 8
        for hop in self.hops:
            if hop.bandwidth is not None:
                total = total + bits / hop.bandwidth
        return total

    @property
    def serialisation_dominates(self) -> bool:
        """Whether serialisation has overtaken propagation on this path."""
        return self.serialisation_seconds >= self.propagation_seconds

    def no_queueing_below(self, push_interval: float) -> bool:
        """Whether the exactness precondition holds: every hop drains one
        update faster than the push interval, so the FIFO never backlogs."""
        bits = self.wire_bytes * 8
        return all(
            hop.bandwidth is None or bits / hop.bandwidth < push_interval
            for hop in self.hops
        )


def knee_index(models: "list[ConstrainedPathModel] | tuple[ConstrainedPathModel, ...]") -> int:
    """First index of a descending-bandwidth sweep where serialisation
    dominates propagation; ``-1`` when it never does."""
    for index, model in enumerate(models):
        if model.serialisation_dominates:
            return index
    return -1
