"""Point-to-point links with delay, bandwidth and loss.

A :class:`Link` models one direction of a point-to-point connection between
two hosts.  Datagrams entering the link experience:

* serialisation delay (``size / bandwidth``) when a bandwidth is configured,
* a fixed propagation delay (``delay`` seconds, one way),
* independent random loss with probability ``loss_rate``.

Every datagram enters a link through :meth:`Link.transmit_many` as part of a
wave of ``(link, datagram)`` entries; a lone send is a one-entry wave.  Links
keep simple counters (datagrams/bytes carried and dropped) that the traffic
experiments read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator


class BatchSink(Protocol):
    """Collects datagrams sent during a code region into one wave.

    Implemented by :class:`~repro.netsim.network.Network`; passed to
    :meth:`Link.transmit_many` so that what a delivery callback sends
    (ACKs, handshake answers, fan-out) leaves as one wave at the end of the
    delivery.
    """

    def begin_batch(self) -> None:
        """Start (or nest into) a batching region."""

    def end_batch(self) -> None:
        """Leave the region; the outermost exit flushes collected datagrams."""


@dataclass(frozen=True)
class LinkConfig:
    """Configuration of one direction of a link.

    Attributes
    ----------
    delay:
        One-way propagation delay in seconds.
    bandwidth:
        Bandwidth in bits per second; ``None`` means infinite (no
        serialisation delay).
    loss_rate:
        Independent per-datagram drop probability in ``[0, 1)``.
        ``loss_rate == 1.0`` is rejected: a link that drops everything is a
        partition, which the experiments model by crashing/abandoning the
        peer instead — and a guaranteed drop would still consume one RNG
        draw per datagram, distorting every seeded stream for no signal.

    RNG draw-order contract (frozen)
    --------------------------------
    Loss is decided when a wave is sent (:meth:`Link.transmit_many`) with
    **exactly one** ``simulator.rng.random()`` draw per datagram on a lossy
    link (``loss_rate > 0``) and **zero** draws on a loss-free link, once
    per entry in entry order.  A send outside a batching region is a
    one-entry wave and draws when it is made; sends inside one — every
    delivery is a region, as are the fan-out loops — are collected in
    first-sent (FIFO) order and draw when the outermost region exits: the
    same sequence of draws as sending each of them on its own at that
    instant.  Serialisation never draws: the FIFO busy time is advanced
    deterministically, and a *dropped* datagram does not advance it (loss
    is decided before the datagram would occupy the wire).  Seeded
    experiment outputs are frozen on this ordering; see the draw-order
    regression test in ``tests/test_constrained_batch.py``.
    """

    delay: float = 0.010
    bandwidth: float | None = None
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative: {self.delay}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {self.loss_rate}")


@dataclass(slots=True)
class LinkStatistics:
    """Counters accumulated by a link."""

    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_dropped: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0

    def as_dict(self) -> dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "datagrams_sent": self.datagrams_sent,
            "datagrams_delivered": self.datagrams_delivered,
            "datagrams_dropped": self.datagrams_dropped,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
        }


class Link:
    """One direction of a point-to-point link.

    Parameters
    ----------
    config:
        Delay / bandwidth / loss parameters.
    deliver:
        Called with each datagram that survives the link, after the
        configured delays.  A :class:`~repro.netsim.network.Network` passes
        the destination :class:`~repro.netsim.node.Host`, whose call is the
        one delivery body; any other one-argument callable works the same.

    A link has one send method, :meth:`transmit_many`; a lone datagram is a
    one-entry wave.
    """

    __slots__ = (
        "_config",
        "_deliver",
        "_busy_until",
        "_delay",
        "_bandwidth",
        "_loss_rate",
        "statistics",
    )

    def __init__(self, config: LinkConfig, deliver: Callable[[Datagram], None]) -> None:
        self._config = config
        self._deliver = deliver
        self._busy_until = 0.0
        # The config is frozen; hoisting its fields saves three attribute
        # chains per transmitted datagram.
        self._delay = config.delay
        self._bandwidth = config.bandwidth
        self._loss_rate = config.loss_rate
        self.statistics = LinkStatistics()

    @property
    def config(self) -> LinkConfig:
        """The link configuration."""
        return self._config

    @staticmethod
    def transmit_many(
        simulator: Simulator,
        entries: list[tuple["Link", Datagram]],
        batch_sink: BatchSink,
    ) -> None:
        """Send a wave of (link, datagram) pairs, one heap event per arrival slot.

        Entry by entry, in entry order:

        * loss is decided with one ``rng.random()`` draw on a lossy link and
          none otherwise — nothing else touches the simulator RNG between
          the entries of a wave;
        * serialisation is a FIFO per link:
          ``start = max(now, busy_until)``, ``busy_until = start + size·8/bw``,
          and a dropped entry does not advance it;
        * the arrival instant is ``busy_until + delay`` on a link with a
          bandwidth and ``now + delay`` on one without.

        Surviving entries are grouped by arrival instant in first-seen order
        and each group is scheduled as one heap event.  The heap orders events
        by ``(time, sequence)`` and a group delivers in entry order, so the
        delivery sequence is the one a datagram-at-a-time send of the same
        entries would give, with one event per distinct arrival slot: an
        edge relay pushing one object to N subscribers over N
        same-configuration links schedules a single event.

        ``batch_sink`` (the :class:`~repro.netsim.network.Network` the links
        belong to) is entered around each group's deliveries, so everything
        sent while handling them — ACKs, handshake replies, relay fan-out, a
        transit hop's next hop — leaves as the next wave.
        """
        groups: dict[float, list[tuple[Link, Datagram]]] = {}
        now = simulator.now
        for entry in entries:
            link = entry[0]
            size = len(entry[1].payload)
            statistics = link.statistics
            statistics.datagrams_sent += 1
            statistics.bytes_sent += size
            if link._loss_rate > 0.0:
                if simulator.rng.random() < link._loss_rate:
                    statistics.datagrams_dropped += 1
                    continue
            if link._bandwidth is not None:
                start = max(now, link._busy_until)
                serialisation = size * 8 / link._bandwidth
                link._busy_until = start + serialisation
                arrival = link._busy_until + link._delay
            else:
                arrival = now + link._delay
            group = groups.get(arrival)
            if group is None:
                groups[arrival] = group = []
            group.append(entry)
        for arrival, group in groups.items():
            simulator.call_at(arrival, Link._arrive_many, group, batch_sink)

    @staticmethod
    def _arrive_many(
        entries: list[tuple["Link", Datagram]], batch_sink: BatchSink
    ) -> None:
        batch_sink.begin_batch()
        try:
            for link, datagram in entries:
                statistics = link.statistics
                statistics.datagrams_delivered += 1
                statistics.bytes_delivered += len(datagram.payload)
                link._deliver(datagram)
        finally:
            batch_sink.end_batch()
