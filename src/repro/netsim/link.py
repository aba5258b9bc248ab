"""Point-to-point links with delay, bandwidth and loss.

A :class:`Link` models one direction of a point-to-point connection between
two hosts.  Datagrams entering the link experience:

* serialisation delay (``size / bandwidth``) when a bandwidth is configured,
* a fixed propagation delay (``delay`` seconds, one way),
* independent random loss with probability ``loss_rate``.

Links keep simple counters (datagrams/bytes carried and dropped) that the
traffic experiments read back.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator


class BatchSink(Protocol):
    """Collects datagrams sent during a code region for batched transmission.

    Implemented by :class:`~repro.netsim.network.Network`; passed to
    :meth:`Link.transmit_many` so delivery callbacks that send replies (ACKs,
    handshake answers) feed a new batch instead of scheduling per-datagram
    events.
    """

    def begin_batch(self) -> None:
        """Start (or nest into) a batching region."""

    def end_batch(self) -> None:
        """Leave the region; the outermost exit flushes collected datagrams."""


_fallback_warning_issued = False


def note_batch_fallback(batch_sink: "BatchSink | None") -> None:
    """Record one batched wave degrading to per-datagram transmission.

    The degradation used to be silent — and silently forfeited every
    fan-out win whenever a link had bandwidth or loss configured.  Standard
    links no longer trigger it at all; when an explicitly non-batchable
    link does, the wave is counted on the batch sink's
    ``link_batch_fallback_waves`` attribute (exported as the
    ``net_link_batch_fallback_waves`` telemetry gauge and gated to zero in
    the perf harness) and a :class:`RuntimeWarning` is issued once per
    process so regressions of the old bug cannot hide again.
    """
    global _fallback_warning_issued
    if not _fallback_warning_issued:
        _fallback_warning_issued = True
        warnings.warn(
            "Link.transmit_many degraded to per-datagram transmission for a "
            "wave containing a non-batchable link; fan-out batching is "
            "forfeited for this wave (counted in link_batch_fallback_waves)",
            RuntimeWarning,
            stacklevel=3,
        )
    if batch_sink is not None:
        counter = getattr(batch_sink, "link_batch_fallback_waves", None)
        if counter is not None:
            batch_sink.link_batch_fallback_waves = counter + 1


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
    Loss is decided at *enqueue* time with **exactly one**
    ``simulator.rng.random()`` draw per datagram on a lossy link
    (``loss_rate > 0``) and **zero** draws on a loss-free link.  Draws
    happen in transmission order: per-datagram :meth:`Link.transmit` draws
    when called, and a batched fan-out wave
    (:meth:`Link.transmit_many` / the network's batching regions) draws
    once per entry in first-collected (FIFO) order when the wave is
    flushed — the same sequence of draws a loop of per-datagram
    ``transmit`` calls at the flush instant would make.  Serialisation
    never draws: the FIFO busy time is advanced deterministically, and a
    *dropped* datagram does not advance it (loss is decided before the
    datagram would occupy the wire).  Seeded experiment outputs are frozen
    on this ordering; see the draw-order regression test in
    ``tests/test_constrained_batch.py``.
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
    simulator:
        The owning simulator (provides the clock and randomness).
    config:
        Delay / bandwidth / loss parameters.
    deliver:
        Callback invoked with each datagram that survives the link, after the
        configured delays.
    """

    __slots__ = (
        "_simulator",
        "_config",
        "_deliver",
        "_busy_until",
        "_delay",
        "_bandwidth",
        "_loss_rate",
        "batchable",
        "statistics",
    )

    def __init__(
        self,
        simulator: Simulator,
        config: LinkConfig,
        deliver: Callable[[Datagram], None],
    ) -> None:
        self._simulator = simulator
        self._config = config
        self._deliver = deliver
        self._busy_until = 0.0
        # The config is frozen; hoisting its fields saves three attribute
        # chains per transmitted datagram.
        self._delay = config.delay
        self._bandwidth = config.bandwidth
        self._loss_rate = config.loss_rate
        #: Whether this link qualifies for batched transmission.  True for
        #: every standard link: the batch path replays per-datagram semantics
        #: exactly — per-entry loss draws in FIFO order, FIFO serialisation
        #: with dropped datagrams not advancing the busy time — grouping a
        #: wave into one heap event per distinct arrival instant (links with
        #: bandwidth or loss used to force a per-datagram fallback; that
        #: fallback forfeited every fan-out win the moment a link was
        #: realistic).  A link subclass or test may clear the flag to opt
        #: out; such entries degrade :meth:`transmit_many` to per-datagram
        #: :meth:`transmit` and bump the observable fallback counter.
        self.batchable = True
        self.statistics = LinkStatistics()

    @property
    def config(self) -> LinkConfig:
        """The link configuration."""
        return self._config

    def transmit(
        self, datagram: Datagram, deliver: Callable[[Datagram], None] | None = None
    ) -> None:
        """Send a datagram across the link.

        Loss is decided at enqueue time; surviving datagrams are delivered
        after serialisation plus propagation delay.  Serialisation is modelled
        as a FIFO: a datagram cannot start transmitting before the previous
        one has finished.

        ``deliver`` replaces the link's own delivery callback for this one
        datagram — a transit hop of a multi-hop route hands the datagram to
        the next hop instead of to the host at the far end.
        """
        size = len(datagram.payload)
        statistics = self.statistics
        statistics.datagrams_sent += 1
        statistics.bytes_sent += size
        if self._loss_rate > 0.0:
            if self._simulator.rng.random() < self._loss_rate:
                statistics.datagrams_dropped += 1
                return
        start = max(self._simulator.now, self._busy_until)
        if self._bandwidth is not None:
            serialisation = size * 8 / self._bandwidth
        else:
            serialisation = 0.0
        self._busy_until = start + serialisation
        arrival = self._busy_until + self._delay
        # Scheduling the bound method with the datagram as an event argument
        # avoids allocating one closure per datagram on the hottest path.
        self._simulator.call_at(arrival, self._arrive, datagram, deliver or self._deliver)

    def _arrive(self, datagram: Datagram, deliver: Callable[[Datagram], None]) -> None:
        statistics = self.statistics
        statistics.datagrams_delivered += 1
        statistics.bytes_delivered += len(datagram.payload)
        deliver(datagram)

    # -------------------------------------------------------------- batch form
    @staticmethod
    def transmit_many(
        simulator: Simulator,
        entries: list[tuple["Link", Datagram]],
        batch_sink: "BatchSink | None" = None,
    ) -> None:
        """Send many (link, datagram) pairs, one heap event per arrival slot.

        The batch form of :meth:`transmit` for fan-out: an edge relay pushing
        one object to N subscribers over N same-configuration links schedules
        a single event carrying the recipient list instead of N events.  The
        batch path is bandwidth- and loss-aware: per-recipient delivery
        order, delivery times, byte counters and the seeded RNG stream are
        preserved exactly for *any* standard link (see
        :meth:`_transmit_batched` for the argument).  Entries over links
        explicitly marked non-batchable make the whole call degrade to
        per-datagram :meth:`transmit`; the degradation is observable — it
        bumps ``link_batch_fallback_waves`` on the batch sink and warns once
        per process — because a silent fallback here once forfeited every
        fan-out win on constrained links.

        ``batch_sink`` (usually the owning :class:`~repro.netsim.network.Network`)
        is re-entered around the delivery callbacks so that datagrams sent in
        response — ACKs, handshake replies — are batched as well.
        """
        if not all(link.batchable for link, _ in entries):
            note_batch_fallback(batch_sink)
            for link, datagram in entries:
                link.transmit(datagram)
            return
        Link._transmit_batched(simulator, entries, batch_sink)

    @staticmethod
    def _transmit_batched(
        simulator: Simulator,
        entries: list[tuple["Link", Datagram]],
        batch_sink: "BatchSink | None",
    ) -> None:
        """:meth:`transmit_many` minus the batchability guard — for callers
        (the network's batching region) that only ever collect batchable
        links.

        Equivalence to a loop of per-datagram :meth:`transmit` calls at the
        flush instant, entry by entry in FIFO order:

        * the loss draw (one ``rng.random()`` per entry on a lossy link,
          none otherwise) happens in entry order, exactly as the loop's
          sequential ``transmit`` calls would draw — nothing else touches
          the simulator RNG between the entries of a wave;
        * the FIFO serialisation state advances identically:
          ``start = max(now, busy_until)``, ``busy_until = start + size·8/bw``,
          with dropped entries *not* advancing it — the same statements, in
          the same float-operation order, as :meth:`transmit`;
        * each surviving entry's arrival instant is therefore bit-identical
          to the per-datagram path's; entries are grouped by that instant in
          first-seen order and each group scheduled as one heap event.  The
          heap orders events by ``(time, sequence)`` and a group's
          deliveries run in entry order, so the realised delivery sequence
          — across groups and within them — is exactly the per-datagram
          one, with N heap events collapsed into one per distinct arrival
          slot (unconstrained same-delay fan-out keeps its single wave
          event; a bandwidth-limited link serialises into per-entry slots
          but still costs one event per slot, not per datagram).
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
        entries: list[tuple["Link", Datagram]], batch_sink: "BatchSink | None"
    ) -> None:
        if batch_sink is not None:
            batch_sink.begin_batch()
        try:
            for link, datagram in entries:
                statistics = link.statistics
                statistics.datagrams_delivered += 1
                statistics.bytes_delivered += len(datagram.payload)
                link._deliver(datagram)
        finally:
            if batch_sink is not None:
                batch_sink.end_batch()
