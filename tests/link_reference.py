"""Reference for ``Link.transmit_many``: one datagram at a time.

``transmit(simulator, link, datagram)`` sends one datagram on one link with
one heap event of its own: one ``rng.random()`` loss draw on a lossy link and
none otherwise, then the link's FIFO busy time
(``start = max(now, busy_until)``, ``busy_until = start + size·8/bw``; a
dropped datagram does not advance it), then an arrival at
``busy_until + delay`` that counts the delivery and calls the link's delivery
callback.  The differential tests in ``test_constrained_batch.py`` and
``test_megafan.py`` send the same entries through a wave and through a loop
of these calls and require the same deliveries, delivery instants, counters
and RNG use.
"""

from __future__ import annotations

from repro.netsim.link import Link
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator


def transmit(simulator: Simulator, link: Link, datagram: Datagram) -> None:
    """Send ``datagram`` on ``link`` on its own."""
    config = link.config
    size = len(datagram.payload)
    statistics = link.statistics
    statistics.datagrams_sent += 1
    statistics.bytes_sent += size
    if config.loss_rate > 0.0 and simulator.rng.random() < config.loss_rate:
        statistics.datagrams_dropped += 1
        return
    start = max(simulator.now, link._busy_until)
    serialisation = size * 8 / config.bandwidth if config.bandwidth is not None else 0.0
    link._busy_until = start + serialisation
    simulator.call_at(link._busy_until + config.delay, _arrive, link, datagram)


def _arrive(link: Link, datagram: Datagram) -> None:
    link.statistics.datagrams_delivered += 1
    link.statistics.bytes_delivered += len(datagram.payload)
    link._deliver(datagram)
