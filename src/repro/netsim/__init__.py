"""Deterministic discrete-event network simulator.

The simulator provides a virtual clock and event scheduler (:class:`Simulator`),
hosts with numbered ports (:class:`~repro.netsim.node.Host`), point-to-point
links with configurable one-way delay, bandwidth and loss
(:class:`~repro.netsim.link.Link`), and a :class:`~repro.netsim.network.Network`
that wires hosts together and routes datagrams between them.

All protocol layers in this repository (UDP DNS, QUIC, MoQT, DNS-over-MoQT)
exchange :class:`~repro.netsim.packet.Datagram` objects through this module,
which makes every experiment fully deterministic and reproducible.
"""

from repro.netsim.simulator import Simulator, Event
from repro.netsim.packet import Datagram, Address
from repro.netsim.link import Link, LinkConfig
from repro.netsim.node import Host, PortHandler
from repro.netsim.network import Network
from repro.netsim.trace import TraceRecorder, TraceEvent
from repro.netsim.stats import SummaryStatistics

__all__ = [
    "Simulator",
    "Event",
    "Datagram",
    "Address",
    "Link",
    "LinkConfig",
    "Host",
    "PortHandler",
    "Network",
    "TraceRecorder",
    "TraceEvent",
    "SummaryStatistics",
]
