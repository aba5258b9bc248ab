"""Network topology: hosts wired together by links.

The :class:`Network` owns hosts and the links between them and routes
datagrams.  Two routing modes are supported:

* direct links — if a link exists between source and destination hosts the
  datagram traverses exactly that link;
* multi-hop — otherwise the network computes the least-total-delay path over
  the link graph (using a simple Dijkstra over configured delays) and the
  datagram traverses every link on the path in sequence: each intermediate
  host receives it like any delivery and hands it back to :meth:`Network.forward`
  for the next hop.

Either way a datagram leaves through :meth:`Link.transmit_many`: collected
into the current batching region's wave, or as a one-entry wave outside one.
Every delivery is a batching region, so what a host sends while handling a
datagram leaves as one wave.  A link's sink is its destination
:class:`~repro.netsim.node.Host`, which holds the one delivery body.

Multi-hop routing is what lets the deep-space and relay experiments place
intermediaries between resolvers without modelling routers explicitly.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace
from typing import Iterable

from repro.netsim.link import Link, LinkConfig
from repro.netsim.node import Host
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder, TraceRecorder


class UnknownHostError(Exception):
    """Raised when routing to or creating a link for an unknown host."""


class NoRouteError(Exception):
    """Raised when no path exists between two hosts."""


class Network:
    """A set of hosts connected by point-to-point links."""

    def __init__(self, simulator: Simulator, trace: TraceRecorder | None = None) -> None:
        self.simulator = simulator
        #: Datagram recording is opt-in (``trace=TraceRecorder(simulator)``):
        #: a recording trace keeps two events per datagram for the whole run.
        self.trace = trace if trace is not None else NullTraceRecorder(simulator)
        self._hosts: dict[str, Host] = {}
        # Keyed by (source, destination) host-address tuples: plain tuples
        # hash faster than any wrapper object on the per-datagram route path.
        self._links: dict[tuple[str, str], Link] = {}
        #: Stateless remnant of the retired datagram pool: ``acquire`` builds a
        #: plain :class:`Datagram`.  Nothing in the library calls it; the
        #: end-to-end benchmark's ``netsim_transmit_many_ns_per_dgram`` unit
        #: cost still does, until ROADMAP 0(d) re-points it and deletes this.
        self.datagram_pool = SimpleNamespace(acquire=Datagram)
        self._batch_depth = 0
        self._batch: list[tuple[Link, Datagram]] = []
        #: Constant remnant of the retired per-datagram fallback: every send
        #: is a link wave, so no wave can degrade and nothing writes this.
        #: Its readers are the E11 / E15 result fields, the E15
        #: ``fallback_waves`` columns of ``tests/golden/runner.txt`` and
        #: the end-to-end benchmark's ``no_batch_fallback_waves`` check;
        #: ROADMAP 0(a) plus a runner re-baseline delete it.
        self.link_batch_fallback_waves = 0

    # ------------------------------------------------------------------ hosts
    def add_host(self, address: str) -> Host:
        """Create a host with the given address and attach it."""
        if address in self._hosts:
            raise ValueError(f"host already exists: {address}")
        host = Host(self.simulator, address)
        host.attach(self)
        self._hosts[address] = host
        return host

    def add_hosts(self, prefix: str, count: int) -> list[Host]:
        """Create ``count`` hosts named ``{prefix}-0`` … ``{prefix}-{count-1}``.

        Bulk creation keeps large fan-out topologies (one host per relay or
        subscriber) readable; the relay-tree builder uses it for every tier.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        return [self.add_host(f"{prefix}-{index}") for index in range(count)]

    def host(self, address: str) -> Host:
        """Look up a host by address."""
        try:
            return self._hosts[address]
        except KeyError:
            raise UnknownHostError(address) from None

    def hosts(self) -> list[Host]:
        """All hosts, in insertion order."""
        return list(self._hosts.values())

    # ------------------------------------------------------------------ links
    def connect(
        self,
        first: str | Host,
        second: str | Host,
        config: LinkConfig,
    ) -> None:
        """Create a bidirectional link between two hosts; ``config`` applies
        to both directions."""
        first_addr = first.address if isinstance(first, Host) else first
        second_addr = second.address if isinstance(second, Host) else second
        for address in (first_addr, second_addr):
            if address not in self._hosts:
                raise UnknownHostError(address)
        if first_addr == second_addr:
            # Loopback needs no link (see route()), and route() relies on a
            # direct-link hit meaning "another, known host".
            raise ValueError(f"cannot link a host to itself: {first_addr}")
        # A link's sink is the destination host itself: the link's arrival
        # loop calls it, and its one frame is the delivery body (Host.__call__).
        self._links[(first_addr, second_addr)] = Link(config, self._hosts[second_addr])
        self._links[(second_addr, first_addr)] = Link(config, self._hosts[first_addr])

    def connect_star(
        self,
        hub: str | Host,
        peripherals: Iterable[str | Host],
        config: LinkConfig,
    ) -> None:
        """Connect every peripheral host to ``hub`` with identical links,
        ``config`` both ways."""
        for peripheral in peripherals:
            self.connect(hub, peripheral, config)

    def link(self, source: str, destination: str) -> Link:
        """The link carrying traffic from ``source`` to ``destination``."""
        try:
            return self._links[(source, destination)]
        except KeyError:
            raise NoRouteError(f"no link {source} -> {destination}") from None

    def has_link(self, source: str, destination: str) -> bool:
        """Whether a direct link exists from ``source`` to ``destination``."""
        return (source, destination) in self._links

    # -------------------------------------------------------------- batching
    def begin_batch(self) -> None:
        """Enter a batching region: datagrams sent inside it are collected
        and leave as one :meth:`Link.transmit_many` wave on the outermost
        :meth:`end_batch`.  Regions nest; every delivery runs in one, and the
        sends a harness makes in bulk (origin push, subscriber attach and
        subscribe) wrap their loops in one."""
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Leave a batching region, sending its wave on the outermost exit."""
        self._batch_depth -= 1
        if self._batch_depth == 0 and self._batch:
            entries, self._batch = self._batch, []
            Link.transmit_many(self.simulator, entries, self)

    # ---------------------------------------------------------------- routing
    def route(self, datagram: Datagram) -> None:
        """Route a datagram from its source host towards its destination."""
        source = datagram.source.host
        destination = datagram.destination.host
        # Direct links carry virtually every datagram, so they are probed
        # first: connect() only links two distinct known hosts, hence a hit
        # already says the destination exists and is not the source.
        link = self._links.get((source, destination))
        if link is None and destination not in self._hosts:
            raise UnknownHostError(destination)
        trace = self.trace
        if trace.enabled:
            trace.record_datagram("datagram-sent", datagram)
        if link is None:
            if source == destination:
                # Loopback delivery happens "immediately" on the next event.
                self.simulator.call_soon(self._hosts[destination], datagram)
                return
            link = self._links[(source, self.shortest_path(source, destination)[1])]
        if self._batch_depth:
            self._batch.append((link, datagram))
        else:
            Link.transmit_many(self.simulator, [(link, datagram)], self)

    def shortest_path(self, source: str, destination: str) -> list[str]:
        """Least-total-delay path between two hosts (Dijkstra)."""
        distances: dict[str, float] = {source: 0.0}
        previous: dict[str, str] = {}
        queue: list[tuple[float, str]] = [(0.0, source)]
        visited: set[str] = set()
        while queue:
            distance, address = heapq.heappop(queue)
            if address in visited:
                continue
            visited.add(address)
            if address == destination:
                break
            for (edge_source, edge_destination), link in self._links.items():
                if edge_source != address:
                    continue
                candidate = distance + link.config.delay
                if candidate < distances.get(edge_destination, float("inf")):
                    distances[edge_destination] = candidate
                    previous[edge_destination] = address
                    heapq.heappush(queue, (candidate, edge_destination))
        if destination not in distances:
            raise NoRouteError(f"no route {source} -> {destination}")
        path = [destination]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return path

    # ---------------------------------------------------------------- transit
    def forward(self, host: Host, datagram: Datagram) -> None:
        """A transit hop: ``datagram`` reached ``host`` (its link's sink) on
        the way to another host.

        It goes on along the shortest path its source's :meth:`route` took,
        sharing the next link's FIFO, loss draws and counters with that
        link's own traffic, and leaves no trace record here."""
        path = self.shortest_path(datagram.source.host, datagram.destination.host)
        link = self._links[(host.address, path[path.index(host.address) + 1])]
        # A region of its own, so the hop also leaves when the wave that
        # brought it was sent without this network as its batch sink.
        self.begin_batch()
        self._batch.append((link, datagram))
        self.end_batch()

    # ------------------------------------------------------------- statistics
    def total_link_statistics(self) -> dict[str, int]:
        """Aggregate counters over every link direction."""
        totals = {
            "datagrams_sent": 0,
            "datagrams_delivered": 0,
            "datagrams_dropped": 0,
            "bytes_sent": 0,
            "bytes_delivered": 0,
        }
        for link in self._links.values():
            for key, value in link.statistics.as_dict().items():
                totals[key] += value
        return totals
