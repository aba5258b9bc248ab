"""Aggregated measurements over a relay hierarchy.

:class:`RelayNetStats` snapshots, per tier, the relay counters (objects
received/forwarded, subscription aggregation, cache hits and misses) and the
bytes carried by the tier's uplinks in the fan-out direction (parent ->
child).  Because the counters are monotonic, subtracting two snapshots with
:meth:`RelayNetStats.delta` isolates a measurement window — the fan-out
experiment uses this to count only update-phase traffic, excluding session
setup.

The headline quantity is :attr:`RelayNetStats.origin_egress_bytes`: the bytes
the origin sends into the top tier.  The paper's §3 scalability argument is
precisely that this grows with the top-tier branching factor, not with the
number of subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.relaynet.topology import RelayTopology


@dataclass(frozen=True)
class TierStats:
    """Counters aggregated over all relays of one tier."""

    tier: str
    relays: int
    uplink_bytes: int
    uplink_datagrams: int
    objects_received: int
    objects_forwarded: int
    downstream_subscribes: int
    upstream_subscribes: int
    upstream_unsubscribes: int
    cache_hits: int
    cache_misses: int
    #: QUIC retransmissions by the tier's relays towards their downstream
    #: sessions — the sender-side loss-repair cost of the fan-out hop below
    #: this tier.  Monotonic, so :meth:`delta` windows apply.
    downstream_retransmissions: int = 0
    #: Congestion-window reductions taken by the tier's relays' downstream
    #: connections (zero unless a real congestion controller is installed
    #: via ``downstream_connection``).  Monotonic.
    congestion_events: int = 0

    def delta(self, earlier: "TierStats") -> "TierStats":
        """Counter differences ``self - earlier`` for the same tier."""
        if earlier.tier != self.tier:
            raise ValueError(f"tier mismatch: {self.tier!r} vs {earlier.tier!r}")
        changes = {
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)
            if f.name not in ("tier", "relays")
        }
        return TierStats(tier=self.tier, relays=self.relays, **changes)

    def as_row(self) -> dict[str, object]:
        """Row representation for report tables."""
        return {
            "tier": self.tier,
            "relays": self.relays,
            "uplink_bytes": self.uplink_bytes,
            "objects_in": self.objects_received,
            "objects_out": self.objects_forwarded,
            "subs_down": self.downstream_subscribes,
            "subs_up": self.upstream_subscribes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "retrans": self.downstream_retransmissions,
        }


@dataclass(frozen=True)
class RelayNetStats:
    """One snapshot of a whole relay tree (plus its subscriber edge)."""

    tiers: tuple[TierStats, ...]
    subscriber_count: int
    subscriber_link_bytes: int
    subscriber_objects_received: int

    @classmethod
    def collect(cls, tree: RelayTopology) -> "RelayNetStats":
        """Snapshot the tree's relay counters and uplink traffic."""
        network = tree.network
        tier_stats: list[TierStats] = []
        for nodes in tree.tiers:
            uplink_bytes = 0
            uplink_datagrams = 0
            objects_received = 0
            objects_forwarded = 0
            downstream_subscribes = 0
            upstream_subscribes = 0
            upstream_unsubscribes = 0
            cache_hits = 0
            cache_misses = 0
            downstream_retransmissions = 0
            congestion_events = 0
            for node in nodes:
                link = network.link(node.upstream_host, node.host.address)
                uplink_bytes += link.statistics.bytes_sent
                uplink_datagrams += link.statistics.datagrams_sent
                statistics = node.relay.statistics
                objects_received += statistics.objects_received
                objects_forwarded += statistics.objects_forwarded
                downstream_subscribes += statistics.downstream_subscribes
                upstream_subscribes += statistics.upstream_subscribes
                upstream_unsubscribes += statistics.upstream_unsubscribes
                cache_hits += statistics.fetches_served_from_cache
                cache_misses += statistics.fetches_forwarded_upstream
                for session in node.relay.downstream_sessions():
                    connection = session.connection
                    downstream_retransmissions += connection.statistics.retransmissions
                    congestion_events += connection.congestion.congestion_events
            tier_stats.append(
                TierStats(
                    tier=nodes[0].tier_name if nodes else "",
                    relays=len(nodes),
                    uplink_bytes=uplink_bytes,
                    uplink_datagrams=uplink_datagrams,
                    objects_received=objects_received,
                    objects_forwarded=objects_forwarded,
                    downstream_subscribes=downstream_subscribes,
                    upstream_subscribes=upstream_subscribes,
                    upstream_unsubscribes=upstream_unsubscribes,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                    downstream_retransmissions=downstream_retransmissions,
                    congestion_events=congestion_events,
                )
            )
        subscriber_link_bytes = 0
        subscriber_objects = 0
        for subscriber in tree.subscribers:
            link = network.link(subscriber.leaf.host.address, subscriber.host.address)
            subscriber_link_bytes += link.statistics.bytes_sent
            subscriber_objects += subscriber.session.statistics.objects_received
        return cls(
            tiers=tuple(tier_stats),
            subscriber_count=len(tree.subscribers),
            subscriber_link_bytes=subscriber_link_bytes,
            subscriber_objects_received=subscriber_objects,
        )

    def delta(self, earlier: "RelayNetStats") -> "RelayNetStats":
        """Counter differences ``self - earlier`` (same tree, later snapshot)."""
        if len(earlier.tiers) != len(self.tiers):
            raise ValueError("snapshots come from differently shaped trees")
        return RelayNetStats(
            tiers=tuple(tier.delta(old) for tier, old in zip(self.tiers, earlier.tiers)),
            subscriber_count=self.subscriber_count,
            subscriber_link_bytes=self.subscriber_link_bytes - earlier.subscriber_link_bytes,
            subscriber_objects_received=(
                self.subscriber_objects_received - earlier.subscriber_objects_received
            ),
        )

    # ------------------------------------------------------------- aggregates
    @property
    def origin_egress_bytes(self) -> int:
        """Bytes the origin sent into the top tier (its total fan-out cost)."""
        return self.tiers[0].uplink_bytes

    @property
    def cache_hits(self) -> int:
        """FETCHes answered from some relay cache, across all tiers."""
        return sum(tier.cache_hits for tier in self.tiers)

    @property
    def cache_misses(self) -> int:
        """FETCHes a relay had to forward upstream, across all tiers."""
        return sum(tier.cache_misses for tier in self.tiers)

    @property
    def downstream_retransmissions(self) -> int:
        """Sender-side QUIC retransmissions across every fan-out hop."""
        return sum(tier.downstream_retransmissions for tier in self.tiers)

    @property
    def congestion_events(self) -> int:
        """Congestion-window reductions across every tier's downstream side."""
        return sum(tier.congestion_events for tier in self.tiers)

    def tier_uplink_bytes(self) -> tuple[int, ...]:
        """Per-tier uplink bytes, origin-side tier first."""
        return tuple(tier.uplink_bytes for tier in self.tiers)

    def rows(self) -> list[dict[str, object]]:
        """Per-tier table rows plus a final row for the subscriber edge."""
        rows = [tier.as_row() for tier in self.tiers]
        rows.append(
            {
                "tier": "subscribers",
                "relays": self.subscriber_count,
                "uplink_bytes": self.subscriber_link_bytes,
                "objects_in": self.subscriber_objects_received,
                "objects_out": 0,
                "subs_down": 0,
                "subs_up": 0,
                "cache_hits": 0,
                "cache_misses": 0,
                "retrans": 0,
            }
        )
        return rows
