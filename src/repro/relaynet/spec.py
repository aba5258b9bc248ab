"""Declarative descriptions of relay fan-out hierarchies.

A :class:`RelayTreeSpec` says *what* a relay hierarchy looks like — how many
tiers, how many relays per tier, and what kind of link joins each tier to the
one above — without naming hosts or touching a network.  The
:class:`~repro.relaynet.builder.RelayTreeBuilder` turns a spec into live
:class:`~repro.moqt.relay.MoqtRelay` instances on a simulated
:class:`~repro.netsim.network.Network`.

Three canonical shapes cover the paper's §3/§5.3 scenarios:

* :meth:`RelayTreeSpec.star` — one tier of relays directly below the origin,
  the minimal fan-out the ablation benchmark measures;
* :meth:`RelayTreeSpec.kary` — a balanced k-ary tree of a given depth, the
  shape used to study how origin egress scales with branching factor;
* :meth:`RelayTreeSpec.cdn` — the origin / mid / edge hierarchy of a CDN,
  with fast core links, metro links to the mid tier and access links to the
  edge, which is the §5.3 CDN load-balancing deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.link import LinkConfig


@dataclass(frozen=True)
class RelayTierSpec:
    """One tier of relays.

    Attributes
    ----------
    name:
        Tier label (unique within a spec); shows up in statistics tables.
    relays:
        Number of relay nodes in this tier.
    uplink:
        Link configuration between each relay and its parent in the tier
        above (or the origin, for the first tier).
    """

    name: str
    relays: int
    uplink: LinkConfig = field(default_factory=LinkConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        if self.relays <= 0:
            raise ValueError(f"tier {self.name!r} needs at least one relay: {self.relays}")


@dataclass(frozen=True)
class RelayTreeSpec:
    """A full hierarchy: tiers ordered from the origin downwards.

    ``tiers[0]`` subscribes directly at the origin publisher; every relay in
    ``tiers[i]`` is assigned a parent in ``tiers[i-1]`` round-robin, so tier
    sizes need not divide evenly.  Subscribers attach below the last tier
    over ``subscriber_link``.
    """

    tiers: tuple[RelayTierSpec, ...]
    subscriber_link: LinkConfig = field(default_factory=lambda: LinkConfig(delay=0.005))
    host_prefix: str = "relay"
    #: Origin instances the tree hangs off: 1 for the historical singleton,
    #: ``n >= 2`` for a replicated origin (1 active + ``n - 1`` warm
    #: standbys, see :mod:`repro.relaynet.origincluster`).
    #: :func:`~repro.relaynet.scenario.build_scenario` builds what is
    #: declared; a topology handed anything else refuses to construct.
    origins: int = 1

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a relay tree needs at least one tier")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique: {names}")
        if self.origins < 1:
            raise ValueError(f"a relay tree needs at least one origin: {self.origins}")

    @property
    def depth(self) -> int:
        """Number of relay tiers between origin and subscribers."""
        return len(self.tiers)

    @property
    def relay_count(self) -> int:
        """Total number of relays across all tiers."""
        return sum(tier.relays for tier in self.tiers)

    def tier_sizes(self) -> tuple[int, ...]:
        """Relay counts per tier, origin-side first."""
        return tuple(tier.relays for tier in self.tiers)

    # ------------------------------------------------------------- factories
    @classmethod
    def star(
        cls,
        relays: int,
        uplink: LinkConfig | None = None,
        subscriber_link: LinkConfig | None = None,
    ) -> "RelayTreeSpec":
        """A single tier of ``relays`` relays directly below the origin."""
        return cls(
            tiers=(RelayTierSpec("relay", relays, uplink or LinkConfig()),),
            subscriber_link=subscriber_link or LinkConfig(delay=0.005),
        )

    @classmethod
    def kary(
        cls,
        depth: int,
        branching: int,
        uplink: LinkConfig | None = None,
        subscriber_link: LinkConfig | None = None,
    ) -> "RelayTreeSpec":
        """A balanced k-ary tree: tier ``i`` holds ``branching ** (i + 1)`` relays."""
        if depth <= 0:
            raise ValueError(f"depth must be positive: {depth}")
        if branching <= 0:
            raise ValueError(f"branching must be positive: {branching}")
        link = uplink or LinkConfig()
        tiers = tuple(
            RelayTierSpec(f"tier{index}", branching ** (index + 1), link)
            for index in range(depth)
        )
        return cls(tiers=tiers, subscriber_link=subscriber_link or LinkConfig(delay=0.005))

    @classmethod
    def cdn(
        cls,
        mid_relays: int = 4,
        edge_per_mid: int = 4,
        core_link: LinkConfig | None = None,
        metro_link: LinkConfig | None = None,
        access_link: LinkConfig | None = None,
        origins: int = 1,
    ) -> "RelayTreeSpec":
        """The CDN shape of §5.3: origin -> mid (metro) -> edge (access).

        ``core_link`` joins the origin to the mid tier, ``metro_link`` the mid
        tier to the edge tier, and ``access_link`` the edge relays to their
        subscribers.  ``origins >= 2`` declares a replicated origin (E14's
        failover scenario).
        """
        return cls(
            tiers=(
                RelayTierSpec("mid", mid_relays, core_link or LinkConfig(delay=0.020)),
                RelayTierSpec(
                    "edge", mid_relays * edge_per_mid, metro_link or LinkConfig(delay=0.010)
                ),
            ),
            subscriber_link=access_link or LinkConfig(delay=0.005),
            origins=origins,
        )
