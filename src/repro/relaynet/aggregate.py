"""Exact aggregate-leaf fan-out: N homogeneous subscribers, one connection.

Below the edge tier the simulation is pure replication: every subscriber of
one leaf relay shares the same :class:`~repro.netsim.link.LinkConfig`, the
same subscription and therefore — because nothing subscriber-specific ever
reaches the wire (connection IDs are fixed-width varints, the TLS
``server_name`` is the *leaf's* host name) — byte-for-byte the same traffic
at the same virtual instants.  Simulating each replica individually at
1,000,000 subscribers is wasted cycles and wasted RSS.

:class:`AggregateLeaf` collapses one leaf relay's homogeneous population
into a single live :class:`~repro.relaynet.topology.TreeSubscriber` (the
*representative*) carrying ``multiplicity = N``.  Every statistic the
experiments and telemetry collectors read — tier byte tables, origin
egress, delivered-object counts, QUIC counter totals, network link totals —
is multiplied out at collection time, so the aggregate run's measured
outputs are bit-identical to the dense run's (the equivalence canaries in
``tests/test_aggregate.py`` pin this at 1k and 10k).

The hard part is **materialise-on-demand**: the moment a member stops being
homogeneous it must become real.  :meth:`AggregateLeaf.split` promotes one
member out of the aggregate into a dense subscriber with its own host, its
own dedupe/recovery state (cloned from the representative, whose delivery
history is by construction the member's own) and — when it opens a fresh
connection — a deterministic RNG stream derived from its *index*, not from
spawn order, so materialising member 4711 draws the same connection ID no
matter how many members split before it and never shifts the global seeded
stream.  Three populations therefore run dense:

* **span-sampled subscribers** (``index % subscriber_sample_every == 0``)
  are materialised at attach time so latency breakdowns keep their exact
  per-subscriber delivery timestamps;
* **churned subscribers** split when their leaf dies: the group dissolves
  inside the failover (before orphan re-homing runs), each member re-attaches
  individually and the E12/E13/E14 gapless + closed-form-latency contracts
  hold member by member;
* **manually split subscribers** (:meth:`RelayTopology.split_subscriber`)
  for callers that need one member to diverge mid-run (own kill, own lossy
  link).  Delivery stays exact; cumulative byte tables for this case are
  approximate, which the static/churn paths never are (``docs/scaling.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.moqt.objectmodel import MoqtObject
    from repro.relaynet.topology import RelayNode, RelayTopology, TreeSubscriber


@dataclass(eq=False)
class AggregateLeaf:
    """One leaf relay's counted subscriber population.

    ``representative`` is the single live subscriber standing in for every
    index in ``member_indices`` (itself included — it sits at the lowest
    member index so ``RelayTopology.subscribers`` stays ordered).  Its
    ``multiplicity`` always equals ``len(member_indices)``.
    """

    leaf: "RelayNode"
    member_indices: list[int]
    host_prefix: str = "sub"
    representative: "TreeSubscriber | None" = None
    #: Indices promoted out of the aggregate over its lifetime.
    split_indices: set[int] = field(default_factory=set)
    #: The two-arg ``on_object`` callback registered through
    #: :meth:`RelayTopology.subscribe_all`, by track position — replayed
    #: against each materialised member so its clone delivers to the same
    #: application callback the dense subscriber would have.
    track_callbacks: dict[int, Callable[["TreeSubscriber", "MoqtObject"], None] | None] = field(
        default_factory=dict
    )
    #: True once the group has been fully dissolved (leaf death); a
    #: dissolved group is inert — its representative is an ordinary dense
    #: subscriber from then on.
    dissolved: bool = False
    #: Exact byte difference between the counted members' dense handshakes
    #: and ``multiplicity ×`` the representative's: TLS ticket ids are
    #: decimal strings, so members at different per-leaf arrival ranks get
    #: different widths.  Computed at attach time (where the dense ticket
    #: sequence is known), mirrored onto the representative link's
    #: ``extra_bytes`` and added to QUIC role totals at collection time.
    #: Zeroed at dissolution — the old connection leaves the scrape in the
    #: dense run, too.
    handshake_byte_deficit: int = 0

    @property
    def multiplicity(self) -> int:
        """Subscribers this group currently stands in for."""
        return len(self.member_indices)

    # ------------------------------------------------------------ materialise
    def split(
        self, topology: "RelayTopology", subscriber_index: int, connect: bool = True
    ) -> "TreeSubscriber":
        """Promote one member out of the aggregate into a dense subscriber.

        The member gets its own host, a clone of the representative's
        per-track dedupe/recovery state (the representative's delivery
        history *is* the member's — that is the aggregate invariant) and,
        with ``connect=True``, its own QUIC session whose connection ID
        comes from ``random.Random(subscriber_index)`` so materialisation
        order never changes the wire or the global seeded stream.  With
        ``connect=False`` (the dissolution path) the member temporarily
        shares the representative's dying session; the failover machinery
        closes it exactly once and re-homes each member individually.

        ``topology.on_subscriber_split`` fires before the member's first
        SUBSCRIBE, so experiment callbacks can copy per-subscriber
        accumulator state from the representative to the member.
        """
        rep = self.representative
        if rep is None:
            raise RuntimeError("aggregate group has no representative yet")
        if subscriber_index == rep.index:
            raise ValueError("the representative itself cannot be split out")
        if subscriber_index not in self.member_indices:
            raise ValueError(
                f"subscriber {subscriber_index} is not aggregated in this group"
            )
        self.member_indices.remove(subscriber_index)
        self.split_indices.add(subscriber_index)
        rep.multiplicity = len(self.member_indices)
        if connect:
            # The member's unit of load leaves the group (its own session
            # counts it again), and rep-link traffic is on behalf of one
            # fewer member.
            rep.leaf.load -= 1
            ends = (rep.leaf.host.address, rep.host.address)
            for source, destination in (ends, ends[::-1]):
                topology.network.link(source, destination).multiplicity = rep.multiplicity
        member = topology._new_subscriber(
            subscriber_index,
            self.host_prefix,
            rep.leaf,
            rep.config,
            rng=random.Random(subscriber_index),
            share=None if connect else rep.session,
        )
        member.duplicate_objects_dropped = rep.duplicate_objects_dropped
        for position, track in enumerate(rep.tracks):
            on_object = self.track_callbacks.get(position)
            callback = None
            if on_object is not None:
                callback = lambda obj, sub=member, cb=on_object: cb(sub, obj)
            clone = member.add_track(track.full_track_name, callback)
            clone.subscription = track.subscription
            clone.seen = set(track.seen)
            clone.largest = track.largest
            clone.delivered = track.delivered
        hook = topology.on_subscriber_split
        if hook is not None:
            hook(member, rep)
        if connect:
            topology._resubscribe(member)
        return member

    def dissolve(self, topology: "RelayTopology") -> "list[TreeSubscriber]":
        """Materialise every remaining member: the group's leaf died.

        Members come back ascending by index, each sharing the
        representative's (dying) session so the standard per-subscriber
        failover path closes it exactly once — one CONNECTION_CLOSE on the
        representative's link, multiplied by the link's (frozen) historical
        multiplicity, equals the N close frames of the dense run.  The
        representative's link multiplicity is deliberately *left* at its
        full value: the link never carries another byte (its leaf is dead),
        so its cumulative counters keep standing in for the N dense links'
        identical histories.
        """
        rep = self.representative
        created: list[TreeSubscriber] = []
        if rep is None:
            self.dissolved = True
            return created
        for index in [i for i in self.member_indices if i != rep.index]:
            created.append(self.split(topology, index, connect=False))
        self.member_indices = [rep.index]
        rep.multiplicity = 1
        self.dissolved = True
        # The representative's dying connection drops out of the QUIC scrape
        # in both modes (every survivor reconnects on a fresh session), so
        # the handshake-width correction retires with it.  The *link*-level
        # correction stays on the dead access link, whose frozen counters
        # keep standing in for the members' dense histories.
        self.handshake_byte_deficit = 0
        return created


def expand_member_sequences(
    topology: "RelayTopology", received: dict[int, list]
) -> dict[int, list]:
    """Expand a per-subscriber-index accumulator map to the full population.

    Experiments keyed on ``subscriber.index`` (delivery sequences in
    E12/E13/E14) record one entry per *live* subscriber.  Under aggregation
    every still-aggregated member's sequence is, by the aggregate invariant,
    exactly its representative's — copy it out so the result dict is keyed
    by every individual index, comparable ``==`` against the dense run's.
    """
    expanded = dict(received)
    for group in topology.aggregates:
        rep = group.representative
        if rep is None:
            continue
        base = received.get(rep.index)
        if base is None:
            continue
        for index in group.member_indices:
            if index != rep.index:
                expanded[index] = list(base)
    return expanded
