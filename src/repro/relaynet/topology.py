"""Live relay topology: membership, failover and load-aware placement.

PR 1 built relay trees once and never touched them again; real CDN edges
join, leave and crash mid-stream.  :class:`RelayTopology` is the membership
registry a running tree lives in:

* :meth:`RelayTopology.add_relay` grows a tier while traffic flows — the new
  relay attaches below the least-loaded parent and starts aggregating as
  soon as its first subscriber arrives;
* :meth:`RelayTopology.remove_relay` drains a relay gracefully: its subtree
  is re-homed first (children switch their uplink, subscribers re-attach),
  then the relay shuts down;
* :meth:`RelayTopology.kill_relay` simulates a crash with a control-plane
  oracle: the relay vanishes silently and the topology re-homes every
  orphan in the same instant — under the least-loaded *sibling* of the
  dead relay, its *grandparent* (or the origin) when no sibling survives;
* :meth:`RelayTopology.crash_relay` is the oracle-free fault injector: the
  relay vanishes and *nobody is told*.  Failover waits until some orphan's
  QUIC transport notices — consecutive probe timeouts on a keepalive'd
  uplink, or an idle expiry on a receive-only subscriber session — and the
  wired liveness handlers call :meth:`RelayTopology.report_failure`, the
  in-band entry point to the same evacuation machinery (E13).

Re-homed relays keep their established downstream subscriptions: the MoQT
layer (:meth:`repro.moqt.relay.MoqtRelay.switch_upstream`) re-subscribes
each live track through the new parent, fills the gap between the last
delivered and the first live object with a FETCH against the new parent's
cache, and deduplicates by (group, object) ID so subscribers observe a
gapless, duplicate-free sequence across the failure.  Orphaned subscribers
get the same treatment one layer down: a fresh session to the least-loaded
surviving leaf, a re-subscribe, and a gap FETCH.

Subscriber placement is load-aware: :meth:`RelayTopology.attach_subscribers`
assigns each new subscriber to the least-loaded alive leaf (ties broken by
relay age), which degenerates to PR 1's round-robin while all leaves live —
the static-tree wire trace is unchanged — but steers load away from hot or
dying edges the moment the tree stops being static.

Every failover produces a :class:`FailoverEvent` whose per-orphan
:class:`FailoverRecord` timestamps measure re-attach latency; the E12 churn
experiment (:mod:`repro.experiments.relay_churn`) reports them per tier and
checks them against the closed-form model in :mod:`repro.analysis.churn`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable

from repro.moqt.errors import AdmissionRejectedError, SubscribeErrorCode
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.receiver import TrackReceiver
from repro.moqt.relay import MOQT_ALPN, MoqtRelay
from repro.moqt.session import MoqtSession, Subscription
from repro.moqt.track import FullTrackName
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import MOQT_PORT, Address
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.relaynet.admission import AdmissionPolicy
from repro.relaynet.spec import RelayTreeSpec

if TYPE_CHECKING:
    from repro.relaynet.origincluster import OriginCluster

#: The client half of the admission contract: SUBSCRIBEs refused in one
#: journey before it turns terminal, and moves to a sibling leaf before the
#: subscriber retries where it landed.
MAX_ADMISSION_ATTEMPTS = 8
MAX_SPILLOVERS = 1


@dataclass(eq=False)
class RelayNode:
    """One relay in a live topology."""

    tier_index: int
    tier_name: str
    index: int
    host: Host
    relay: MoqtRelay
    parent: "RelayNode | None"
    #: False once the relay has left (gracefully or by crash); dead nodes
    #: stay listed so indices and history remain stable, but they are never
    #: chosen as parents or leaves again.
    alive: bool = True
    #: Direct downstream attachments (child relays + subscribers) — the
    #: quantity load-aware placement minimises.
    load: int = 0
    #: When :meth:`RelayTopology.crash_relay` silently crashed this node
    #: (None for announced leaves/kills) — the reference point in-band
    #: detection latency is measured from.
    crashed_at: float | None = None
    #: The failover event that evacuated this node's subtree, once one ran
    #: (makes :meth:`RelayTopology.report_failure` idempotent when several
    #: orphans detect the same death).
    failure_event: "FailoverEvent | None" = None

    @property
    def address(self) -> Address:
        """Address downstream sessions (children or subscribers) connect to."""
        return self.relay.address

    @property
    def upstream_host(self) -> str:
        """Host address of the node's parent (origin for tier 0)."""
        return self.relay.upstream_address.host


# ------------------------------------------------------------------ placement
def load_order(node: RelayNode) -> tuple[int, int]:
    """The placement rule: fewest direct attachments first, ties to the oldest."""
    return (node.load, node.index)


def least_loaded(nodes: Iterable[RelayNode]) -> RelayNode | None:
    """The node :func:`load_order` puts first (None when there is none)."""
    return min(nodes, key=load_order, default=None)


def plan_leaf_assignments(leaves: list[RelayNode], count: int) -> list[RelayNode]:
    """The leaf each of ``count`` new subscribers lands on, in join order, as
    :func:`least_loaded` would pick it after the ones before: a heap keyed by
    :func:`load_order` (O(count log leaves), no ``RelayNode`` touched).  With
    every leaf alive this is round-robin, so static runs keep their
    wire-identical placement."""
    heap = [(*load_order(leaf), position) for position, leaf in enumerate(leaves)]
    heapq.heapify(heap)
    placement: list[RelayNode] = []
    for _ in range(count):
        load, leaf_index, position = heap[0]
        placement.append(leaves[position])
        heapq.heapreplace(heap, (load + 1, leaf_index, position))
    return placement


class SubscriberSink:
    """A followed track's sink: the application's ``on_object(subscriber, obj)``.

    One slotted object per followed track, where
    ``partial(on_object, subscriber)`` would be three blocks: the partial, its
    argument tuple and an empty keyword dict.
    """

    __slots__ = ("on_object", "subscriber")

    def __init__(
        self,
        on_object: Callable[["TreeSubscriber", MoqtObject], None],
        subscriber: "TreeSubscriber",
    ) -> None:
        self.on_object = on_object
        self.subscriber = subscriber

    def __call__(self, obj: MoqtObject) -> None:
        self.on_object(self.subscriber, obj)


@dataclass(eq=False, slots=True)
class TreeSubscriber:
    """A leaf MoQT client attached below an edge relay.

    The client-side half of churn tolerance is one
    :class:`~repro.moqt.receiver.TrackReceiver` per followed track: it
    dedupes by (group, object) ID and, after a re-attach, holds the new
    leaf's live stream back until the gap FETCH has been delivered, so the
    application callback observes every object exactly once, in order, no
    matter how many relays died in between.

    The subscriber is its session's liveness hook (:meth:`__call__`), so a
    subscriber keeps no callable of its own for it.
    """

    index: int
    host: Host
    leaf: RelayNode
    #: None only until the topology first places the subscriber.
    session: MoqtSession | None
    #: The topology that placed it: where a dead leaf is reported.
    topology: "RelayTopology" = field(repr=False)
    tracks: list[TrackReceiver] = field(default_factory=list)
    reattach_count: int = 0
    #: What the track receivers count: the subscriber is their ``counters``.
    recovery_fetches: int = 0
    duplicate_objects_dropped: int = 0
    recovered_objects: int = 0
    #: Its latest journey through the admission contract: the storm's
    #: record, or one opened when a SUBSCRIBE is refused after an admission.
    admission: AdmissionRecord | None = None

    # ---------------------------------------------------------- subscriptions
    def add_track(
        self,
        full_track_name: FullTrackName,
        on_object: Callable[["TreeSubscriber", MoqtObject], None] | None,
    ) -> TrackReceiver:
        """A receiver for one more followed track, not yet subscribed: it
        hands each object to ``on_object(subscriber, obj)``."""
        sink = SubscriberSink(on_object, self) if on_object is not None else None
        track = TrackReceiver(full_track_name, sink, self)
        self.tracks.append(track)
        return track

    # --------------------------------------------------------------- liveness
    def __call__(self, session: MoqtSession, old: str, new: str) -> None:
        """``session.on_liveness``: a current session turning suspect or dead
        reports the leaf it rides as failed (an old session's late word is
        ignored)."""
        if session is not self.session or new == "healthy":
            return
        try:
            self.topology.report_failure(self.leaf, via=session.connection.liveness_cause)
        except NoSurvivingParentError:
            pass

    # ------------------------------------------------------------- statistics
    @property
    def objects_delivered(self) -> int:
        """Distinct objects handed to application callbacks."""
        return sum(track.delivered for track in self.tracks)


# ------------------------------------------------------------------- failover
@dataclass
class FailoverRecord:
    """One orphan's journey to its new parent."""

    kind: str  # "relay" | "subscriber"
    name: str
    tier: str
    new_parent: str
    detached_at: float
    reattached_at: float | None = None

    def mark_reattached(self, now: float) -> None:
        """Record the first successful re-subscription (idempotent)."""
        if self.reattached_at is None:
            self.reattached_at = now

    @property
    def reattach_latency(self) -> float | None:
        """Seconds from failure to an accepted re-subscription."""
        if self.reattached_at is None:
            return None
        return self.reattached_at - self.detached_at


@dataclass
class FailoverEvent:
    """Everything one join/leave/kill/detected-failure did to the tree."""

    cause: str  # "kill" | "leave" | "detected"
    node: str
    tier: str
    at: float
    records: list[FailoverRecord] = field(default_factory=list)
    #: Operator-supplied diagnostic for announced kills/leaves (a silent
    #: crash sends no reason anywhere — that is its defining property).
    reason: str = ""
    #: How the failure surfaced when ``cause == "detected"``: the transport
    #: liveness cause of the first orphan to notice (``"pto-suspect"``,
    #: ``"idle-timeout"`` or ``"pto-give-up"``).
    detected_via: str = ""
    #: Seconds from the silent crash (:attr:`RelayNode.crashed_at`) to the
    #: first in-band report; None for control-plane-announced events.
    detection_latency: float | None = None
    #: Structured terminal failure, when the evacuation could not re-home
    #: every orphan: ``"no-surviving-parent"`` (relay orphans with a dead
    #: origin as the only fallback, or subscribers with no alive leaf) or
    #: ``"no-surviving-origin"`` (an origin death with no standby left).
    #: Stranded orphans carry an empty ``new_parent`` in their records.  A
    #: re-homed subscriber whose re-subscription is refused for good sets
    #: ``"admission-exhausted"`` (its retry budget ran out) or
    #: ``"subscribe-refused"`` (a refusal no retry can change); its record
    #: stays un-reattached.
    error: str = ""
    #: The origin-cluster epoch this event promoted *to*, for origin-tier
    #: events that elected a successor; None everywhere else.
    epoch: int | None = None

    @property
    def complete(self) -> bool:
        """Whether every orphan has re-attached."""
        return all(record.reattached_at is not None for record in self.records)

    def orphans(self, kind: str) -> list[FailoverRecord]:
        """The orphan records of one kind (``"relay"``, ``"subscriber"``)."""
        return [record for record in self.records if record.kind == kind]

    def latencies_by_tier(self) -> dict[str, list[float]]:
        """Re-attach latencies grouped by the orphan's tier."""
        grouped: dict[str, list[float]] = {}
        for record in self.records:
            latency = record.reattach_latency
            if latency is None:
                continue
            grouped.setdefault(record.tier, []).append(latency)
        return grouped


class NoSurvivingParentError(RuntimeError):
    """A failover found orphans with nowhere alive to re-attach.

    Raised by :meth:`RelayTopology.report_failure` /
    :meth:`RelayTopology.report_origin_failure` *after* the failover event
    has been fully recorded: ``event.error`` names the condition and each
    stranded orphan has a :class:`FailoverRecord` with an empty
    ``new_parent``, so the terminal state is observable whether or not the
    caller can propagate the exception.  The wired in-band liveness handlers
    swallow it — a transport callback must never unwind the event loop —
    which is why the event, not the exception, is the source of truth.
    """

    def __init__(self, message: str, event: FailoverEvent) -> None:
        super().__init__(message)
        self.event = event


# ------------------------------------------------------------------- admission
@dataclass
class AdmissionRecord:
    """One flash-crowd subscriber's journey through admission control.

    The admission-side sibling of :class:`FailoverRecord`: joined/admitted
    timestamps bracket the join latency, and the retry schedule (absolute
    simulator times each retry was scheduled for) is what the determinism
    property tests compare across seeded replays.
    """

    name: str
    leaf: str
    joined_at: float
    attempts: int = 0
    rejections: int = 0
    queue_rejections: int = 0
    spillovers: int = 0
    #: Absolute simulator times retries were scheduled to fire at, in order.
    retry_schedule: list[float] = field(default_factory=list)
    admitted_at: float | None = None
    #: True once the retry budget ran out: this subscriber will never be
    #: admitted and :meth:`FlashCrowdStorm.raise_for_failures` reports it.
    terminal: bool = False

    def mark_admitted(self, now: float) -> None:
        """Record the first accepted SUBSCRIBE (idempotent)."""
        if self.admitted_at is None:
            self.admitted_at = now

    @property
    def settled(self) -> bool:
        """Whether this journey is over: admitted, or out of budget."""
        return self.admitted_at is not None or self.terminal

    @property
    def join_latency(self) -> float | None:
        """Seconds from the join to an accepted subscription."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.joined_at


@dataclass
class FlashCrowdStorm:
    """Everything one :meth:`RelayTopology.flash_crowd` injection produced."""

    count: int
    window: float
    started_at: float
    full_track_name: FullTrackName
    records: list[AdmissionRecord] = field(default_factory=list)
    subscribers: list[TreeSubscriber] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        """Stormers whose subscription was eventually accepted."""
        return sum(1 for record in self.records if record.admitted_at is not None)

    @property
    def rejections(self) -> int:
        """Total SUBSCRIBE_ERROR(TOO_MANY_SUBSCRIBERS) answers observed."""
        return sum(record.rejections + record.queue_rejections for record in self.records)

    @property
    def retries(self) -> int:
        """Total retry SUBSCRIBEs issued (attempts beyond each first try)."""
        return sum(max(0, record.attempts - 1) for record in self.records)

    @property
    def spillovers(self) -> int:
        """Total sibling-leaf re-routes performed before admission."""
        return sum(record.spillovers for record in self.records)

    @property
    def complete(self) -> bool:
        """Whether every stormer has been admitted."""
        return self.admitted == len(self.records)

    @property
    def completion_time(self) -> float | None:
        """Seconds from storm start to the last admission (None while open)."""
        if not self.records or not self.complete:
            return None
        return max(record.admitted_at for record in self.records) - self.started_at

    def join_latencies(self) -> list[float]:
        """Per-stormer join latencies, in join order (admitted only)."""
        return [
            record.join_latency
            for record in self.records
            if record.join_latency is not None
        ]

    def raise_for_failures(self) -> None:
        """Surface the first terminal rejection as an exception.

        Retry exhaustion is detected inside transport callbacks, which must
        never unwind the event loop (the :class:`NoSurvivingParentError`
        precedent), so the terminal state lands on the record; callers
        invoke this after the simulation settles to turn it into a raised
        :class:`~repro.moqt.errors.AdmissionRejectedError`.
        """
        for record in self.records:
            if record.terminal:
                raise AdmissionRejectedError(self.full_track_name, record.attempts)


# ------------------------------------------------------------------- topology
class RelayTopology:
    """The live membership view of a relay hierarchy.

    Owns the tiers, the parent/child structure, subscriber placement and
    failover.  :func:`~repro.relaynet.scenario.build_scenario` and
    :class:`~repro.relaynet.builder.RelayTreeBuilder` construct it.

    Parameters
    ----------
    network:
        The network relay hosts and links live on.
    origin:
        Address of the origin MoQT publisher; its host must already exist.
    spec:
        The declarative shape to instantiate initially.
    port:
        Port every relay accepts downstream sessions on.
    uplink_connection:
        QUIC configuration for every relay's uplink.  In-band failure
        detection (E13) enables keepalives here so a silently crashed parent
        is noticed through probe timeouts; the default (None) keeps the
        historical wire-identical configuration.
    subscriber_connection:
        QUIC configuration for subscriber sessions; E13 shortens the idle
        timeout here so orphaned subscribers notice a dead leaf in-band.
    downstream_connection:
        QUIC configuration applied to every relay's *accepted* downstream
        connections — the sender side of each fan-out hop.  E15 installs a
        NewReno congestion controller here so constrained, lossy access
        links are driven with a real window; the default (None) keeps the
        historical wire-identical configuration.
    origin_cluster:
        The replicated origin this tree hangs off, when the origin is a
        :class:`~repro.relaynet.origincluster.OriginCluster` rather than a
        singleton.  Tier-0 relays get pre-established links to every
        standby (links only — no traffic, so a never-failing run stays
        wire-identical), and a tier-0 uplink death is routed through
        :meth:`report_origin_failure` instead of being unreportable.  Its
        size must be the ``spec.origins`` the spec declares (1 without a
        cluster), or construction raises :class:`ValueError`.
    """

    def __init__(
        self,
        network: Network,
        origin: Address,
        spec: RelayTreeSpec,
        port: int = MOQT_PORT,
        uplink_connection: ConnectionConfig | None = None,
        subscriber_connection: ConnectionConfig | None = None,
        downstream_connection: ConnectionConfig | None = None,
        origin_cluster: "OriginCluster | None" = None,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        built = len(origin_cluster.origins) if origin_cluster is not None else 1
        if spec.origins != built:
            raise ValueError(f"spec declares {spec.origins} origin(s), {built} built")
        self.network = network
        self.origin = origin
        self.origin_cluster = origin_cluster
        self.spec = spec
        self.port = port
        self.uplink_connection = uplink_connection
        #: One instance for every subscriber session the topology opens.
        self.subscriber_connection = (
            subscriber_connection
            if subscriber_connection is not None
            else ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
        )
        self.downstream_connection = downstream_connection
        #: Admission policy installed on every relay (each relay gets its own
        #: controller state).  None — the default — is the historical
        #: admit-everything behaviour with zero overhead and unchanged wire
        #: bytes; flash-crowd deployments pass a limited policy here.
        self.admission = admission
        self.tiers: list[list[RelayNode]] = []
        self.subscribers: list[TreeSubscriber] = []
        #: Every join/leave/kill/detected failover applied to the tree, in order.
        self.events: list[FailoverEvent] = []
        self._tier_created: list[int] = []
        self._subscribers_created = 0
        self._nodes_by_relay: dict[MoqtRelay, RelayNode] = {}
        # Fail fast if the origin host is missing rather than at first subscribe.
        network.host(origin.host)
        self._build(spec)

    # ------------------------------------------------------------ construction
    def _build(self, spec: RelayTreeSpec) -> None:
        """Instantiate the initial tree (identical wiring order to PR 1's
        builder, so seeded runs stay bit-identical on the wire)."""
        for tier_index, tier_spec in enumerate(spec.tiers):
            hosts = self.network.add_hosts(
                f"{spec.host_prefix}-{tier_spec.name}", tier_spec.relays
            )
            if tier_index == 0:
                # The whole top tier hangs off the origin: a star.
                self.network.connect_star(self.origin.host, hosts, tier_spec.uplink)
            nodes: list[RelayNode] = []
            self.tiers.append(nodes)
            self._tier_created.append(0)
            for host in hosts:
                self._add_node(tier_index, host, parent=None, connect=tier_index > 0)

    def _add_node(
        self,
        tier_index: int,
        host: Host,
        parent: RelayNode | None,
        connect: bool,
    ) -> RelayNode:
        tier_spec = self.spec.tiers[tier_index]
        if tier_index == 0:
            parent = None
            upstream = self.origin
            self._prewire_standby_links(host, tier_spec.uplink)
        else:
            if parent is None:
                parent = self._pick_parent(tier_index)
            upstream = parent.address
        if connect:
            anchor = parent.host if parent is not None else self.network.host(self.origin.host)
            self.network.connect(anchor, host, tier_spec.uplink)
        relay = MoqtRelay(
            host,
            upstream=upstream,
            port=self.port,
            upstream_connection=self.uplink_connection,
            downstream_connection=self.downstream_connection,
            admission=self.admission,
        )
        relay.on_uplink_dying = self._on_relay_uplink_dying
        index = self._tier_created[tier_index]
        self._tier_created[tier_index] = index + 1
        node = RelayNode(
            tier_index=tier_index,
            tier_name=tier_spec.name,
            index=index,
            host=host,
            relay=relay,
            parent=parent,
        )
        if parent is not None:
            parent.load += 1
        self.tiers[tier_index].append(node)
        self._nodes_by_relay[relay] = node
        return node

    def _prewire_standby_links(self, host: Host, uplink) -> None:
        """Pre-establish links from a tier-0 relay host to every standby.

        Links only — no connections, no traffic, no scheduled events — so a
        cluster that never fails adds zero wire bytes; but when a promotion
        re-points tier-0 uplinks at a standby, the path already exists and
        the re-attach pays pure handshake RTTs, exactly like a relay-tier
        failover.
        """
        if self.origin_cluster is None:
            return
        for origin in self.origin_cluster.origins:
            if origin.index == 0:
                continue  # the initial active is linked by connect_star
            if not self.network.has_link(origin.host.address, host.address):
                self.network.connect(origin.host, host, uplink)

    # -------------------------------------------------------------- structure
    def nodes(self) -> list[RelayNode]:
        """Every relay node ever created, top tier first (including dead)."""
        return [node for tier in self.tiers for node in tier]

    def alive_nodes(self) -> list[RelayNode]:
        """Every relay currently part of the tree."""
        return [node for node in self.nodes() if node.alive]

    def leaves(self) -> list[RelayNode]:
        """The relays subscribers attach to (the last tier)."""
        return list(self.tiers[-1])

    def alive_leaves(self) -> list[RelayNode]:
        """Last-tier relays still accepting subscribers."""
        return [node for node in self.tiers[-1] if node.alive]

    def tier(self, name: str) -> list[RelayNode]:
        """All nodes of the tier with the given name."""
        for tier_spec, nodes in zip(self.spec.tiers, self.tiers):
            if tier_spec.name == name:
                return list(nodes)
        raise KeyError(f"no tier named {name!r}")

    def children(self, node: RelayNode) -> list[RelayNode]:
        """Alive child relays currently attached below ``node``."""
        if node.tier_index + 1 >= len(self.tiers):
            return []
        return [
            child
            for child in self.tiers[node.tier_index + 1]
            if child.alive and child.parent is node
        ]

    @property
    def relay_count(self) -> int:
        """Total number of relays ever built (including departed ones)."""
        return sum(len(tier) for tier in self.tiers)

    @property
    def alive_relay_count(self) -> int:
        """Relays currently part of the tree."""
        return len(self.alive_nodes())

    def _tier_index(self, tier: str | int) -> int:
        if isinstance(tier, int):
            if not 0 <= tier < len(self.tiers):
                raise IndexError(f"no tier {tier}")
            return tier
        for index, tier_spec in enumerate(self.spec.tiers):
            if tier_spec.name == tier:
                return index
        raise KeyError(f"no tier named {tier!r}")

    # --------------------------------------------------------------- placement
    def _pick_parent(self, tier_index: int) -> RelayNode:
        """Least-loaded alive relay in the tier above."""
        parent = least_loaded(node for node in self.tiers[tier_index - 1] if node.alive)
        if parent is None:
            raise RuntimeError(
                f"tier {self.spec.tiers[tier_index - 1].name!r} has no alive relays"
            )
        return parent

    # ------------------------------------------------------------- subscribers
    def attach_subscribers(self, count: int) -> list[TreeSubscriber]:
        """Create ``count`` subscriber hosts (``sub-{index}``) below the leaf tier.

        Each subscriber lands on the least-loaded alive leaf and opens an
        MoQT session to it immediately.  Call repeatedly to grow the
        population; host names continue from the total ever created.
        """
        leaves = self.alive_leaves()
        if not leaves:
            raise RuntimeError("no alive leaf relays to attach subscribers to")
        start = self._subscribers_created
        self._subscribers_created += count
        placement = plan_leaf_assignments(leaves, count)
        created: list[TreeSubscriber] = []
        # One batching region around the whole population: every subscriber's
        # first handshake flight collapses into one link-batch event instead
        # of one heap event per subscriber (the replies batch recursively).
        self.network.begin_batch()
        try:
            for index, leaf in enumerate(placement, start):
                created.append(self._new_subscriber(index, "sub", leaf))
        finally:
            self.network.end_batch()
        self.subscribers.extend(created)
        return created

    # ------------------------------------------------- the subscriber lifecycle
    def _new_subscriber(
        self,
        index: int,
        host_prefix: str,
        leaf: RelayNode,
    ) -> TreeSubscriber:
        """The one way a subscriber comes to exist: host ``{host_prefix}-{index}``
        placed under ``leaf`` by :meth:`_move`."""
        host = self.network.add_host(f"{host_prefix}-{index}")
        subscriber = TreeSubscriber(
            index=index, host=host, leaf=leaf, session=None, topology=self
        )
        self._move(subscriber, leaf)
        return subscriber

    def _move(self, subscriber: TreeSubscriber, leaf: RelayNode, reason: str = "") -> None:
        """Give ``subscriber`` a fresh session under ``leaf``: its first
        placement, a spill or a failover re-attach.

        The session it had is closed if still open (taking its admission
        reservation with it), the endpoint it rode releases its port (and
        with it the last reference to that endpoint, its connection and its
        session) and its leaf gives up the load; the access link is created
        on first use; the new session's liveness hook is the subscriber
        itself, which reports to :meth:`report_failure`.  Re-subscribing is
        the caller's.
        """
        network = self.network
        host = subscriber.host
        previous = subscriber.session
        if previous is not None:
            if not previous.closed:
                previous.close(reason)
            host.unbind(previous.connection.local_address.port)
            subscriber.leaf.load -= 1
        # A subscriber placed for the first time has no link at all yet.
        if previous is None or not network.has_link(leaf.host.address, host.address):
            network.connect(leaf.host, host, self.spec.subscriber_link)
        connection = QuicEndpoint(host).connect(leaf.address, self.subscriber_connection)
        session = MoqtSession(connection, is_client=True)
        subscriber.session = session
        session.on_liveness = subscriber
        subscriber.leaf = leaf
        leaf.load += 1

    def _subscribe(
        self,
        subscriber: TreeSubscriber,
        track: TrackReceiver,
        event: FailoverEvent | None = None,
        record: FailoverRecord | None = None,
    ) -> None:
        """The topology's one hooked SUBSCRIBE: resumes where ``track`` left
        off (if anywhere), counts toward an admission in progress, and is
        answered by :meth:`_on_answer` — completing ``record``, if given."""
        admission = subscriber.admission
        if admission is not None and not admission.settled:
            admission.attempts += 1
        track.subscribe(
            subscriber.session,
            recover=True,
            on_response=partial(self._on_answer, subscriber, track, event, record),
        )

    def _resubscribe(
        self,
        subscriber: TreeSubscriber,
        event: FailoverEvent | None,
        record: FailoverRecord | None,
    ) -> int:
        """After a move: re-SUBSCRIBE every track still followed — not one the
        application unsubscribed, nor one refused after admission gave up on
        the subscriber; returns how many."""
        admission = subscriber.admission
        given_up = admission is not None and admission.terminal
        restored = 0
        for track in subscriber.tracks:
            state = track.subscription.state if track.subscription is not None else ""
            if state == "done" or (given_up and state == "error"):
                continue
            self._subscribe(subscriber, track, event, record)
            restored += 1
        return restored

    def _on_answer(
        self,
        subscriber: TreeSubscriber,
        track: TrackReceiver,
        event: FailoverEvent | None,
        record: FailoverRecord | None,
        subscription: Subscription,
    ) -> None:
        """The admission contract, for a flash-crowd join and for every
        re-subscribe after a move alike.

        Accepted: the admission in progress is admitted, the failover record
        re-attached.  ``TOO_MANY_SUBSCRIBERS``: spill to a sibling leaf with
        headroom while ``MAX_SPILLOVERS`` allows, else retry after the
        advertised ``retry_after``.  ``MAX_ADMISSION_ATTEMPTS`` refusals — or
        one no retry can change — are terminal, on the admission record and
        on the failover event.
        """
        simulator = self.network.simulator
        admission = subscriber.admission
        if subscription.is_active:
            if admission is not None and not admission.settled:
                admission.leaf = subscriber.leaf.host.address
                admission.mark_admitted(simulator.now)
            if record is not None:
                record.new_parent = subscriber.leaf.host.address  # a spill moves it
                record.mark_reattached(simulator.now)
            return
        if admission is None or admission.settled:
            # Refused after its last admission (or first policed now): a new
            # journey, whose first attempt is the SUBSCRIBE just refused.
            admission = subscriber.admission = AdmissionRecord(
                name=subscriber.host.address,
                leaf=subscriber.leaf.host.address,
                joined_at=subscription.created_at,
                attempts=1,
            )
        busy = subscription.error_code == int(SubscribeErrorCode.TOO_MANY_SUBSCRIBERS)
        if busy and "queue" in subscription.error_reason:
            admission.queue_rejections += 1
        elif busy:
            admission.rejections += 1
        if not busy or admission.attempts >= MAX_ADMISSION_ATTEMPTS:
            admission.terminal = True
            if event is not None:
                terminal = "admission-exhausted" if busy else "subscribe-refused"
                event.error = event.error or terminal
            return
        if admission.spillovers < MAX_SPILLOVERS:
            target = self._pick_spillover_leaf(subscriber.leaf)
            if target is not None:
                # Re-route to a sibling with headroom before retrying the
                # original: the new session's handshake provides the natural
                # pacing, no timer needed.
                admission.spillovers += 1
                self._move(subscriber, target, "admission spillover")
                self._resubscribe(subscriber, event, record)
                return
        delay = subscription.retry_after_ms / 1000.0
        admission.retry_schedule.append(simulator.now + delay)
        simulator.call_later(delay, self._retry, subscriber, track, subscription, event, record)

    def _retry(
        self,
        subscriber: TreeSubscriber,
        track: TrackReceiver,
        refused: Subscription,
        event: FailoverEvent | None,
        record: FailoverRecord | None,
    ) -> None:
        """A scheduled retry of ``refused`` — void once a move re-subscribed
        the track, or once the session closed with nowhere to move."""
        if track.subscription is refused and not subscriber.session.closed:
            self._subscribe(subscriber, track, event, record)

    def _pick_spillover_leaf(self, current: RelayNode) -> RelayNode | None:
        """Least-loaded alive sibling leaf that would admit a fresh arrival.

        Saturation is a pure peek at each candidate's admission controller
        (no token consumed, no reservation made); leaves without admission
        control are never saturated.  Returns None when every sibling is
        saturated — the caller retries on the current leaf.
        """
        now = self.network.simulator.now

        def has_headroom(node: RelayNode) -> bool:
            controller = node.relay.admission
            return controller is None or not controller.saturated(
                now, node.relay.pending_subscribe_count()
            )

        return least_loaded(
            [node for node in self.alive_leaves() if node is not current and has_headroom(node)]
        )

    def subscribe_all(
        self,
        full_track_name: FullTrackName,
        on_object: Callable[[TreeSubscriber, MoqtObject], None] | None = None,
    ) -> list[Subscription]:
        """Subscribe every attached subscriber to one track: a plain
        SUBSCRIBE, with no answer hook."""
        subscriptions: list[Subscription] = []
        self.network.begin_batch()
        try:
            for subscriber in self.subscribers:
                track = subscriber.add_track(full_track_name, on_object)
                subscriptions.append(track.subscribe(subscriber.session))
        finally:
            self.network.end_batch()
        return subscriptions

    # -------------------------------------------------------------- flash crowd
    def flash_crowd(
        self,
        count: int,
        window: float,
        full_track_name: FullTrackName,
        on_object: Callable[[TreeSubscriber, MoqtObject], None] | None = None,
        leaf: "RelayNode | None" = None,
    ) -> FlashCrowdStorm:
        """Inject a subscribe storm: ``count`` joins inside ``window`` seconds.

        Join ``i`` fires at ``now + (i * window) / count`` (evenly spaced,
        all strictly inside the window); each join creates a host
        (``storm-{index}``) below the
        least-loaded alive leaf — or below ``leaf`` when one is pinned,
        modelling the geographically concentrated crowd that slams a single
        edge relay — opens a session and subscribes to ``full_track_name``
        under the admission retry contract (:meth:`_on_answer`, which every
        re-subscribe after a move follows too):

        * a ``TOO_MANY_SUBSCRIBERS`` rejection waits the advertised
          ``retry_after`` (the relay's reservation makes exactly one retry
          sufficient);
        * before retrying the original leaf, the subscriber spills to the
          least-loaded *non-saturated* sibling leaf (at most
          ``MAX_SPILLOVERS`` times), turning local overload into tree-wide
          load spreading;
        * ``MAX_ADMISSION_ATTEMPTS`` rejections turn the record terminal —
          :meth:`FlashCrowdStorm.raise_for_failures` surfaces
          :class:`~repro.moqt.errors.AdmissionRejectedError` after the run.

        Returns immediately with the (empty) storm object; run the
        simulator to let the joins fire and drain.
        """
        if count < 1:
            raise ValueError(f"flash crowd needs at least one subscriber: {count}")
        if window < 0:
            raise ValueError(f"storm window must be non-negative: {window}")
        simulator = self.network.simulator
        storm = FlashCrowdStorm(
            count=count,
            window=window,
            started_at=simulator.now,
            full_track_name=full_track_name,
        )
        for index in range(count):
            simulator.call_later(
                (index * window) / count,
                self._storm_join,
                storm,
                on_object,
                leaf,
            )
        return storm

    def _storm_join(
        self,
        storm: FlashCrowdStorm,
        on_object: Callable[[TreeSubscriber, MoqtObject], None] | None,
        pinned_leaf: "RelayNode | None",
    ) -> None:
        """One storm participant arrives: a subscriber whose one SUBSCRIBE
        runs under the storm's admission contract.  A pinned leaf that has
        left the tree since the storm was injected no longer pins."""
        index = self._subscribers_created
        self._subscribers_created += 1
        leaf = pinned_leaf
        if leaf is None or not leaf.alive:
            leaf = least_loaded(self.alive_leaves())
            if leaf is None:
                raise RuntimeError("no alive leaf relays to attach subscribers to")
        subscriber = self._new_subscriber(index, "storm", leaf)
        subscriber.admission = record = AdmissionRecord(
            name=subscriber.host.address,
            leaf=leaf.host.address,
            joined_at=self.network.simulator.now,
        )
        self.subscribers.append(subscriber)
        storm.subscribers.append(subscriber)
        storm.records.append(record)
        self._subscribe(subscriber, subscriber.add_track(storm.full_track_name, on_object))

    # -------------------------------------------------------------- membership
    def add_relay(self, tier: str | int, parent: RelayNode | None = None) -> RelayNode:
        """Grow a tier by one relay while the tree runs.

        The new relay hangs below ``parent`` (least-loaded alive relay in
        the tier above when omitted) and aggregates lazily: it subscribes
        upstream when its first downstream subscriber arrives, so joining is
        free until the relay is actually used.
        """
        tier_index = self._tier_index(tier)
        tier_spec = self.spec.tiers[tier_index]
        if parent is not None:
            if tier_index == 0:
                raise ValueError("tier-0 relays attach to the origin, not a parent relay")
            if not parent.alive:
                raise ValueError(f"parent {parent.host.address} is not alive")
            if parent.tier_index != tier_index - 1:
                raise ValueError(
                    f"parent {parent.host.address} is in tier {parent.tier_name!r}, "
                    f"not the tier above {tier_spec.name!r}"
                )
        number = self._tier_created[tier_index]
        host = self.network.add_host(f"{self.spec.host_prefix}-{tier_spec.name}-{number}")
        return self._add_node(tier_index, host, parent=parent, connect=True)

    def remove_relay(self, node: RelayNode, reason: str = "relay leaving") -> FailoverEvent:
        """Gracefully drain a relay out of the tree.

        Its subtree migrates first — child relays switch their uplink,
        subscribers re-attach — while the relay still answers, then the
        relay closes its sessions and releases its ports.
        """
        self._check_alive(node)
        node.alive = False
        event = self._evacuate(node, cause="leave")
        event.reason = reason
        node.failure_event = event
        node.relay.shutdown(reason)
        return event

    def kill_relay(self, node: RelayNode) -> FailoverEvent:
        """Crash a relay mid-stream and fail its subtree over immediately.

        The crash itself is silent — the relay vanishes without a close
        frame, exactly like :meth:`crash_relay` — but this method doubles as
        the control-plane oracle the E12 churn experiment measures: the
        topology re-homes every orphan in the same instant, so the measured
        re-attach latency is the pure 3-RTT floor with zero detection cost.
        Use :meth:`crash_relay` (fault injection only) plus in-band liveness
        reporting (:meth:`report_failure`) when detection itself is under
        test (E13).  The returned event's reason is ``"relay crashed"``; the
        crash itself is silent, so no reason ever reaches the wire.
        """
        self._check_alive(node)
        node.alive = False
        node.crashed_at = self.network.simulator.now
        node.relay.crash()
        event = self._evacuate(node, cause="kill")
        event.reason = "relay crashed"
        node.failure_event = event
        return event

    def crash_relay(self, node: RelayNode) -> None:
        """Silently crash a relay *without telling the topology controller*.

        Pure fault injection: the node's process vanishes (no close frames,
        no callbacks, ports unbound) and no failover runs.  Recovery happens
        only when some orphan's transport notices — consecutive probe
        timeouts or an idle expiry — and calls :meth:`report_failure`, which
        is the E13 in-band detection path.  ``node.alive`` deliberately stays
        True: the controller does not know yet.
        """
        if node.crashed_at is not None or not node.alive:
            raise ValueError(f"relay {node.host.address} already left the tree")
        node.crashed_at = self.network.simulator.now
        node.relay.crash()

    def _check_alive(self, node: RelayNode) -> None:
        if not node.alive:
            raise ValueError(f"relay {node.host.address} already left the tree")

    # ------------------------------------------------------ in-band detection
    def _on_relay_uplink_dying(self, relay: MoqtRelay, cause: str) -> None:
        node = self._nodes_by_relay.get(relay)
        if node is None:
            return
        # The dead node is resolved *now*, at signal time: once the failover
        # has reparented this relay, any straggling liveness signal from the
        # replaced session is filtered at the relay layer, and the new
        # parent must never be blamed for the old one's death.  A terminal
        # no-surviving-parent outcome is recorded on the event before the
        # structured error is raised, so it is swallowed here: a transport
        # callback must never unwind the event loop.
        try:
            if node.parent is None:
                if self.origin_cluster is not None:
                    self.report_origin_failure(node, via=cause)
                # Without a replicated origin, nodes hanging directly off it
                # have no stand-in to fail over to; the relay's own error
                # paths handle the dead uplink.
                return
            self.report_failure(node.parent, via=cause)
        except NoSurvivingParentError:
            pass

    def report_failure(self, dead: RelayNode, via: str) -> FailoverEvent | None:
        """Some orphan's transport says ``dead`` is gone: run the failover.

        This is the in-band entry point to the same evacuation machinery the
        control-plane :meth:`kill_relay` oracle uses, minus the oracle: a
        relay whose uplink went suspect/dead, or a subscriber whose leaf
        session idled out, names the parent it lost (the wired liveness
        handlers resolve it at signal time) and the whole subtree of that
        parent is re-homed through the failover policy — pending subscribes
        included, which are re-issued through the new parent instead of
        erroring back.  Idempotent per dead node: the first report
        evacuates, later reporters get the same event back.

        The transport is trusted over the membership view: the controller
        may still believe the node is alive (that is the point of in-band
        detection), but an orphan that timed out on it knows better.  A
        false report against a healthy relay therefore *does* evacuate it —
        the inherent cost of oracle-free detection, bounded by choosing
        suspicion thresholds and idle timeouts well above healthy-path
        silence.
        """
        if dead.failure_event is not None:
            return dead.failure_event
        now = self.network.simulator.now
        dead.alive = False
        event = self._evacuate(dead, cause="detected")
        event.detected_via = via
        if dead.crashed_at is not None:
            event.detection_latency = now - dead.crashed_at
        dead.failure_event = event
        if event.error:
            # The evacuation stranded orphans (recorded on the event, which
            # never raises mid-teardown); surface the terminal outcome as a
            # structured error rather than returning as if re-homed.
            raise NoSurvivingParentError(
                f"failover of {dead.host.address} stranded orphans: {event.error}",
                event,
            )
        return event

    def report_origin_failure(self, reporter: RelayNode, via: str) -> FailoverEvent | None:
        """A tier-0 relay's transport says its *origin* is gone: promote.

        The origin-tier twin of :meth:`report_failure`, with the same
        determinism contract:

        * **first detector wins** — the first report deposes the dead
          active, elects the lowest-index alive standby, increments the
          cluster epoch and re-points every tier-0 uplink (pending
          subscribes transplant exactly as in a relay-tier switch);
        * **idempotent** — later reporters of the same death get the
          recorded event back;
        * **stale reports from an old epoch are ignored** — a reporter
          naming an origin that is no longer the active (its death has
          already been promoted around) gets that origin's recorded event
          and triggers nothing.

        The reporter names the origin through its own uplink address,
        resolved at signal time, so a relay already switched to the new
        active can never depose it with a straggling signal.  Raises
        :class:`NoSurvivingParentError` (after recording the terminal
        event) when no standby survives to promote.
        """
        cluster = self.origin_cluster
        if cluster is None:
            raise RuntimeError("report_origin_failure needs an origin cluster")
        dead = cluster.origin_at(reporter.relay.upstream_address)
        if dead is None:
            return None
        if dead is not cluster.active or dead.failure_event is not None:
            # Already promoted around (stale epoch) or already being handled
            # by the first detector: hand back the recorded event.
            return dead.failure_event
        now = self.network.simulator.now
        event = FailoverEvent(
            cause="detected", node=dead.host.address, tier="origin", at=now
        )
        event.detected_via = via
        if dead.crashed_at is not None:
            event.detection_latency = now - dead.crashed_at
        # Recorded before the election runs: a re-entrant report from
        # another tier-0 relay noticing the same death mid-promotion hits
        # the idempotency guard above.
        dead.failure_event = event
        self.events.append(event)
        dead_address = dead.address
        promotion = cluster.promote(via=via, detection_latency=event.detection_latency)
        orphans = [
            node
            for node in self.tiers[0]
            if node.alive and node.relay.upstream_address == dead_address
        ]
        if promotion is None:
            for node in orphans:
                self._strand(event, node, now, "no-surviving-origin")
            raise NoSurvivingParentError(
                f"origin {dead.host.address} died with no surviving standby",
                event,
            )
        event.epoch = promotion.epoch
        # The topology's origin pointer follows the election: later tier-0
        # joins and grandparent fallbacks anchor on the *current* active.
        self.origin = cluster.address
        for node in orphans:
            self._repoint(node, self.origin, event, now)
        return event

    # ---------------------------------------------------------------- failover
    def _evacuate(self, node: RelayNode, cause: str) -> FailoverEvent:
        now = self.network.simulator.now
        event = FailoverEvent(
            cause=cause, node=node.host.address, tier=node.tier_name, at=now
        )
        if node.parent is not None and node.parent.alive:
            node.parent.load -= 1
        if node.tier_index + 1 < len(self.tiers):
            for child in self.tiers[node.tier_index + 1]:
                if child.alive and child.parent is node:
                    self._reparent_relay(child, node, event, now)
        for subscriber in self.subscribers:
            if subscriber.leaf is node:
                self._failover_subscriber(subscriber, event, now)
        self.events.append(event)
        return event

    def _reparent_relay(
        self, child: RelayNode, dead: RelayNode, event: FailoverEvent, now: float
    ) -> None:
        # The least-loaded surviving sibling of the dead relay keeps the
        # tree's depth, and so its fan-out arithmetic; with the whole tier
        # gone, the grandparent (or the origin) takes the orphan.
        new_parent = least_loaded(
            [node for node in self.tiers[dead.tier_index] if node.alive and node is not dead]
        )
        if new_parent is None and dead.parent is not None and dead.parent.alive:
            new_parent = dead.parent
        if new_parent is not None:
            upstream = new_parent.address
            anchor: Host | None = new_parent.host
            new_parent.load += 1
        else:
            # No surviving relay above: attach straight to the origin — but
            # only to an origin that is actually there.  With a replicated
            # origin whose last member is gone, "attach to the origin" would
            # silently wire orphans to a dead address; strand the orphan
            # instead (the structured NoSurvivingParentError is raised by
            # report_failure once the event is complete).
            upstream = self.origin
            anchor = self._origin_anchor()
            if anchor is None:
                self._strand(event, child, now)
                return
        if not self.network.has_link(anchor.address, child.host.address):
            self.network.connect(anchor, child.host, self.spec.tiers[child.tier_index].uplink)
        child.parent = new_parent
        self._repoint(child, upstream, event, now)

    def _repoint(
        self, node: RelayNode, upstream: Address, event: FailoverEvent, now: float
    ) -> None:
        """Switch a relay orphan's uplink to ``upstream`` and record it.

        The record reads re-attached at the first accepted re-subscription
        through the new parent — or at once for a lazy relay with nothing
        subscribed, which has no SUBSCRIBE_OK to wait for.
        """
        record = self._record(event, node, upstream.host, now)
        has_live_tracks = any(
            track.downstream or track.awaiting_upstream
            for track in node.relay.tracks().values()
        )
        node.relay.switch_upstream(
            upstream,
            on_track_reattached=lambda track, r=record: r.mark_reattached(
                self.network.simulator.now
            ),
        )
        if not has_live_tracks:
            record.mark_reattached(now)

    def _record(
        self,
        event: FailoverEvent,
        orphan: RelayNode | TreeSubscriber,
        new_parent: str,
        now: float,
    ) -> FailoverRecord:
        """File one orphan's journey on ``event``."""
        relay = isinstance(orphan, RelayNode)
        record = FailoverRecord(
            kind="relay" if relay else "subscriber",
            name=orphan.host.address,
            tier=orphan.tier_name if relay else "subscribers",
            new_parent=new_parent,
            detached_at=now,
        )
        event.records.append(record)
        return record

    def _strand(
        self,
        event: FailoverEvent,
        orphan: RelayNode | TreeSubscriber,
        now: float,
        error: str = "no-surviving-parent",
    ) -> None:
        """An orphan with nowhere alive to go: the event names the terminal
        ``error`` and the orphan's record carries no new parent.

        A relay's pending subscribes and fetches are failed back downstream
        instead of being left wedged on a session nobody will ever answer,
        so its subscribers observe clean terminal errors, not hangs.  Raising
        is left to the caller, after the event is complete — never
        mid-evacuation, with the dead relay already torn down.
        """
        event.error = event.error or error
        self._record(event, orphan, new_parent="", now=now)
        if isinstance(orphan, RelayNode):
            orphan.relay.abandon_upstream(error.replace("-", " "))

    def _origin_anchor(self) -> Host | None:
        """The origin host orphans may fall back to — None when it is gone.

        Without a replicated origin the singleton is assumed reachable:
        nothing in the topology can ever report it dead, so the historical
        attach-to-origin fallback stands.  With a cluster, the *membership
        view* decides (``alive``), not the crash oracle: a silently crashed
        but not-yet-detected active is still attached to — exactly as a
        not-yet-detected relay would be — and the subsequent in-band origin
        report re-homes those orphans through the promoted standby.  Only
        when the cluster's active has been deposed with no successor is
        there genuinely no origin left.
        """
        cluster = self.origin_cluster
        if cluster is None:
            return self.network.host(self.origin.host)
        if not cluster.active.alive:
            return None
        return cluster.active.host

    def _failover_subscriber(
        self, subscriber: TreeSubscriber, event: FailoverEvent, now: float
    ) -> None:
        """Re-home a subscriber on the least-loaded surviving leaf: a move,
        then every followed track re-subscribed — resuming with a gap FETCH
        from the new leaf's cache — under the admission contract it joined
        with."""
        new_leaf = least_loaded(self.alive_leaves())
        if new_leaf is None:
            self._strand(event, subscriber, now)
            return
        record = self._record(event, subscriber, new_leaf.host.address, now)
        self._move(subscriber, new_leaf, "leaf relay lost")
        subscriber.reattach_count += 1
        if self._resubscribe(subscriber, event, record) == 0:
            # Nothing to re-subscribe: the re-homing itself completes the
            # failover (otherwise the record would wait on a SUBSCRIBE_OK
            # that will never come and the event would never read complete).
            record.mark_reattached(now)
