"""One way to stand up, load and score a relay tree (``docs/scenarios.md``).

Every tree experiment (E11–E16) is the same three moves around its own
fault schedule: stand up simulator + network + origin + tree, push a
stream of record updates, and note what each subscriber was delivered.
A frozen :class:`Scenario` says *what* is stood up;
:func:`build_scenario` stands it up once and returns the live
:class:`ScenarioRun`, which owns the moves.  What stays in a driver is what
differs between experiments: the schedule, the closed-form model, the
result dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, OriginPublisher, build_origin
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.relaynet.admission import AdmissionPolicy
from repro.relaynet.origincluster import OriginCluster
from repro.relaynet.spec import RelayTreeSpec
from repro.relaynet.topology import RelayTopology

#: Virtual time between pushed updates (keeps pushes distinguishable in
#: traces without affecting byte counts on unconstrained links).
UPDATE_INTERVAL = 0.25

#: Bytes of one pushed record update.
PAYLOAD_SIZE = 300


def update_payload(group_id: int) -> bytes:
    """The :data:`PAYLOAD_SIZE`-byte record update pushed as group ``group_id``."""
    stem = f"update-{group_id}-".encode()
    return (stem * (PAYLOAD_SIZE // len(stem) + 1))[:PAYLOAD_SIZE]


@dataclass(frozen=True)
class Scenario:
    """Everything that is fixed before a tree run starts."""

    #: Tree shape; ``spec.origins >= 2`` stands up an
    #: :class:`~repro.relaynet.origincluster.OriginCluster` of that size in
    #: place of the singleton origin.  A cluster that never fails adds zero
    #: traffic on any tree link, so measured tier tables are bit-identical.
    spec: RelayTreeSpec
    seed: int
    #: QUIC configurations handed to the topology (relay uplinks, subscriber
    #: sessions, the relays' accepted downstream side); None keeps the
    #: historical wire-identical defaults.
    uplink_connection: ConnectionConfig | None = None
    subscriber_connection: ConnectionConfig | None = None
    downstream_connection: ConnectionConfig | None = None
    admission: AdmissionPolicy | None = None


@dataclass(frozen=True)
class RecoveryCounters:
    """Loss-repair work summed over the tree's relays and subscribers."""

    relay_duplicates_dropped: int
    subscriber_duplicates_dropped: int
    recovery_fetches: int
    recovered_objects: int
    subscriber_gap_fetches: int
    uplink_failures_detected: int


@dataclass(eq=False)
class ScenarioRun:
    """A stood-up :class:`Scenario`: the live parts plus the shared moves."""

    scenario: Scenario
    simulator: Simulator
    network: Network
    #: What updates are pushed into — the cluster whenever the spec declares
    #: one (its replay ring is the only copy of an outage window), else the
    #: singleton publisher.
    origin: OriginCluster | OriginPublisher
    topology: RelayTopology
    #: Updates pushed so far; group ids run from 2 (the origin seeds group 1).
    pushed: int = 0
    #: Delivered group ids per subscriber index (:meth:`record_deliveries`).
    received: dict[int, list[int]] = field(default_factory=dict)

    def advance(self, seconds: float) -> None:
        """Run the simulator ``seconds`` of virtual time forward."""
        self.simulator.run(until=self.simulator.now + seconds)

    def push(self, count: int) -> None:
        """Push the next ``count`` updates, :data:`UPDATE_INTERVAL` apart."""
        for _ in range(count):
            group_id = self.pushed + 2
            self.origin.push(
                MoqtObject(
                    group_id=group_id,
                    object_id=0,
                    payload=update_payload(group_id),
                )
            )
            self.pushed += 1
            self.advance(UPDATE_INTERVAL)

    def record_deliveries(self) -> None:
        """Subscribe every attached subscriber, noting the groups each gets."""
        received = self.received
        received.update({sub.index: [] for sub in self.topology.subscribers})
        self.topology.subscribe_all(
            TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
        )

    def delivery_score(self) -> tuple[dict[int, list[int]], int, int]:
        """``(sequences, gapless, delivered)`` over the whole population.

        ``sequences`` is keyed by subscriber index; ``gapless`` counts the
        subscribers whose sequence is exactly the pushed one — duplicate-free
        and in publish order.
        """
        sequences = dict(self.received)
        expected = list(range(2, self.pushed + 2))
        gapless = sum(1 for groups in sequences.values() if groups == expected)
        return sequences, gapless, sum(len(groups) for groups in sequences.values())

    def recovery_counters(self) -> RecoveryCounters:
        """Dedupe, gap-FETCH and uplink-failure totals at this instant."""
        relays = [node.relay.statistics for node in self.topology.nodes()]
        subscribers = self.topology.subscribers
        return RecoveryCounters(
            relay_duplicates_dropped=sum(s.duplicate_objects_dropped for s in relays),
            subscriber_duplicates_dropped=sum(
                sub.duplicate_objects_dropped for sub in subscribers
            ),
            recovery_fetches=sum(s.recovery_fetches for s in relays),
            recovered_objects=sum(s.recovered_objects for s in relays),
            subscriber_gap_fetches=sum(sub.recovery_fetches for sub in subscribers),
            uplink_failures_detected=sum(s.uplink_failures_detected for s in relays),
        )


def build_scenario(scenario: Scenario) -> ScenarioRun:
    """Stand ``scenario`` up on a fresh seeded simulator."""
    simulator = Simulator(seed=scenario.seed)
    network = Network(simulator)
    spec = scenario.spec
    if spec.origins > 1:
        origin = cluster = OriginCluster(
            network, origins=spec.origins, standby_link=spec.tiers[0].uplink
        )
    else:
        origin, cluster = build_origin(network), None
    topology = RelayTopology(
        network,
        Address(ORIGIN_HOST, ORIGIN_PORT),
        spec,
        uplink_connection=scenario.uplink_connection,
        subscriber_connection=scenario.subscriber_connection,
        downstream_connection=scenario.downstream_connection,
        origin_cluster=cluster,
        admission=scenario.admission,
    )
    return ScenarioRun(scenario, simulator, network, origin, topology)
