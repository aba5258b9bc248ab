"""Tests for repro.relaynet: specs, builders, chained relays and statistics."""

from __future__ import annotations

import pytest

from repro.analysis.fanout import fanout_model, relative_deviation, unicast_origin_messages
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import (
    ORIGIN_HOST as ORIGIN,
    ORIGIN_PORT,
    TRACK,
    OriginPublisher as BaseOriginPublisher,
    build_origin_endpoint,
)
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.relaynet import (
    RelayNetStats,
    RelayTierSpec,
    RelayTreeBuilder,
    RelayTreeSpec,
)


class OriginPublisher(BaseOriginPublisher):
    """Origin delegate recording every subscribe/fetch it answers."""

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        self.subscribes: list[object] = []
        self.fetches: list[object] = []

    def handle_subscribe(self, session, message):
        self.subscribes.append(message)
        return super().handle_subscribe(session, message)

    def handle_fetch(self, session, message, full_track_name):
        self.fetches.append(message)
        return super().handle_fetch(session, message, full_track_name)

    def push_version(self, group_id: int, payload: bytes) -> MoqtObject:
        obj = MoqtObject(group_id=group_id, object_id=0, payload=payload)
        self.push(obj)
        return obj


def build_scene(spec: RelayTreeSpec, seed: int = 5):
    """An origin publisher plus a built relay tree on a fresh network."""
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    publisher = OriginPublisher(network)
    build_origin_endpoint(network.add_host(ORIGIN), publisher)
    tree = RelayTreeBuilder(network, Address(ORIGIN, ORIGIN_PORT)).build(spec)
    return simulator, network, publisher, tree


class TestSpec:
    def test_star_and_cdn_shapes(self):
        assert RelayTreeSpec.star(3).tier_sizes() == (3,)
        assert RelayTreeSpec.cdn(mid_relays=4, edge_per_mid=4).tier_sizes() == (4, 16)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RelayTierSpec("mid", 0, LinkConfig())
        with pytest.raises(ValueError):
            RelayTreeSpec(tiers=(), subscriber_link=LinkConfig())
        with pytest.raises(ValueError):
            RelayTreeSpec(
                tiers=(RelayTierSpec("a", 1, LinkConfig()), RelayTierSpec("a", 2, LinkConfig())),
                subscriber_link=LinkConfig(),
            )

    def test_tier_uplink_configs_are_kept(self):
        spec = RelayTreeSpec.cdn(4, 4, core_link=LinkConfig(delay=0.2), metro_link=LinkConfig(delay=0.1))
        assert spec.tiers[0].uplink.delay == 0.2
        assert spec.tiers[1].uplink.delay == 0.1


class TestBuilder:
    def test_builds_hosts_relays_and_round_robin_parents(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        _, network, _, tree = build_scene(spec)
        assert tree.relay_count == 6
        assert [node.host.address for node in tree.tier("mid")] == [
            "relay-mid-0", "relay-mid-1",
        ]
        edges = tree.tier("edge")
        assert [edge.parent.index for edge in edges] == [0, 1, 0, 1]
        for mid in tree.tier("mid"):
            assert mid.parent is None
            assert mid.upstream_host == ORIGIN
            assert network.has_link(ORIGIN, mid.host.address)
        for edge in edges:
            assert edge.tier_name == "edge"
            assert network.has_link(edge.parent.host.address, edge.host.address)

    def test_origin_host_must_exist(self):
        network = Network(Simulator(seed=1))
        with pytest.raises(Exception):
            RelayTreeBuilder(network, Address("missing", ORIGIN_PORT))

    def test_attach_subscribers_round_robin_and_incremental(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        _, _, _, tree = build_scene(spec)
        first = tree.attach_subscribers(5)
        assert [sub.leaf.index for sub in first] == [0, 1, 2, 3, 0]
        second = tree.attach_subscribers(2)
        assert [sub.host.address for sub in second] == ["sub-5", "sub-6"]
        assert len(tree.subscribers) == 7


class TestChainedDelivery:
    def test_three_tier_tree_delivers_every_update_in_order(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(8)
        received: dict[int, list[int]] = {sub.index: [] for sub in tree.subscribers}
        tree.subscribe_all(
            TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
        )
        simulator.run(until=simulator.now + 3.0)
        for group in range(2, 7):
            publisher.push_version(group, f"v{group}".encode())
            simulator.run(until=simulator.now + 0.5)
        simulator.run(until=simulator.now + 3.0)

        for groups in received.values():
            assert groups == [2, 3, 4, 5, 6], "every subscriber sees updates in publish order"
        # Aggregation: each tier holds exactly one upstream subscription per
        # active relay, and the origin only ever answered the mid tier.
        stats = RelayNetStats.collect(tree)
        assert stats.tiers[0].upstream_subscribes == 2
        assert stats.tiers[1].upstream_subscribes == 4
        assert len(publisher.subscribes) == 2
        assert stats.tiers[0].objects_received == 2 * 5
        assert stats.tiers[1].objects_received == 4 * 5
        assert stats.subscriber_objects_received == 8 * 5

    def test_fetch_forwarded_to_origin_on_cold_tree(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        (subscriber,) = tree.attach_subscribers(1)
        fetched = []
        subscription = subscriber.session.subscribe(TRACK)
        subscriber.session.joining_fetch(subscription, on_complete=fetched.append)
        simulator.run(until=simulator.now + 4.0)
        assert fetched and fetched[0].succeeded
        assert [obj.payload for obj in fetched[0].objects] == [b"v1"]
        # Cold caches at the edge and mid tier: both forwarded upstream and
        # the fetch reached the origin exactly once.
        stats = RelayNetStats.collect(tree)
        assert stats.cache_misses == 2
        assert len(publisher.fetches) == 1

    def test_fetch_served_from_mid_tier_cache_without_reaching_origin(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        # Subscribers on edges 0..2 warm the mid tier; edge 3 stays cold.
        tree.attach_subscribers(3)
        tree.subscribe_all(TRACK)
        simulator.run(until=simulator.now + 3.0)
        publisher.push_version(2, b"v2")
        simulator.run(until=simulator.now + 3.0)

        # A late subscriber lands on the cold edge-3 (round-robin index 3),
        # whose parent mid-1 already caches v2 via its edge-1 child.
        (late,) = tree.attach_subscribers(1)
        assert late.leaf.index == 3
        fetched = []
        subscription = late.session.subscribe(TRACK)
        late.session.joining_fetch(subscription, on_complete=fetched.append)
        simulator.run(until=simulator.now + 4.0)

        assert fetched and fetched[0].succeeded
        assert [obj.payload for obj in fetched[0].objects] == [b"v2"]
        edge3 = tree.tier("edge")[3].relay
        mid1 = tree.tier("mid")[1].relay
        assert edge3.statistics.fetches_forwarded_upstream == 1
        assert mid1.statistics.fetches_served_from_cache == 1
        assert len(publisher.fetches) == 0, "the origin never saw the fetch"

    def test_loss_on_one_tier_does_not_corrupt_sibling_subtrees(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, network, publisher, tree = build_scene(spec, seed=13)
        # One subscriber per edge relay.
        tree.attach_subscribers(4)
        received: dict[int, list[int]] = {sub.index: [] for sub in tree.subscribers}
        tree.subscribe_all(
            TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
        )
        # Degrade the uplink of edge-0 only (mid-0 <-> edge-0), after the
        # sessions are set up, by replacing the link pair with a lossy one.
        lossy_edge = tree.tier("edge")[0]
        network.connect(
            lossy_edge.parent.host,
            lossy_edge.host,
            LinkConfig(delay=0.010, loss_rate=0.3),
        )
        simulator.run(until=simulator.now + 3.0)
        for group in range(2, 7):
            publisher.push_version(group, f"v{group}".encode())
            simulator.run(until=simulator.now + 0.5)
        # Generous drain: the lossy uplink needs retransmissions.
        simulator.run(until=simulator.now + 20.0)

        expected = [2, 3, 4, 5, 6]
        for subscriber in tree.subscribers:
            groups = received[subscriber.index]
            if subscriber.leaf is lossy_edge:
                # Streams are reliable: the lossy subtree still converges.
                assert sorted(groups) == expected
            else:
                assert groups == expected, "clean subtrees deliver in order, unaffected"


class TestUpstreamTeardown:
    def test_dead_uplink_errors_waiters_instead_of_wedging_the_track(self):
        # No MoQT endpoint at the origin: the relay's upstream connection
        # gives up after its bounded retries.  Waiters must get an error and
        # the track must stay retryable, not defer subscribers forever.
        simulator = Simulator(seed=19)
        network = Network(simulator)
        network.add_host(ORIGIN)  # host exists, but nothing listens
        tree = RelayTreeBuilder(network, Address(ORIGIN, ORIGIN_PORT)).build(
            RelayTreeSpec.star(relays=1)
        )
        first, second = tree.attach_subscribers(2)
        states = []
        first.session.subscribe(TRACK, on_response=lambda s: states.append(("a", s.state)))
        second.session.subscribe(TRACK, on_response=lambda s: states.append(("b", s.state)))
        simulator.run(until=simulator.now + 120.0)
        assert sorted(states) == [("a", "error"), ("b", "error")]
        relay = tree.tiers[0][0].relay
        track = relay.tracks()[TRACK]
        assert track.awaiting_upstream == []
        assert track.downstream == []
        assert track.upstream_subscription is None

    def test_last_unsubscribe_tears_down_the_whole_chain(self):
        spec = RelayTreeSpec.cdn(mid_relays=1, edge_per_mid=1)
        simulator, _, publisher, tree = build_scene(spec)
        first, second = tree.attach_subscribers(2)
        subscriptions = tree.subscribe_all(TRACK)
        simulator.run(until=simulator.now + 3.0)
        edge = tree.tier("edge")[0].relay
        mid = tree.tier("mid")[0].relay
        assert edge.statistics.upstream_subscribes == 1
        assert publisher.sessions[0].publisher_subscriptions()

        # First unsubscribe: the edge still has one subscriber, nothing moves.
        first.session.unsubscribe(subscriptions[0])
        simulator.run(until=simulator.now + 2.0)
        assert edge.statistics.upstream_unsubscribes == 0

        # Last unsubscribe: teardown cascades edge -> mid -> origin.
        second.session.unsubscribe(subscriptions[1])
        simulator.run(until=simulator.now + 2.0)
        assert edge.statistics.upstream_unsubscribes == 1
        assert mid.statistics.upstream_unsubscribes == 1
        assert edge.tracks()[TRACK].upstream_subscription is None
        assert publisher.sessions[0].publisher_subscriptions() == []

        # A returning subscriber re-establishes the chain from scratch.
        (returning,) = tree.attach_subscribers(1)
        states = []
        returning.session.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        simulator.run(until=simulator.now + 3.0)
        assert states == ["active"]
        assert edge.statistics.upstream_subscribes == 2
        assert publisher.sessions[-1].publisher_subscriptions() or (
            publisher.sessions[0].publisher_subscriptions()
        )

    def test_downstream_session_close_releases_upstream_subscription(self):
        spec = RelayTreeSpec.star(relays=1)
        simulator, _, publisher, tree = build_scene(spec)
        (subscriber,) = tree.attach_subscribers(1)
        tree.subscribe_all(TRACK)
        simulator.run(until=simulator.now + 3.0)
        relay = tree.tiers[0][0].relay
        assert relay.tracks()[TRACK].downstream

        subscriber.session.close("resolver shutting down")
        simulator.run(until=simulator.now + 2.0)
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert relay.statistics.upstream_unsubscribes == 1
        assert publisher.sessions[0].publisher_subscriptions() == []


class TestStatsAndModel:
    def test_snapshot_delta_isolates_the_update_window(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(4)
        tree.subscribe_all(TRACK)
        simulator.run(until=simulator.now + 3.0)
        before = RelayNetStats.collect(tree)
        assert before.origin_egress_bytes > 0, "setup traffic is visible pre-snapshot"
        publisher.push_version(2, b"x" * 100)
        simulator.run(until=simulator.now + 3.0)
        delta = RelayNetStats.collect(tree).delta(before)
        assert delta.tiers[0].objects_received == 2
        assert delta.tiers[1].objects_received == 4
        assert delta.subscriber_objects_received == 4
        assert delta.tiers[0].downstream_subscribes == 0, "setup excluded from the window"

    def test_fanout_model_closed_forms(self):
        assert unicast_origin_messages(1000, 5) == 5000
        model = fanout_model(subscribers=1000, updates=5, tier_sizes=(4, 16), bytes_per_update=100)
        assert model.tier_messages() == (20, 80, 5000)
        assert model.origin_messages == 20
        assert model.origin_reduction_factor == 250.0
        assert model.tier_bytes()[0] == 2000.0
        # Sparse population: idle relays receive nothing.
        sparse = fanout_model(subscribers=10, updates=5, tier_sizes=(4, 16), bytes_per_update=100)
        assert sparse.tier_receivers == (4, 10, 10)
        assert relative_deviation(110, 100) == pytest.approx(0.10)
        assert relative_deviation(0, 0) == 0.0


@pytest.mark.slow
class TestFanoutExperiment:
    def test_thousand_subscriber_tree_matches_model_within_10_percent(self):
        from repro.experiments.relay_fanout import run_relay_fanout

        result = run_relay_fanout(subscriber_counts=(10, 1000), updates=5)
        for sample in result.samples:
            assert sample.delivered_objects == sample.subscribers * sample.updates
            assert sample.max_tier_byte_deviation <= 0.10
            assert sample.measured_origin_objects == sample.model.origin_messages
        small, large = result.samples
        # Origin egress is O(branching factor): flat over a 100x population
        # growth, while the unicast baseline scales linearly.
        assert large.origin_egress_bytes == small.origin_egress_bytes
        assert large.model.unicast_messages == 100 * small.model.unicast_messages

    def test_experiment_is_deterministic(self):
        from repro.experiments.relay_fanout import run_relay_fanout

        first = run_relay_fanout(subscriber_counts=(50,), updates=3, mid_relays=2, edge_per_mid=2)
        second = run_relay_fanout(subscriber_counts=(50,), updates=3, mid_relays=2, edge_per_mid=2)
        assert [s.as_row() for s in first.samples] == [s.as_row() for s in second.samples]
        assert first.samples[0].measured_tier_bytes == second.samples[0].measured_tier_bytes
