"""Tests for the live relay topology: join/leave, failover, gap recovery.

Covers the livetree refactor end to end:

* membership — relays joining a running tree, graceful leaves, crashes;
* failover policies — sibling vs. grandparent re-homing;
* the MoQT-layer recovery contract — upstream-switch dedupe (no duplicate
  delivery after re-parenting) and FETCH-based gap fill (the receiver's own
  properties are in ``tests/test_track_receiver.py``);
* load-aware subscriber placement skipping dead leaves;
* the unsubscribe-during-deferred-upstream-subscribe race;
* the pending-FETCH-over-a-dying-upstream regression (ROADMAP known issue);
* the close-during-switch race: a session closed while a recovery FETCH is
  in flight must not lose the gap for good;
* in-band failure detection — silent crashes recovered purely through
  QUIC liveness reports (:meth:`RelayTopology.report_failure`);
* the E12 churn experiment and the closed-form recovery model.
"""

from __future__ import annotations

import pytest

from repro.analysis.churn import recovery_model
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.origin import (
    ORIGIN_HOST as ORIGIN,
    ORIGIN_PORT,
    TRACK,
    OriginPublisher,
    build_origin,
)
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.relaynet import (
    RelayTreeBuilder,
    RelayTreeSpec,
)
from repro.relaynet.scenario import Scenario, build_scenario


def build_scene(spec: RelayTreeSpec, seed: int = 5):
    """An origin publisher plus a built relay tree on a fresh network."""
    run = build_scenario(Scenario(spec=spec, seed=seed))
    return run.simulator, run.network, run.origin, run.topology


def subscribe_recording(tree):
    """Subscribe every attached subscriber, recording delivered group ids."""
    received: dict[int, list[int]] = {sub.index: [] for sub in tree.subscribers}
    subscriptions = tree.subscribe_all(
        TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
    )
    return received, subscriptions


def push_groups(simulator, publisher: OriginPublisher, groups, interval: float = 0.25):
    for group in groups:
        publisher.push(MoqtObject(group_id=group, object_id=0, payload=f"v{group}".encode()))
        simulator.run(until=simulator.now + interval)


class TestMembership:
    def test_add_relay_joins_least_loaded_parent_and_serves(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        topology = tree
        # Unbalance the mid tier: mid-0 gets an extra child first.
        extra0 = tree.add_relay("edge", parent=tree.tier("mid")[0])
        assert extra0.host.address == "relay-edge-4"
        joined = tree.add_relay("edge")
        assert joined.parent is tree.tier("mid")[1], "least-loaded mid chosen"
        assert joined.host.address == "relay-edge-5"
        assert topology.alive_relay_count == 8

        # The joined relay serves subscribers like any built one.
        tree.attach_subscribers(6)
        late = tree.subscribers[-1]
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        push_groups(simulator, publisher, [2, 3])
        simulator.run(until=simulator.now + 3.0)
        assert received[late.index] == [2, 3]
        assert joined.relay.statistics.upstream_subscribes >= 0  # reachable

    def test_add_relay_validates_tier_and_parent(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        _, _, _, tree = build_scene(spec)
        with pytest.raises(KeyError):
            tree.add_relay("core")
        with pytest.raises(ValueError):
            tree.add_relay("mid", parent=tree.tier("mid")[0])
        dead = tree.tier("edge")[3]
        tree.kill_relay(dead)
        with pytest.raises(ValueError):
            tree.add_relay("edge", parent=dead)
        with pytest.raises(ValueError):
            tree.kill_relay(dead)  # already gone

    def test_remove_relay_graceful_leave_keeps_delivery_gapless(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(8)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        push_groups(simulator, publisher, [2, 3])
        event = tree.remove_relay(tree.tier("mid")[0])
        push_groups(simulator, publisher, [4, 5])
        simulator.run(until=simulator.now + 5.0)

        assert event.cause == "leave"
        assert event.complete
        assert all(groups == [2, 3, 4, 5] for groups in received.values())
        # The departed relay released its upstream state at the origin.
        mid0 = tree.tier("mid")[0]
        assert not mid0.alive
        assert all(
            child.parent is tree.tier("mid")[1] for child in tree.children(
                tree.tier("mid")[1]
            )
        )


class TestFailover:
    def test_kill_mid_relay_sibling_failover_gapless_and_duplicate_free(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(8)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        push_groups(simulator, publisher, [2, 3, 4])
        event = tree.kill_relay(tree.tier("mid")[1])
        push_groups(simulator, publisher, [5, 6, 7])
        simulator.run(until=simulator.now + 5.0)

        assert event.cause == "kill"
        assert event.complete
        orphans = event.orphans("relay")
        assert {record.name for record in orphans} == {"relay-edge-1", "relay-edge-3"}
        assert all(record.new_parent == "relay-mid-0" for record in orphans)
        # The delivery contract survives the crash: gapless, ordered,
        # duplicate-free at every subscriber.
        assert all(groups == [2, 3, 4, 5, 6, 7] for groups in received.values())
        # Dedupe did real work: the new parent re-sent already-seen objects.
        switched = [tree.tier("edge")[1].relay, tree.tier("edge")[3].relay]
        assert all(relay.statistics.upstream_switches == 1 for relay in switched)
        assert sum(relay.statistics.duplicate_objects_dropped for relay in switched) > 0
        assert all(relay.statistics.recovery_fetches == 1 for relay in switched)

    def test_kill_recovers_gap_objects_via_fetch(self):
        # Stretch the re-attach window with a slow metro link so an update
        # pushed right at the kill must arrive via the recovery FETCH.
        from repro.netsim.link import LinkConfig

        spec = RelayTreeSpec.cdn(
            mid_relays=2, edge_per_mid=1, metro_link=LinkConfig(delay=0.080)
        )
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(2)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 5.0)
        push_groups(simulator, publisher, [2, 3])
        tree.kill_relay(tree.tier("mid")[1])
        # Published while the orphan edge is still re-attaching (3 RTTs of
        # 160 ms each): only the FETCH can deliver it.
        publisher.push(MoqtObject(group_id=4, object_id=0, payload=b"v4"))
        simulator.run(until=simulator.now + 10.0)

        assert all(groups == [2, 3, 4] for groups in received.values())
        orphan = tree.tier("edge")[1].relay
        assert orphan.statistics.recovered_objects >= 1

    def test_back_to_back_kills_do_not_clobber_recovery(self):
        # Second failover arrives while the first recovery FETCH is still in
        # flight (slow metro link): the stale fetch failing on the old
        # session's close must not release the new switch's buffer early.
        from repro.netsim.link import LinkConfig

        spec = RelayTreeSpec.cdn(
            mid_relays=3, edge_per_mid=1, metro_link=LinkConfig(delay=0.080)
        )
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(3)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 5.0)
        push_groups(simulator, publisher, [2, 3])
        tree.kill_relay(tree.tier("mid")[1])
        publisher.push(MoqtObject(group_id=4, object_id=0, payload=b"v4"))
        # Kill the failover target before the orphan's recovery completes
        # (re-attach alone takes 3 x 160 ms RTTs).
        simulator.run(until=simulator.now + 0.1)
        tree.kill_relay(tree.tier("mid")[0])
        publisher.push(MoqtObject(group_id=5, object_id=0, payload=b"v5"))
        simulator.run(until=simulator.now + 15.0)
        push_groups(simulator, publisher, [6])
        simulator.run(until=simulator.now + 10.0)

        for groups in received.values():
            assert groups == [2, 3, 4, 5, 6], received

    @staticmethod
    def switch_twice():
        """Edge 0 switches mid 0 -> mid 1 -> mid 0 back to back (the second
        while the first's gap FETCH is in flight), then groups 4 and 5 are
        pushed; returns what each subscriber behind edge 0 received."""
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=1)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(2)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        push_groups(simulator, publisher, [2, 3])
        edge0 = tree.tier("edge")[0]
        mids = tree.tier("mid")
        edge0.relay.switch_upstream(mids[1].address, on_track_reattached=lambda track: None)
        edge0.relay.switch_upstream(mids[0].address, on_track_reattached=lambda track: None)
        push_groups(simulator, publisher, [4, 5])
        simulator.run(until=simulator.now + 5.0)
        assert edge0.relay.tracks()[TRACK].held is None
        return [received[sub.index] for sub in tree.subscribers if sub.leaf is edge0]

    def test_a_second_switch_mid_recovery_does_not_wedge_the_buffer(self):
        # A switch that arms recovery followed immediately by another must
        # leave the buffer released once the second gap FETCH completes:
        # nothing else ever would, and the track would swallow live objects
        # forever.  Group 4 is lost today (see the strict xfail below).
        for groups in self.switch_twice():
            assert groups == [2, 3, 5], "live delivery resumed"

    @pytest.mark.xfail(
        strict=True,
        reason="mid 0 dropped its idle upstream subscription during the "
        "first switch and answers the second gap FETCH from a cache that "
        "missed group 4 (the FOUND line on MoqtRelay.handle_fetch in CHANGES.md)",
    )
    def test_a_second_switch_mid_recovery_recovers_the_gap(self):
        for groups in self.switch_twice():
            assert groups == [2, 3, 4, 5]

    def test_kill_with_trackless_child_relay_still_completes(self):
        # A freshly joined (lazy, track-less) relay orphaned by its parent's
        # death has no SUBSCRIBE_OK to wait for; the event must not hang on
        # it forever.
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=1)
        simulator, _, _, tree = build_scene(spec)
        idle = tree.add_relay("edge", parent=tree.tier("mid")[0])
        simulator.run(until=simulator.now + 2.0)
        event = tree.kill_relay(tree.tier("mid")[0])
        simulator.run(until=simulator.now + 3.0)
        assert idle.parent is tree.tier("mid")[1]
        assert event.complete

    def test_kill_last_leaf_records_stranded_orphans_without_raising(self):
        spec = RelayTreeSpec.cdn(mid_relays=1, edge_per_mid=1)
        simulator, _, _, tree = build_scene(spec)
        tree.attach_subscribers(2)
        subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        event = tree.kill_relay(tree.tier("edge")[0])  # must not raise
        simulator.run(until=simulator.now + 3.0)
        stranded = event.orphans("subscriber")
        assert len(stranded) == 2
        assert all(record.reattached_at is None for record in stranded)
        assert not event.complete
        assert tree.events[-1] is event

    def test_kill_with_unsubscribed_orphans_still_completes(self):
        # Subscribers whose sessions exist but hold no live subscriptions
        # re-home with nothing to restore; the failover must still read
        # complete instead of waiting on a SUBSCRIBE_OK that never comes.
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, _, tree = build_scene(spec)
        tree.attach_subscribers(4)
        simulator.run(until=simulator.now + 2.0)
        event = tree.kill_relay(tree.tier("edge")[0])
        simulator.run(until=simulator.now + 3.0)
        assert event.orphans("subscriber")
        assert event.complete

    def test_a_tier_with_no_survivor_reattaches_to_origin(self):
        # The sibling policy finds no surviving mid relay, so it falls back
        # to the dead relay's own parent: for tier 0, the origin.
        spec = RelayTreeSpec.cdn(mid_relays=1, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(4)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        push_groups(simulator, publisher, [2])
        event = tree.kill_relay(tree.tier("mid")[0])
        push_groups(simulator, publisher, [3, 4])
        simulator.run(until=simulator.now + 5.0)

        # Mid-0's edges now subscribe directly at the origin.
        assert len(event.orphans("relay")) == 2
        for record in event.orphans("relay"):
            assert record.new_parent == ORIGIN
        for index in (0, 1):
            assert tree.tier("edge")[index].relay.upstream_address.host == ORIGIN
            assert tree.tier("edge")[index].parent is None
        assert all(groups == [2, 3, 4] for groups in received.values())

    def test_kill_edge_relay_reattaches_subscribers_to_surviving_leaves(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(8)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        push_groups(simulator, publisher, [2, 3])
        edge0 = tree.tier("edge")[0]
        orphaned = [sub for sub in tree.subscribers if sub.leaf is edge0]
        event = tree.kill_relay(edge0)
        push_groups(simulator, publisher, [4, 5])
        simulator.run(until=simulator.now + 5.0)

        assert event.complete
        assert {record.name for record in event.orphans("subscriber")} == {
            sub.host.address for sub in orphaned
        }
        assert all(groups == [2, 3, 4, 5] for groups in received.values())
        for subscriber in orphaned:
            assert subscriber.leaf is not edge0 and subscriber.leaf.alive
            assert subscriber.reattach_count == 1
            assert subscriber.recovery_fetches == 1
            assert subscriber.duplicate_objects_dropped > 0, "gap FETCH overlap deduped"

    def test_reattach_latency_matches_recovery_model(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(4)
        subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        push_groups(simulator, publisher, [2])
        event = tree.kill_relay(tree.tier("mid")[1])
        simulator.run(until=simulator.now + 3.0)

        latencies = event.latencies_by_tier()["edge"]
        model = recovery_model(spec.tiers[1].uplink.delay)
        assert latencies == pytest.approx([model.reattach_latency] * len(latencies))

    def test_stats_collection_survives_churn(self):
        from repro.relaynet import RelayNetStats

        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(4)
        subscribe_recording(tree)
        simulator.run(until=simulator.now + 3.0)
        tree.kill_relay(tree.tier("mid")[0])
        push_groups(simulator, publisher, [2])
        simulator.run(until=simulator.now + 3.0)
        stats = RelayNetStats.collect(tree)
        assert stats.subscriber_objects_received >= 4


class TestPlacement:
    def test_subscribers_avoid_dead_leaves(self):
        spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
        simulator, _, _, tree = build_scene(spec)
        tree.attach_subscribers(4)
        assert [sub.leaf.index for sub in tree.subscribers] == [0, 1, 2, 3]
        tree.kill_relay(tree.tier("edge")[1])
        simulator.run(until=simulator.now + 2.0)
        more = tree.attach_subscribers(3)
        assert all(sub.leaf.index != 1 for sub in more)
        # Least-loaded: the reattached orphan made one survivor heavier.
        loads = {node.index: node.load for node in tree.tier("edge") if node.alive}
        assert max(loads.values()) - min(loads.values()) <= 1

    def test_least_loaded_placement_balances_after_join(self):
        spec = RelayTreeSpec.star(relays=2)
        _, _, _, tree = build_scene(spec)
        tree.attach_subscribers(4)
        joined = tree.add_relay(0)
        late = tree.attach_subscribers(3)
        # The empty joiner soaks up new subscribers until loads level out.
        assert [sub.leaf is joined for sub in late] == [True, True, False]


class TestRaces:
    def test_unsubscribe_during_deferred_upstream_subscribe(self):
        spec = RelayTreeSpec.star(relays=1)
        simulator, _, publisher, tree = build_scene(spec)
        (subscriber,) = tree.attach_subscribers(1)
        subscription = subscriber.session.subscribe(TRACK)
        # The unsubscribe chases the subscribe down the control stream and
        # arrives while the relay's upstream subscription is still pending.
        subscriber.session.unsubscribe(subscription)
        simulator.run(until=simulator.now + 3.0)

        relay = tree.tiers[0][0].relay
        track = relay.tracks()[TRACK]
        assert track.downstream == []
        assert track.awaiting_upstream == []
        assert track.upstream_subscription is None
        assert relay.statistics.upstream_unsubscribes == 1
        assert publisher.sessions[0].publisher_subscriptions() == []
        assert subscription.state == "done", "never resurrected by the late answer"

        # The track is retryable: a fresh subscriber re-establishes the chain.
        (fresh,) = tree.attach_subscribers(1)
        states = []
        fresh.session.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        simulator.run(until=simulator.now + 3.0)
        assert states == ["active"]
        assert relay.statistics.upstream_subscribes == 2

    def test_pending_fetch_over_dying_upstream_fails_downstream(self):
        # ROADMAP known issue: the origin host exists but nothing listens,
        # so the relay's upstream session dies after its bounded retries
        # with the forwarded FETCH still pending.  The downstream fetch must
        # complete with an error instead of hanging forever.
        simulator = Simulator(seed=19)
        network = Network(simulator)
        network.add_host(ORIGIN)
        tree = RelayTreeBuilder(network, Address(ORIGIN, ORIGIN_PORT)).build(
            RelayTreeSpec.star(relays=1)
        )
        (subscriber,) = tree.attach_subscribers(1)
        fetched = []
        subscriber.session.fetch(
            TRACK, Location(0, 0), Location(1 << 20, 0), on_complete=fetched.append
        )
        simulator.run(until=simulator.now + 120.0)

        assert fetched, "the forwarded fetch completed instead of hanging"
        assert fetched[0].state == "error"
        assert not fetched[0].succeeded

    def test_session_close_fails_its_pending_fetches(self):
        spec = RelayTreeSpec.star(relays=1)
        simulator, _, publisher, tree = build_scene(spec)
        (subscriber,) = tree.attach_subscribers(1)
        fetched = []
        subscriber.session.fetch(
            TRACK, Location(0, 0), Location(1 << 20, 0), on_complete=fetched.append
        )
        # Close before the answer can arrive: the local session must error
        # the fetch immediately.
        subscriber.session.close("going away")
        assert fetched and fetched[0].state == "error"
        simulator.run(until=simulator.now + 2.0)
        assert len(fetched) == 1, "no double completion"


class TestCloseDuringSwitchRace:
    """A session closed mid-switch must not strand or lose the recovery gap."""

    def _scene_with_inflight_recovery(self):
        """Edge-1 mid-recovery: armed buffer, gap FETCH in flight, a live
        object buffered, and a genuine gap object (group 4) only the FETCH
        can deliver."""
        from repro.netsim.link import LinkConfig

        spec = RelayTreeSpec.cdn(
            mid_relays=3, edge_per_mid=1, metro_link=LinkConfig(delay=0.080)
        )
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(3)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 5.0)
        push_groups(simulator, publisher, [2, 3])
        edge1 = tree.tier("edge")[1]
        tree.kill_relay(tree.tier("mid")[1])
        kill_at = simulator.now
        # Gap object: forwarded by the new parent before edge-1's SUBSCRIBE
        # lands, so only the recovery FETCH can deliver it.
        publisher.push(MoqtObject(group_id=4, object_id=0, payload=b"v4"))
        simulator.run(until=kill_at + 0.42)
        # Live object: arrives while the FETCH is outstanding -> buffered.
        publisher.push(MoqtObject(group_id=5, object_id=0, payload=b"v5"))
        simulator.run(until=kill_at + 0.55)
        upstream = edge1.relay.upstream_session
        assert any(f.state == "pending" for f in upstream._fetches.values()), (
            "recovery FETCH still in flight"
        )
        track = edge1.relay.tracks()[TRACK]
        assert track.held, "recovering, with a live object held back"
        return simulator, publisher, tree, edge1, received, upstream

    def test_close_then_switch_refetches_the_gap(self):
        simulator, publisher, tree, edge1, received, upstream = (
            self._scene_with_inflight_recovery()
        )
        # The race: the uplink session closes while the gap FETCH is in
        # flight.  The armed buffer must be carried, not flushed — flushing
        # would advance the dedupe high-water mark past the unrecovered gap.
        upstream.close("operator close mid-recovery")
        simulator.run(until=simulator.now + 1.0)
        edge1.relay.switch_upstream(tree.tier("mid")[2].address, on_track_reattached=lambda track: None)
        push_groups(simulator, publisher, [6])
        simulator.run(until=simulator.now + 5.0)
        behind = [sub.index for sub in tree.subscribers if sub.leaf is edge1]
        for index in behind:
            assert received[index] == [2, 3, 4, 5, 6], "gap 4 recovered after the race"

    def test_close_then_fresh_subscriber_refetches_the_gap(self):
        # Same race, but recovery is re-entered by the next downstream
        # SUBSCRIBE instead of an explicit switch: the first subscriber for
        # a track whose carried buffer is still armed must go through the
        # recovery path, not a plain re-subscribe.
        simulator, publisher, tree, edge1, received, upstream = (
            self._scene_with_inflight_recovery()
        )
        upstream.close("operator close mid-recovery")
        simulator.run(until=simulator.now + 1.0)
        track = edge1.relay.tracks()[TRACK]
        assert track.held, "held objects carried across the close"
        assert track.upstream_subscription is None
        # Re-point the uplink without recovery side effects, then let a new
        # downstream SUBSCRIBE on the same leaf re-establish the chain.
        edge1.relay.upstream_address = tree.tier("mid")[2].address
        behind = [sub for sub in tree.subscribers if sub.leaf is edge1]
        seen = []
        behind[0].session.subscribe(TRACK, on_object=lambda obj: seen.append(obj.group_id))
        push_groups(simulator, publisher, [6])
        simulator.run(until=simulator.now + 5.0)
        for subscriber in behind:
            assert received[subscriber.index] == [2, 3, 4, 5, 6], (
                "gap healed by the fresh subscribe"
            )
        assert track.held is None

    def test_subscriber_reattach_after_failed_gap_fetch_keeps_order(self):
        # Subscriber-side variant: a pending gap FETCH dies with its session
        # when the subscriber's leaf is killed again.  The buffered live
        # objects must not be released ahead of the next re-attach's FETCH,
        # or the lost gap would be skipped forever.
        from repro.netsim.link import LinkConfig

        spec = RelayTreeSpec.cdn(
            mid_relays=1, edge_per_mid=3, metro_link=LinkConfig(delay=0.010),
            access_link=LinkConfig(delay=0.080),
        )
        simulator, _, publisher, tree = build_scene(spec)
        tree.attach_subscribers(3)
        received, _ = subscribe_recording(tree)
        simulator.run(until=simulator.now + 5.0)
        push_groups(simulator, publisher, [2, 3])
        victim = tree.subscribers[0]
        first_leaf = victim.leaf
        tree.kill_relay(first_leaf)
        kill_at = simulator.now
        publisher.push(MoqtObject(group_id=4, object_id=0, payload=b"v4"))
        simulator.run(until=kill_at + 0.42)
        publisher.push(MoqtObject(group_id=5, object_id=0, payload=b"v5"))
        simulator.run(until=kill_at + 0.55)
        # Second kill while the victim's gap FETCH is still in flight.
        tree.kill_relay(victim.leaf)
        push_groups(simulator, publisher, [6])
        simulator.run(until=simulator.now + 10.0)
        assert received[victim.index] == [2, 3, 4, 5, 6], received[victim.index]


class TestInBandDetection:
    """Silent crashes recovered purely through QUIC liveness reports."""

    def _detection_scene(self):
        from repro.quic.connection import ConnectionConfig
        from repro.relaynet.topology import RelayTopology
        from repro.moqt.relay import MOQT_ALPN

        simulator = Simulator(seed=31)
        network = Network(simulator)
        publisher = build_origin(network)
        topology = RelayTopology(
            network,
            Address(ORIGIN, ORIGIN_PORT),
            RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2),
            uplink_connection=ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), keepalive_interval=0.5
            ),
            subscriber_connection=ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), idle_timeout=1.5
            ),
        )
        topology.attach_subscribers(8)
        received = {sub.index: [] for sub in topology.subscribers}
        topology.subscribe_all(
            TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
        )
        simulator.run(until=simulator.now + 1.0)
        return simulator, publisher, topology, received

    def test_crash_relay_is_silent_until_reported(self):
        simulator, publisher, topology, received = self._detection_scene()
        push_groups(simulator, publisher, [2])
        victim = topology.tier("mid")[1]
        topology.crash_relay(victim)
        assert victim.alive, "the controller does not know yet"
        assert topology.events == []
        with pytest.raises(ValueError):
            topology.crash_relay(victim)  # already crashed

    def test_mid_crash_detected_via_pto_suspect_and_recovered(self):
        simulator, publisher, topology, received = self._detection_scene()
        push_groups(simulator, publisher, [2, 3])
        victim = topology.tier("mid")[1]
        crashed_at = simulator.now
        topology.crash_relay(victim)
        push_groups(simulator, publisher, [4, 5, 6])
        simulator.run(until=simulator.now + 0.5)

        assert len(topology.events) == 1
        event = topology.events[0]
        assert event.cause == "detected"
        assert event.detected_via == "pto-suspect"
        assert event.node == victim.host.address
        assert not victim.alive
        assert event.detection_latency is not None
        assert 0 < event.detection_latency < 1.0
        assert event.complete
        assert all(groups == [2, 3, 4, 5, 6] for groups in received.values())
        orphans = {record.name for record in event.orphans("relay")}
        assert orphans == {"relay-edge-1", "relay-edge-3"}

    def test_edge_crash_detected_via_subscriber_idle_timeout(self):
        simulator, publisher, topology, received = self._detection_scene()
        push_groups(simulator, publisher, [2, 3])
        victim = topology.tier("edge")[0]
        orphaned = [sub for sub in topology.subscribers if sub.leaf is victim]
        idle_deadline = orphaned[0].session.connection.idle_deadline
        crashed_at = simulator.now
        topology.crash_relay(victim)
        push_groups(simulator, publisher, [4, 5, 6, 7, 8, 9])
        simulator.run(until=simulator.now + 0.6)

        assert len(topology.events) == 1
        event = topology.events[0]
        assert event.cause == "detected" and event.detected_via == "idle-timeout"
        assert event.detection_latency == pytest.approx(idle_deadline - crashed_at)
        assert event.complete
        for subscriber in orphaned:
            assert subscriber.leaf is not victim and subscriber.leaf.alive
            assert received[subscriber.index] == [2, 3, 4, 5, 6, 7, 8, 9]

    def test_gap_fetch_reaching_back_past_a_late_leafs_cache_is_forwarded(self):
        # An orphan re-attaches to a leaf that joined the track *after* the
        # orphan's resume point: the leaf's cache starts at group 5, the gap
        # FETCH at group 3.  Answering [5] from that cache loses group 4 for
        # good (the resume point moves past it); the leaf must forward.
        from repro.quic.connection import ConnectionConfig
        from repro.relaynet.topology import RelayTopology

        simulator = Simulator(seed=5)
        network = Network(simulator)
        publisher = build_origin(network)
        topology = RelayTopology(
            network,
            Address(ORIGIN, ORIGIN_PORT),
            RelayTreeSpec.cdn(mid_relays=1, edge_per_mid=2),
            subscriber_connection=ConnectionConfig(idle_timeout=1.5),
        )
        topology.attach_subscribers(4)
        received: dict[int, list[int]] = {}

        def record(sub, obj):
            received.setdefault(sub.index, []).append(obj.group_id)

        topology.subscribe_all(TRACK, on_object=record)
        simulator.run(until=simulator.now + 1.0)
        push_groups(simulator, publisher, [2, 3])
        topology.crash_relay(topology.tier("edge")[0])
        push_groups(simulator, publisher, [4])
        late_leaf = topology.add_relay("edge")
        (late,) = topology.attach_subscribers(1)
        assert late.leaf is late_leaf
        late.add_track(TRACK, record).subscribe(late.session)
        simulator.run(until=simulator.now + 0.5)
        push_groups(simulator, publisher, [5, 6, 7, 8], interval=0.5)
        # Shorter than the idle timeout, or healthy leaves are falsely detected.
        simulator.run(until=simulator.now + 0.4)

        assert [event.node for event in topology.events] == ["relay-edge-0"]
        assert received[late.index] == [5, 6, 7, 8], "the late leaf's cache starts at 5"
        assert topology.subscribers[0].leaf is late_leaf, "an orphan landed on it"
        for index in range(4):
            assert received[index] == [2, 3, 4, 5, 6, 7, 8], (index, received[index])
        assert late_leaf.relay.statistics.fetches_served_from_cache == 0
        assert late_leaf.relay.statistics.fetches_forwarded_upstream == 1

    def test_pending_subscribe_is_transplanted_across_a_silent_crash(self):
        # A SUBSCRIBE caught between the downstream request and the upstream
        # answer when the parent silently dies must be re-issued through the
        # new parent and answered ok — not errored back (ROADMAP follow-on).
        from repro.netsim.link import LinkConfig
        from repro.quic.connection import ConnectionConfig
        from repro.relaynet.topology import RelayTopology
        from repro.moqt.relay import MOQT_ALPN

        simulator = Simulator(seed=37)
        network = Network(simulator)
        publisher = build_origin(network)
        topology = RelayTopology(
            network,
            Address(ORIGIN, ORIGIN_PORT),
            RelayTreeSpec.cdn(
                mid_relays=2, edge_per_mid=1, metro_link=LinkConfig(delay=0.040)
            ),
            uplink_connection=ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), keepalive_interval=0.25
            ),
        )
        # Warm the uplink transports (keepalives running, RTT estimated)
        # without subscribing anything yet.
        (warm,) = topology.attach_subscribers(1)
        simulator.run(until=simulator.now + 2.0)
        # Subscribe through edge-1 and crash its parent before the deferred
        # upstream SUBSCRIBE can be answered (metro RTT is 80 ms).
        (late,) = topology.attach_subscribers(1)
        assert late.leaf.parent is topology.tier("mid")[1]
        simulator.run(until=simulator.now + 1.0)
        states = []
        late.session.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        simulator.run(until=simulator.now + 0.05)  # request reached the edge relay
        track = late.leaf.relay.tracks()[TRACK]
        assert track.awaiting_upstream, "upstream answer still outstanding"
        topology.crash_relay(late.leaf.parent)
        simulator.run(until=simulator.now + 5.0)
        assert states == ["active"], "transplanted through the new parent, not errored"
        assert len(topology.events) == 1 and topology.events[0].cause == "detected"

    def test_report_failure_is_idempotent_and_origin_orphans_are_ignored(self):
        simulator, publisher, topology, received = self._detection_scene()
        push_groups(simulator, publisher, [2])
        victim = topology.tier("mid")[1]
        topology.crash_relay(victim)
        first = topology.report_failure(victim, via="pto-suspect")
        second = topology.report_failure(victim, via="idle-timeout")
        assert first is not None and second is first
        assert first.detected_via == "pto-suspect", "first reporter wins"
        assert topology.events == [first]
        # A liveness signal from a relay hanging directly off the origin has
        # no parent to fail away from: the wired handler must no-op.
        mid0 = topology.tier("mid")[0]
        topology._on_relay_uplink_dying(mid0.relay, "pto-suspect")
        assert topology.events == [first]
        assert mid0.alive


class TestChurnExperimentAndModel:
    def test_recovery_model_closed_forms(self):
        model = recovery_model(0.010)
        assert model.rtt == pytest.approx(0.020)
        assert model.reattach_round_trips == 3
        assert model.reattach_latency == pytest.approx(0.060)
        with pytest.raises(ValueError):
            recovery_model(-1.0)

    def test_relay_churn_experiment_small(self):
        from repro.experiments.relay_churn import run_relay_churn

        result = run_relay_churn(
            subscribers=24,
            mid_relays=2,
            edge_per_mid=2,
            updates_before=2,
            updates_between=2,
            updates_after=2,
        )
        assert result.gapless
        assert result.delivered_objects == result.expected_objects == 24 * 6
        assert len(result.kills) == 2
        for kill in result.kills:
            assert kill.complete
            for row in kill.rows():
                assert row["reattach_ms_mean"] == row["model_ms"]
        assert result.recovery_fetches > 0

    @pytest.mark.slow
    def test_relay_churn_experiment_is_deterministic(self):
        from repro.experiments.relay_churn import run_relay_churn

        kwargs = dict(
            subscribers=40, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=2, updates_after=2,
        )
        first = run_relay_churn(**kwargs)
        second = run_relay_churn(**kwargs)
        assert first.summary_row() == second.summary_row()
        assert first.rows() == second.rows()
