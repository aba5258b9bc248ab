"""A subscription's ``on_response`` is one-shot: the session drops it before calling it.

A SUBSCRIBE is answered once, by SUBSCRIBE_OK or SUBSCRIBE_ERROR.  A hook kept
after the answer keeps whatever it closes over alive for the subscription's
whole life: a tree subscriber re-subscribed after a failover would hold its
``FailoverEvent`` and ``FailoverRecord`` through the topology's answer hook,
and a relay its waiters through the upstream one.
"""

from __future__ import annotations

from repro.moqt.origin import TRACK as TREE_TRACK
from repro.relaynet import RelayTreeSpec
from repro.relaynet.scenario import Scenario, build_scenario

from test_moqt_session import TRACK, RecordingPublisher, _build


def test_subscribe_ok_drops_the_hook_before_calling_it():
    simulator, session, _, _ = _build()
    seen = []
    subscription = session.subscribe(
        TRACK, on_response=lambda s: seen.append((s.state, s.on_response))
    )
    simulator.run(until=2.0)
    assert seen == [("active", None)]
    assert subscription.on_response is None


def test_subscribe_error_drops_the_hook_before_calling_it():
    delegate = RecordingPublisher()
    delegate.accept = False
    simulator, session, _, _ = _build(publisher_delegate=delegate)
    seen = []
    subscription = session.subscribe(
        TRACK, on_response=lambda s: seen.append((s.state, s.on_response))
    )
    simulator.run(until=2.0)
    assert seen == [("error", None)]
    assert subscription.on_response is None


def test_a_failover_resubscribe_keeps_no_hook_once_answered():
    run = build_scenario(
        Scenario(spec=RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2), seed=5)
    )
    simulator, tree = run.simulator, run.topology
    tree.attach_subscribers(8)
    tree.subscribe_all(TREE_TRACK, on_object=lambda subscriber, obj: None)
    simulator.run(until=simulator.now + 3.0)
    edge = tree.tier("edge")[0]
    orphaned = [subscriber for subscriber in tree.subscribers if subscriber.leaf is edge]
    # A dead mid relay re-points edges (the relay's upstream hook); a dead
    # edge moves subscribers (the topology's answer hook, wrapped by the
    # receiver's gap-FETCH hook).
    mid_event = tree.kill_relay(tree.tier("mid")[1])
    edge_event = tree.kill_relay(edge)
    simulator.run(until=simulator.now + 5.0)
    assert mid_event.complete and edge_event.complete
    assert orphaned and all(subscriber.reattach_count == 1 for subscriber in orphaned)
    for subscriber in tree.subscribers:
        subscription = subscriber.tracks[0].subscription
        assert subscription.is_active and subscription.on_response is None
    relays = [node.relay for tier in tree.tiers for node in tier if node.alive]
    switched = [relay for relay in relays if relay.statistics.upstream_switches]
    assert switched, "the mid relay's death re-pointed at least one edge"
    for relay in switched:
        for subscription in relay.upstream_session.subscriptions():
            assert subscription.is_active and subscription.on_response is None
