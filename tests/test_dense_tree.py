"""The dense relay tree at the experiments' default scale, pinned.

Every tree subscriber is a real one: its own host, access link and QUIC
session.  These tests hold what that buys at 1,000 subscribers, the size the
E11–E14 drivers run by default:

* E11's tier byte table and the end-of-run gauge scrape read the counts as-is;
* attaching places one subscriber per host, spread evenly over the leaves;
* a leaf crash or a graceful leaf leave re-homes exactly that leaf's
  subscribers, on the closed-form re-attach latency, with every subscriber's
  delivery sequence intact;
* the default E12 (churn), E13 (failure detection) and E14 (origin failover)
  runs are gapless, and their recovery counters are pinned.

The pinned values are the seeded runs' exact outputs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.churn import recovery_model
from repro.experiments.failure_detection import run_failure_detection
from repro.experiments.origin_failover import run_origin_failover
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments import relay_fanout
from repro.experiments.relay_fanout import run_relay_fanout
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import TRACK
from repro.relaynet import RelayTreeSpec
from repro.relaynet.scenario import (
    UPDATE_INTERVAL,
    Scenario,
    build_scenario,
    update_payload,
)
from scenario_runs import captured_runs, scrape

SUBSCRIBERS = 1000
UPDATES = 5


# --------------------------------------------------------------------- E11
def test_dense_thousand_subscriber_tree_is_pinned():
    (sample,) = run_relay_fanout(subscriber_counts=(SUBSCRIBERS,), updates=UPDATES).samples
    assert sample.measured_tier_bytes == (6560, 26240, 1_640_000)
    assert sample.measured_tier_objects == (20, 80, SUBSCRIBERS * UPDATES)
    assert sample.origin_egress_bytes == 6560
    assert sample.measured_origin_objects == 20
    assert sample.delivered_objects == SUBSCRIBERS * UPDATES
    assert sample.measured_tier_bytes == tuple(round(b) for b in sample.model.tier_bytes())


def test_fanout_gauges_read_the_dense_counts(monkeypatch):
    runs = captured_runs(monkeypatch, relay_fanout)
    (sample,) = run_relay_fanout(subscriber_counts=(SUBSCRIBERS,), updates=UPDATES).samples
    gauges = scrape(runs[-1])
    assert gauges["relaynet_subscribers"] == SUBSCRIBERS
    assert gauges["relaynet_subscriber_objects_delivered"] == sample.delivered_objects
    assert gauges["relaynet_relays"] == {"tier=mid": 4, "tier=edge": 16}
    assert gauges["relaynet_objects_received"]["tier=mid"] == sample.measured_tier_objects[0]
    assert gauges["relaynet_objects_received"]["tier=edge"] == sample.measured_tier_objects[1]
    assert gauges["relaynet_objects_forwarded"]["tier=edge"] == sample.measured_tier_objects[2]
    assert gauges["quic_stream_states"]["role=subscriber"] == SUBSCRIBERS
    # What the subscribers' sessions received is what their links delivered.
    assert gauges["quic_bytes_received"]["role=subscriber"] == gauges["relaynet_subscriber_link_bytes"]
    assert gauges["net_bytes_sent"] == gauges["net_bytes_delivered"]
    assert gauges["net_datagrams_dropped"] == 0


# ---------------------------------------------------------- topology layer
def _tree(seed=23):
    run = build_scenario(
        Scenario(spec=RelayTreeSpec.cdn(mid_relays=4, edge_per_mid=4), seed=seed)
    )
    run.topology.attach_subscribers(SUBSCRIBERS)
    return run.simulator, run.origin, run.topology


def _subscribe_and_push(simulator, publisher, tree, groups):
    received: dict[int, list[int]] = {sub.index: [] for sub in tree.subscribers}
    tree.subscribe_all(
        TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
    )
    simulator.run(until=simulator.now + 3.0)
    _push(simulator, publisher, groups)
    return received


def _push(simulator, publisher, groups):
    for group_id in groups:
        publisher.push(
            MoqtObject(group_id=group_id, object_id=0, payload=update_payload(group_id))
        )
        simulator.run(until=simulator.now + UPDATE_INTERVAL)


def test_every_attached_subscriber_is_its_own_host():
    _, _, tree = _tree()
    assert [sub.index for sub in tree.subscribers] == list(range(SUBSCRIBERS))
    assert len({sub.host.address for sub in tree.subscribers}) == SUBSCRIBERS
    assert all(sub.session is not None for sub in tree.subscribers)
    assert len({id(sub.session) for sub in tree.subscribers}) == SUBSCRIBERS
    # Round-robin over 16 leaves: 1000 = 8 × 63 + 8 × 62.
    per_leaf = Counter(sub.leaf.host.address for sub in tree.subscribers)
    assert len(per_leaf) == 16
    assert sorted(Counter(per_leaf.values()).items()) == [(62, 8), (63, 8)]


def test_leaf_kill_rehomes_exactly_the_dead_leafs_subscribers():
    simulator, publisher, tree = _tree()
    received = _subscribe_and_push(simulator, publisher, tree, (2, 3, 4))
    victim = tree.tier("edge")[0]
    orphans = {sub.index for sub in tree.subscribers if sub.leaf is victim}
    assert len(orphans) == 63
    event = tree.kill_relay(victim)
    _push(simulator, publisher, (5, 6))
    simulator.run(until=simulator.now + 5.0)

    assert event.complete
    assert {sub.index for sub in tree.subscribers if sub.reattach_count} == orphans
    assert all(sub.reattach_count <= 1 for sub in tree.subscribers)
    assert not any(sub.leaf is victim for sub in tree.subscribers)
    assert len(tree.subscribers) == SUBSCRIBERS
    # Gapless, in order, duplicate-free for the whole population.
    assert all(groups == [2, 3, 4, 5, 6] for groups in received.values())
    # Each orphan re-attached on the closed form: three round trips on its
    # access link.
    model = recovery_model(tree.spec.subscriber_link.delay)
    latencies = event.latencies_by_tier()["subscribers"]
    assert len(latencies) == len(orphans)
    assert all(latency == pytest.approx(model.reattach_latency) for latency in latencies)


def test_graceful_leaf_leave_keeps_each_moved_sequence_exact():
    simulator, publisher, tree = _tree()
    received = _subscribe_and_push(simulator, publisher, tree, (2, 3))
    leaving = tree.tier("edge")[5]
    moved = {sub.index for sub in tree.subscribers if sub.leaf is leaving}
    assert moved
    event = tree.remove_relay(leaving)
    _push(simulator, publisher, (4, 5))
    simulator.run(until=simulator.now + 3.0)

    assert event.cause == "leave" and event.complete
    assert {sub.index for sub in tree.subscribers if sub.reattach_count} == moved
    assert all(sub.leaf.alive for sub in tree.subscribers)
    # A moved subscriber saw its pre-move history plus everything after,
    # over its new session, without a duplicate reaching the application.
    assert all(groups == [2, 3, 4, 5] for groups in received.values())
    assert sum(sub.objects_delivered for sub in tree.subscribers) == SUBSCRIBERS * 4


# ---------------------------------------------------------------- E12/13/14
def test_default_churn_run_is_pinned():
    result = run_relay_churn()
    assert result.subscribers == SUBSCRIBERS and result.updates == 12
    assert result.gapless
    assert result.delivered_objects == result.expected_objects == SUBSCRIBERS * 12
    assert [(kill.killed, kill.orphan_relays, kill.orphan_subscribers) for kill in result.kills] == [
        ("relay-mid-2", 4, 0),
        ("relay-edge-0", 0, 63),
    ]
    for kill in result.kills:
        assert kill.complete
        for row in kill.rows():
            assert row["reattach_ms_mean"] == row["model_ms"]
    assert (
        result.relay_duplicates_dropped,
        result.subscriber_duplicates_dropped,
        result.recovery_fetches,
        result.recovered_objects,
        result.subscriber_gap_fetches,
    ) == (4, 126, 4, 4, 63)


def test_default_failure_detection_run_is_pinned():
    result = run_failure_detection()
    assert result.subscribers == SUBSCRIBERS and result.updates == 16
    assert result.gapless
    assert result.delivered_objects == result.expected_objects == SUBSCRIBERS * 16
    assert [(sample.killed, sample.detected_via) for sample in result.samples] == [
        ("relay-mid-2", "pto-suspect"),
        ("relay-edge-0", "idle-timeout"),
    ]
    assert [sample.orphan_subscribers for sample in result.samples] == [0, 63]
    assert all(sample.complete for sample in result.samples)
    assert result.detection_model_ok and result.reattach_model_ok
    assert (
        result.relay_duplicates_dropped,
        result.subscriber_duplicates_dropped,
        result.recovery_fetches,
        result.recovered_objects,
        result.subscriber_gap_fetches,
        result.uplink_failures_detected,
    ) == (4, 63, 4, 12, 63, 1)
    assert result.false_positive_events == result.control_plane_kills == 0


def test_default_origin_failover_run_is_pinned():
    result = run_origin_failover()
    assert result.subscribers == SUBSCRIBERS and result.updates == 16
    assert result.gapless
    assert result.delivered_objects == result.expected_objects == SUBSCRIBERS * 16
    assert result.epoch == result.promotions == 1
    assert result.event is not None and result.event.complete
    assert result.detected_via == "pto-suspect"
    assert result.detection_model_ok and result.promotion_model_ok
    assert result.reattached_relays == 4
    assert (
        result.replayed_objects,
        result.duplicates_dropped,
        result.recovery_fetches,
        result.recovered_objects,
    ) == (3, 4, 4, 12)
    assert result.false_positive_events == result.control_plane_kills == 0
