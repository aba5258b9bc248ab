"""The shared tree scenario (``docs/scenarios.md``): what ``build_scenario``
stands up, and the moves a :class:`ScenarioRun` owns.

The six E11–E16 drivers are its clients, so their seeded pins
(``tests/test_relaynet.py``, ``test_relay_topology.py``,
``test_failure_detection.py``, ``test_origin_failover.py``,
``test_constrained_batch.py``, ``test_admission.py``) cover it end to end;
these tests hold the parts a driver cannot see — which origin was built,
where a push goes, what the score and counters read after a churn.
"""

from __future__ import annotations

import pytest

from repro.moqt.origin import OriginPublisher
from repro.netsim.trace import NullTraceRecorder
from repro.relaynet import OriginCluster, RelayTreeSpec
from repro.relaynet.scenario import (
    PAYLOAD_SIZE,
    UPDATE_INTERVAL,
    Scenario,
    build_scenario,
    update_payload,
)
from scenario_runs import scrape

SMALL = dict(mid_relays=2, edge_per_mid=2)


def test_the_origin_is_what_the_spec_declares():
    singleton = build_scenario(Scenario(spec=RelayTreeSpec.cdn(**SMALL), seed=3))
    assert isinstance(singleton.origin, OriginPublisher)
    assert singleton.topology.origin_cluster is None
    replicated = build_scenario(Scenario(spec=RelayTreeSpec.cdn(origins=3, **SMALL), seed=3))
    assert isinstance(replicated.origin, OriginCluster)
    assert len(replicated.origin.origins) == 3
    assert replicated.topology.origin_cluster is replicated.origin


def test_build_records_no_trace_and_the_scrape_reads_the_bare_tree():
    run = build_scenario(Scenario(spec=RelayTreeSpec.star(relays=1), seed=3))
    assert isinstance(run.network.trace, NullTraceRecorder)
    gauges = scrape(run)
    assert gauges["relaynet_subscribers"] == 0
    assert gauges["relaynet_relays"] == {"tier=relay": 1}


@pytest.mark.parametrize("origins", [1, 2])
def test_push_numbers_groups_from_two_an_interval_apart(origins):
    run = build_scenario(
        Scenario(spec=RelayTreeSpec.cdn(origins=origins, **SMALL), seed=3)
    )
    run.topology.attach_subscribers(4)
    run.record_deliveries()
    run.advance(1.0)
    start = run.simulator.now
    run.push(2)
    run.push(1)
    assert run.pushed == 3
    assert run.simulator.now == pytest.approx(start + 3 * UPDATE_INTERVAL)
    run.advance(1.0)
    assert run.received == {index: [2, 3, 4] for index in range(4)}
    sequences, gapless, delivered = run.delivery_score()
    assert (sequences, gapless, delivered) == (run.received, 4, 12)
    if origins > 1:
        # A replicated origin is pushed through the cluster: its replay ring
        # is the only copy of an outage window.
        ring = run.origin._replay
        assert [obj.group_id for obj in ring] == [2, 3, 4]
        assert ring[0].payload == update_payload(2) and len(ring[0].payload) == PAYLOAD_SIZE


def test_score_and_counters_after_a_leaf_kill():
    run = build_scenario(Scenario(spec=RelayTreeSpec.cdn(**SMALL), seed=5))
    run.topology.attach_subscribers(40)
    run.record_deliveries()
    run.advance(3.0)
    run.push(2)
    run.topology.kill_relay(run.topology.tier("edge")[0])
    run.push(2)
    run.advance(5.0)
    assert len(run.topology.subscribers) == 40
    sequences, gapless, delivered = run.delivery_score()
    assert (gapless, delivered) == (40, 160)
    assert sequences == run.received
    assert run.recovery_counters().subscriber_gap_fetches > 0
