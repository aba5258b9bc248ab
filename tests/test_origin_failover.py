"""Tests for E14 (replicated origin failover) and the promotion model.

Covers the failsafe origin end to end:

* the :class:`~repro.relaynet.origincluster.OriginCluster` — warm standby
  caches, the silent ``crash_active`` fault injector, deterministic
  epoch-numbered promotion, replay-ring top-up and standby re-attachment;
* :meth:`~repro.relaynet.topology.RelayTopology.report_origin_failure` —
  first-detector-wins election, idempotent and stale-epoch-safe reporting,
  tier-0 subscription transplant (including *pending* SUBSCRIBEs issued
  during the outage);
* terminal double failures — ``origins=2`` losing both origins must record
  a clean ``no-surviving-origin`` event (never hang), ``origins=3`` must
  survive two sequential origin deaths gapless at epoch 2;
* the closed-form :mod:`repro.analysis.promotion` model and the E14
  experiment's agreement with it;
* determinism canaries — configuring (but never crashing) a replicated
  origin must leave the E11/E12/E13 seeded outputs identical, and E14
  itself must be seeded-repeatable;
* quiescence — after a promotion no receiver holds anything back and no
  connection, the dead origin's included, has a packet in flight.
"""

from __future__ import annotations

import pytest

from repro.analysis.churn import recovery_model
from repro.analysis.detection import DetectionModel
from repro.analysis.promotion import ELECTION_LATENCY, promotion_model
from repro.experiments.failure_detection import run_failure_detection
from repro.experiments import origin_failover
from repro.experiments.origin_failover import run_origin_failover
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments.relay_fanout import run_relay_fanout
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST as ORIGIN, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.receiver import DEDUPE_PRUNE_THRESHOLD
from repro.moqt.relay import MOQT_ALPN
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.relaynet import (
    NoSurvivingParentError,
    OriginCluster,
    RelayTreeSpec,
)
from repro.relaynet import origincluster
from repro.relaynet.scenario import Scenario, build_scenario
from repro.relaynet.topology import RelayTopology
from scenario_runs import captured_runs, scrape


def build_cluster(origins: int = 2, seed: int = 7):
    """A bare origin cluster on a fresh network, warm after 1 s."""
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    cluster = OriginCluster(network, origins=origins)
    simulator.run(until=simulator.now + 1.0)
    return simulator, network, cluster


def push_groups(simulator, cluster: OriginCluster, groups, interval: float = 0.25):
    for group in groups:
        cluster.push(
            MoqtObject(group_id=group, object_id=0, payload=f"v{group}".encode())
        )
        simulator.run(until=simulator.now + interval)


def build_cluster_tree(origins: int = 2, seed: int = 7, mid_relays: int = 2,
                       edge_per_mid: int = 2, keepalive_interval: float = 0.5):
    """A CDN tree hanging off a replicated origin, keepalive'd uplinks."""
    run = build_scenario(
        Scenario(
            spec=RelayTreeSpec.cdn(
                mid_relays=mid_relays, edge_per_mid=edge_per_mid, origins=origins
            ),
            seed=seed,
            uplink_connection=ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), keepalive_interval=keepalive_interval
            ),
        )
    )
    return run.simulator, run.network, run.origin, run.topology


class TestPromotionModel:
    def _detection(self) -> DetectionModel:
        return DetectionModel(
            crashed_at=10.0, probe_timeout=0.1, next_send_at=10.2, idle_deadline=40.0
        )

    def test_promotion_is_detection_plus_election_plus_reattach(self):
        detection = self._detection()
        model = promotion_model(detection, link_delay=0.020)
        floor = recovery_model(0.020).reattach_latency
        assert model.detection_latency == detection.detection_latency
        assert model.path == "pto-suspect"
        assert ELECTION_LATENCY == 0.0
        assert model.reattach_latency == pytest.approx(floor)
        assert model.promotion_latency == pytest.approx(
            detection.detection_latency + floor
        )


class TestOriginCluster:
    def test_standby_caches_warm_through_live_subscription(self):
        simulator, _, cluster = build_cluster(origins=3)
        push_groups(simulator, cluster, [2, 3, 4, 5])
        marks = [origin.high_water for origin in cluster.origins]
        assert marks[0] is not None and marks[0].group_id == 5
        assert marks[1] == marks[0] and marks[2] == marks[0], (
            "every standby's cache must track the active in real time"
        )

    def test_cluster_validates_size_and_spec_does_too(self):
        simulator = Simulator(seed=3)
        network = Network(simulator)
        with pytest.raises(ValueError):
            OriginCluster(network, origins=0)
        with pytest.raises(ValueError):
            RelayTreeSpec.cdn(origins=0)

    def test_spec_declaring_a_replicated_origin_needs_the_cluster(self):
        network = Network(Simulator(seed=3))
        build_origin(network)
        with pytest.raises(ValueError, match="declares 2 origin"):
            RelayTopology(network, Address(ORIGIN, ORIGIN_PORT), RelayTreeSpec.cdn(origins=2))

    def test_cluster_larger_than_the_spec_declares_is_refused(self):
        network = Network(Simulator(seed=3))
        cluster = OriginCluster(network, origins=3)
        for declared in (1, 2):
            with pytest.raises(ValueError, match="3 built"):
                RelayTopology(
                    network,
                    Address(ORIGIN, ORIGIN_PORT),
                    RelayTreeSpec.cdn(origins=declared),
                    origin_cluster=cluster,
                )
        tree = RelayTopology(
            network,
            Address(ORIGIN, ORIGIN_PORT),
            RelayTreeSpec.cdn(origins=3),
            origin_cluster=cluster,
        )
        assert tree.origin_cluster is cluster

    def test_crash_active_is_silent_and_single_shot(self):
        simulator, _, cluster = build_cluster(origins=2)
        push_groups(simulator, cluster, [2, 3])
        crashed = cluster.crash_active()
        assert crashed.crashed_at == simulator.now
        assert cluster.epoch == 0 and cluster.active is crashed, (
            "a silent crash must not promote by itself — only a detection "
            "report may"
        )
        # Nothing the dead origin hosted speaks again.
        simulator.run(until=simulator.now + 2.0)
        assert all(session.closed for session in crashed.publisher.sessions)
        with pytest.raises(ValueError):
            cluster.crash_active()

    def test_promote_elects_lowest_index_and_reattaches_survivors(self):
        simulator, _, cluster = build_cluster(origins=3)
        push_groups(simulator, cluster, [2, 3])
        cluster.crash_active()
        promotion = cluster.promote(via="test")
        assert promotion is not None and promotion.epoch == cluster.epoch == 1
        assert cluster.active is cluster.origins[1], "lowest surviving index wins"
        assert cluster.origins[0].role == "deposed"
        # The remaining standby re-subscribes to the new active: a push now
        # reaches both survivors.
        simulator.run(until=simulator.now + 1.0)
        push_groups(simulator, cluster, [4])
        assert cluster.origins[1].high_water.group_id == 4
        assert cluster.origins[2].high_water.group_id == 4

    def test_promote_with_no_survivors_returns_none(self):
        simulator, _, cluster = build_cluster(origins=2)
        cluster.crash_active()
        first = cluster.promote(via="test")
        assert first is not None and first.epoch == 1
        cluster.crash_active()
        assert cluster.promote(via="test") is None
        assert cluster.epoch == 1, "a failed election must not burn an epoch"

    def test_a_singleton_origin_has_nothing_to_promote(self):
        simulator, _, cluster = build_cluster(origins=1)
        assert cluster.standbys() == []
        victim = cluster.crash_active()
        assert cluster.promote(via="test") is None
        assert cluster.epoch == 0 and cluster.promotions == []
        assert cluster.active is victim and victim.role == "deposed"

    def test_replay_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(origincluster, "DEFAULT_REPLAY_WINDOW", 4)
        simulator, network, _ = build_cluster(origins=1)
        cluster = OriginCluster(network, origins=1, host="o2", port=4553)
        simulator.run(until=simulator.now + 1.0)
        push_groups(simulator, cluster, range(2, 12), interval=0.01)
        assert len(cluster._replay) == 4
        assert [obj.group_id for obj in cluster._replay] == [8, 9, 10, 11]


class TestOriginFailureReporting:
    def subscribe_population(self, simulator, topology, count=8):
        topology.attach_subscribers(count)
        received = {sub.index: [] for sub in topology.subscribers}
        topology.subscribe_all(
            TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
        )
        simulator.run(until=simulator.now + 1.0)
        return received

    def test_report_promotes_and_transplants_every_tier0_uplink(self):
        simulator, _, cluster, topology = build_cluster_tree(origins=2)
        self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2, 3])
        victim = cluster.crash_active()
        simulator.run(until=simulator.now + 0.05)
        reporter = topology.tiers[0][0]
        event = topology.report_origin_failure(reporter, via="pto-suspect")
        assert event is not None and event.cause == "detected"
        assert event.tier == "origin" and event.epoch == 1
        assert victim.failure_event is event
        assert topology.origin == cluster.address == cluster.active.address
        simulator.run(until=simulator.now + 1.0)
        for node in topology.tiers[0]:
            assert node.relay.upstream_address == cluster.active.address
        assert event.complete, "every tier-0 relay re-subscribed"

    def test_reports_are_idempotent_and_stale_epoch_safe(self):
        from types import SimpleNamespace

        simulator, _, cluster, topology = build_cluster_tree(origins=2)
        self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2])
        old_address = cluster.active.address
        cluster.crash_active()
        simulator.run(until=simulator.now + 0.05)
        first = topology.report_origin_failure(topology.tiers[0][0], via="pto-suspect")
        # A straggling detector whose signal raced the transplant still
        # names the *deposed* origin through its (old) uplink address: the
        # stale report hands back the recorded event, burns no epoch.
        straggler = SimpleNamespace(relay=SimpleNamespace(upstream_address=old_address))
        second = topology.report_origin_failure(straggler, via="pto-suspect")
        assert second is first
        assert cluster.epoch == 1 and len(cluster.promotions) == 1
        # A reporter pointing at an address that is no origin at all is a
        # no-op (e.g. a report that raced a relay-tier re-parent).
        nobody = SimpleNamespace(
            relay=SimpleNamespace(upstream_address=Address("relay-mid-0", 4443))
        )
        assert topology.report_origin_failure(nobody) is None

    def test_simultaneous_detectors_elect_exactly_once(self):
        # Both tier-0 uplinks share a keepalive schedule, so their liveness
        # signals fire at the same virtual instant; the first runs the
        # election and transplants everyone, the second is filtered at the
        # relay layer (its session is no longer the current uplink).
        simulator, _, cluster, topology = build_cluster_tree(origins=2)
        self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2])
        cluster.crash_active()
        simulator.run(until=simulator.now + 2.0)
        assert cluster.epoch == 1
        assert len(cluster.promotions) == 1
        origin_events = [e for e in topology.events if e.tier == "origin"]
        assert len(origin_events) == 1

    def test_in_band_detection_drives_the_promotion_end_to_end(self):
        simulator, _, cluster, topology = build_cluster_tree(origins=2)
        received = self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2, 3])
        cluster.crash_active()
        # No report call here: the tier-0 keepalive'd uplinks must notice on
        # their own and promote.
        simulator.run(until=simulator.now + 2.0)
        assert cluster.epoch == 1
        assert topology.events and topology.events[0].detected_via == "pto-suspect"
        push_groups(simulator, cluster, [4, 5])
        simulator.run(until=simulator.now + 1.0)
        assert all(groups == [2, 3, 4, 5] for groups in received.values())

    def test_pending_subscribe_issued_during_outage_is_transplanted(self):
        # Satellite: a tier-0 SUBSCRIBE that is *in flight toward the dead
        # active* when the promotion runs must complete against the promoted
        # standby, not wedge forever.
        simulator, _, cluster, topology = build_cluster_tree(origins=2)
        received = self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2, 3])
        cluster.crash_active()
        # Grow the tree mid-outage: a fresh mid (tier 0) with a fresh edge
        # below it, and a late subscriber whose SUBSCRIBE aggregates up the
        # new chain — the new mid's upstream SUBSCRIBE can only ever target
        # the dead active until the promotion transplants it.
        new_mid = topology.add_relay("mid")
        new_edge = topology.add_relay("edge", parent=new_mid)
        late = topology.attach_subscribers(1)[0]
        assert late.leaf is new_edge, "fresh edge is the least-loaded leaf"
        late_groups: list[int] = []
        topology.subscribe_all(
            TRACK,
            on_object=lambda sub, obj: late_groups.append(obj.group_id),
            subscribers=[late],
        )
        simulator.run(until=simulator.now + 2.0)
        assert cluster.epoch == 1
        assert new_mid.relay.upstream_address == cluster.active.address
        push_groups(simulator, cluster, [4, 5])
        simulator.run(until=simulator.now + 1.0)
        assert late_groups[-2:] == [4, 5], (
            "the mid-outage SUBSCRIBE must go live through the promoted origin"
        )
        expected = [2, 3, 4, 5]
        assert all(groups == expected for groups in received.values())

    def test_double_failure_with_two_origins_is_a_clean_terminal_event(self):
        simulator, _, cluster, topology = build_cluster_tree(origins=2)
        self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2, 3])
        cluster.crash_active()
        simulator.run(until=simulator.now + 2.0)
        assert cluster.epoch == 1
        survivor = cluster.active
        cluster.crash_active()
        # The in-band handlers swallow the terminal error — the event loop
        # must keep running (this run hanging or raising is the regression).
        simulator.run(until=simulator.now + 3.0)
        event = survivor.failure_event
        assert event is not None and event.error == "no-surviving-origin"
        assert event.epoch is None and cluster.epoch == 1
        stranded = event.orphans("relay")
        assert stranded and all(record.new_parent == "" for record in stranded)
        # A direct report of the same death is idempotent, not a re-raise.
        assert topology.report_origin_failure(topology.tiers[0][0]) is event

    def test_direct_report_of_terminal_death_raises_after_recording(self):
        simulator, _, cluster, topology = build_cluster_tree(origins=2)
        self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2])
        cluster.crash_active()
        simulator.run(until=simulator.now + 2.0)
        survivor = cluster.active
        cluster.crash_active()
        with pytest.raises(NoSurvivingParentError) as excinfo:
            topology.report_origin_failure(topology.tiers[0][0], via="pto-suspect")
        assert excinfo.value.event is survivor.failure_event
        assert excinfo.value.event.error == "no-surviving-origin"

    def test_three_origins_survive_two_sequential_deaths_gapless(self):
        simulator, _, cluster, topology = build_cluster_tree(origins=3)
        received = self.subscribe_population(simulator, topology)
        push_groups(simulator, cluster, [2, 3])
        cluster.crash_active()
        simulator.run(until=simulator.now + 2.0)
        assert cluster.epoch == 1
        push_groups(simulator, cluster, [4, 5])
        cluster.crash_active()
        simulator.run(until=simulator.now + 2.0)
        assert cluster.epoch == 2
        assert cluster.active is cluster.origins[2]
        push_groups(simulator, cluster, [6, 7])
        simulator.run(until=simulator.now + 1.0)
        expected = [2, 3, 4, 5, 6, 7]
        assert all(groups == expected for groups in received.values()), (
            "two origin deaths, zero gaps"
        )


class TestOriginFailoverExperiment:
    def test_small_run_promotes_gapless_and_matches_the_model(self):
        result = run_origin_failover(
            subscribers=24, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=4, updates_after=4,
        )
        assert result.control_plane_kills == 0
        assert result.false_positive_events == 0
        assert result.gapless
        assert result.delivered_objects == result.expected_objects == 24 * 10
        assert result.epoch == 1 and result.promotions == 1
        assert result.event is not None and result.event.epoch == 1
        assert result.detected_via == "pto-suspect"
        assert result.detection_model_ok, (
            result.detection_latency, result.model.detection_latency,
        )
        assert result.promotion_model_ok, (
            result.promotion_latency, result.model.promotion_latency,
        )
        assert result.reattached_relays == 2
        assert result.replayed_objects > 0, (
            "outage-window objects exist only in the replay ring"
        )

    def test_seeded_runs_are_bit_identical(self):
        first = run_origin_failover(
            subscribers=16, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=3, updates_after=3,
        )
        second = run_origin_failover(
            subscribers=16, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=3, updates_after=3,
        )
        assert first.delivery_sequences == second.delivery_sequences
        assert first.detection_latency == second.detection_latency
        assert first.promotion_latency == second.promotion_latency
        assert first.rows() == second.rows()

    def test_rows_and_summary_are_reportable(self):
        result = run_origin_failover(
            subscribers=12, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=3, updates_after=3,
        )
        rows = result.rows()
        assert [row["phase"] for row in rows] == [
            "detect", "elect", "reattach", "promotion",
        ]
        for row in rows:
            assert row["measured_ms"] == row["model_ms"]
        summary = result.summary_row()
        assert summary["epoch"] == 1 and summary["control_plane_kills"] == 0
        assert summary["detection_ok"] and summary["promotion_ok"]


class TestReplicationDeterminismCanary:
    """An idle standby must be invisible to every seeded measurement."""

    def test_e11_fanout_outputs_identical_with_idle_standby(self):
        kwargs = dict(subscriber_counts=(10, 40), updates=3,
                      mid_relays=2, edge_per_mid=2)
        singleton = run_relay_fanout(**kwargs)
        replicated = run_relay_fanout(origins=2, **kwargs)

        def tree_rows(result):
            # origin_objects legitimately grows with a standby (the warm
            # subscription is one more publisher-side copy); every number
            # measured on the *tree* must be byte-identical.
            return [
                {k: v for k, v in row.items() if k != "origin_objects"}
                for row in result.rows()
            ]

        assert tree_rows(singleton) == tree_rows(replicated), (
            "tier traffic tables must be byte-identical: standby traffic "
            "rides the origin mesh, never the tree"
        )

    def test_e12_churn_outputs_identical_with_idle_standby(self):
        kwargs = dict(subscribers=24, mid_relays=2, edge_per_mid=2,
                      updates_before=2, updates_between=2, updates_after=2)
        singleton = run_relay_churn(**kwargs)
        replicated = run_relay_churn(origins=2, **kwargs)
        assert singleton.delivered_objects == replicated.delivered_objects
        assert singleton.gapless_subscribers == replicated.gapless_subscribers
        assert [k.latencies_by_tier for k in singleton.kills] == [
            k.latencies_by_tier for k in replicated.kills
        ]

    def test_e13_detection_outputs_identical_with_idle_standby(self):
        kwargs = dict(subscribers=24, mid_relays=2, edge_per_mid=2,
                      updates_before=2, updates_between=4, updates_after=4)
        singleton = run_failure_detection(**kwargs)
        replicated = run_failure_detection(origins=2, **kwargs)
        assert singleton.delivery_sequences == replicated.delivery_sequences
        assert [s.detection_latency for s in singleton.samples] == [
            s.detection_latency for s in replicated.samples
        ]
        assert [s.model_detection_latency for s in singleton.samples] == [
            s.model_detection_latency for s in replicated.samples
        ]


class TestQuiescence:
    def test_the_promoted_run_quiesces(self, monkeypatch):
        runs = captured_runs(monkeypatch, origin_failover)
        result = run_origin_failover(
            subscribers=12, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=3, updates_after=3,
        )
        (run,) = runs
        assert run.origin.epoch == 1 and len(run.origin.promotions) == 1
        assert result.replayed_objects == run.origin.promotions[0].replayed_objects
        # No receiver still holds objects back, windows bounded.
        snapshot = scrape(run)
        assert snapshot["relaynet_recovery_buffered"] == 0
        assert 0 < snapshot["relaynet_dedupe_window"] <= DEDUPE_PRUNE_THRESHOLD
        assert set(snapshot["quic_inflight_packets"].values()) == {0}
        assert set(snapshot["quic_bytes_in_flight"].values()) == {0}
        # The origins' connections, the dead origin's included: a closed
        # connection keeps no in-flight record.
        connections = [
            session.connection
            for origin in run.origin.origins
            for session in [*origin.publisher.sessions, origin.uplink_session]
            if session is not None
        ]
        assert connections
        assert {connection.unacked_packets for connection in connections} == {0}
        assert {connection.congestion.bytes_in_flight for connection in connections} == {0}
