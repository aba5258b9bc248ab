"""Tests for flash-crowd admission control: policies, the token bucket,
the relay gate, storm retries/spillover, the closed-form model and the
default-off determinism guarantee (E16)."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.admission import AdmissionModel, percentile
from repro.relaynet.admission import retry_after_to_ms
from repro.experiments import flash_crowd
from repro.experiments.flash_crowd import run_flash_crowd
from repro.moqt.errors import AdmissionRejectedError, SubscribeErrorCode
from repro.moqt.messages import Subscribe
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import TRACK
from repro.moqt.relay import MoqtRelay
from repro.netsim.link import LinkConfig
from repro.quic.connection import ConnectionConfig
from repro.relaynet import (
    AdmissionController,
    AdmissionPolicy,
    RelayTreeSpec,
)
from repro.relaynet import topology as topology_module
from repro.relaynet.scenario import Scenario, build_scenario
from scenario_runs import captured_runs, scrape


def build_tree(seed=11, relays=1, admission=None, prewarm=0, settle=3.0):
    """Origin + star tree, optionally pre-warmed with settled subscribers."""
    run = build_scenario(
        Scenario(spec=RelayTreeSpec.star(relays=relays), seed=seed, admission=admission)
    )
    tree = run.topology
    if prewarm:
        tree.attach_subscribers(prewarm)
        tree.subscribe_all(TRACK)
    run.advance(settle)
    return run.simulator, run.origin, tree


class TestPolicyValidation:
    def test_admission_policy_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(subscribe_rate=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(subscribe_rate=-5.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(bucket_depth=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_pending_subscribes=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(queue_retry_after=0.0)

    def test_unlimited_policy_needs_no_controller(self):
        assert not AdmissionPolicy().limited
        assert AdmissionPolicy(subscribe_rate=10.0).limited
        assert AdmissionPolicy(max_pending_subscribes=5).limited
        with pytest.raises(ValueError):
            AdmissionController(AdmissionPolicy())

    def test_model_preconditions(self):
        limited = AdmissionPolicy(subscribe_rate=10.0)
        with pytest.raises(ValueError):
            AdmissionModel(count=0, window=1.0, start=0.0, policy=limited, link_delay=0.005)
        with pytest.raises(ValueError):
            AdmissionModel(count=1, window=1.0, start=0.0, policy=AdmissionPolicy(), link_delay=0.005)

    def test_retry_after_to_ms_rounds_up_and_floors_at_one(self):
        assert retry_after_to_ms(0.0001) == 1
        assert retry_after_to_ms(0.05) == 50
        assert retry_after_to_ms(0.0501) == 51

    def test_percentile_nearest_rank(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([1.0], 0.99) == 1.0
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)


class TestTokenBucket:
    def test_burst_admits_exactly_bucket_depth(self):
        controller = AdmissionController(AdmissionPolicy(subscribe_rate=100.0, bucket_depth=5))
        verdicts = [controller.decide(f"s{i}", 0.0, 0).admitted for i in range(6)]
        assert verdicts == [True] * 5 + [False]

    def test_rejections_get_exact_consecutive_slots(self):
        controller = AdmissionController(AdmissionPolicy(subscribe_rate=10.0, bucket_depth=2))
        assert controller.decide("a", 0.0, 0).admitted
        assert controller.decide("b", 0.0, 0).admitted
        first = controller.decide("c", 0.0, 0)
        second = controller.decide("d", 0.0, 0)
        assert not first.admitted and first.cause == "rate"
        assert first.retry_after == 0.1 and second.retry_after == 0.2
        assert first.retry_after_ms == 100 and second.retry_after_ms == 200
        assert controller.outstanding_reservations == 2

    def test_reservation_honored_on_retry(self):
        controller = AdmissionController(AdmissionPolicy(subscribe_rate=10.0, bucket_depth=1))
        assert controller.decide("a", 0.0, 0).admitted
        rejected = controller.decide("b", 0.0, 0)
        assert not rejected.admitted
        retry = controller.decide("b", 0.0 + rejected.retry_after, 0)
        assert retry.admitted
        assert controller.outstanding_reservations == 0

    def test_early_retry_restates_remaining_wait(self):
        controller = AdmissionController(AdmissionPolicy(subscribe_rate=10.0, bucket_depth=1))
        controller.decide("a", 0.0, 0)
        rejected = controller.decide("b", 0.0, 0)
        early = controller.decide("b", 0.04, 0)
        assert not early.admitted
        assert early.retry_after == pytest.approx(rejected.retry_after - 0.04)
        # The reservation survives the impatient retry.
        assert controller.decide("b", rejected.retry_after, 0).admitted

    def test_forget_drops_reservation(self):
        controller = AdmissionController(AdmissionPolicy(subscribe_rate=10.0, bucket_depth=1))
        controller.decide("a", 0.0, 0)
        controller.decide("b", 0.0, 0)
        assert controller.outstanding_reservations == 1
        controller.forget("b")
        assert controller.outstanding_reservations == 0

    def test_idle_refill_restores_full_burst(self):
        controller = AdmissionController(AdmissionPolicy(subscribe_rate=10.0, bucket_depth=3))
        for name in ("a", "b", "c"):
            assert controller.decide(name, 0.0, 0).admitted
        assert not controller.decide("d", 0.0, 0).admitted
        # After the bucket fully refills, a fresh burst of 3 fits again.
        later = 1.0
        for name in ("e", "f", "g"):
            assert controller.decide(name, later, 0).admitted
        assert not controller.decide("h", later, 0).admitted

    def test_saturated_is_a_pure_peek(self):
        controller = AdmissionController(AdmissionPolicy(subscribe_rate=10.0, bucket_depth=1))
        assert not controller.saturated(0.0, 0)
        assert controller.decide("a", 0.0, 0).admitted
        assert controller.saturated(0.01, 0)
        assert controller.outstanding_reservations == 0
        # The peek consumed nothing: the token freed at 0.1 is still there.
        assert not controller.saturated(0.1, 0)
        assert controller.decide("b", 0.1, 0).admitted

    def test_queue_bound_rejects_with_policy_quantum(self):
        policy = AdmissionPolicy(max_pending_subscribes=2, queue_retry_after=0.07)
        controller = AdmissionController(policy)
        assert controller.decide("a", 0.0, 1).admitted
        rejected = controller.decide("b", 0.0, 2)
        assert not rejected.admitted and rejected.cause == "queue"
        assert rejected.retry_after == 0.07
        assert controller.saturated(0.0, 2)

    @given(
        rate=st.floats(min_value=0.5, max_value=500.0),
        depth=st.integers(1, 4),
        arrivals=st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 2.0), st.integers(0, 3)),
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_rejection_carries_a_hint(self, rate, depth, arrivals):
        # A busy relay always says when to come back: rate and queue
        # rejections, and an impatient retry's restated wait, carry a
        # positive retry-after of at least 1 ms on the wire, rounded up.
        policy = AdmissionPolicy(
            subscribe_rate=rate, bucket_depth=depth,
            max_pending_subscribes=3, queue_retry_after=0.05,
        )
        controller = AdmissionController(policy)
        now = 0.0
        for session, gap, pending in arrivals:
            now += gap
            decision = controller.decide(session, now, pending)
            if decision.admitted:
                assert decision.retry_after == 0.0 and decision.retry_after_ms == 0
                continue
            assert decision.retry_after > 0.0
            assert decision.retry_after_ms >= 1
            assert decision.retry_after_ms / 1000.0 >= decision.retry_after


class TestRelayGate:
    def test_rejected_subscribe_leaves_no_dangling_state(self):
        # One pre-warmed subscriber holds the only token; the second
        # SUBSCRIBE must bounce without registering anything on the relay.
        policy = AdmissionPolicy(subscribe_rate=0.1, bucket_depth=1)
        simulator, _, tree = build_tree(admission=policy, prewarm=1)
        relay = tree.leaves()[0].relay
        assert relay.statistics.admission_rejections == 0
        late = tree.attach_subscribers(1)[0]
        responses = []
        late.session.subscribe(TRACK, on_response=responses.append)
        simulator.run(until=simulator.now + 2.0)
        (subscription,) = responses
        assert subscription.state == "error"
        assert subscription.error_code == SubscribeErrorCode.TOO_MANY_SUBSCRIBERS
        assert "admission" in subscription.error_reason
        assert subscription.retry_after_ms > 0
        assert relay.statistics.admission_rejections == 1
        # No dangling relay-side state: one downstream subscriber (the
        # pre-warmed one), from one session, nothing awaiting upstream.
        tracks = relay.tracks().values()
        assert sum(len(track.downstream) for track in tracks) == 1
        assert len({sub.session for track in tracks for sub in track.downstream}) == 1
        assert relay.pending_subscribe_count() == 0
        # No dangling client-side state either.
        assert not late.session._pending_incoming_subscribes
        assert subscription.request_id not in late.session._subscriptions

    def test_an_urgent_subscribe_is_refused_like_any_other(self, monkeypatch):
        # Admission ignores the subscriber priority: with the only token
        # held, a peer's SUBSCRIBE at the most urgent priority bounces with a
        # hint.  This program always asks at the default priority, so the
        # request is re-encoded at priority 0 on its way to the wire.
        policy = AdmissionPolicy(subscribe_rate=0.1, bucket_depth=1)
        simulator, _, tree = build_tree(admission=policy, prewarm=1)
        relay = tree.leaves()[0].relay
        urgent = tree.attach_subscribers(1)[0]
        encode = Subscribe.encode
        monkeypatch.setattr(
            Subscribe, "encode", lambda message: encode(replace(message, subscriber_priority=0))
        )
        gated = []
        handle_subscribe = MoqtRelay.handle_subscribe

        def recording(self, session, message):
            gated.append(message.subscriber_priority)
            return handle_subscribe(self, session, message)

        monkeypatch.setattr(MoqtRelay, "handle_subscribe", recording)
        responses = []
        urgent.session.subscribe(TRACK, on_response=responses.append)
        simulator.run(until=simulator.now + 2.0)
        assert gated == [0]
        (subscription,) = responses
        assert subscription.state == "error"
        assert subscription.error_code == SubscribeErrorCode.TOO_MANY_SUBSCRIBERS
        assert subscription.retry_after_ms > 0
        assert relay.statistics.admission_rejections == 1

    def test_queue_bound_counts_queue_rejections(self):
        # Cold track: every SUBSCRIBE during the upstream round trip queues;
        # past the bound the relay rejects with the queue quantum.
        policy = AdmissionPolicy(max_pending_subscribes=2, queue_retry_after=0.2)
        simulator, _, tree = build_tree(admission=policy)
        storm = tree.flash_crowd(6, 0.001, TRACK)
        simulator.run(until=simulator.now + 5.0)
        relay = tree.leaves()[0].relay
        assert relay.statistics.admission_queue_rejections > 0
        assert relay.statistics.pending_subscribe_high_water <= 2
        assert storm.complete
        storm.raise_for_failures()


class TestFlashCrowd:
    def test_throttled_storm_matches_model_bit_exactly(self):
        policy = AdmissionPolicy(subscribe_rate=200.0, bucket_depth=4)
        simulator, _, tree = build_tree(admission=policy, prewarm=1)
        start = simulator.now
        storm = tree.flash_crowd(24, 0.05, TRACK)
        simulator.run(until=simulator.now + 10.0)
        storm.raise_for_failures()
        assert storm.admitted == 24 and storm.complete
        assert storm.rejections == 18 == storm.retries
        model = AdmissionModel(
            count=24, window=0.05, start=start, policy=policy,
            link_delay=tree.spec.subscriber_link.delay,
        )
        assert storm.completion_time == model.completion_time()
        measured = sorted(record.join_latency for record in storm.records)
        assert measured == sorted(model.join_latencies())
        assert storm.completion_time >= model.drain_time_lower_bound()

    def test_storm_delivers_objects_after_admission(self):
        policy = AdmissionPolicy(subscribe_rate=500.0, bucket_depth=2)
        simulator, publisher, tree = build_tree(admission=policy, prewarm=1)
        delivered = []
        storm = tree.flash_crowd(
            6, 0.01, TRACK, on_object=lambda sub, obj: delivered.append(sub.index)
        )
        simulator.run(until=simulator.now + 5.0)
        assert storm.complete
        publisher.push(MoqtObject(group_id=99, object_id=0, payload=b"x" * 40))
        simulator.run(until=simulator.now + 2.0)
        # Every admitted stormer gets the post-storm push exactly once.
        assert sorted(delivered) == sorted(sub.index for sub in storm.subscribers)

    def test_retry_budget_exhaustion_is_terminal_and_raises(self, monkeypatch):
        monkeypatch.setattr(topology_module, "MAX_ADMISSION_ATTEMPTS", 1)
        monkeypatch.setattr(topology_module, "MAX_SPILLOVERS", 0)
        policy = AdmissionPolicy(subscribe_rate=1.0, bucket_depth=1)
        simulator, _, tree = build_tree(admission=policy, prewarm=1)
        storm = tree.flash_crowd(5, 0.001, TRACK)
        simulator.run(until=simulator.now + 5.0)
        assert storm.admitted < 5
        terminal = [record for record in storm.records if record.terminal]
        assert terminal and all(record.attempts == 1 for record in terminal)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            storm.raise_for_failures()
        assert excinfo.value.attempts == 1
        assert excinfo.value.full_track_name == TRACK

    def test_pinned_storm_spills_to_siblings(self):
        policy = AdmissionPolicy(subscribe_rate=50.0, bucket_depth=2)
        simulator, _, tree = build_tree(relays=3, admission=policy, prewarm=3)
        storm = tree.flash_crowd(18, 0.02, TRACK, leaf=tree.leaves()[0])
        simulator.run(until=simulator.now + 10.0)
        storm.raise_for_failures()
        assert storm.complete and storm.spillovers > 0
        homes = {record.leaf for record in storm.records}
        assert len(homes) > 1  # the hotspot actually spread
        # Spilled subscribers live on their new leaf and still get objects.
        spilled = [
            subscriber for subscriber, record in zip(storm.subscribers, storm.records)
            if record.spillovers
        ]
        assert spilled
        assert all(
            subscriber.leaf.host.address != tree.leaves()[0].host.address
            for subscriber in spilled
        )

    def test_a_mid_tier_refusal_reaches_the_subscriber_with_its_hint(self, monkeypatch):
        # Three leaves below one mid relay: the mid's bucket admits two
        # upstream SUBSCRIBEs and refuses the third leaf, which passes the
        # refusal on.  The subscriber must wait the mid's hint (the reserved
        # slot then admits its single retry), not retry at once and herd.
        monkeypatch.setattr(topology_module, "MAX_SPILLOVERS", 0)
        policy = AdmissionPolicy(subscribe_rate=2.0, bucket_depth=2)
        run = build_scenario(
            Scenario(
                spec=RelayTreeSpec.cdn(mid_relays=1, edge_per_mid=3),
                seed=11,
                admission=policy,
            )
        )
        tree = run.topology
        run.advance(3.0)
        storm = tree.flash_crowd(3, 0.001, TRACK)
        run.advance(10.0)
        storm.raise_for_failures()
        assert storm.admitted == 3
        assert tree.tiers[0][0].relay.statistics.admission_rejections == 1
        assert all(leaf.relay.statistics.admission_rejections == 0 for leaf in tree.leaves())
        (refused,) = [record for record in storm.records if record.rejections]
        assert refused.attempts == 2 and refused.rejections == 1
        (retry_at,) = refused.retry_schedule
        assert retry_at >= refused.joined_at + 1 / policy.subscribe_rate

    def test_unlimited_baseline_high_water_equals_storm_size(self):
        simulator, _, tree = build_tree()
        storm = tree.flash_crowd(16, 0.001, TRACK)
        simulator.run(until=simulator.now + 5.0)
        relay = tree.leaves()[0].relay
        assert storm.complete
        assert relay.statistics.pending_subscribe_high_water == 16
        assert relay.statistics.admission_rejections == 0

    def test_flash_crowd_argument_validation(self):
        _, _, tree = build_tree()
        with pytest.raises(ValueError):
            tree.flash_crowd(0, 0.1, TRACK)
        with pytest.raises(ValueError):
            tree.flash_crowd(5, -0.1, TRACK)


class TestExperiment:
    def test_run_flash_crowd_gates(self, monkeypatch):
        runs = captured_runs(monkeypatch, flash_crowd)
        result = run_flash_crowd(
            stormers=12, subscribe_rate=150.0, bucket_depth=3,
        )
        summary = result.summary_row()
        assert summary["baseline_high_water_grows"]
        assert summary["throttled_all_admitted"]
        assert summary["throttled_rejections"] > 0
        assert summary["model_exact"]
        assert summary["spillover_all_admitted"]
        assert summary["spillovers"] > 0
        assert len(result.rows()) == 4
        # Two baselines, the throttled run, the three-leaf spillover run.
        assert [len(run.topology.leaves()) for run in runs] == [1, 1, 1, 3]
        gauges = [scrape(run) for run in runs]
        assert [g["relaynet_pending_subscribe_high_water"] for g in gauges[:2]] == [
            sample.pending_high_water for sample in result.baselines
        ]
        assert gauges[2]["relaynet_admission_rejections"] == result.throttled.rejections
        assert gauges[2]["relaynet_pending_subscribe_high_water"] == result.throttled.pending_high_water
        # The spillover storm quiesced: retries and re-routes left no
        # receiver holding objects back ...
        assert gauges[3]["relaynet_recovery_buffered"] == 0
        # ... and no connection a packet outstanding.
        assert set(gauges[3]["quic_inflight_packets"].values()) == {0}
        assert set(gauges[3]["quic_bytes_in_flight"].values()) == {0}


class TestDefaultOffDeterminism:
    @staticmethod
    def _measured_run(admission):
        simulator, publisher, tree = build_tree(seed=23, relays=2, admission=admission)
        tree.attach_subscribers(4)
        delivered = [0]
        tree.subscribe_all(
            TRACK, on_object=lambda sub, obj: delivered.__setitem__(0, delivered[0] + 1)
        )
        simulator.run(until=simulator.now + 3.0)
        for group in range(2, 5):
            publisher.push(MoqtObject(group_id=group, object_id=0, payload=b"p" * 64))
            simulator.run(until=simulator.now + 0.5)
        simulator.run(until=simulator.now + 2.0)
        totals = tuple(sorted(tree.network.total_link_statistics().items()))
        return simulator.events_scheduled, delivered[0], totals

    def test_none_and_unlimited_policy_are_bit_identical(self):
        # The frozen-determinism contract: a relay built with the default
        # (unlimited) policy instantiates no controller, draws no randomness
        # and emits the exact bytes of a build with admission=None.
        assert self._measured_run(None) == self._measured_run(AdmissionPolicy())

    def test_generous_limited_policy_changes_no_bytes(self):
        # A limited policy that never rejects gates inline without
        # scheduling events or touching the wire.
        generous = AdmissionPolicy(subscribe_rate=1e6, bucket_depth=64)
        assert self._measured_run(None) == self._measured_run(generous)


class TestSeededStormProperty:
    @given(seed=st.integers(min_value=0, max_value=2**16), count=st.integers(2, 6))
    @settings(max_examples=8, deadline=None)
    def test_storms_replay_bit_identically(self, seed, count):
        # Two runs of the same storm must produce identical retry
        # schedules, admission orders and admission records.
        def run_once():
            policy = AdmissionPolicy(subscribe_rate=20.0, bucket_depth=1)
            simulator, _, tree = build_tree(seed=seed, admission=policy, prewarm=1)
            storm = tree.flash_crowd(count, 0.01, TRACK)
            simulator.run(until=simulator.now + 20.0)
            records = [
                (
                    record.name,
                    record.leaf,
                    record.joined_at,
                    record.attempts,
                    record.rejections,
                    tuple(record.retry_schedule),
                    record.admitted_at,
                    record.terminal,
                )
                for record in storm.records
            ]
            order = [
                record.name
                for record in sorted(
                    storm.records, key=lambda record: (record.admitted_at, record.name)
                )
            ]
            return records, order, storm.complete

        first = run_once()
        second = run_once()
        assert first == second
        assert first[2]  # every stormer was eventually admitted


class TestConnectionConfigValidation:
    def test_rejects_non_positive_timers(self):
        with pytest.raises(ValueError):
            ConnectionConfig(idle_timeout=0.0)
        with pytest.raises(ValueError):
            ConnectionConfig(idle_timeout=-1.0)
        with pytest.raises(ValueError):
            ConnectionConfig(keepalive_interval=0.0)
        with pytest.raises(ValueError):
            ConnectionConfig(initial_rtt=0.0)
        with pytest.raises(ValueError):
            ConnectionConfig(liveness_suspect_after=0)

    def test_accepts_valid_configs(self):
        ConnectionConfig()
        ConnectionConfig(keepalive_interval=5.0, liveness_suspect_after=3)

    def test_link_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LinkConfig(delay=-0.001)
        with pytest.raises(ValueError):
            LinkConfig(bandwidth=0.0)
        with pytest.raises(ValueError):
            LinkConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            LinkConfig(loss_rate=-0.1)
