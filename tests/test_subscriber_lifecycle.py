"""Compound faults on one tree-subscriber lifecycle: admission × failover.

A leaf subscriber is created, moved (admission spillover, failover
re-attach) and re-subscribed through one path in
``RelayTopology`` (``docs/failover.md`` § Receive, ``docs/admission.md``
§ Client retry).  No seeded experiment combines a flash crowd with a relay
death, so this file does, on a three-leaf star whose leaves admit two
SUBSCRIBEs per second:

* two named cases, each a bug of the two-path design (a re-attach refused by
  the new leaf's admission control stranded the subscriber for good; a retry
  timer armed before a move subscribed the track a second time after it);
* a property drawing storm size, bucket depth, retry budget, spillover, a
  pinned or unpinned storm and the kill time (during the
  joins, with retries pending, during the retries, after them), which lets
  the run quiesce and checks what the E-series states one fault at a time:
  every subscriber still being served holds exactly one live subscription
  per followed track, each delivered sequence is consecutive and
  duplicate-free up to the last update, every admission journey is settled,
  and every failover event is complete or names its terminal error.

Mutants each killed by at least one case (run by hand on a copy of the
source): a retry that fires although a move re-subscribed the track; a
failover re-subscribe without the answer hook; a spill that re-subscribes
without the failover record; a refusal after an admission charged to the
old, settled journey; a SUBSCRIBE not counted as an attempt; a terminal
re-attach that leaves the event's ``error`` empty; a given-up track
re-subscribed after a move; the failover record not following a spill; a
storm pinned to a leaf that has since died.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.moqt.origin import TRACK
from repro.relaynet import AdmissionPolicy, RelayTreeSpec
from repro.relaynet import topology as topology_module
from repro.relaynet.scenario import Scenario, ScenarioRun, build_scenario


def retry_budget(patch: pytest.MonkeyPatch, attempts: int = 8, spillovers: int = 1) -> None:
    """Set the client half of the admission contract for one test."""
    patch.setattr(topology_module, "MAX_ADMISSION_ATTEMPTS", attempts)
    patch.setattr(topology_module, "MAX_SPILLOVERS", spillovers)


def storm_under_admission(relays: int, bucket_depth: int, seed: int = 11) -> ScenarioRun:
    """A star whose leaves admit two SUBSCRIBEs a second, two subscribers
    settled on it (delivery recorded), nothing else yet."""
    run = build_scenario(
        Scenario(
            spec=RelayTreeSpec.star(relays=relays),
            seed=seed,
            admission=AdmissionPolicy(subscribe_rate=2.0, bucket_depth=bucket_depth),
        )
    )
    run.topology.attach_subscribers(2)
    run.record_deliveries()
    run.advance(3.0)
    return run


def record_storm(run: ScenarioRun):
    """An ``on_object`` for a flash crowd that files into ``run.received``."""
    return lambda sub, obj: run.received.setdefault(sub.index, []).append(obj.group_id)


def live_subscriptions(subscriber) -> list:
    """The subscriptions the subscriber's session holds for the track."""
    return [s for s in subscriber.session.subscriptions() if s.full_track_name == TRACK]


class TestNamedCompoundFaults:
    def test_a_reattach_refused_by_admission_is_retried_not_stranded(self, monkeypatch):
        # storm-2 was admitted at leaf 0; its recovery SUBSCRIBE is refused by
        # leaf 1's rate limit.  Nothing used to retry it: zero subscriptions,
        # and the event never completed — storm-3..5's records included,
        # although their own storm retries were later admitted at leaf 1.
        retry_budget(monkeypatch, spillovers=0)
        run = storm_under_admission(relays=2, bucket_depth=1)
        topology = run.topology
        leaf = topology.leaves()[0]
        storm = topology.flash_crowd(4, 0.001, TRACK, on_object=record_storm(run), leaf=leaf)
        run.advance(0.1)
        event = topology.kill_relay(leaf)
        run.advance(10.0)
        assert event.complete and event.error == ""
        assert all(record.new_parent == "relay-relay-1" for record in event.records)
        assert storm.complete
        for subscriber in topology.subscribers:
            (live,) = live_subscriptions(subscriber)
            assert live.is_active
        run.push(3)
        for subscriber in topology.subscribers:
            assert run.received[subscriber.index][-3:] == [2, 3, 4]

    def test_a_retry_armed_before_a_move_does_not_subscribe_twice(self, monkeypatch):
        # storm-4 was refused at leaf 0 with a retry armed for +0.5 s; its
        # re-attach was accepted on relay-1, then the old timer fired and
        # SUBSCRIBEd again on the same session: two live subscriptions, and
        # every object crossed the access link twice.
        retry_budget(monkeypatch, spillovers=0)
        run = storm_under_admission(relays=3, bucket_depth=2)
        topology = run.topology
        leaf = topology.leaves()[0]
        topology.flash_crowd(3, 0.001, TRACK, on_object=record_storm(run), leaf=leaf)
        run.advance(0.1)
        topology.kill_relay(leaf)
        run.advance(3.0)
        before = {sub.index: sub.duplicate_objects_dropped for sub in topology.subscribers}
        run.push(8)
        for subscriber in topology.subscribers:
            assert len(live_subscriptions(subscriber)) == 1
            assert run.received[subscriber.index] == list(range(2, 10))
            assert subscriber.duplicate_objects_dropped == before[subscriber.index]

    def test_a_reattach_out_of_budget_is_a_recorded_terminal_failure(self, monkeypatch):
        # One attempt each: storm-2 was admitted at leaf 0, storm-3..5 gave up
        # there.  storm-2's re-attach is refused by leaf 1 — a new journey,
        # out of budget at once; the given-up stormers are moved but not
        # re-subscribed.
        retry_budget(monkeypatch, attempts=1, spillovers=0)
        run = storm_under_admission(relays=2, bucket_depth=1)
        topology = run.topology
        leaf = topology.leaves()[0]
        storm = topology.flash_crowd(4, 0.001, TRACK, on_object=record_storm(run), leaf=leaf)
        run.advance(0.1)
        event = topology.kill_relay(leaf)
        run.advance(10.0)
        assert event.error == "admission-exhausted"
        unfinished = [record.name for record in event.records if record.reattached_at is None]
        assert unfinished == ["storm-2"]
        stormer = topology.subscribers[2]
        assert stormer.host.address == "storm-2" and live_subscriptions(stormer) == []
        journey = stormer.admission
        assert journey not in storm.records
        assert (journey.attempts, journey.rejections, journey.terminal) == (1, 1, True)
        assert journey.joined_at == event.at
        joined = storm.records[0]
        assert joined.admitted_at is not None and not joined.terminal
        for subscriber in topology.subscribers[3:]:
            assert subscriber.admission.terminal and live_subscriptions(subscriber) == []

    def test_a_refused_reattach_that_spills_completes_where_it_is_admitted(self):
        # sub-0's leaf dies.  The least-loaded sibling, relay-2, spent its one
        # token on storm-3 a moment ago and refuses the re-attach; relay-1,
        # more loaded but refilled, has headroom, so sub-0 spills there and
        # is admitted: the failover record follows it and completes.
        run = storm_under_admission(relays=3, bucket_depth=1)
        topology = run.topology
        relay_1, relay_2 = topology.leaves()[1:]
        topology.flash_crowd(1, 0.0, TRACK, on_object=record_storm(run), leaf=relay_1)
        run.advance(1.0)  # relay-1's bucket refills
        topology.flash_crowd(1, 0.0, TRACK, on_object=record_storm(run), leaf=relay_2)
        run.advance(0.1)
        event = topology.kill_relay(topology.leaves()[0])
        run.advance(10.0)
        assert event.complete and event.error == ""
        (record,) = event.records
        subscriber = topology.subscribers[0]
        assert record.name == subscriber.host.address == "sub-0"
        assert (subscriber.admission.rejections, subscriber.admission.spillovers) == (1, 1)
        assert record.new_parent == subscriber.leaf.host.address == "relay-relay-1"
        run.push(3)
        assert run.received[subscriber.index][-3:] == [2, 3, 4]


#: Kill times after the storm starts: during the joins (later pinned joins
#: fall back to placement), joins done with retries pending, during the
#: retries, after every retry.
KILL_AT = st.sampled_from([0.0005, 0.1, 0.8, 3.5])


class TestCompoundFaultProperty:
    @given(
        size=st.integers(min_value=2, max_value=6),
        bucket_depth=st.integers(min_value=1, max_value=3),
        pinned=st.booleans(),
        kill_at=KILL_AT,
        max_attempts=st.sampled_from([1, 2, 8]),
        max_spillovers=st.integers(min_value=0, max_value=1),
        seed=st.sampled_from([5, 11, 23]),
    )
    @settings(max_examples=150, deadline=None)
    def test_storm_and_leaf_death_quiesce_clean(
        self, size, bucket_depth, pinned, kill_at, max_attempts, max_spillovers, seed
    ):
        with pytest.MonkeyPatch.context() as patch:
            retry_budget(patch, max_attempts, max_spillovers)
            run = storm_under_admission(relays=3, bucket_depth=bucket_depth, seed=seed)
            topology = run.topology
            leaf = topology.leaves()[0]
            storm = topology.flash_crowd(
                size, 0.001, TRACK, on_object=record_storm(run), leaf=leaf if pinned else None
            )
            run.simulator.call_later(kill_at, topology.kill_relay, leaf)
            run.push(16)  # four seconds of updates, across the kill
            run.advance(10.0)
            run.push(2)
            run.advance(2.0)

        last = run.pushed + 1
        assert all(record.settled for record in storm.records)
        for subscriber in topology.subscribers:
            live = live_subscriptions(subscriber)
            admission = subscriber.admission
            if admission is not None and admission.terminal:
                assert live == [], "a subscriber given up on holds nothing"
                continue
            (track,) = subscriber.tracks
            assert len(live) == 1 and live[0] is track.subscription and live[0].is_active
            groups = run.received[subscriber.index]
            assert groups == list(range(groups[0], last + 1)), (
                f"{subscriber.host.address}: {groups}"
            )
        for event in topology.events:
            assert event.complete or event.error in ("admission-exhausted", "subscribe-refused")
            if event.error:
                assert any(record.reattached_at is None for record in event.records)
