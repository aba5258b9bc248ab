"""Properties of :class:`repro.moqt.receiver.TrackReceiver`.

The receiver is the one implementation of dedupe, resume point, gap FETCH and
hold-back that the relay's upstream side, the leaf subscriber and the standby
origin share, so it is tested on its own, on fake sessions, against a list
oracle that spells the contract out step by step:

* a fixed re-attach story (in-order prefix, overlapping shuffled FETCH,
  reordered duplicated live stream) always ends gapless and in order;
* an arbitrary schedule of live objects, (re-)subscribes, SUBSCRIBE answers
  (ok / error / stale), gap-FETCH completions (succeeded / refused by a live
  session / failed with its session / from a replaced session) and explicit
  releases keeps the sink, the held-back list and the counters equal to the
  oracle's after every step.

Each guard in the receiver was removed in turn while writing this file (no
dedupe, no sort on release, release on a FETCH that failed with its session,
release by a replaced session's completion, ``recover=False`` leaving the
hold-back armed, a refused SUBSCRIBE leaving it armed, the ``largest + 1``
fallback off by one, a stale SUBSCRIBE answer or one that follows a release
issuing the FETCH, the owner's hook running after the FETCH, a plain
SUBSCRIBE's hook being wrapped, a refusal releasing the hold-back its own
hook had just handed to a newer attach); every removal fails the schedule
property or one of the named cases below it.  So do a release that goes
through a subclass's ``on_object`` (a relay's uplink count repeated) and a
delivery span decided at attach time instead of at delivery.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.origin import TRACK
from repro.moqt.receiver import (
    DEDUPE_PRUNE_THRESHOLD,
    OPEN_RANGE_END,
    ReceiverCounters,
    TrackReceiver,
)
from repro.moqt.relay import RelayStatistics, RelayTrack
from repro.moqt.session import Subscription


def obj(group: int) -> MoqtObject:
    return MoqtObject(group_id=group, object_id=0, payload=b"x")


class FakeFetch:
    """What a session hands ``on_complete``: the receiver reads two fields."""

    def __init__(self, session, start, end, on_complete) -> None:
        self.session = session
        self.start = start
        self.end = end
        self.on_complete = on_complete
        self.succeeded = False
        self.objects: list[MoqtObject] = []
        self.done = False

    def complete(self, succeeded: bool, groups=()) -> None:
        self.done = True
        self.succeeded = succeeded
        self.objects = [obj(group) for group in groups]
        self.on_complete(self)


class FakeSession:
    """The three things a receiver asks of a session, recorded."""

    def __init__(self, log: list) -> None:
        self.closed = False
        self.log = log
        self.subscriptions: list[Subscription] = []
        self.fetches: list[FakeFetch] = []

    def subscribe(self, full_track_name, on_object=None, on_response=None) -> Subscription:
        subscription = Subscription(
            request_id=len(self.subscriptions),
            track_alias=len(self.subscriptions),
            full_track_name=full_track_name,
            on_object=on_object,
            on_response=on_response,
        )
        self.subscriptions.append(subscription)
        return subscription

    def fetch(self, full_track_name, start, end, on_complete=None) -> FakeFetch:
        self.log.append("fetch")
        fetch = FakeFetch(self, start, end, on_complete)
        self.fetches.append(fetch)
        return fetch

    def close(self) -> None:
        """As the real session: mark closed, then fail what is in flight."""
        self.closed = True
        for fetch in self.fetches:
            if not fetch.done:
                fetch.complete(False)


class Harness:
    """A receiver on fake sessions next to the oracle of what it must do."""

    def __init__(self) -> None:
        self.log: list = []
        self.sunk: list[int] = []
        self.counters = ReceiverCounters()
        self.receiver = TrackReceiver(
            TRACK, lambda o: self.sunk.append(o.group_id), self.counters
        )
        self.sessions: list[FakeSession] = []
        # The oracle.
        self.delivered: list[int] = []
        self.held: list[int] | None = None
        self.duplicates = 0
        self.fetches = 0
        self.recovered = 0
        #: Resume point of the current attach (None: a plain subscribe).
        self.resume: Location | None = None

    # ------------------------------------------------------------ the oracle
    def _oracle_deliver(self, groups) -> int:
        fresh = 0
        for group in groups:
            if group in self.delivered:
                self.duplicates += 1
            else:
                self.delivered.append(group)
                fresh += 1
        return fresh

    def _oracle_release(self, gap=()) -> None:
        held, self.held = self.held or [], None
        self.recovered += self._oracle_deliver(sorted(gap))
        self._oracle_deliver(sorted(held))

    def _oracle_resume_point(self) -> Location | None:
        if self.delivered:
            return Location(max(self.delivered), 0)
        previous = self.session.subscriptions[-1].largest if self.session else None
        if previous is not None:
            return Location(previous.group_id, previous.object_id + 1)
        return None

    # ---------------------------------------------------------------- steps
    @property
    def session(self) -> FakeSession | None:
        return self.sessions[-1] if self.sessions else None

    def live(self, group: int) -> None:
        subscription = self.receiver.subscription
        if subscription is None:
            return
        # The session notes the live position before handing the object over.
        if subscription.largest is None or Location(group, 0) > subscription.largest:
            subscription.largest = Location(group, 0)
        subscription.on_object(obj(group))
        if self.held is not None:
            self.held.append(group)
        else:
            self._oracle_deliver([group])

    def subscribe(self, recover: bool, close_old: bool, hook: bool) -> None:
        if close_old and self.session is not None:
            self.close()
        self.resume = self._oracle_resume_point() if recover else None
        if self.resume is None:
            self._oracle_release()
        elif self.held is None:
            self.held = []
        session = FakeSession(self.log)
        self.sessions.append(session)
        on_response = (lambda subscription: self.log.append("hook")) if hook else None
        subscription = self.receiver.subscribe(session, recover=recover, on_response=on_response)
        assert subscription is session.subscriptions[-1] is self.receiver.subscription
        assert subscription.on_object == self.receiver.on_object
        if self.resume is None:
            assert subscription.on_response is on_response, "plain subscribe: hook untouched"

    def answer(self, age: int, ok: bool, advertised: int | None) -> None:
        """Answer the ``age``-th youngest still-pending subscription."""
        pending = [
            (session, subscription)
            for session in self.sessions
            for subscription in session.subscriptions
            if subscription.state == "pending"
        ]
        if not pending:
            return
        session, subscription = pending[-1 - age % len(pending)]
        subscription.state = "active" if ok else "error"
        if ok and advertised is not None:
            subscription.largest = Location(advertised, 0)
        current = subscription is self.receiver.subscription
        resume = self.resume
        del self.log[:]
        if subscription.on_response is not None:
            subscription.on_response(subscription)
        if not current or resume is None:
            assert "fetch" not in self.log, "stale or plain answer issued a FETCH"
            return
        if not ok:
            self._oracle_release()
            assert "fetch" not in self.log
            return
        if self.held is None:
            assert "fetch" not in self.log
            return
        self.fetches += 1
        assert self.log in (["fetch"], ["hook", "fetch"]), "owner's hook runs before the FETCH"
        fetch = session.fetches[-1]
        assert (fetch.start, fetch.end) == (resume, OPEN_RANGE_END)

    def fetched(self, age: int, succeeded: bool, groups) -> None:
        """Complete the ``age``-th youngest FETCH still in flight."""
        flying = [fetch for session in self.sessions for fetch in session.fetches if not fetch.done]
        if not flying:
            return
        fetch = flying[-1 - age % len(flying)]
        fetch.complete(succeeded, groups)
        if fetch.session is not self.session:
            return  # a replaced session's completion releases nothing
        if not succeeded and fetch.session.closed:
            return  # nor does a FETCH that died with its session
        self._oracle_release(groups if succeeded else ())

    def close(self) -> None:
        """The current session dies: in-flight FETCHes fail, nothing is released."""
        if self.session is not None:
            self.session.close()

    def release(self) -> None:
        self.receiver.release()
        self._oracle_release()

    # ---------------------------------------------------------------- checks
    def check(self) -> None:
        receiver = self.receiver
        assert self.sunk == self.delivered
        assert len(set(self.sunk)) == len(self.sunk), "a group reached the sink twice"
        if self.held is None:
            assert receiver.held is None, "nothing is held back while following"
        else:
            assert [o.group_id for o in receiver.held] == self.held
        assert receiver.delivered == len(self.delivered)
        assert receiver.largest == (
            Location(max(self.delivered), 0) if self.delivered else None
        )
        assert self.counters == ReceiverCounters(
            duplicate_objects_dropped=self.duplicates,
            recovery_fetches=self.fetches,
            recovered_objects=self.recovered,
        )


GROUPS = st.integers(min_value=1, max_value=12)
AGE = st.integers(min_value=0, max_value=3)
STEP = st.one_of(
    st.tuples(st.just("live"), GROUPS),
    st.tuples(st.just("subscribe"), st.booleans(), st.booleans(), st.booleans()),
    st.tuples(st.just("answer"), AGE, st.booleans(), st.none() | GROUPS),
    st.tuples(st.just("fetched"), AGE, st.booleans(), st.lists(GROUPS, max_size=8)),
    st.tuples(st.just("close")),
    st.tuples(st.just("release")),
)


class TestDedupeRecoveryProperty:
    """Whatever happens around it, the sink sees each object once, in order."""

    @given(total=st.integers(min_value=1, max_value=30), pre=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving_yields_gapless_in_order_delivery(self, total, pre):
        # What a re-attached follower's track goes through: some objects
        # delivered before the failure, a gap FETCH answering with an
        # overlapping prefix (possibly shuffled — release sorts), and the new
        # upstream's live stream (held back while the FETCH is outstanding)
        # carrying reordered duplicates of recovered territory.
        groups = list(range(2, 2 + total))
        delivered_before = pre.draw(
            st.integers(min_value=0, max_value=total), label="delivered_before"
        )
        fetch_end = pre.draw(
            st.integers(min_value=delivered_before, max_value=total), label="fetch_end"
        )
        fetch_start = max(0, delivered_before - 1)
        fetch_groups = pre.draw(
            st.permutations(groups[fetch_start:fetch_end]), label="fetch_order"
        )
        live_tail = groups[fetch_end:]
        duplicates = pre.draw(
            st.lists(st.sampled_from(groups[:fetch_end] or [2]), max_size=8),
            label="duplicates",
        ) if fetch_end else []
        live_groups = pre.draw(st.permutations(live_tail + duplicates), label="live_order")

        harness = Harness()
        harness.subscribe(recover=False, close_old=False, hook=False)
        harness.answer(0, ok=True, advertised=1)
        for group in groups[:delivered_before]:
            harness.live(group)
        assert harness.sunk == groups[:delivered_before]

        harness.subscribe(recover=True, close_old=True, hook=True)
        for group in live_groups:
            harness.live(group)
        assert harness.sunk == groups[:delivered_before], "the live stream is held back"
        harness.answer(0, ok=True, advertised=None)
        harness.fetched(0, True, fetch_groups)
        harness.check()
        assert harness.sunk == groups, (
            "gapless, duplicate-free, in publish order across the failure"
        )
        assert harness.receiver.held is None
        assert harness.receiver.delivered == total

    @given(steps=st.lists(STEP, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_any_schedule_matches_the_list_oracle(self, steps):
        harness = Harness()
        for name, *arguments in steps:
            getattr(harness, name)(*arguments)
            harness.check()


class TestGuards:
    """One named case per guard a random schedule might take long to find."""

    @staticmethod
    def _recovering(delivered=(2, 3), held=(6, 5)) -> Harness:
        harness = Harness()
        harness.subscribe(recover=False, close_old=False, hook=False)
        harness.answer(0, ok=True, advertised=1)
        for group in delivered:
            harness.live(group)
        harness.subscribe(recover=True, close_old=True, hook=True)
        harness.answer(0, ok=True, advertised=None)
        for group in held:
            harness.live(group)
        harness.check()
        return harness

    def test_fetch_that_died_with_its_session_releases_nothing(self):
        harness = self._recovering()
        harness.close()
        harness.check()
        assert harness.sunk == [2, 3] and harness.receiver.held
        # The next attach fetches the gap again and releases in order.
        harness.subscribe(recover=True, close_old=False, hook=False)
        harness.answer(0, ok=True, advertised=None)
        harness.fetched(0, True, [3, 4])
        harness.check()
        assert harness.sunk == [2, 3, 4, 5, 6]

    def test_replaced_sessions_completion_releases_nothing(self):
        harness = self._recovering()
        harness.subscribe(recover=True, close_old=False, hook=False)
        harness.fetched(0, True, [4])  # the replaced, still open session answers
        harness.check()
        assert harness.sunk == [2, 3] and harness.receiver.held

    def test_refusal_by_a_live_session_resumes_delivery_without_the_gap(self):
        harness = self._recovering()
        harness.fetched(0, False, ())
        harness.check()
        assert harness.sunk == [2, 3, 5, 6]

    def test_plain_resubscribe_releases_what_an_earlier_attach_held(self):
        harness = self._recovering()
        harness.subscribe(recover=False, close_old=True, hook=False)
        harness.check()
        assert harness.sunk == [2, 3, 5, 6] and harness.receiver.held is None

    def test_stale_answer_issues_no_fetch(self):
        harness = self._recovering(held=())
        harness.subscribe(recover=True, close_old=False, hook=True)
        harness.subscribe(recover=True, close_old=False, hook=True)
        harness.answer(1, ok=True, advertised=None)  # the replaced subscription's answer
        harness.check()
        assert harness.counters.recovery_fetches == 1
        harness.answer(0, ok=True, advertised=None)
        harness.check()
        assert harness.counters.recovery_fetches == 2

    def test_released_before_the_answer_issues_no_fetch(self):
        harness = self._recovering()
        harness.subscribe(recover=True, close_old=True, hook=True)
        harness.release()  # what a relay does when it abandons its upstream
        harness.answer(0, ok=True, advertised=None)
        harness.check()
        assert harness.counters.recovery_fetches == 1 and harness.sunk == [2, 3, 5, 6]

    def test_nothing_delivered_resumes_one_past_the_previous_live_position(self):
        harness = Harness()
        harness.subscribe(recover=True, close_old=False, hook=False)
        assert harness.receiver.held is None, "nothing to resume from: not armed"
        harness.answer(0, ok=True, advertised=7)
        harness.subscribe(recover=True, close_old=True, hook=True)
        harness.answer(0, ok=True, advertised=None)
        assert harness.session.fetches[-1].start == Location(7, 1)
        harness.fetched(0, True, [])
        harness.check()

    def test_refused_subscribe_releases(self):
        harness = self._recovering()
        harness.subscribe(recover=True, close_old=True, hook=True)
        harness.answer(0, ok=False, advertised=None)
        harness.check()
        assert harness.sunk == [2, 3, 5, 6] and harness.receiver.held is None

    def test_a_hook_that_resubscribes_at_once_keeps_the_hold_back(self):
        # A refused leaf subscriber spilling to a sibling re-subscribes from
        # inside the refusal's hook.  The refusal must leave the hold-back to
        # that newer attach, or its answer finds nothing armed and the gap is
        # never fetched.
        log: list = []
        sunk: list[int] = []
        receiver = TrackReceiver(TRACK, lambda o: sunk.append(o.group_id), ReceiverCounters())
        receiver.subscribe(FakeSession(log))
        for group in (2, 3):
            receiver.on_object(obj(group))
        spilled = FakeSession(log)

        def spill(subscription: Subscription) -> None:
            if not subscription.is_active:
                receiver.subscribe(spilled, recover=True)

        refused = receiver.subscribe(FakeSession(log), recover=True, on_response=spill)
        refused.state = "error"
        refused.on_response(refused)
        (accepted,) = spilled.subscriptions
        accepted.state = "active"
        accepted.on_response(accepted)
        (fetch,) = spilled.fetches
        assert fetch.start == Location(3, 0)
        for group in (6, 5):
            accepted.on_object(obj(group))
        fetch.complete(True, [3, 4])
        assert sunk == [2, 3, 4, 5, 6]

    def test_a_release_does_not_repeat_the_uplink_count(self):
        # RelayTrack.on_object counts what the uplink delivered, before dedupe
        # and hold-back; the release delivers through the receiver's own
        # on_object, so released objects are not counted again.
        statistics = RelayStatistics()
        forwarded: list[int] = []
        track = RelayTrack(TRACK, lambda t, o: forwarded.append(o.group_id), statistics)
        log: list = []
        first = track.subscribe(FakeSession(log))
        for group in (2, 3):
            first.on_object(obj(group))
        session = FakeSession(log)
        second = track.subscribe(session, recover=True)
        second.state = "active"
        second.on_response(second)
        for group in (6, 5, 6):
            second.on_object(obj(group))
        session.fetches[0].complete(True, [3, 4])
        assert forwarded == [2, 3, 4, 5, 6]
        assert statistics.objects_received == 5, "two live, three held: each counted once"
        assert statistics.recovered_objects == 1 and statistics.duplicate_objects_dropped == 2

    def test_dedupe_window_stays_bounded(self):
        harness = Harness()
        harness.subscribe(recover=False, close_old=False, hook=False)
        for group in range(1, 3 * DEDUPE_PRUNE_THRESHOLD):
            harness.receiver.on_object(obj(group))
            assert len(harness.receiver.seen) <= DEDUPE_PRUNE_THRESHOLD
        assert harness.receiver.delivered == 3 * DEDUPE_PRUNE_THRESHOLD - 1
