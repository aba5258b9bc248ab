"""The receive side of one followed track: gapless across a re-attach.

Whoever follows a track across upstream churn — a relay re-parented below a
new parent, a leaf subscriber re-homed on a new edge, a standby origin
re-pointed at a promoted active — needs the same four things, and
:class:`TrackReceiver` is the one place they live:

* **dedupe** — an object whose location was already delivered is dropped
  (a new upstream re-sends territory the old one covered; dedupe is
  receive-side only, nothing changes on the wire);
* **resume point** — the largest location delivered, or, when nothing was
  delivered yet, one object past the previous subscription's live position;
* **gap FETCH** — once the new upstream accepts the SUBSCRIBE, one FETCH from
  the resume point to the open end fills what was published in between;
* **hold-back** — live objects arriving while that FETCH is outstanding are
  held and released after the gap, in location order, so the sink sees
  every distinct object exactly once and in order across the re-attach.

States: *following* (``held is None``) → *recovering* (``held`` is the list
of held-back objects) → *following*.  :meth:`TrackReceiver.subscribe` with
``recover=True`` arms; the gap FETCH's completion, a refused SUBSCRIBE, a
non-recovering :meth:`~TrackReceiver.subscribe` or an explicit
:meth:`~TrackReceiver.release` disarm.  A FETCH that failed *because its
session died* releases nothing: the held objects and the resume point are
carried to the next attach, which fetches the gap again
(``docs/failover.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable

from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.session import FetchRequest, MoqtSession, Subscription
from repro.moqt.track import FullTrackName

#: FETCH range end meaning "everything you have" (a group id far beyond any
#: experiment's horizon; ranges are inclusive).
OPEN_RANGE_END = Location(1 << 40, 0)

#: The dedupe window is pruned once it exceeds this size; locations older
#: than the group horizon go first, newest-first truncation caps the rest.
DEDUPE_PRUNE_THRESHOLD = 4096
DEDUPE_GROUP_HORIZON = 64

_by_location = attrgetter("location")

#: The dedupe window of a receiver that has delivered nothing yet: one shared
#: empty set for all of them.  Frozen, so an insert that forgot to install a
#: set of its own fails instead of leaking into every other receiver.
_NOTHING_SEEN: frozenset[Location] = frozenset()


def prune_seen_locations(seen: set[Location], largest: Location) -> set[Location]:
    """Shrink a delivered-locations dedupe set to a bounded window.

    Drops locations older than :data:`DEDUPE_GROUP_HORIZON` groups behind
    ``largest``; if everything is recent (many objects per group), keeps the
    newest half of :data:`DEDUPE_PRUNE_THRESHOLD` so the set stays bounded
    and pruning does not re-trigger on every insert.
    """
    horizon = largest.group_id - DEDUPE_GROUP_HORIZON
    pruned = {location for location in seen if location.group_id >= horizon}
    if len(pruned) > DEDUPE_PRUNE_THRESHOLD:
        pruned = set(sorted(pruned)[-DEDUPE_PRUNE_THRESHOLD // 2 :])
    return pruned


@dataclass
class ReceiverCounters:
    """What a receiver counts, on whatever object its owner already reads.

    Duck-typed: a relay hands its :class:`~repro.moqt.relay.RelayStatistics`,
    a tree subscriber hands itself; this class is for owners with no counter
    object of their own.
    """

    duplicate_objects_dropped: int = 0
    recovery_fetches: int = 0
    recovered_objects: int = 0


class TrackReceiver:
    """Receive-side state of one followed track (see the module docstring).

    ``sink`` receives every distinct object exactly once (``None``: nobody
    listens); ``counters`` is any object with :class:`ReceiverCounters`' three
    attributes.
    """

    __slots__ = (
        "full_track_name",
        "sink",
        "counters",
        "subscription",
        "session",
        "seen",
        "largest",
        "delivered",
        "held",
    )

    def __init__(
        self,
        full_track_name: FullTrackName,
        sink: Callable[[MoqtObject], None] | None,
        counters: ReceiverCounters,
    ) -> None:
        self.full_track_name = full_track_name
        self.sink = sink
        self.counters = counters
        #: The current (or last) subscription and the session it rides.
        self.subscription: Subscription | None = None
        self.session: MoqtSession | None = None
        #: Delivered locations, pruned to a bounded window; the shared
        #: :data:`_NOTHING_SEEN` until the first delivery.
        self.seen: set[Location] | frozenset[Location] = _NOTHING_SEEN
        #: Largest location ever delivered — the resume point.
        self.largest: Location | None = None
        #: Monotonic count of distinct objects handed to the sink (``seen``
        #: is pruned, so its size is not a delivery count).
        self.delivered = 0
        #: Live objects held back while a gap FETCH is outstanding; None
        #: while following.
        self.held: list[MoqtObject] | None = None

    # ---------------------------------------------------------------- delivery
    def on_object(self, obj: MoqtObject) -> None:
        """An object for the sink: the subscription's delivery function.

        Held back while a gap FETCH is outstanding, else deduped and handed
        on; :meth:`release` delivers through here too, after disarming.
        """
        if self.held is not None:
            self.held.append(obj)
            return
        location = obj.location
        seen = self.seen
        if location in seen:
            self.counters.duplicate_objects_dropped += 1
            return
        if seen:
            seen.add(location)
        else:
            self.seen = seen = {location}
        self.delivered += 1
        largest = self.largest
        if largest is None or location > largest:
            self.largest = largest = location
        if len(seen) > DEDUPE_PRUNE_THRESHOLD:
            self.seen = prune_seen_locations(seen, largest)
        if self.sink is not None:
            self.sink(obj)

    def release(self, gap: Iterable[MoqtObject] = ()) -> None:
        """Stop holding back: deliver ``gap`` (a fetched range), then what
        was held, each in location order.  Safe while following."""
        held, self.held = self.held or (), None
        # The base class's delivery, not an override: a subclass counting
        # what its uplink delivered must not count a release.
        deliver = TrackReceiver.on_object
        before = self.delivered
        for obj in sorted(gap, key=_by_location):
            deliver(self, obj)
        self.counters.recovered_objects += self.delivered - before
        for obj in sorted(held, key=_by_location):
            deliver(self, obj)

    # ------------------------------------------------------------------ attach
    def subscribe(
        self,
        session: MoqtSession,
        recover: bool = False,
        on_response: Callable[[Subscription], None] | None = None,
    ) -> Subscription:
        """(Re-)subscribe over ``session``; with ``recover``, resume gaplessly.

        Recovering arms the hold-back now and, once the SUBSCRIBE is
        accepted, issues the gap FETCH — after ``on_response`` has run, so
        the owner answers its own waiters first.  Without a resume point
        (``recover`` off, or nothing to resume from) hold-back left armed by
        an earlier attach is released — no FETCH would ever release it — and
        ``on_response`` is passed through untouched.
        """
        resume_from = self._resume_point() if recover else None
        if resume_from is None:
            self.release()
        else:
            if self.held is None:
                self.held = []
            on_response = partial(self._on_answer, resume_from, on_response)
        self.session = session
        self.subscription = session.subscribe(
            self.full_track_name, on_object=self.on_object, on_response=on_response
        )
        return self.subscription

    def _resume_point(self) -> Location | None:
        """Where the gap FETCH starts.

        The last location delivered (the range is inclusive; dedupe drops
        the boundary object).  A receiver that never delivered anything
        falls back to the previous subscription's live position: anything
        after it is gap, anything at or before it is pre-join history that
        must not be replayed, so the resume point is one object past it.
        """
        if self.largest is not None:
            return self.largest
        previous = self.subscription.largest if self.subscription is not None else None
        if previous is not None:
            return Location(previous.group_id, previous.object_id + 1)
        return None

    def _on_answer(
        self,
        resume_from: Location,
        on_response: Callable[[Subscription], None] | None,
        subscription: Subscription,
    ) -> None:
        # Judged before the owner's hook runs: a relay forgets a refused
        # subscription there.  A hook that re-subscribed at once (a refused
        # leaf subscriber spilling to a sibling) hands the hold-back to that
        # newer attach instead.
        current = subscription is self.subscription
        if on_response is not None:
            on_response(subscription)
        replaced = self.subscription is not subscription and self.subscription is not None
        if not current or replaced:
            return
        if not subscription.is_active:
            self.release()
            return
        if self.held is None:
            return
        session = self.session
        self.counters.recovery_fetches += 1
        session.fetch(
            self.full_track_name,
            resume_from,
            OPEN_RANGE_END,
            on_complete=partial(self._on_gap_fetched, session),
        )

    def _on_gap_fetched(self, session: MoqtSession, fetch_request: FetchRequest) -> None:
        if session is not self.session:
            # A newer attach owns the hold-back; its own FETCH releases it.
            return
        if not fetch_request.succeeded and session.closed:
            # The FETCH died with its session.  Releasing now would move the
            # resume point past the unrecovered gap for good; stay armed
            # until the next attach fetches it again.
            return
        # Recovered, or refused by a live upstream: on refusal the gap stays
        # lost but delivery resumes (availability over completeness).
        self.release(fetch_request.objects if fetch_request.succeeded else ())
