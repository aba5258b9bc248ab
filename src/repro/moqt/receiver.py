"""The receive side of one followed track: gapless across a re-attach.

Whoever follows a track across upstream churn — a relay re-parented below a
new parent, a leaf subscriber re-homed on a new edge, a standby origin
re-pointed at a promoted active — needs the same four things, and
:class:`TrackReceiver` is the one place they live:

* **dedupe** — an object whose location was already delivered is dropped
  (a new upstream re-sends territory the old one covered; dedupe is
  receive-side only, nothing changes on the wire); the delivered locations
  are a bounded :class:`DedupeWindow`, one bit per group;
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
#: The widest a window's bitmap grows, in groups (1 KiB of int): an in-order
#: stream of one object per group stays inside it between prunes, and a
#: location further from the base than this goes to the overflow set.
DEDUPE_WINDOW_GROUPS = 2 * DEDUPE_PRUNE_THRESHOLD

_by_location = attrgetter("location")

#: The dedupe window of a receiver that has delivered nothing yet: one shared
#: empty set for all of them.  Frozen, so an insert that forgot to install a
#: window of its own fails instead of leaking into every other receiver.
_NOTHING_SEEN: frozenset[Location] = frozenset()


class DedupeWindow:
    """The locations a receiver has delivered, pruned to a bounded window.

    Object 0 of group ``base + i`` is bit ``i`` of the int ``bits``; any
    other location (a non-zero object id, a group below ``base`` or
    :data:`DEDUPE_WINDOW_GROUPS` or more above it) is in the ``overflow``
    set.  A location is in one of the two, never both, and ``count`` is how
    many are remembered.  Membership, ``len()`` and :meth:`prune` answer what
    a set of the same locations pruned by the same rule answers, so a stream
    of one object per group costs bits, not a ``Location`` and a hash-table
    slot per object.  Built on a receiver's first delivery.
    """

    __slots__ = ("base", "bits", "overflow", "count")

    def __init__(self, location: Location) -> None:
        group_id, object_id = location
        self.base = group_id
        self.bits = 0 if object_id else 1
        self.overflow: set[Location] | frozenset[Location] = (
            {location} if object_id else _NOTHING_SEEN
        )
        self.count = 1

    def __len__(self) -> int:
        return self.count

    def __contains__(self, location: Location) -> bool:
        group_id, object_id = location
        offset = group_id - self.base
        if not object_id and offset >= 0 and self.bits >> offset & 1:
            return True
        return location in self.overflow

    def add(self, location: Location) -> None:
        """Remember ``location``, which the window does not hold."""
        self.count += 1
        group_id, object_id = location
        if not object_id:
            if not self.bits:
                # An empty bitmap starts wherever it is needed.
                self.base, self.bits = group_id, 1
                return
            offset = group_id - self.base
            if 0 <= offset < DEDUPE_WINDOW_GROUPS:
                self.bits |= 1 << offset
                return
        if not self.overflow:
            self.overflow = set()
        self.overflow.add(location)

    def prune(self, largest: Location) -> None:
        """Shrink to a bounded window.

        Drops locations older than :data:`DEDUPE_GROUP_HORIZON` groups behind
        ``largest`` (a shift of the bitmap); if everything is recent (many
        objects per group), keeps the newest half of
        :data:`DEDUPE_PRUNE_THRESHOLD` so the window stays bounded and
        pruning does not re-trigger on every insert.  Builds no locations.
        """
        horizon = largest.group_id - DEDUPE_GROUP_HORIZON
        if horizon > self.base:
            self.bits >>= horizon - self.base
            self.base = horizon
        overflow = self.overflow
        if overflow:
            overflow = {location for location in overflow if location.group_id >= horizon}
            self.overflow = overflow or _NOTHING_SEEN
        self.count = self.bits.bit_count() + len(overflow)
        if self.count > DEDUPE_PRUNE_THRESHOLD:
            self._keep_newest(DEDUPE_PRUNE_THRESHOLD // 2)

    def _keep_newest(self, keep: int) -> None:
        """Keep the ``keep`` largest locations: merge the bitmap's groups,
        highest first, with the overflow set's locations sorted."""
        overflow = sorted(self.overflow, reverse=True)
        bits, base = self.bits, self.base
        taken = 0
        lowest = None
        for _ in range(keep):
            top = bits.bit_length() - 1
            # (g, 0) is above (h, o) exactly when g > h: a location is never
            # in both halves.
            if top >= 0 and (taken == len(overflow) or base + top > overflow[taken].group_id):
                bits ^= 1 << top
                lowest = top
            else:
                taken += 1
        if lowest is None:
            self.bits = 0
        else:
            self.bits >>= lowest
            self.base = base + lowest
        self.overflow = set(overflow[:taken]) or _NOTHING_SEEN
        self.count = keep


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
        self.seen: DedupeWindow | frozenset[Location] = _NOTHING_SEEN
        #: Largest location ever delivered — the resume point.
        self.largest: Location | None = None
        #: Monotonic count of distinct objects handed to the sink (``seen``
        #: is pruned, so its size is not a delivery count).
        self.delivered = 0
        #: Live objects held back while a gap FETCH is outstanding; None
        #: while following.
        self.held: list[MoqtObject] | None = None

    # ---------------------------------------------------------------- delivery
    def __call__(self, obj: MoqtObject) -> None:
        """An object for the sink: the receiver is its subscription's
        ``on_object``, so a subscribe makes no bound method.

        Held back while a gap FETCH is outstanding, else deduped and handed
        on; :meth:`release` delivers through here too, after disarming.
        """
        if self.held is not None:
            self.held.append(obj)
            return
        location = obj.location
        largest = self.largest
        seen = self.seen
        if largest is None:
            self.seen = seen = DedupeWindow(location)
            self.largest = largest = location
        else:
            if location > largest:
                # Above everything delivered, so not delivered yet: no probe.
                self.largest = largest = location
            elif location in seen:
                self.counters.duplicate_objects_dropped += 1
                return
            # DedupeWindow.add, inlined for object 0 of a group the bitmap
            # spans.
            group_id, object_id = location
            offset = group_id - seen.base
            if object_id or not 0 <= offset < DEDUPE_WINDOW_GROUPS:
                seen.add(location)
            else:
                seen.bits |= 1 << offset
                seen.count += 1
            if seen.count > DEDUPE_PRUNE_THRESHOLD:
                seen.prune(largest)
        self.delivered += 1
        if self.sink is not None:
            self.sink(obj)

    def release(self, gap: Iterable[MoqtObject] = ()) -> None:
        """Stop holding back: deliver ``gap`` (a fetched range), then what
        was held, each in location order.  Safe while following."""
        held, self.held = self.held or (), None
        # The base class's delivery, not an override: a subclass counting
        # what its uplink delivered must not count a release.
        deliver = TrackReceiver.__call__
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
            self.full_track_name, on_object=self, on_response=on_response
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
