"""The receiver's dedupe window: a bitmap that decides what a set decides.

:class:`repro.moqt.receiver.DedupeWindow` keeps object 0 of each group as
one bit of an int and every other location in a small overflow set.  These
tests hold it to the set it replaced (``dedupe_reference.SetWindow``):

* a property feeds a :class:`TrackReceiver` and the set the same stream —
  in-order runs of one or many objects per group, strides that outgrow the
  bitmap, shuffled replays (duplicates, and locations pruned since),
  locations below the base and hostile group ids up to ``2**62``, across
  the prune — and requires the same deliver / drop decision, ``len()`` and
  ``largest`` after every location;
* the window's size is bounded whatever the group ids, and a prune builds
  no ``Location``;
* on a network, a subscriber that took more than ``DEDUPE_PRUNE_THRESHOLD``
  objects re-attaches after its edge dies and ends gapless and exactly
  once, with the duplicate count the set gives for what it was handed.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from dedupe_reference import SetWindow
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.origin import TRACK
from repro.moqt.receiver import (
    DEDUPE_GROUP_HORIZON,
    DEDUPE_PRUNE_THRESHOLD,
    DEDUPE_WINDOW_GROUPS,
    DedupeWindow,
    ReceiverCounters,
    TrackReceiver,
)
from repro.relaynet import RelayTreeSpec
from repro.relaynet.scenario import Scenario, build_scenario

HOSTILE = (2**40, 2**62, 2**62 + 3, DEDUPE_WINDOW_GROUPS - 1, DEDUPE_WINDOW_GROUPS, 3 * DEDUPE_WINDOW_GROUPS)


def receiving() -> tuple[TrackReceiver, list[Location]]:
    delivered: list[Location] = []
    receiver = TrackReceiver(TRACK, lambda o: delivered.append(o.location), ReceiverCounters())
    return receiver, delivered


def feed(receiver: TrackReceiver, location: Location) -> None:
    receiver(MoqtObject(group_id=location.group_id, object_id=location.object_id, payload=b""))


def window_bytes(window) -> int:
    """Bytes a window holds of its own (the shared empty set counts 0)."""
    if not isinstance(window, DedupeWindow):
        return 0
    overflow = window.overflow
    own = sys.getsizeof(overflow) + sum(map(sys.getsizeof, overflow)) if overflow else 0
    return sum(map(sys.getsizeof, (window, window.base, window.bits, window.count))) + own


def check_invariants(window: DedupeWindow) -> None:
    assert window.count == window.bits.bit_count() + len(window.overflow)
    assert window.bits.bit_length() <= DEDUPE_WINDOW_GROUPS
    for location in window.overflow:
        offset = location.group_id - window.base
        in_bits = location.object_id == 0 and offset >= 0 and window.bits >> offset & 1
        assert not in_bits, f"{location} in both halves"


def same_locations(window: DedupeWindow, oracle: SetWindow) -> None:
    if not oracle.seen:
        assert window == frozenset(), "nothing delivered: the shared empty window"
        return
    check_invariants(window)
    assert len(window) == len(oracle.seen)
    assert all(location in window for location in oracle.seen)


def side_by_side(locations: list[Location]) -> TrackReceiver:
    """Feed a receiver and the set ``locations``; the same decision, size
    and largest after each, and the same locations after each prune."""
    receiver, delivered = receiving()
    oracle = SetWindow()
    for location in locations:
        remembered = len(oracle.seen)
        expected = oracle.deliver(location)
        before = len(delivered)
        feed(receiver, location)
        assert (len(delivered) > before) is expected, location
        assert len(receiver.seen) == len(oracle.seen), location
        assert receiver.largest == oracle.largest
        if len(oracle.seen) < remembered:
            same_locations(receiver.seen, oracle)
    same_locations(receiver.seen, oracle)
    return receiver


# ------------------------------------------------------------------ stream
runs = st.tuples(
    st.just("run"),
    st.one_of(st.integers(-80, 3), st.sampled_from([DEDUPE_WINDOW_GROUPS - 2, DEDUPE_WINDOW_GROUPS, 20_000])),
    st.integers(1, 2500),
    st.sampled_from([1, 1, 1, 2, 3, 70]),
    st.sampled_from([1, 1, 1, 2, 3, 5]),
)
replays = st.tuples(st.just("replay"), st.integers(1, 300), st.randoms(use_true_random=False))
jumps = st.tuples(st.just("jump"), st.sampled_from(HOSTILE), st.integers(0, 2))
belows = st.tuples(st.just("below"), st.integers(0, 200), st.integers(0, 3))


def stream(segments) -> list[Location]:
    """The locations a list of segments spells out."""
    locations: list[Location] = []
    for segment in segments:
        kind = segment[0]
        if kind == "run":
            _, offset, groups, per_group, stride = segment
            top = max((location.group_id for location in locations[-1:]), default=0)
            first = max(0, top + offset)
            groups = min(groups, 5000 // per_group)
            locations += [
                Location(first + stride * index, object_id)
                for index in range(groups)
                for object_id in range(per_group)
            ]
        elif kind == "replay":
            _, count, rng = segment
            again = locations[-count:]
            rng.shuffle(again)
            locations += again
        elif kind == "jump":
            _, group_id, objects = segment
            locations += [Location(group_id, object_id) for object_id in range(objects + 1)]
        else:
            _, group_id, object_id = segment
            locations.append(Location(group_id, object_id))
    return locations


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(runs, replays, jumps, belows), min_size=1, max_size=8))
def test_the_window_decides_what_the_set_decides(segments):
    locations = stream(segments)
    receiver = side_by_side(locations)
    assert receiver.delivered + receiver.counters.duplicate_objects_dropped == len(locations)


def test_the_named_shapes_decide_what_the_set_decides():
    """The property's corner cases, pinned: each shape alone, across the
    prune, and the hostile jump between in-order runs."""
    shapes = {
        "in order": [("run", 0, 10_000 - 1, 1, 1)],
        "many objects per group": [("run", 0, 140, 70, 1)],
        "stride past the bitmap": [("run", 0, 5000, 1, 3)],
        "hostile jump": [
            ("run", 0, 100, 1, 1),
            ("jump", 2**62, 0),
            ("run", -(2**62) + 150, 4500, 1, 1),
            ("replay", 300, random.Random(1)),
        ],
        # The prune leaves the base 8 groups below the lowest bit; then a
        # group past the bitmap's width.
        "past the width after a prune": [
            ("run", 0, 4040, 1, 1),
            ("run", 70, 57, 1, 1),
            ("jump", 4101 + DEDUPE_WINDOW_GROUPS + 4, 0),
            ("replay", 200, random.Random(2)),
        ],
        "below the base": [
            ("run", 50, 4000, 1, 1),
            *[("below", group, group % 3) for group in range(0, 200, 7)],
            ("run", 0, 200, 1, 1),
        ],
    }
    for segments in shapes.values():
        side_by_side(stream(segments))


# ------------------------------------------------------------------ bounded
def test_ten_thousand_in_order_objects_hold_under_a_kilobyte():
    receiver, _ = receiving()
    most = 0
    for group in range(1, 10_001):
        feed(receiver, Location(group, 0))
        most = max(most, window_bytes(receiver.seen))
    assert receiver.delivered == 10_000 and receiver.seen.overflow == frozenset()
    print(f"window of 10,000 in-order objects: {window_bytes(receiver.seen)} B at the end, {most} B at most")
    assert most <= 1024


def test_hostile_group_ids_cost_bytes_not_gigabytes():
    receiver, _ = receiving()
    for group in (1, 2**40, 2**62):
        feed(receiver, Location(group, 0))
    assert receiver.delivered == 3
    assert receiver.seen.bits.bit_length() <= 1 and len(receiver.seen.overflow) == 2
    print(f"window after group ids 1, 2**40, 2**62: {window_bytes(receiver.seen)} B")
    assert window_bytes(receiver.seen) < 2048
    # In-order objects after the jump go to the bitmap, and the prune that
    # follows the jump forgets every group 64 behind 2**62: the 4,097th
    # location remembered is group 4,095; 4,096 to 4,199 come after it.
    for group in range(2, 4200):
        feed(receiver, Location(group, 0))
    assert receiver.seen.overflow == {Location(2**62, 0)}
    assert len(receiver.seen) == 1 + 104 and receiver.seen.base == 4096
    assert window_bytes(receiver.seen) < 2048


def test_a_prune_builds_no_location():
    receiver, _ = receiving()
    for group in range(1, DEDUPE_PRUNE_THRESHOLD + 1):
        feed(receiver, Location(group, 0))
    largest = Location(DEDUPE_PRUNE_THRESHOLD + 1, 0)
    window = receiver.seen
    built = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is Location.__new__.__code__:
            built.append(frame)

    tracemalloc.start()
    sys.setprofile(count)
    try:
        window.add(largest)
        window.prune(largest)
    finally:
        sys.setprofile(None)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert built == [] and len(window) == DEDUPE_GROUP_HORIZON + 1
    # A few ints of the bitmap's width (4,097 bits), no table.
    assert peak < 4096


# ---------------------------------------------------------------- networked
def test_a_reattach_after_the_prune_is_gapless_and_exactly_once(monkeypatch):
    """More than ``DEDUPE_PRUNE_THRESHOLD`` objects through a small tree, the
    subscriber's edge killed, the gap FETCH after the re-attach: every group
    once, in order, and the duplicates the set drops for what each receiver
    was handed."""
    handed: dict[int, list[Location]] = defaultdict(list)
    deliver = TrackReceiver.__call__

    def recording(self, obj):
        if self.held is None:  # a dedupe decision, not a hold-back
            handed[id(self)].append(obj.location)
        deliver(self, obj)

    monkeypatch.setattr(TrackReceiver, "__call__", recording)
    run = build_scenario(Scenario(spec=RelayTreeSpec.cdn(mid_relays=1, edge_per_mid=2), seed=5))
    simulator, publisher, tree = run.simulator, run.origin, run.topology
    tree.attach_subscribers(1)
    (subscriber,) = tree.subscribers
    received: list[int] = []
    tree.subscribe_all(TRACK, on_object=lambda sub, obj: received.append(obj.group_id))
    simulator.run(until=simulator.now + 3.0)

    def push(groups) -> None:
        for group in groups:
            publisher.push(MoqtObject(group_id=group, object_id=0, payload=b"v"))
            if group % 50 == 0:
                simulator.run(until=simulator.now + 0.05)

    last = DEDUPE_PRUNE_THRESHOLD + 200
    push(range(2, last))
    simulator.run(until=simulator.now + 1.0)
    (track,) = subscriber.tracks
    assert track.delivered == last - 2 > len(track.seen), "the window was pruned"
    tree.kill_relay(subscriber.leaf)
    # Published while the subscriber re-attaches: only the gap FETCH has them.
    push(range(last, last + 20))
    simulator.run(until=simulator.now + 5.0)
    push(range(last + 20, last + 40))
    simulator.run(until=simulator.now + 2.0)

    assert received == list(range(2, last + 40)), "gapless and exactly once"
    assert subscriber.reattach_count == 1 and subscriber.recovery_fetches == 1
    oracle = SetWindow()
    dropped = sum(not oracle.deliver(location) for location in handed[id(track)])
    print(
        f"re-attach after the prune: {track.delivered} delivered, {len(track.seen)} remembered, "
        f"{dropped} duplicates dropped (the set drops {dropped} of the same {len(handed[id(track)])})"
    )
    assert subscriber.duplicate_objects_dropped == dropped > 0
    assert len(track.seen) == len(oracle.seen) and track.largest == oracle.largest
