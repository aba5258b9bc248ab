"""The object model against its references (``repro.moqt.objectmodel``).

* ``Location`` is a ``NamedTuple``; the reference is the frozen ``order=True``
  dataclass it replaced, kept here.  On a grid of ids the two agree on
  ``hash``, ``==``, the four orderings and ``repr``, and a set or dict built
  from the same inserts (and deletions) iterates in the same order — the
  property that keeps every seeded output fixed.
* ``TrackState`` retains by a per-group index; the reference is the rescan it
  replaced (every retained object scanned on each publish, ``oldest`` a
  ``min()`` over them), kept here.  Under in-order and out-of-order publish
  sequences, republishes included, the two agree after every publish on the
  retained objects in dict order, ``largest``, ``oldest``, ``len``,
  ``objects_in_range`` and ``latest_objects``.
"""

from __future__ import annotations

import random
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.moqt import objectmodel
from repro.moqt.objectmodel import Location, MoqtObject, TrackState

#: The dataclass ``Location`` was, under the same name so ``repr`` compares.
ReferenceLocation = make_dataclass(
    "Location", [("group_id", int), ("object_id", int)], frozen=True, order=True
)

GROUPS = (0, 1, 2, 3, 63, 64, 1000, 16383, 16384, (1 << 30) - 1, 1 << 40, (1 << 62) - 1)
OBJECTS = (0, 1, 2, 7, 63, 64, 4096)
GRID = [(group, obj) for group in GROUPS for obj in OBJECTS]


class TestLocationMatchesTheDataclass:
    def test_hash_and_repr(self):
        for group, obj in GRID:
            new, old = Location(group, obj), ReferenceLocation(group, obj)
            assert hash(new) == hash(old)
            assert repr(new) == repr(old)
            assert new.next_group() == Location(group + 1, 0)

    def test_equality_and_ordering(self):
        for a in GRID:
            for b in GRID:
                new_a, new_b = Location(*a), Location(*b)
                old_a, old_b = ReferenceLocation(*a), ReferenceLocation(*b)
                assert (new_a == new_b) == (old_a == old_b)
                assert (new_a != new_b) == (old_a != old_b)
                assert (new_a < new_b) == (old_a < old_b)
                assert (new_a <= new_b) == (old_a <= old_b)
                assert (new_a > new_b) == (old_a > old_b)
                assert (new_a >= new_b) == (old_a >= old_b)

    def test_sets_and_dicts_iterate_in_the_same_order(self):
        for seed in range(20):
            rng = random.Random(seed)
            inserts = [rng.choice(GRID) for _ in range(rng.randrange(1, 3 * len(GRID)))]
            deletes = rng.sample(inserts, k=len(inserts) // 3)
            new_set, old_set = set(), set()
            new_dict, old_dict = {}, {}
            for step, pair in enumerate(inserts):
                new_set.add(Location(*pair))
                old_set.add(ReferenceLocation(*pair))
                new_dict[Location(*pair)] = step
                old_dict[ReferenceLocation(*pair)] = step
            for pair in deletes:
                new_set.discard(Location(*pair))
                old_set.discard(ReferenceLocation(*pair))
                new_dict.pop(Location(*pair), None)
                old_dict.pop(ReferenceLocation(*pair), None)
            as_pairs = lambda locations: [(l.group_id, l.object_id) for l in locations]
            assert as_pairs(new_set) == as_pairs(old_set)
            assert as_pairs(new_dict) == as_pairs(old_dict)
            assert list(new_dict.values()) == list(old_dict.values())
            assert as_pairs(sorted(new_set)) == as_pairs(sorted(old_set))
            assert as_pairs([min(new_set, default=Location(0, 0))]) == as_pairs(
                [min(old_set, default=ReferenceLocation(0, 0))]
            )


class RescanTrackState:
    """``TrackState`` as it was: retention and ``oldest`` rescan every object."""

    def __init__(self, max_retained_groups):
        self._objects = {}
        self._max_retained_groups = max_retained_groups
        self.largest = None

    def publish(self, obj):
        location = obj.location
        existing = self._objects.get(location)
        if existing is not None and existing.payload != obj.payload:
            raise ValueError("republished with different payload")
        self._objects[location] = obj
        if self.largest is None or location > self.largest:
            self.largest = location
        self._enforce_retention()

    def _enforce_retention(self):
        if self._max_retained_groups is None or self.largest is None:
            return
        minimum_group = self.largest.group_id - self._max_retained_groups + 1
        if minimum_group <= 0:
            return
        stale = [location for location in self._objects if location.group_id < minimum_group]
        for location in stale:
            del self._objects[location]

    @property
    def oldest(self):
        return min(self._objects, default=None)

    def objects_in_range(self, start, end=None):
        selected = [
            obj
            for location, obj in self._objects.items()
            if location >= start and (end is None or location <= end)
        ]
        return sorted(selected, key=lambda obj: obj.location)

    def latest_objects(self, count):
        return sorted(self._objects.values(), key=lambda obj: obj.location)[-count:]


def _object(group, obj):
    return MoqtObject(group_id=group, object_id=obj, payload=b"%d.%d" % (group, obj))


locations = st.tuples(st.integers(0, 40), st.integers(0, 3))
positions = locations.map(lambda pair: Location(*pair))


@st.composite
def publish_sequences(draw):
    """In-order runs (the fan-out shape), shuffled sets, and random mixes, each
    possibly with republishes of what came before."""
    shape = draw(st.sampled_from(["in-order", "shuffled", "random"]))
    if shape == "random":
        sequence = draw(st.lists(locations, min_size=1, max_size=80))
    else:
        groups = draw(st.integers(1, 40))
        per_group = draw(st.integers(1, 3))
        sequence = [(group, obj) for group in range(groups) for obj in range(per_group)]
        if shape == "shuffled":
            sequence = draw(st.permutations(sequence))
    repeats = draw(st.lists(st.sampled_from(sequence), max_size=10))
    at = draw(
        st.lists(st.integers(0, len(sequence)), min_size=len(repeats), max_size=len(repeats))
    )
    sequence = list(sequence)
    for position, pair in sorted(zip(at, repeats), reverse=True):
        sequence.insert(position, pair)
    return sequence


def _same(state, reference, probes):
    assert list(state._objects.items()) == list(reference._objects.items())
    assert len(state) == len(reference._objects)
    assert state.largest == reference.largest
    assert state.oldest == reference.oldest
    for start, end in probes:
        assert state.objects_in_range(start, end) == reference.objects_in_range(start, end)
        assert state.objects_in_range(start, None) == reference.objects_in_range(start, None)
    for count in (1, 2, 5, 1000):
        assert state.latest_objects(count) == reference.latest_objects(count)


class TestRetentionMatchesTheRescan:
    @settings(max_examples=200, deadline=None)
    @given(
        sequence=publish_sequences(),
        max_retained_groups=st.sampled_from([1, 2, 3, 5, 64]),
        probes=st.lists(st.tuples(positions, positions), max_size=3),
    )
    def test_after_every_publish(self, sequence, max_retained_groups, probes):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(objectmodel, "MAX_RETAINED_GROUPS", max_retained_groups)
            state = TrackState("track")
            reference = RescanTrackState(max_retained_groups)
            for group, obj in sequence:
                state.publish(_object(group, obj))
                reference.publish(_object(group, obj))
                _same(state, reference, probes)

    def test_seventy_groups_in_order_keep_the_last_sixty_four(self):
        state = TrackState("track")
        for group in range(1, 71):
            state.publish(_object(group, 0))
        assert len(state) == 64
        assert state.oldest == Location(7, 0)
        assert [obj.group_id for obj in state.latest_objects(2)] == [69, 70]
        assert sorted(state._groups) == list(range(7, 71))

    def test_an_empty_track_and_a_conflicting_republish(self):
        state = TrackState("track")
        assert state.oldest is None and state.latest_objects(3) == [] and len(state) == 0
        state.publish(_object(1, 0))
        with pytest.raises(ValueError):
            state.publish(MoqtObject(group_id=1, object_id=0, payload=b"other"))
        assert list(state._groups) == [1] and state._groups[1] == [Location(1, 0)]
