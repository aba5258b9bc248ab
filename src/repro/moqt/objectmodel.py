"""The MoQT object model: tracks contain groups, groups contain objects.

Objects are the unit of delivery.  Within a track an object is addressed by
``(group_id, object_id)``; MoQT requires that two objects with the same
group and object ID in the same track have identical payloads — the property
the paper relies on so that all subscribers of a DNS track observe identical
record versions (§4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple


class ObjectStatus(enum.IntEnum):
    """Object status codes (draft-12 §9.4.2)."""

    NORMAL = 0x0
    DOES_NOT_EXIST = 0x1
    END_OF_GROUP = 0x3
    END_OF_TRACK = 0x4


class Location(NamedTuple):
    """A position in a track: group ID plus object ID.

    A tuple, so hashing and ordering run in C: the delivery path hashes and
    compares a location several times per object per receiver.  The hash is
    ``hash((group_id, object_id))``, exactly what a frozen dataclass computes,
    so every set and dict keyed by locations iterates in the same order.
    """

    group_id: int
    object_id: int

    def next_group(self) -> "Location":
        """The first object of the following group."""
        return Location(self.group_id + 1, 0)


@dataclass(frozen=True, slots=True)
class MoqtObject:
    """A single object: addressing metadata plus an opaque payload."""

    group_id: int
    object_id: int
    payload: bytes
    subgroup_id: int = 0
    publisher_priority: int = 128
    status: ObjectStatus = ObjectStatus.NORMAL
    extensions: bytes = b""
    #: The object's location within its track, built once on construction:
    #: the delivery and dedupe paths read it several times per hop, and a
    #: fanned-out object is handled by thousands of receivers.  Derived from
    #: the IDs, so it is in neither equality, hashing nor repr.
    location: Location = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", Location(self.group_id, self.object_id))

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)


#: How many of its newest groups a track keeps for FETCH.
MAX_RETAINED_GROUPS = 64


class TrackState:
    """Publisher-side state of one track: the objects published so far.

    The DNS-over-MoQT authoritative server stores one ``TrackState`` per DNS
    question track.  Objects are retained so FETCH requests for earlier
    versions can be answered; ``largest`` tracks the newest location for
    SUBSCRIBE_OK / FETCH_OK responses.  The newest ``MAX_RETAINED_GROUPS``
    groups are retained.
    """

    def __init__(self, full_track_name: object) -> None:
        self.full_track_name = full_track_name
        self._objects: dict[Location, MoqtObject] = {}
        #: The retained locations by group, each in publish order, and the
        #: retained group ids as a min-heap: retention pops the stale groups
        #: and ``oldest`` reads the smallest one, neither rescanning objects.
        self._groups: dict[int, list[Location]] = {}
        self._group_heap: list[int] = []
        self.largest: Location | None = None

    def publish(self, obj: MoqtObject) -> None:
        """Record a newly published object."""
        location = obj.location
        existing = self._objects.get(location)
        if existing is None:
            group = self._groups.get(location.group_id)
            if group is None:
                self._groups[location.group_id] = [location]
                heappush(self._group_heap, location.group_id)
            else:
                group.append(location)
        elif existing.payload != obj.payload:
            raise ValueError(
                f"object {location} republished with different payload; "
                "MoQT requires identical content for identical IDs"
            )
        self._objects[location] = obj
        if self.largest is None or location > self.largest:
            self.largest = location
        self._enforce_retention()

    def _enforce_retention(self) -> None:
        minimum_group = self.largest.group_id - MAX_RETAINED_GROUPS + 1
        heap = self._group_heap
        while heap and heap[0] < minimum_group:
            for location in self._groups.pop(heappop(heap)):
                del self._objects[location]

    def get(self, location: Location) -> MoqtObject | None:
        """The object at ``location``, if still retained."""
        return self._objects.get(location)

    @property
    def oldest(self) -> Location | None:
        """The oldest location still retained, if any."""
        if not self._group_heap:
            return None
        return min(self._groups[self._group_heap[0]])

    def objects_in_range(self, start: Location, end: Location | None) -> list[MoqtObject]:
        """Objects between ``start`` (inclusive) and ``end`` (inclusive, or
        open when ``None``), ordered."""
        selected = [
            obj
            for location, obj in self._objects.items()
            if location >= start and (end is None or location <= end)
        ]
        return sorted(selected, key=lambda obj: obj.location)

    def latest_objects(self, count: int) -> list[MoqtObject]:
        """The ``count`` most recent objects, oldest first."""
        ordered = sorted(self._objects.values(), key=lambda obj: obj.location)
        return ordered[-count:]

    def __len__(self) -> int:
        return len(self._objects)
