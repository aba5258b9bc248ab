"""Reference for the receiver's dedupe window: a set of locations.

:class:`SetWindow` is the dedupe :class:`repro.moqt.receiver.TrackReceiver`
kept before its window became a bitmap: every delivered ``Location`` in a
``set``, the largest one as the resume point, and past
``DEDUPE_PRUNE_THRESHOLD`` remembered locations the prune below (the groups
within ``DEDUPE_GROUP_HORIZON`` of the largest, then the newest half if still
over).  ``test_dedupe_window.py`` feeds it and a receiver the same locations
and requires the same deliver / drop decisions, sizes and resume points.
"""

from __future__ import annotations

from repro.moqt.objectmodel import Location
from repro.moqt.receiver import DEDUPE_GROUP_HORIZON, DEDUPE_PRUNE_THRESHOLD


def prune_seen_locations(seen: set[Location], largest: Location) -> set[Location]:
    """Shrink a delivered-locations set to a bounded window."""
    horizon = largest.group_id - DEDUPE_GROUP_HORIZON
    pruned = {location for location in seen if location.group_id >= horizon}
    if len(pruned) > DEDUPE_PRUNE_THRESHOLD:
        pruned = set(sorted(pruned)[-DEDUPE_PRUNE_THRESHOLD // 2 :])
    return pruned


class SetWindow:
    """Delivered locations as a set, and the largest one."""

    def __init__(self) -> None:
        self.seen: set[Location] = set()
        self.largest: Location | None = None

    def deliver(self, location: Location) -> bool:
        """Whether ``location`` is delivered (True) or dropped as a duplicate."""
        if location in self.seen:
            return False
        self.seen.add(location)
        if self.largest is None or location > self.largest:
            self.largest = location
        if len(self.seen) > DEDUPE_PRUNE_THRESHOLD:
            self.seen = prune_seen_locations(self.seen, self.largest)
        return True
