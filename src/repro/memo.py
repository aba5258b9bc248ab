"""A table of a simulation's decode memo (:attr:`repro.netsim.simulator.Simulator.memos`).

A decode is a function of its bytes and the decoded values are immutable, so
the roles of one simulation can share one decoded instance per distinct
input: the sessions of a relay tree receive byte-identical control messages
and data streams, and the DNS roles of a resolver chain byte-identical
answers and equal track names.  The simulator keeps one :class:`Memo` per
decoded kind; callers store successful decodes only.
"""

from __future__ import annotations

from typing import Any


class Memo(dict):
    """Decoded values by their input, with one eviction rule (:meth:`keep`).

    A full table is cleared: O(1) amortised, and what is in flight is decoded
    again at most once.
    """

    __slots__ = ()

    MAX_ENTRIES = 512

    def keep(self, key: Any, value: Any) -> Any:
        """Store ``value`` under ``key``, clearing the table first when full; returns ``value``."""
        if len(self) >= self.MAX_ENTRIES:
            self.clear()
        self[key] = value
        return value
