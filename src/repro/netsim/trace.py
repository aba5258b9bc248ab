"""Event tracing for simulations.

A :class:`TraceRecorder` keeps events (``datagram-sent`` /
``datagram-delivered`` from the network, or any kind a caller records) in
memory as :class:`TraceEvent` entries that can be filtered, counted and
rendered as message-sequence text.  Recording is opt-in: a
:class:`~repro.netsim.network.Network` is built with a
:class:`NullTraceRecorder` unless it is handed ``trace=TraceRecorder(simulator)``,
so a run that never reads its trace keeps no per-datagram state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """A single trace entry."""

    time: float
    kind: str
    attributes: tuple[tuple[str, Any], ...]

    def attribute(self, key: str, default: Any = None) -> Any:
        """Look up an attribute by key."""
        for name, value in self.attributes:
            if name == key:
                return value
        return default

    def as_dict(self) -> dict[str, Any]:
        """Return ``{"time": ..., "kind": ..., **attributes}``."""
        result: dict[str, Any] = {"time": self.time, "kind": self.kind}
        result.update(dict(self.attributes))
        return result


class TraceRecorder:
    """Collects :class:`TraceEvent` entries during a simulation run.

    Opt-in: a :class:`~repro.netsim.network.Network` records its datagrams
    only when built with ``trace=TraceRecorder(simulator)``; its default is a
    :class:`NullTraceRecorder`.
    """

    #: Hot callers (the network layer) may skip building record arguments
    #: entirely when this is False (see :class:`NullTraceRecorder`).
    enabled = True

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        self._events: list[TraceEvent] = []
        self._listeners: list[Callable[[TraceEvent], None]] = []
        # Per-kind tally kept as events arrive, so count(kind) never rescans.
        self._kind_counts: dict[str, int] = {}

    def record(self, kind: str, **attributes: Any) -> None:
        """Append an event timestamped at the current virtual time."""
        event = TraceEvent(
            time=self._simulator.now, kind=kind, attributes=tuple(sorted(attributes.items()))
        )
        self._events.append(event)
        counts = self._kind_counts
        counts[kind] = counts.get(kind, 0) + 1
        for listener in self._listeners:
            listener(event)

    def record_datagram(self, kind: str, datagram: Datagram) -> None:
        """One event for ``datagram`` (the network's ``datagram-sent`` and the
        host's ``datagram-delivered``); hot callers check :attr:`enabled` first."""
        self.record(
            kind,
            source=str(datagram.source),
            destination=str(datagram.destination),
            protocol=datagram.protocol,
            size=len(datagram.payload),
        )

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked for every future event."""
        self._listeners.append(listener)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """All events, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def count(self, kind: str | None = None) -> int:
        """Number of events of the given kind (or all events) — O(1)."""
        if kind is None:
            return len(self._events)
        return self._kind_counts.get(kind, 0)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
        self._kind_counts.clear()

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        """Events matching an arbitrary predicate."""
        return [event for event in self._events if predicate(event)]

    def kinds(self) -> list[str]:
        """Distinct event kinds in order of first occurrence."""
        # dicts preserve insertion order, so the incremental tally already
        # holds the kinds in first-occurrence order.
        return list(self._kind_counts)


class NullTraceRecorder(TraceRecorder):
    """A recorder that drops everything: the network's default.

    A run that never reads its trace pays for no per-datagram record.
    Listeners are unsupported — subscribing raises, so silently losing events
    is impossible.
    """

    enabled = False

    def record(self, kind: str, **attributes: Any) -> None:
        """Drop the event."""

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        raise RuntimeError("NullTraceRecorder drops events; attach a TraceRecorder instead")
