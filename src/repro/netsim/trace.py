"""Event tracing for simulations.

Every experiment records protocol-level events (datagram sent, subscription
established, record updated, ...) through a :class:`TraceRecorder`.  Traces
are kept in memory as :class:`TraceEvent` entries and can be filtered,
counted and rendered as message-sequence text — the latter is how the Fig. 2
lookup-sequence experiment prints its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

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

    Recording sits on the per-datagram fast path, so :meth:`record` and
    :meth:`record_datagram` only append a raw tuple; :class:`TraceEvent`
    objects (with their canonically sorted attribute tuples) are materialised
    lazily the first time the trace is read.
    """

    #: Hot callers (the network layer) may skip building record arguments
    #: entirely when this is False (see :class:`NullTraceRecorder`).
    enabled = True

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        #: ``(time, kind, attributes)`` from :meth:`record`, or the unformatted
        #: ``(time, kind, source, destination, protocol, size)`` from
        #: :meth:`record_datagram`.
        self._raw: list[tuple] = []
        self._materialized: list[TraceEvent] = []
        self._listeners: list[Callable[[TraceEvent], None]] = []
        # Incremental per-kind tally: experiments call count(kind) in loops,
        # which used to rescan the whole raw list every time.
        self._kind_counts: dict[str, int] = {}

    def record(self, kind: str, **attributes: Any) -> None:
        """Append an event timestamped at the current virtual time."""
        self._append((self._simulator.now, kind, attributes))

    def record_datagram(
        self, kind: str, source: Any, destination: Any, protocol: str, size: int
    ) -> None:
        """Append a per-datagram event without formatting anything.

        Same event as ``record(kind, source=str(source),
        destination=str(destination), protocol=protocol, size=size)``, but
        the address strings are only built if the trace is ever read — most
        runs only :meth:`count` their datagram events.
        """
        self._append((self._simulator.now, kind, source, destination, protocol, size))

    def _append(self, entry: tuple) -> None:
        self._raw.append(entry)
        counts = self._kind_counts
        kind = entry[1]
        counts[kind] = counts.get(kind, 0) + 1
        if self._listeners:
            event = self._events_list()[-1]
            for listener in self._listeners:
                listener(event)

    def _events_list(self) -> list[TraceEvent]:
        """Materialise (and cache) TraceEvent objects for all raw entries."""
        materialized = self._materialized
        raw = self._raw
        if len(materialized) < len(raw):
            for entry in raw[len(materialized):]:
                if len(entry) == 3:
                    time, kind, attributes = entry
                    items = tuple(sorted(attributes.items()))
                else:
                    time, kind, source, destination, protocol, size = entry
                    items = (
                        ("destination", str(destination)),
                        ("protocol", protocol),
                        ("size", size),
                        ("source", str(source)),
                    )
                materialized.append(TraceEvent(time=time, kind=kind, attributes=items))
        return materialized

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked for every future event."""
        self._listeners.append(listener)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """All events, optionally filtered by kind."""
        if kind is None:
            return list(self._events_list())
        return [event for event in self._events_list() if event.kind == kind]

    def count(self, kind: str | None = None) -> int:
        """Number of events of the given kind (or all events) — O(1)."""
        if kind is None:
            return len(self._raw)
        return self._kind_counts.get(kind, 0)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._raw.clear()
        self._materialized.clear()
        self._kind_counts.clear()

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        """Events matching an arbitrary predicate."""
        return [event for event in self._events_list() if predicate(event)]

    def kinds(self) -> list[str]:
        """Distinct event kinds in order of first occurrence."""
        # dicts preserve insertion order, so the incremental tally already
        # holds the kinds in first-occurrence order.
        return list(self._kind_counts)


class NullTraceRecorder(TraceRecorder):
    """A recorder that drops everything.

    For throughput-oriented simulations (large fan-out benchmarks) that never
    read their traces: per-datagram recording is pure overhead there.
    Listeners are unsupported — subscribing raises, so silently losing events
    is impossible.
    """

    enabled = False

    def record(self, kind: str, **attributes: Any) -> None:
        """Drop the event."""

    def record_datagram(
        self, kind: str, source: Any, destination: Any, protocol: str, size: int
    ) -> None:
        """Drop the event."""

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        raise RuntimeError("NullTraceRecorder drops events; attach a TraceRecorder instead")


def format_sequence(
    events: Iterable[TraceEvent],
    columns: tuple[str, ...] = ("source", "destination", "detail"),
) -> str:
    """Render events as a textual message-sequence chart.

    Each line shows the timestamp, the event kind and selected attributes;
    used by the Fig. 2 experiment and the quickstart example to show the
    recursive lookup sequence.
    """
    lines = []
    for event in events:
        parts = [f"{event.time * 1000:9.3f}ms", f"{event.kind:<24}"]
        for column in columns:
            value = event.attribute(column)
            if value is not None:
                parts.append(f"{column}={value}")
        lines.append("  ".join(parts))
    return "\n".join(lines)
