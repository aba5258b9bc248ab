"""Virtual clock and event scheduler for the discrete-event simulator.

The :class:`Simulator` owns the virtual time and a priority queue of pending
events.  Protocol code never sleeps; it schedules callbacks with
:meth:`Simulator.call_later` or :meth:`Simulator.call_at` and the simulator
advances the clock to the next event when :meth:`Simulator.run` is called.

Determinism: events scheduled for the same instant fire in the order in which
they were scheduled (FIFO tie-breaking via a monotonically increasing sequence
number), and all randomness in the simulator is drawn from an explicitly
seeded :class:`random.Random` owned by the simulator.

Performance: this module is the innermost loop of every experiment and
benchmark, so the event queue is engineered for constant-factor speed:

* heap entries are plain ``(time, sequence, event)`` tuples, so ``heapq``
  comparisons resolve on C-level int/float compares (the sequence number is
  unique, the :class:`Event` object itself is never compared);
* :class:`Event` uses ``__slots__`` and carries optional positional
  arguments, so hot callers (the link layer) schedule bound methods directly
  instead of allocating a closure per datagram;
* cancellation is lazy — cancelled entries stay in the heap and are skipped
  at pop time — but the queue is compacted whenever more than half of it is
  dead, so timer-churn-heavy runs (retransmission timers stopped and
  restarted on every acknowledgement) do not grow the heap without bound;
* :attr:`Simulator.pending_events` is a live counter, not an O(n) scan.

The simulator also owns the simulation's decode memo (:attr:`Simulator.memos`):
one :class:`~repro.memo.Memo` table per decoded kind, which every role driven
by the simulator decodes through, so what one simulation decodes never
depends on which simulations ran before it in the process.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from typing import Any, Callable

from repro.memo import Memo


class SimulationError(Exception):
    """Raised for invalid interactions with the simulator."""


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, sequence)`` so that simultaneous events run
    in scheduling order.  Cancelled events stay in the heap but are skipped
    when popped; the owning simulator compacts the heap when too many
    cancelled entries accumulate.  A cancelled event drops its callback and
    arguments at once, so what it would have called (a bound method, and the
    object behind it) is not kept alive by a heap entry that will never run.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "_simulator")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        simulator: "Simulator",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback: Callable[..., None] | None = callback
        self.args = args
        self.cancelled = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Mark the event so it will not run when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        self._simulator._note_cancelled()


#: Heaps smaller than this are never compacted — rebuilding a handful of
#: entries costs more than lazily skipping them.
_COMPACT_MIN_QUEUE = 64


class Simulator:
    """Discrete-event simulator with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All protocol
        components must use :attr:`rng` (never the global ``random`` module)
        so that runs are reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Current virtual time in seconds.  Read-only by convention: only
        #: the run loop advances it (a plain attribute because the hot paths
        #: read it hundreds of thousands of times per simulated second).
        self.now = 0.0
        self._sequence = 0
        #: Min-heap of ``(time, sequence, event)`` tuples.
        self._queue: list[tuple[float, int, Event]] = []
        #: Live count of scheduled, not-yet-cancelled, not-yet-run events.
        self._pending = 0
        #: Count of cancelled entries still sitting in the heap.
        self._dead_in_queue = 0
        #: Number of times the heap has been compacted (cancelled entries
        #: dropped and the queue re-heapified).  Compaction work was invisible
        #: in the scheduler counters before this; ``sim_compactions`` scrapes it.
        self.compactions = 0
        self._running = False
        self.rng = random.Random(seed)
        #: The simulation's decode memo: one table per decoded kind (such as
        #: ``"moqt.control"``), made on first use.
        self.memos: defaultdict[str, Memo] = defaultdict(Memo)

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._pending

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the sequence counter, O(1)).

        Batched fan-out exists to keep this number from growing with the
        subscriber population; the macro-benchmarks report it so a regression
        back to one-event-per-datagram is visible in the JSON.
        """
        return self._sequence

    def _note_cancelled(self) -> None:
        self._pending -= 1
        self._dead_in_queue += 1
        queue = self._queue
        if len(queue) >= _COMPACT_MIN_QUEUE and self._dead_in_queue * 2 > len(queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Rebuilding preserves ordering exactly: entries compare by their
        ``(time, sequence)`` prefix, which is unique per event.
        """
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._dead_in_queue = 0
        self.compactions += 1

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(when, sequence, callback, args, self)
        heapq.heappush(self._queue, (when, sequence, event))
        self._pending += 1
        return event

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at the current virtual time."""
        return self.call_at(self.now, callback, *args)

    def run(self, until: float | None = None) -> int:
        """Run events until the queue drains or the next is due after ``until``.

        Parameters
        ----------
        until:
            Stop once the next event would occur strictly after this time.
            The clock is advanced to ``until`` when provided.

        Returns
        -------
        int
            The number of events executed.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                time, _, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    self._dead_in_queue -= 1
                    continue
                if until is not None and time > until:
                    break
                pop(queue)
                self._pending -= 1
                # Consumed: a late cancel() must not touch the counters.
                event.cancelled = True
                if time > self.now:
                    self.now = time
                event.callback(*event.args)
                executed += 1
                queue = self._queue  # _compact() may have replaced the list
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return executed

    def advance(self, delta: float) -> int:
        """Advance the clock by ``delta`` seconds, running due events."""
        if delta < 0:
            raise SimulationError(f"cannot advance by negative delta: {delta}")
        return self.run(until=self.now + delta)


class Timer:
    """A restartable one-shot timer bound to a :class:`Simulator`.

    Protocol components use timers for idle timeouts, retransmissions and
    periodic refresh.  A timer may be (re)started, stopped and queried; the
    callback fires once per start unless restarted.

    Restarts are lazy: a timer that is pushed back far more often than it
    fires (a retransmission timeout, by every acknowledgement) would cancel
    and re-insert a heap entry per restart if it re-armed eagerly.  Instead,
    extending the deadline only updates a float; the already-armed event
    wakes at the old deadline, notices the deadline moved, and re-arms itself
    for the remainder.  Shrinking the deadline still replaces the armed
    event, so the callback never fires late.
    """

    __slots__ = ("_simulator", "_callback", "_event", "_deadline")

    def __init__(self, simulator: Simulator, callback: Callable[[], None]) -> None:
        self._simulator = simulator
        self._callback = callback
        self._event: Event | None = None
        self._deadline: float | None = None

    @property
    def is_running(self) -> bool:
        """Whether the timer is armed and has not yet fired."""
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self) -> float | None:
        """Absolute time at which the timer will fire, if armed."""
        if self.is_running:
            return self._deadline
        return None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        deadline = self._simulator.now + delay
        event = self._event
        if event is not None and not event.cancelled and event.time <= deadline:
            # The armed wake fires at or before the new deadline; _fire will
            # re-arm for the remainder.  No heap traffic on the hot path.
            self._deadline = deadline
            return
        if event is not None:
            event.cancel()
        self._deadline = deadline
        self._event = self._simulator.call_at(deadline, self._fire)

    def stop(self) -> None:
        """Disarm the timer if it is running."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._deadline = None

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline is not None and deadline > self._simulator.now:
            # The deadline was pushed back while the wake was armed.
            self._event = self._simulator.call_at(deadline, self._fire)
            return
        self._event = None
        self._deadline = None
        self._callback()


class PeriodicTask:
    """Repeatedly invokes a callback at a fixed virtual-time interval."""

    __slots__ = ("_simulator", "_interval", "_callback", "_event", "_stopped")

    def __init__(
        self,
        simulator: Simulator,
        interval: float,
        callback: Callable[[], None],
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval}")
        self._simulator = simulator
        self._interval = interval
        self._callback = callback
        self._event: Event | None = None
        self._stopped = True

    @property
    def is_running(self) -> bool:
        """Whether the periodic task is active."""
        return not self._stopped

    def start(self, initial_delay: float | None = None) -> None:
        """Start firing; the first invocation happens after ``initial_delay``.

        Restarting an already-running task cancels the armed tick first —
        otherwise the old chain would keep rescheduling itself alongside the
        new one and the callback would fire twice per interval.
        """
        delay = self._interval if initial_delay is None else initial_delay
        if self._event is not None:
            self._event.cancel()
        self._stopped = False
        self._event = self._simulator.call_later(delay, self._tick)

    def stop(self) -> None:
        """Stop firing."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self._event = None
        self._callback()
        # The callback may have called start() itself (re-phasing the task);
        # arming a second chain on top of that one would double-fire.
        if not self._stopped and self._event is None:
            self._event = self._simulator.call_later(self._interval, self._tick)
