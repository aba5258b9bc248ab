"""Virtual-time span tracing: a sampled flight recorder for fan-out.

A :class:`SpanTracer` follows individual MoQT objects from
``OriginPublisher.push`` through every relay's ``_forward_to_downstream``
to subscriber delivery, all in **virtual (simulated) time**.  Each sampled
object accumulates one :class:`ObjectSpan`: the push timestamp, one hop
record per relay that forwarded it, and one delivery record per sampled
subscriber.  From those, :meth:`SpanTracer.tier_breakdown` reconstructs the
per-tier latency decomposition of every delivery by walking the relay chain
backwards (leaf -> parent -> ... -> origin), so the per-tier segments of any
single delivery *telescope*: they sum exactly to that delivery's end-to-end
latency.

Determinism contract
--------------------
Tracing is purely observational.  The tracer

* never schedules events, draws from the seeded RNG, or touches wire bytes;
* is keyed off the object's ``Location`` and the clock value the call site
  already holds — recording is a dict lookup plus an append;
* samples by ``Location.group_id`` (and subscriber index), which are
  deterministic, so two seeded runs trace identical spans.

Seeded experiment outputs are therefore bit-identical with tracing enabled
or disabled; the telemetry test battery locks this in.

Hot-path cost
-------------
The fan-out fast path only ever pays for tracing when a tracer is actually
installed: call sites read ``network.telemetry.spans`` (None by default) and
skip everything on None.  With a tracer installed, unsampled objects cost
one modulo (push) or one failed dict lookup (hop/delivery).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.metrics import _percentile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.moqt.objectmodel import Location


class ObjectSpan:
    """The recorded journey of one object through the tree."""

    __slots__ = ("location", "push_time", "hops", "deliveries")

    def __init__(self, location: "Location", push_time: float) -> None:
        self.location = location
        self.push_time = push_time
        #: host address -> (tier name, upstream host address, forward time).
        #: One entry per relay that forwarded the object; the upstream
        #: pointer is what lets the breakdown walk each delivery's chain.
        self.hops: dict[str, tuple[str, str, float]] = {}
        #: (leaf relay host, subscriber index, delivery time) per sampled
        #: subscriber delivery.
        self.deliveries: list[tuple[str, int, float]] = []

    def _chain(self, leaf_host: str) -> list[tuple[str, float]] | None:
        """The relay chain for one delivery, origin-side first.

        Returns ``[(tier, forward_time), ...]`` or None when the leaf's hop
        record is missing (the object was forwarded before tracing started,
        or the relay chain crossed a failover boundary mid-object).
        """
        chain: list[tuple[str, float]] = []
        host = leaf_host
        # Bounded walk: a hop's upstream pointer either reaches a host with
        # no hop record (the origin) or would cycle; len(hops)+1 steps is
        # provably enough to detect either.
        for _ in range(len(self.hops) + 1):
            hop = self.hops.get(host)
            if hop is None:
                return chain[::-1] if chain else None
            tier, upstream_host, time = hop
            chain.append((tier, time))
            host = upstream_host
        return None  # cycle (cannot happen in a well-formed tree)


class SpanTracer:
    """Samples object journeys and aggregates per-tier latency breakdowns.

    Parameters
    ----------
    sample_every:
        Trace objects whose ``location.group_id % sample_every == 0``.
        1 traces every object.
    subscriber_sample_every:
        Record deliveries only for subscribers whose index is a multiple of
        this; at 100k subscribers recording every delivery of every sampled
        object would dominate the run.
    max_spans:
        Hard cap on live spans; pushes beyond it are counted in
        :attr:`dropped_spans` instead of recorded (flight-recorder
        semantics: bounded memory no matter how long the run).
    """

    __slots__ = (
        "sample_every",
        "subscriber_sample_every",
        "max_spans",
        "dropped_spans",
        "_spans",
        "promotions",
    )

    #: Mirrors ``TraceRecorder.enabled`` — call sites may check it before
    #: building anything expensive.  A constructed tracer is always on; use
    #: ``telemetry.spans = None`` (the default) to disable tracing.
    enabled = True

    def __init__(
        self,
        sample_every: int = 1,
        subscriber_sample_every: int = 1,
        max_spans: int = 4096,
    ) -> None:
        if sample_every < 1 or subscriber_sample_every < 1:
            raise ValueError("sampling strides must be >= 1")
        self.sample_every = sample_every
        self.subscriber_sample_every = subscriber_sample_every
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._spans: dict["Location", ObjectSpan] = {}
        #: Origin promotions observed this run, in epoch order — the
        #: control-plane-free failover's only trace segment (see
        #: :meth:`record_promotion`).
        self.promotions: list[dict[str, object]] = []

    # -------------------------------------------------------------- recording
    def record_push(self, location: "Location", now: float) -> None:
        """Origin pushed ``location`` at virtual time ``now``.

        Opens the span when the location is sampled; hops and deliveries for
        unsampled locations fall through a single failed dict lookup.
        """
        if location.group_id % self.sample_every:
            return
        if location in self._spans:
            return  # duplicate push (re-publish) keeps the original timeline
        if len(self._spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self._spans[location] = ObjectSpan(location, now)

    def record_hop(
        self,
        location: "Location",
        tier: str,
        host: str,
        upstream_host: str,
        now: float,
    ) -> None:
        """Relay ``host`` (tier ``tier``) forwarded ``location`` at ``now``."""
        span = self._spans.get(location)
        if span is not None and host not in span.hops:
            span.hops[host] = (tier, upstream_host, now)

    def record_delivery(
        self, location: "Location", leaf_host: str, subscriber_index: int, now: float
    ) -> None:
        """Subscriber ``subscriber_index`` (attached below ``leaf_host``)
        received ``location`` at ``now``."""
        if subscriber_index % self.subscriber_sample_every:
            return
        span = self._spans.get(location)
        if span is not None:
            span.deliveries.append((leaf_host, subscriber_index, now))

    def record_promotion(
        self,
        epoch: int,
        old_active: str,
        new_active: str,
        at: float,
        detection_latency: float | None = None,
    ) -> None:
        """An origin promotion ran at virtual time ``at``.

        Unlike pushes/hops/deliveries this is not sampled — promotions are
        rare, epoch-ordered control events, and every one matters for
        reconstructing why a delivery's relay chain changed mid-run.  Purely
        observational, like every recorder on this tracer.
        """
        self.promotions.append(
            {
                "epoch": epoch,
                "old_active": old_active,
                "new_active": new_active,
                "at": at,
                "detection_latency": detection_latency,
            }
        )

    def clear(self) -> None:
        """Drop all recorded spans (reuse the tracer across seeded runs)."""
        self._spans.clear()
        self.dropped_spans = 0
        self.promotions.clear()

    # ------------------------------------------------------------- inspection
    @property
    def span_count(self) -> int:
        """Number of live spans."""
        return len(self._spans)

    @property
    def delivery_count(self) -> int:
        """Total sampled deliveries across all spans."""
        return sum(len(span.deliveries) for span in self._spans.values())

    def spans(self) -> list[ObjectSpan]:
        """All recorded spans, in push order."""
        return list(self._spans.values())

    # ------------------------------------------------------------ aggregation
    def delivery_breakdowns(self) -> list[dict[str, object]]:
        """One decomposed record per sampled delivery.

        Each record's ``segments`` map tier name -> seconds spent reaching
        that tier's relay from the tier above (the first tier is measured
        from the origin push, ``subscribers`` from the leaf relay to the
        application callback), and sums exactly to ``end_to_end``.
        Deliveries whose relay chain cannot be reconstructed (pre-tracing
        forwards) are skipped.
        """
        records: list[dict[str, object]] = []
        for span in self._spans.values():
            for leaf_host, index, delivery_time in span.deliveries:
                chain = span._chain(leaf_host)
                if chain is None:
                    continue
                segments: dict[str, float] = {}
                previous = span.push_time
                for tier, time in chain:
                    segments[tier] = segments.get(tier, 0.0) + (time - previous)
                    previous = time
                segments["subscribers"] = delivery_time - previous
                records.append(
                    {
                        "location": (span.location.group_id, span.location.object_id),
                        "subscriber": index,
                        "leaf": leaf_host,
                        "segments": segments,
                        "end_to_end": delivery_time - span.push_time,
                    }
                )
        return records

    def tier_breakdown(self) -> list[dict[str, object]]:
        """Per-tier latency statistics over every sampled delivery.

        Rows carry ``tier`` / ``count`` / ``p50_ms`` / ``p99_ms`` /
        ``mean_ms`` / ``max_ms``, ordered origin-side tier first with a
        final ``end_to_end`` row.  Because each delivery's segments
        telescope, the sum of the per-tier *mean* values equals the mean
        end-to-end latency (and likewise per delivery — the property E11's
        acceptance check asserts).
        """
        by_tier: dict[str, list[float]] = {}
        end_to_end: list[float] = []
        for record in self.delivery_breakdowns():
            for tier, seconds in record["segments"].items():  # type: ignore[union-attr]
                by_tier.setdefault(tier, []).append(seconds)
            end_to_end.append(record["end_to_end"])  # type: ignore[arg-type]
        rows = [self._stats_row(tier, values) for tier, values in by_tier.items()]
        rows.append(self._stats_row("end_to_end", end_to_end))
        return rows

    @staticmethod
    def _stats_row(tier: str, values: list[float]) -> dict[str, object]:
        ordered = sorted(values)
        count = len(ordered)
        return {
            "tier": tier,
            "count": count,
            "p50_ms": _percentile(ordered, 50) * 1000.0,
            "p99_ms": _percentile(ordered, 99) * 1000.0,
            "mean_ms": (sum(ordered) / count * 1000.0) if count else 0.0,
            "max_ms": (ordered[-1] * 1000.0) if ordered else 0.0,
        }

    def summary(self) -> dict[str, object]:
        """A JSON-friendly snapshot: counts plus the tier breakdown."""
        return {
            "spans": self.span_count,
            "deliveries": self.delivery_count,
            "dropped_spans": self.dropped_spans,
            "sample_every": self.sample_every,
            "subscriber_sample_every": self.subscriber_sample_every,
            "tiers": self.tier_breakdown(),
            "promotions": list(self.promotions),
        }
