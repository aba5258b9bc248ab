"""Fast-path performance harness: micro + macro benchmarks with JSON output.

Micro and macro layers cover the simulation fast path end to end:

* ``event_loop_churn`` — raw scheduler throughput: schedule/run/cancel churn
  through :class:`repro.netsim.simulator.Simulator`, including heavy timer
  cancellation so lazy deletion and heap compaction are on the measured path;
* ``varint_roundtrip`` — codec throughput: QUIC varint encode/decode over the
  RFC 9000 size classes, plus reader/writer round-trips;
* ``relay_fanout_e11`` — the E11 relay fan-out experiment (three-tier CDN
  tree, 1,000 subscribers) measured end to end, wall-clock;
* ``cdn_macro_10k`` — the 10,000-subscriber CDN-tree macro-benchmark.  It
  asserts the paper's origin-egress invariant: origin egress is
  O(branching factor) and must match the 1,000-subscriber run byte for byte
  even though the subscriber population grew 10x;
* ``cdn_macro_100k`` — the 100,000-subscriber macro-benchmark (full runs
  only; ``--smoke`` keeps the 10k run as its largest macro).  Same invariant,
  two orders of magnitude above the E11 scale, exercising the allocation-free
  fan-out path: link-batch delivery and header-patch-only per-subscriber
  sends;
* ``relay_churn`` — the E12 churn macro-benchmark: kill a mid-tier and an
  edge relay under a live 1,000-subscriber CDN run and assert the delivery
  contract survives (every subscriber sees a gapless, duplicate-free,
  in-order sequence; re-attach latency matches the closed-form model);
* ``failure_detection`` — the E13 in-band detection macro-benchmark: crash
  a mid-tier and an edge relay *silently* (zero control-plane kill signals)
  and assert delivery stays gapless end to end with failover driven purely
  by QUIC liveness (PTO-suspect and idle-timeout paths, both matching the
  closed-form detection model);
* ``origin_failover`` — the E14 replicated-origin macro-benchmark: crash
  the *active origin* silently under a live 1,000-subscriber tree and
  assert the in-band promotion (detect -> elect -> transplant) keeps every
  subscriber gapless, with the measured promotion latency matching the
  closed-form model in ``repro.analysis.promotion`` and zero control-plane
  signals end to end;
* ``constrained_tiers_e15`` — the E15 bandwidth sweep: the E11 CDN tree on
  finite per-tier bandwidth, charting the knee where serialisation delay
  overtakes propagation.  The gates are machine-independent: every measured
  delivery time must equal the closed-form model in
  ``repro.analysis.constrained`` bit-exactly, the measured knee must land
  on the modelled knee, the lossy-edge sample must repair every drop (with
  NewReno congestion events observable), and the link-batch fallback-wave
  counter must stay zero — constrained links batching is the bugfix this
  experiment exists to pin;
* ``constrained_macro_100k`` — the lossy constrained regime at the E11
  macro population: 100,000 dense subscribers on 2 Mbit/s tiers with 0.5 %
  access loss and NewReno on every relay's downstream side.  Runs in
  ``--smoke`` (the regime the old silent per-datagram fallback made
  unrunnable must stay inside the CI smoke budget) and gates on full loss
  repair with zero fallback waves;
* ``flash_crowd`` — the E16 subscribe-storm macro-benchmark: an
  unlimited baseline whose pending-subscribe high-water mark grows with
  storm size (the unbounded-queue pathology), a token-bucket-throttled
  storm that must admit 100 % of stormers with the measured completion
  time and join-latency distribution matching the closed-form model in
  ``repro.analysis.admission`` bit-exactly (and rejections actually
  observed), and a hotspot storm pinned to one edge relay that must
  spread across sibling leaves via spillover.  All gates are
  machine-independent.

Results are written to ``BENCH_fastpath.json`` (schema documented in
``benchmarks/perf/README.md``) so the performance trajectory of the repo is
machine-readable and CI can archive it per commit.  ``--check`` compares the
micro-benchmark throughputs of the current run against a committed reference
document and exits non-zero on a regression beyond the tolerance band — the
CI ``perf-smoke`` regression gate.

Usage::

    PYTHONPATH=src python benchmarks/perf/perf_fastpath.py
    PYTHONPATH=src python benchmarks/perf/perf_fastpath.py --smoke
    PYTHONPATH=src python benchmarks/perf/perf_fastpath.py --repeat 3
    PYTHONPATH=src python benchmarks/perf/perf_fastpath.py --only cdn_macro_10k --profile
    PYTHONPATH=src python benchmarks/perf/perf_fastpath.py --smoke --check BENCH_fastpath.json
    PYTHONPATH=src python benchmarks/perf/perf_fastpath.py --metrics --output out.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.experiments.constrained_tiers import (
    run_constrained_macro,
    run_constrained_tiers,
)
from repro.experiments.failure_detection import run_failure_detection
from repro.experiments.flash_crowd import run_flash_crowd
from repro.experiments.origin_failover import run_origin_failover
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments.relay_fanout import run_relay_fanout
from repro.netsim.simulator import Simulator, Timer
from repro.quic.varint import (
    MAX_VARINT,
    VarintReader,
    VarintWriter,
    decode_varint,
    encode_varint,
)
from repro.telemetry import MetricsRegistry, SpanTracer, Telemetry
from repro.telemetry.export import (
    spans_to_records,
    write_metrics_snapshot,
    write_prometheus,
)

SCHEMA = "bench-fastpath/v9"

#: Relative throughput loss beyond which ``--check`` fails the run.  Wide
#: enough to absorb runner-class jitter (documented in the README); narrow
#: enough to catch a real fast-path regression.
CHECK_TOLERANCE = 0.35

#: Per-(benchmark, field) tolerance overrides for ``--check``.  Macro
#: wall-clock is long (seconds to minutes) and dominated by Python-level
#: throughput, which varies more across runner classes than the tight micro
#: loops — a wider band keeps the nightly gate from flapping while still
#: catching a halving of throughput.
CHECK_TOLERANCE_OVERRIDES = {
    ("cdn_macro_10k", "seconds"): 0.75,
    ("cdn_macro_100k", "seconds"): 0.75,
    ("constrained_macro_100k", "seconds"): 0.75,
}

#: The micro-benchmark throughput fields ``--check`` gates on.
CHECKED_THROUGHPUTS = (
    ("event_loop_churn", "events_per_second"),
    ("varint_roundtrip", "ops_per_second"),
)

#: Nested metric fields ``--check`` gates as *ceilings* (current must stay
#: within the tolerance band *above* the reference).  Events-per-wave is the
#: scheduler cost of one pushed update's fan-out; growth here means the
#: flat-fan-out property is eroding even if wall-clock hides it.  Macro
#: wall-clock ceilings ride the wide per-benchmark tolerance override above.
CHECKED_METRIC_CEILINGS = (
    ("cdn_macro_10k", ("metrics", "events_per_wave")),
    # The committed reference records zero fallback waves, so the ceiling
    # band multiplies out to zero: any wave that degrades the 10k macro's
    # fan-out to per-datagram transmission fails the smoke gate outright.
    ("cdn_macro_10k", ("metrics", "link_batch_fallback_waves")),
    ("cdn_macro_10k", ("seconds",)),
    ("cdn_macro_100k", ("seconds",)),
    ("constrained_macro_100k", ("seconds",)),
)

#: Sampling strides for the ``--metrics`` span tracer.  Every object is
#: traced (the experiments push tens, not millions), but only one subscriber
#: in 101 records deliveries so the 10k/100k macros stay allocation-light.
METRICS_SUBSCRIBER_SAMPLE_EVERY = 101

#: Every benchmark key ``--only`` may select (misspellings are rejected so a
#: selection that runs nothing cannot silently exit 0).
BENCHMARK_KEYS = (
    "event_loop_churn",
    "varint_roundtrip",
    "relay_fanout_e11",
    "relay_churn",
    "failure_detection",
    "origin_failover",
    "constrained_tiers_e15",
    "flash_crowd",
    "cdn_macro_10k",
    "cdn_macro_100k",
    "constrained_macro_100k",
)

#: Varint corpus: RFC 9000 boundary values of every size class plus
#: mid-range representatives.
VARINT_CORPUS = (
    0,
    1,
    37,
    63,
    64,
    15293,
    16383,
    16384,
    494878333,
    (1 << 30) - 1,
    1 << 30,
    151288809941952652,
    MAX_VARINT,
)


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_benchmark_isolated(fn, /, **kwargs) -> dict[str, object]:
    """Run ``fn(**kwargs)`` in a forked child and return its result document.

    ``getrusage`` max-RSS is monotonic over the life of a process, so two
    macros measured back to back in one process contaminate each other: the
    second inherits the first's high-water mark and its RSS gate gates
    nothing.  A forked child starts with a fresh high-water mark (its
    baseline is the shared copy-on-write image at fork time, reported by the
    benchmark as ``rss_baseline_bytes``), so ``peak_rss_bytes`` /
    ``rss_delta_bytes`` describe *this* benchmark's memory.  Falls back to
    an in-process run where ``fork`` is unavailable.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX fallback
        return fn(**kwargs)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child exits before coverage reporting
        status = 1
        try:
            os.close(read_fd)
            result = fn(**kwargs)
            result["rss_isolated"] = True
            with os.fdopen(write_fd, "w") as stream:
                json.dump(result, stream)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as stream:
        payload = stream.read()
    _, exit_status = os.waitpid(pid, 0)
    if exit_status != 0 or not payload:
        raise RuntimeError(
            f"forked benchmark {fn.__name__} failed (wait status {exit_status})"
        )
    return json.loads(payload)


@contextmanager
def quiesced_gc(freeze: bool = False):
    """Generational GC off for the duration of a macro run.

    The macro benchmarks measure the simulation fast path, not the collector;
    leaving the cyclic GC scanning hundreds of thousands of long-lived
    simulation objects adds multi-second, randomly attributed pauses.  A full collection runs at
    exit, so pauses are paid between benchmarks instead of inside them.

    With ``freeze=True`` everything alive at entry — interpreter, harness and
    the memoised reference sample — is moved to the permanent generation
    first, so neither the exit collection nor any explicit collection inside
    the measured region ever traverses it.  Yields a dict whose ``frozen``
    entry is the permanent-generation object count, surfaced in the
    benchmark ``metrics`` block.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    info = {"frozen": 0}
    if freeze:
        gc.collect()
        gc.freeze()
        info["frozen"] = gc.get_freeze_count()
    try:
        yield info
    finally:
        if freeze:
            gc.unfreeze()
        gc.collect()
        if was_enabled:
            gc.enable()


def repeated(fn, repeat: int, /, **kwargs) -> dict[str, object]:
    """Run a micro-benchmark ``repeat`` times; report min/median seconds.

    The headline ``seconds`` / throughput fields come from the *fastest* run
    (least scheduler interference), so single-sample noise no longer lands in
    the committed reference document.
    """
    runs = [fn(**kwargs) for _ in range(repeat)]
    best = min(runs, key=lambda run: run["seconds"])
    if repeat > 1:
        seconds = [run["seconds"] for run in runs]
        best = dict(best)
        best["repeat"] = repeat
        best["seconds_min"] = round(min(seconds), 6)
        best["seconds_median"] = round(statistics.median(seconds), 6)
        best["seconds_all"] = seconds
    return best


def bench_event_loop_churn(events: int = 200_000) -> dict[str, object]:
    """Scheduler throughput with cancellation churn.

    Half of the scheduled callbacks are cancelled before they run — the
    pattern produced by per-packet retransmission/idle timers — so the
    lazy-deletion skip and the >50%-dead heap compaction are both exercised.
    """
    simulator = Simulator(seed=1)
    executed = [0]

    def tick() -> None:
        executed[0] += 1

    start = time.perf_counter()
    pending = []
    for index in range(events):
        event = simulator.call_later((index % 97) * 1e-4, tick)
        pending.append(event)
        if index % 2 == 0:
            pending[len(pending) // 2].cancel()
    simulator.run_until_idle(max_events=events + 1)
    # Timer restart churn: one timer re-armed many times only fires once.
    timer_fired = [0]
    timer = Timer(simulator, lambda: timer_fired.__setitem__(0, timer_fired[0] + 1))
    for index in range(10_000):
        timer.start(0.5 + index * 1e-5)
    simulator.run_until_idle()
    elapsed = time.perf_counter() - start
    return {
        "scheduled": events + 10_000,
        "executed": executed[0],
        "timer_fired": timer_fired[0],
        "compactions": simulator.compactions,
        "seconds": round(elapsed, 6),
        "events_per_second": round((events + 10_000) / elapsed),
    }


def bench_varint_roundtrip(rounds: int = 40_000) -> dict[str, object]:
    """Encode+decode throughput over the boundary-value corpus."""
    corpus = VARINT_CORPUS
    start = time.perf_counter()
    operations = 0
    for _ in range(rounds):
        for value in corpus:
            encoded = encode_varint(value)
            decoded, _ = decode_varint(encoded)
            if decoded != value:  # pragma: no cover - would be a codec bug
                raise AssertionError(f"round-trip mismatch for {value}")
            operations += 2
    # Reader/writer batch round-trip (the packet/message codec shape).
    writer = VarintWriter()
    for value in corpus:
        writer.write_varint(value)
    blob = writer.getvalue()
    for _ in range(rounds // 10):
        reader = VarintReader(blob)
        for value in corpus:
            if reader.read_varint() != value:  # pragma: no cover
                raise AssertionError("reader mismatch")
        operations += len(corpus)
    elapsed = time.perf_counter() - start
    return {
        "operations": operations,
        "seconds": round(elapsed, 6),
        "ops_per_second": round(operations / elapsed),
    }


def _sample_metrics_block(sample, updates: int) -> dict[str, object]:
    """The ``metrics`` sub-document of a fan-out benchmark entry.

    Always present (the counters are free — they are scraped, not computed),
    so heap compactions and events-per-wave are visible in the committed
    BENCH json and gateable by ``--check``.
    """
    return {
        "compactions": sample.compactions,
        # Scheduler cost of one pushed update's fan-out, with the (fixed-size)
        # setup cost amortised across the waves of this run.
        "events_per_wave": round(sample.events_scheduled / updates, 1),
        # Fan-out waves that degraded to per-datagram transmission.  Zero on
        # every link the harness builds (batching is bandwidth- and
        # loss-aware); gated to stay zero by ``--check``.
        "link_batch_fallback_waves": sample.link_batch_fallback_waves,
    }


def bench_relay_fanout_e11(
    subscribers: int = 1000, updates: int = 5, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """Wall-clock of the E11 fan-out experiment at the benchmark scale."""
    with quiesced_gc():
        start = time.perf_counter()
        result = run_relay_fanout(
            subscriber_counts=(subscribers,), updates=updates, telemetry=telemetry
        )
        elapsed = time.perf_counter() - start
    sample = result.samples[0]
    row = sample.as_row()
    entry = {
        "subscribers": subscribers,
        "updates": updates,
        "seconds": round(elapsed, 6),
        "delivered_objects": row["delivered"],
        "expected_objects": row["expected"],
        "origin_objects": row["origin_objects"],
        "origin_egress_bytes": row["origin_bytes"],
        "max_tier_byte_deviation": row["max_tier_dev"],
        "tier_bytes": list(sample.measured_tier_bytes),
        "events_scheduled": sample.events_scheduled,
        "metrics": _sample_metrics_block(sample, updates),
    }
    if sample.latency is not None:
        entry["latency"] = sample.latency
    return entry


#: Memo of the 1,000-subscriber reference sample per update count, so a full
#: harness run (10k and 100k macros) measures the reference fan-out once.
_MACRO_REFERENCE_CACHE: dict[int, object] = {}


def _macro_reference_sample(updates: int):
    sample = _MACRO_REFERENCE_CACHE.get(updates)
    if sample is None:
        sample = run_relay_fanout(subscriber_counts=(1000,), updates=updates).samples[0]
        _MACRO_REFERENCE_CACHE[updates] = sample
    return sample


def bench_cdn_macro(
    subscribers: int,
    updates: int = 5,
    telemetry: Telemetry | None = None,
) -> dict[str, object]:
    """CDN-tree macro-benchmark at ``subscribers`` with the egress invariant.

    Origin egress must be O(branching factor): identical to the
    1,000-subscriber run (same tree, same updates) despite the larger
    subscriber population.  Reports ``events_scheduled`` (flat fan-out means
    events grow with deliveries, not with per-datagram scheduling overhead),
    RSS (absolute peak, pre-run baseline and their delta — the delta is what
    the memory gates compare, so one macro's high-water mark cannot vouch
    for another's) and a ``metrics`` block (heap compactions,
    events-per-wave, frozen-object count) so memory, allocation and
    scheduler regressions are all visible in the JSON.
    """
    reference_sample = _macro_reference_sample(updates)
    rss_baseline = peak_rss_bytes()
    with quiesced_gc(freeze=True) as gc_info:
        start = time.perf_counter()
        result = run_relay_fanout(
            subscriber_counts=(subscribers,), updates=updates, telemetry=telemetry
        )
        elapsed = time.perf_counter() - start
    peak_rss = peak_rss_bytes()
    sample = result.samples[0]
    invariant_ok = (
        sample.measured_origin_objects == reference_sample.measured_origin_objects
        and sample.origin_egress_bytes == reference_sample.origin_egress_bytes
        and sample.delivered_objects == subscribers * updates
    )
    entry = {
        "subscribers": subscribers,
        "updates": updates,
        "seconds": round(elapsed, 6),
        "delivered_objects": sample.delivered_objects,
        "origin_objects": sample.measured_origin_objects,
        "origin_egress_bytes": sample.origin_egress_bytes,
        "reference_origin_egress_bytes": reference_sample.origin_egress_bytes,
        "origin_egress_invariant_ok": invariant_ok,
        "max_tier_byte_deviation": sample.max_tier_byte_deviation,
        "events_scheduled": sample.events_scheduled,
        "peak_rss_bytes": peak_rss,
        "rss_baseline_bytes": rss_baseline,
        "rss_delta_bytes": max(0, peak_rss - rss_baseline),
        "rss_isolated": False,
        "metrics": {
            **_sample_metrics_block(sample, updates),
            "gc_frozen_objects": gc_info["frozen"],
        },
    }
    if sample.latency is not None:
        entry["latency"] = sample.latency
    return entry


def bench_cdn_macro_10k(
    subscribers: int = 10_000, updates: int = 5, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """10,000-subscriber CDN-tree macro-benchmark (see :func:`bench_cdn_macro`)."""
    return bench_cdn_macro(subscribers, updates, telemetry)


def bench_cdn_macro_100k(
    subscribers: int = 100_000, updates: int = 5, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """100,000-subscriber CDN-tree macro-benchmark (see :func:`bench_cdn_macro`)."""
    return bench_cdn_macro(subscribers, updates, telemetry)


def bench_relay_churn(
    subscribers: int = 1000, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """E12 churn macro-benchmark: relay kills under a live CDN run.

    Wall-clock covers the whole experiment (build, subscribe, twelve pushed
    updates, a mid-tier kill and an edge kill, recovery, drain).  The
    correctness fields are machine-independent: delivery must stay gapless
    and duplicate-free for every subscriber, and the per-tier re-attach
    latencies must match the closed-form recovery model.
    """
    with quiesced_gc():
        start = time.perf_counter()
        result = run_relay_churn(subscribers=subscribers, telemetry=telemetry)
        elapsed = time.perf_counter() - start
    reattach: dict[str, dict[str, float]] = {}
    model_ok = True
    failover_complete = all(kill.complete for kill in result.kills)
    for kill in result.kills:
        for row in kill.rows():
            # One entry per (killed relay, orphan tier): two kills orphaning
            # the same tier must not overwrite each other's measurements.
            reattach[f"{kill.killed}:{row['orphan_tier']}"] = {
                "orphans": row["orphans"],
                "mean_ms": row["reattach_ms_mean"],
                "max_ms": row["reattach_ms_max"],
                "model_ms": row["model_ms"],
            }
            if (
                row["reattach_ms_max"] != row["model_ms"]
                or row["reattach_ms_mean"] != row["model_ms"]
            ):
                model_ok = False
    return {
        "subscribers": subscribers,
        "updates": result.updates,
        "kills": len(result.kills),
        "seconds": round(elapsed, 6),
        "delivered_objects": result.delivered_objects,
        "expected_objects": result.expected_objects,
        "gapless_subscribers": result.gapless_subscribers,
        "gapless_ok": result.gapless,
        "duplicates_dropped": (
            result.relay_duplicates_dropped + result.subscriber_duplicates_dropped
        ),
        "recovery_fetches": result.recovery_fetches + result.subscriber_gap_fetches,
        "recovered_objects": result.recovered_objects,
        "reattach_latency": reattach,
        "reattach_model_ok": model_ok,
        "failover_complete_ok": failover_complete,
    }


def bench_failure_detection(
    subscribers: int = 1000, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """E13 macro-benchmark: silent crashes, failover purely in-band.

    No control-plane kill signal is issued; a mid-tier relay crash must be
    detected through keepalive probe timeouts (PTO-suspect path) and an
    edge crash through the subscribers' idle timers (idle-timeout path).
    The correctness fields are machine-independent: delivery must stay
    gapless end to end, both measured detection latencies must match the
    closed-form model in ``repro.analysis.detection``, and every orphan
    must re-attach on the 3-RTT floor after detection.
    """
    with quiesced_gc():
        start = time.perf_counter()
        result = run_failure_detection(subscribers=subscribers, telemetry=telemetry)
        elapsed = time.perf_counter() - start
    detection: dict[str, dict[str, object]] = {}
    for sample in result.samples:
        detection[sample.killed] = {
            "path": sample.detected_via,
            "model_path": sample.model_path,
            "detect_ms": round(sample.detection_latency * 1000, 3),
            "model_ms": round(sample.model_detection_latency * 1000, 3),
            "orphans": sample.orphan_relays + sample.orphan_subscribers,
            "complete": sample.complete,
        }
    return {
        "subscribers": subscribers,
        "updates": result.updates,
        "crashes": len(result.samples),
        "control_plane_kills": result.control_plane_kills,
        "seconds": round(elapsed, 6),
        "delivered_objects": result.delivered_objects,
        "expected_objects": result.expected_objects,
        "gapless_subscribers": result.gapless_subscribers,
        "gapless_ok": result.gapless,
        "duplicates_dropped": (
            result.relay_duplicates_dropped + result.subscriber_duplicates_dropped
        ),
        "recovery_fetches": result.recovery_fetches + result.subscriber_gap_fetches,
        "false_positive_events": result.false_positive_events,
        "detection_latency": detection,
        "detection_model_ok": result.detection_model_ok,
        "reattach_model_ok": result.reattach_model_ok,
        "failover_complete_ok": all(sample.complete for sample in result.samples)
        and len(result.samples) == 2,
    }


def bench_origin_failover(
    subscribers: int = 1000, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """E14 macro-benchmark: silent active-origin crash, in-band promotion.

    The origin is replicated (one active + one warm standby); the active is
    crashed silently mid-stream.  The tier-0 relays' keepalive'd uplinks
    must detect the death, elect the standby (epoch-numbered, first
    detector wins) and transplant every tier-0 subscription with a gap
    FETCH against the standby's warm cache.  The correctness fields are
    machine-independent: delivery must stay gapless for every subscriber,
    the measured detection *and* end-to-end promotion latencies must match
    the closed-form model in ``repro.analysis.promotion``, and no
    control-plane signal or false-positive failover may occur.
    """
    with quiesced_gc():
        start = time.perf_counter()
        result = run_origin_failover(subscribers=subscribers, telemetry=telemetry)
        elapsed = time.perf_counter() - start
    return {
        "subscribers": subscribers,
        "updates": result.updates,
        "origins": result.origins,
        "epoch": result.epoch,
        "control_plane_kills": result.control_plane_kills,
        "seconds": round(elapsed, 6),
        "delivered_objects": result.delivered_objects,
        "expected_objects": result.expected_objects,
        "gapless_subscribers": result.gapless_subscribers,
        "gapless_ok": result.gapless,
        "duplicates_dropped": result.duplicates_dropped,
        "recovery_fetches": result.recovery_fetches,
        "replayed_objects": result.replayed_objects,
        "reattached_relays": result.reattached_relays,
        "false_positive_events": result.false_positive_events,
        "promotion_latency": {
            "path": result.detected_via,
            "detect_ms": round((result.detection_latency or -1.0) * 1000, 3),
            "model_detect_ms": round(result.model.detection_latency * 1000, 3),
            "promotion_ms": round((result.promotion_latency or -1.0) * 1000, 3),
            "model_promotion_ms": round(result.model.promotion_latency * 1000, 3),
        },
        "detection_model_ok": result.detection_model_ok,
        "promotion_model_ok": result.promotion_model_ok,
        "failover_complete_ok": result.event is not None
        and result.event.complete
        and result.epoch == 1,
    }


def bench_constrained_tiers_e15(
    subscribers: int = 100, updates: int = 5, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """E15 macro-benchmark: the serialisation-vs-propagation knee.

    Wall-clock covers the whole sweep (eight bandwidth points plus the
    lossy-edge sample).  Every correctness field is machine-independent —
    bit-exact closed-form agreement, knee position, loss repair and the
    fallback-wave counter — so the gates in :func:`main` hold on any
    runner class.  ``telemetry`` is accepted for signature uniformity; the
    constrained experiment does not thread a telemetry object.
    """
    del telemetry  # not threaded through the constrained experiment
    with quiesced_gc():
        start = time.perf_counter()
        result = run_constrained_tiers(subscribers=subscribers, updates=updates)
        elapsed = time.perf_counter() - start
    return {
        "subscribers": subscribers,
        "updates": updates,
        "sweep_points": len(result.samples),
        "seconds": round(elapsed, 6),
        "wire_bytes": result.wire_bytes,
        "model_knee_index": result.model_knee_index,
        "measured_knee_index": result.measured_knee_index,
        "knee_matches_model": result.knee_matches_model,
        "all_model_exact": result.all_model_exact,
        "link_batch_fallback_waves": result.total_fallback_waves,
        "sweep": result.rows(),
        "loss_sample": result.loss_sample.as_row(),
        "loss_repaired": result.loss_sample.repaired,
        "loss_congestion_events": result.loss_sample.congestion_events,
    }


def bench_flash_crowd(
    stormers: int = 100, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """E16 macro-benchmark: subscribe storms under admission control.

    Wall-clock covers all three regimes (unbounded baseline storms, the
    token-bucket-throttled storm, the pinned hotspot storm with
    spillover).  Every correctness field is machine-independent and gated
    in :func:`main`: the baseline's pending-subscribe high-water mark must
    grow with storm size, the throttled storm must admit every stormer
    with rejections actually observed and its completion time and
    join-latency distribution matching ``repro.analysis.admission``
    bit-exactly, and the hotspot storm must admit everyone while moving
    some stormers to sibling leaves.
    """
    with quiesced_gc():
        start = time.perf_counter()
        result = run_flash_crowd(
            stormers=stormers,
            baseline_stormers=(stormers // 2, stormers * 2),
            telemetry=telemetry,
        )
        elapsed = time.perf_counter() - start
    summary = result.summary_row()
    return {
        "stormers": stormers,
        "seconds": round(elapsed, 6),
        "baseline_high_water": [
            sample.pending_high_water for sample in result.baselines
        ],
        "baseline_pathology_ok": summary["baseline_high_water_grows"],
        "throttled_admitted": result.throttled.admitted,
        "throttled_rejections": result.throttled.rejections,
        "throttled_all_admitted_ok": summary["throttled_all_admitted"],
        "throttled_completion_s": result.throttled.measured_completion,
        "throttled_model_completion_s": result.throttled.model_completion,
        "throttled_p99_join_s": result.throttled.measured_p99_join,
        "admission_model_exact_ok": summary["model_exact"],
        "bounded_high_water": result.throttled.pending_high_water,
        "spillover_admitted": result.spillover.admitted,
        "spillovers": result.spillover.spillovers,
        "spillover_per_leaf": list(result.spillover.per_leaf),
        "spillover_all_admitted_ok": summary["spillover_all_admitted"],
    }


def bench_constrained_macro_100k(
    subscribers: int = 100_000, updates: int = 5, telemetry: Telemetry | None = None
) -> dict[str, object]:
    """100,000-subscriber macro on constrained, lossy tiers (always dense).

    2 Mbit/s on every tier, 0.5 % independent loss on the access links and
    NewReno on every relay's downstream connection.  Gated in :func:`main`
    on full loss repair (every update reaches every subscriber), observable
    congestion-controller activity and zero fallback waves; wall-clock rides
    the wide macro ``--check`` ceiling.  RSS is reported the same way as the
    ideal-link macros (forked isolation in :func:`run`).
    """
    del telemetry  # not threaded through the constrained experiment
    rss_baseline = peak_rss_bytes()
    with quiesced_gc(freeze=True) as gc_info:
        start = time.perf_counter()
        result = run_constrained_macro(subscribers=subscribers, updates=updates)
        elapsed = time.perf_counter() - start
    peak_rss = peak_rss_bytes()
    return {
        "subscribers": subscribers,
        "updates": updates,
        "bandwidth_bps": 2_000_000.0,
        "access_loss": 0.005,
        "seconds": round(elapsed, 6),
        "delivered_objects": result.delivered,
        "expected_objects": result.expected,
        "repaired_ok": result.repaired,
        "retransmissions": result.retransmissions,
        "congestion_events": result.congestion_events,
        "link_batch_fallback_waves": result.link_batch_fallback_waves,
        "events_scheduled": result.events_scheduled,
        "peak_rss_bytes": peak_rss,
        "rss_baseline_bytes": rss_baseline,
        "rss_delta_bytes": max(0, peak_rss - rss_baseline),
        "rss_isolated": False,
        "metrics": {"gc_frozen_objects": gc_info["frozen"]},
    }


def run(
    smoke: bool = False,
    skip_macro: bool = False,
    repeat: int = 1,
    only: set[str] | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[dict[str, object], list[dict[str, object]]]:
    """Run the harness; return the result document and harvested spans.

    ``only`` restricts the run to the named benchmark keys (for profiling a
    single benchmark); correctness gating in :func:`main` only applies to
    benchmarks that actually ran.  With ``telemetry`` set (``--metrics``),
    the experiment benchmarks record metrics and spans; each benchmark's
    final span set is harvested (tagged with the benchmark name) before the
    next benchmark clears the tracer.
    """

    def selected(name: str) -> bool:
        return only is None or name in only

    trace_records: list[dict[str, object]] = []

    def harvest(name: str) -> None:
        if telemetry is not None and telemetry.spans is not None:
            trace_records.extend(
                {"benchmark": name, **record}
                for record in spans_to_records(telemetry.spans)
            )

    benchmarks: dict[str, object] = {}
    if selected("event_loop_churn"):
        benchmarks["event_loop_churn"] = repeated(
            bench_event_loop_churn, repeat, events=50_000 if smoke else 200_000
        )
    if selected("varint_roundtrip"):
        benchmarks["varint_roundtrip"] = repeated(
            bench_varint_roundtrip, repeat, rounds=8_000 if smoke else 40_000
        )
    if selected("relay_fanout_e11"):
        benchmarks["relay_fanout_e11"] = bench_relay_fanout_e11(
            subscribers=200 if smoke else 1000, telemetry=telemetry
        )
        harvest("relay_fanout_e11")
    if selected("relay_churn"):
        benchmarks["relay_churn"] = bench_relay_churn(
            subscribers=200 if smoke else 1000, telemetry=telemetry
        )
        harvest("relay_churn")
    if selected("failure_detection"):
        benchmarks["failure_detection"] = bench_failure_detection(
            subscribers=200 if smoke else 1000, telemetry=telemetry
        )
        harvest("failure_detection")
    if selected("origin_failover"):
        benchmarks["origin_failover"] = bench_origin_failover(
            subscribers=200 if smoke else 1000, telemetry=telemetry
        )
        harvest("origin_failover")
    if selected("constrained_tiers_e15"):
        benchmarks["constrained_tiers_e15"] = bench_constrained_tiers_e15(
            telemetry=telemetry
        )
    if selected("flash_crowd"):
        benchmarks["flash_crowd"] = bench_flash_crowd(
            stormers=40 if smoke else 100, telemetry=telemetry
        )
    macro_plan = [("cdn_macro_10k", bench_cdn_macro_10k)]
    if not smoke:
        macro_plan.append(("cdn_macro_100k", bench_cdn_macro_100k))
    # The constrained macro runs in --smoke too: the acceptance criterion is
    # precisely that the lossy constrained regime at 100k completes inside
    # the CI smoke budget now that batching is bandwidth- and loss-aware.
    macro_plan.append(("constrained_macro_100k", bench_constrained_macro_100k))
    macro_plan = [
        (name, fn) for name, fn in macro_plan if not skip_macro and selected(name)
    ]
    if any(name.startswith("cdn_macro") for name, _ in macro_plan):
        # Warm the dense 1k reference memo in *this* process before any
        # macro forks: the children inherit it copy-on-write, so the
        # reference fan-out is measured exactly once per harness run.
        _macro_reference_sample(5)
    for name, fn in macro_plan:
        if telemetry is None:
            # Forked so each macro's RSS high-water mark is its own
            # (getrusage max-RSS is process-lifetime-monotonic).
            benchmarks[name] = run_benchmark_isolated(fn)
        else:
            # Telemetry accumulates in-process registries/spans, which a
            # child cannot hand back — run inline; rss_delta_bytes still
            # isolates this macro's growth from earlier high-water marks
            # as long as it is the largest macro so far.
            benchmarks[name] = fn(telemetry=telemetry)
            harvest(name)
    document = {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": smoke,
        "metrics_enabled": telemetry is not None,
        "benchmarks": benchmarks,
    }
    return document, trace_records


def check_against_reference(
    document: dict[str, object], reference_path: Path, tolerance: float = CHECK_TOLERANCE
) -> list[str]:
    """Compare micro-benchmark throughputs against a reference document.

    Returns a list of failure messages (empty when every gated throughput is
    within ``tolerance`` of the reference).  Only throughputs present in both
    documents are compared, so a reference generated before a benchmark
    existed does not fail the gate.
    """
    reference = json.loads(reference_path.read_text())
    failures: list[str] = []

    def lookup(doc: dict[str, object], bench: str, path: tuple[str, ...]):
        node = doc.get("benchmarks", {}).get(bench)
        for key in path:
            if not isinstance(node, dict):
                return None
            node = node.get(key)
        return node

    def gate(bench: str, path: tuple[str, ...], direction: str) -> None:
        field = ".".join(path)
        current = lookup(document, bench, path)
        baseline = lookup(reference, bench, path)
        if current is None or baseline is None:
            return
        band = CHECK_TOLERANCE_OVERRIDES.get((bench, field), tolerance)
        if direction == "floor":
            bound = baseline * (1.0 - band)
            ok = current >= bound
            comparison = f"{current} < {bound:.6g}"
        else:
            bound = baseline * (1.0 + band)
            ok = current <= bound
            comparison = f"{current} > {bound:.6g}"
        status = "ok" if ok else "REGRESSION"
        print(
            f"check {bench}.{field}: {current} vs reference {baseline} "
            f"({direction} {bound:.6g}) {status}"
        )
        if not ok:
            failures.append(
                f"{bench}.{field} regressed more than {band:.0%}: "
                f"{comparison} (reference {baseline})"
            )

    for bench, field in CHECKED_THROUGHPUTS:
        gate(bench, (field,), "floor")
    for bench, path in CHECKED_METRIC_CEILINGS:
        gate(bench, path, "ceiling")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_fastpath.json",
        help="path of the JSON result document (default: ./BENCH_fastpath.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced iteration counts; the largest macro run stays at 10k "
        "subscribers (CI smoke budget)",
    )
    parser.add_argument(
        "--skip-macro",
        action="store_true",
        help="skip the 10k/100k-subscriber and constrained macro-benchmarks",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run each micro-benchmark N times and report min/median "
        "(headline numbers come from the fastest run)",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="KEYS",
        help="comma-separated benchmark keys to run (e.g. cdn_macro_10k); "
        "correctness gating applies only to benchmarks that ran",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="wrap the selected benchmarks in cProfile and write the profile "
        "to a text file artifact (combine with --only to profile one benchmark)",
    )
    parser.add_argument(
        "--profile-output",
        default=None,
        metavar="PATH",
        help="where --profile writes its report "
        "(default: <output stem>_profile.txt next to --output)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable the telemetry layer for the experiment benchmarks: "
        "metrics registry + sampled span tracing.  Writes three artifacts "
        "next to --output: <stem>_metrics.json (registry + span summary), "
        "<stem>_metrics.prom (Prometheus text exposition) and "
        "<stem>_trace.jsonl (one traced object span per line)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="REFERENCE",
        help="compare micro-benchmark throughputs against a reference "
        f"BENCH_fastpath.json; exit non-zero on a >{CHECK_TOLERANCE:.0%} "
        "regression",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    only = None
    if args.only:
        only = {key.strip() for key in args.only.split(",") if key.strip()}
        unknown = only - set(BENCHMARK_KEYS)
        if unknown:
            parser.error(
                f"--only: unknown benchmark keys {sorted(unknown)}; "
                f"valid keys: {', '.join(BENCHMARK_KEYS)}"
            )
        excluded = []
        macro_keys = (
            "cdn_macro_10k",
            "cdn_macro_100k",
            "constrained_macro_100k",
        )
        if args.skip_macro:
            excluded += [key for key in macro_keys if key in only]
        elif args.smoke and "cdn_macro_100k" in only:
            excluded.append("cdn_macro_100k")
        for key in excluded:
            print(
                f"warning: --only selected {key} but the current mode "
                "(--smoke/--skip-macro) excludes it; it will not run",
                file=sys.stderr,
            )
    output = Path(args.output)
    telemetry = None
    if args.metrics:
        telemetry = Telemetry(
            metrics=MetricsRegistry(),
            spans=SpanTracer(
                subscriber_sample_every=METRICS_SUBSCRIBER_SAMPLE_EVERY
            ),
        )
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        document, trace_records = run(
            smoke=args.smoke,
            skip_macro=args.skip_macro,
            repeat=args.repeat,
            only=only,
            telemetry=telemetry,
        )
        profiler.disable()
        profile_path = Path(
            args.profile_output
            if args.profile_output
            else output.with_name(f"{output.stem}_profile.txt")
        )
        with profile_path.open("w") as stream:
            stats = pstats.Stats(profiler, stream=stream).sort_stats("cumulative")
            stream.write("-- cProfile: top 50 by cumulative time --\n")
            stats.print_stats(50)
        print(f"wrote profile to {profile_path}", file=sys.stderr)
    else:
        document, trace_records = run(
            smoke=args.smoke,
            skip_macro=args.skip_macro,
            repeat=args.repeat,
            only=only,
            telemetry=telemetry,
        )
    output.write_text(json.dumps(document, indent=2) + "\n")
    if telemetry is not None:
        snapshot_path = output.with_name(f"{output.stem}_metrics.json")
        write_metrics_snapshot(telemetry.metrics, snapshot_path, spans=telemetry.spans)
        prometheus_path = output.with_name(f"{output.stem}_metrics.prom")
        write_prometheus(telemetry.metrics, prometheus_path)
        trace_path = output.with_name(f"{output.stem}_trace.jsonl")
        with trace_path.open("w") as stream:
            for record in trace_records:
                stream.write(json.dumps(record, separators=(",", ":")))
                stream.write("\n")
        print(
            f"wrote telemetry artifacts: {snapshot_path}, {prometheus_path}, "
            f"{trace_path} ({len(trace_records)} spans)",
            file=sys.stderr,
        )
    json.dump(document["benchmarks"], sys.stdout, indent=2)
    print()
    benchmarks = document["benchmarks"]
    for macro_key in ("cdn_macro_10k", "cdn_macro_100k"):
        macro = benchmarks.get(macro_key)
        if macro is not None and not macro["origin_egress_invariant_ok"]:
            print(f"FAIL: {macro_key}: origin egress grew with subscriber count", file=sys.stderr)
            return 1
    churn = benchmarks.get("relay_churn")
    if churn is not None:
        if not churn["gapless_ok"]:
            print("FAIL: relay churn broke gapless delivery", file=sys.stderr)
            return 1
        if not churn["failover_complete_ok"]:
            print("FAIL: relay churn left orphans unattached", file=sys.stderr)
            return 1
    detection = benchmarks.get("failure_detection")
    if detection is not None:
        if not detection["gapless_ok"]:
            print("FAIL: in-band failure detection broke gapless delivery", file=sys.stderr)
            return 1
        if not detection["failover_complete_ok"]:
            print("FAIL: in-band detection left orphans unattached", file=sys.stderr)
            return 1
        if not (detection["detection_model_ok"] and detection["reattach_model_ok"]):
            print("FAIL: detection latency diverged from the closed-form model", file=sys.stderr)
            return 1
        if detection["control_plane_kills"] or detection["false_positive_events"]:
            print("FAIL: in-band run used control-plane signals or false positives", file=sys.stderr)
            return 1
    failover = benchmarks.get("origin_failover")
    if failover is not None:
        if not failover["gapless_ok"]:
            print("FAIL: origin failover broke gapless delivery", file=sys.stderr)
            return 1
        if not failover["failover_complete_ok"]:
            print("FAIL: origin promotion left tier-0 relays unattached", file=sys.stderr)
            return 1
        if not (failover["detection_model_ok"] and failover["promotion_model_ok"]):
            print("FAIL: promotion latency diverged from the closed-form model", file=sys.stderr)
            return 1
        if failover["control_plane_kills"] or failover["false_positive_events"]:
            print("FAIL: origin failover used control-plane signals or false positives", file=sys.stderr)
            return 1
    constrained = benchmarks.get("constrained_tiers_e15")
    if constrained is not None:
        if not constrained["all_model_exact"]:
            print(
                "FAIL: constrained_tiers_e15: a delivery time diverged from "
                "the closed-form serialisation model",
                file=sys.stderr,
            )
            return 1
        if not constrained["knee_matches_model"]:
            print(
                "FAIL: constrained_tiers_e15: measured knee "
                f"{constrained['measured_knee_index']} != modelled knee "
                f"{constrained['model_knee_index']}",
                file=sys.stderr,
            )
            return 1
        if constrained["link_batch_fallback_waves"]:
            print(
                "FAIL: constrained_tiers_e15: constrained links fell back to "
                "per-datagram transmission",
                file=sys.stderr,
            )
            return 1
        if not constrained["loss_repaired"] or constrained["loss_congestion_events"] <= 0:
            print(
                "FAIL: constrained_tiers_e15: lossy-edge sample did not repair "
                "with observable congestion control",
                file=sys.stderr,
            )
            return 1
    crowd = benchmarks.get("flash_crowd")
    if crowd is not None:
        if not crowd["baseline_pathology_ok"]:
            print(
                "FAIL: flash_crowd: unlimited baseline high-water mark did not "
                "grow with storm size (the pathology admission control caps)",
                file=sys.stderr,
            )
            return 1
        if not crowd["throttled_all_admitted_ok"] or not crowd["spillover_all_admitted_ok"]:
            print("FAIL: flash_crowd: a stormer was never admitted", file=sys.stderr)
            return 1
        if crowd["throttled_rejections"] <= 0:
            print(
                "FAIL: flash_crowd: the constrained policy rejected nothing "
                "(the storm never exercised admission control)",
                file=sys.stderr,
            )
            return 1
        if not crowd["admission_model_exact_ok"]:
            print(
                "FAIL: flash_crowd: measured admission schedule diverged from "
                "the closed-form token-bucket model",
                file=sys.stderr,
            )
            return 1
        if crowd["spillovers"] <= 0:
            print(
                "FAIL: flash_crowd: the pinned hotspot storm never spilled to "
                "a sibling leaf",
                file=sys.stderr,
            )
            return 1
    constrained_macro = benchmarks.get("constrained_macro_100k")
    if constrained_macro is not None:
        if not constrained_macro["repaired_ok"]:
            print(
                "FAIL: constrained_macro_100k: "
                f"{constrained_macro['delivered_objects']} of "
                f"{constrained_macro['expected_objects']} objects delivered",
                file=sys.stderr,
            )
            return 1
        if constrained_macro["link_batch_fallback_waves"]:
            print(
                "FAIL: constrained_macro_100k: constrained links fell back to "
                "per-datagram transmission",
                file=sys.stderr,
            )
            return 1
        if (
            constrained_macro["retransmissions"] <= 0
            or constrained_macro["congestion_events"] <= 0
        ):
            print(
                "FAIL: constrained_macro_100k: loss repair left no "
                "retransmission/congestion-controller trace",
                file=sys.stderr,
            )
            return 1
    if args.check:
        failures = check_against_reference(document, Path(args.check))
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
