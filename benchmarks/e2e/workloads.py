"""The five end-to-end workloads, their scale table and their correctness checks.

Every workload is a function ``(trial, params, seed) -> TrialResult`` that

1. generates its inputs from ``seed`` (query events, change ticks, payloads,
   link delays) — ``repro`` only ever sees those generated inputs;
2. builds the topology and brings it to the state the timed region needs
   (set-up, untimed);
3. runs the timed region, in which the workload's *operations* happen;
4. checks the outputs.

Numbers are labelled **host** (wall clock / memory of the simulator process —
noisy) or **sim** (virtual time and wire counts — exact for one seed).  The
system is driven only through public names of ``repro.*``.

The synthetic top list is a fixed dataset (its own date-derived seed, like a
table loaded into a database benchmark); ``seed`` drives everything dynamic:
the simulator's RNG, the query stream, the record-change process, the payload
bytes and a ±1 % jitter on every link delay (so virtual-time latencies differ
between seeds while staying exact for one seed).
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.latency_model import TransportScenario, recursive_lookup_latency
from repro.core.mapping import DnsQuestionKey
from repro.dns.types import RecordType
from repro.experiments.topology import build_workload_topology
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.relay import MOQT_ALPN
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.quic.congestion import NewRenoCongestionController
from repro.quic.connection import ConnectionConfig
from repro.relaynet import RelayNetStats, RelayTreeBuilder, RelayTreeSpec
from repro.telemetry import MetricsRegistry
from repro.telemetry.collect import collect_run
from repro.workload import (
    ChangeModel,
    ChangeModelConfig,
    QueryModel,
    QueryModelConfig,
    SyntheticToplist,
    ToplistConfig,
    WorkloadZones,
    ZoneBuildConfig,
)

#: Scale constants — the only place sizes live; echoed into every output.
#: ``full`` is sized so one trial (set-up + timed region + verification) takes
#: about 3 s on a 2-core box with CPython 3.11 and a run of three trials fits
#: the benchmark contract's per-run budget.  ``smoke`` is for the self-tests.
SCALES: dict[str, dict[str, dict[str, float]]] = {
    "full": {
        "run": {"min_trials": 3},
        "dns_lookup": {"domains": 2000, "auth_hosts": 8, "qps": 40.0, "duration_s": 90.0,
                       "slice_s": 1.0},
        "dns_update": {"domains": 360, "auth_hosts": 8, "duration_s": 450.0, "slice_s": 5.0},
        "tree_attach": {"mid": 4, "edge_per_mid": 4, "subscribers": 5000, "probes": 2,
                        "payload_bytes": 300},
        "tree_fanout": {"mid": 4, "edge_per_mid": 4, "subscribers": 800, "updates": 70,
                        "payload_bytes": 300, "interval_s": 0.25, "drain_s": 1.0},
        "tree_lossy": {"mid": 4, "edge_per_mid": 4, "subscribers": 1000, "updates": 40,
                       "payload_bytes": 300, "interval_s": 0.25, "drain_s": 6.0,
                       "bandwidth_bps": 2_000_000.0, "access_loss": 0.02,
                       "suspect_after": 6},
    },
    "smoke": {
        "run": {"min_trials": 1},
        "dns_lookup": {"domains": 120, "auth_hosts": 4, "qps": 20.0, "duration_s": 12.0,
                       "slice_s": 1.0},
        "dns_update": {"domains": 60, "auth_hosts": 4, "duration_s": 120.0, "slice_s": 5.0},
        "tree_attach": {"mid": 2, "edge_per_mid": 2, "subscribers": 120, "probes": 2,
                        "payload_bytes": 300},
        "tree_fanout": {"mid": 2, "edge_per_mid": 2, "subscribers": 40, "updates": 70,
                        "payload_bytes": 300, "interval_s": 0.25, "drain_s": 1.0},
        "tree_lossy": {"mid": 2, "edge_per_mid": 2, "subscribers": 60, "updates": 30,
                       "payload_bytes": 300, "interval_s": 0.25, "drain_s": 6.0,
                       "bandwidth_bps": 2_000_000.0, "access_loss": 0.02,
                       "suspect_after": 6},
    },
}

#: Propagation delays before the per-seed jitter (the E4 / E11 defaults).
STUB_RTT = 0.010
UPSTREAM_RTT = 0.040
CORE_DELAY = 0.020
METRO_DELAY = 0.010
ACCESS_DELAY = 0.005
DELAY_JITTER = 0.01

#: Virtual seconds the tree settles after attach + subscribe, and the slice
#: it is advanced in (the handshake flights all land in the first 0.25 s).
SETTLE_S = 3.0
SETTLE_SLICE_S = 0.005
#: Virtual seconds between the probe updates of ``tree_attach``'s verification.
PROBE_INTERVAL_S = 0.25


# ---------------------------------------------------------------- calibration
class Calibrator:
    """A fixed pointer chase with a little bytes/tuple work per step: the
    machine-speed reference.

    Host time on a shared box drifts by tens of percent for seconds to
    minutes at a time (neighbours contending for cache and memory), which
    is more than any bound worth gating on.  The chase walks a shuffled ring
    of ``RING`` small Python objects — the cache-missing object-graph access
    pattern the simulator has — formatting and hashing a label per step, and
    slows down with the workloads (measured correlation 0.8–0.97 per trial).
    Trials interleave it with their work and report host time rescaled to
    ``REFERENCE_NS_PER_STEP``, which cuts the run-to-run spread of the host
    metrics two- to threefold.  It is a ruler, not part of any workload: its
    time is excluded from every metric and from the profile.
    """

    RING = 100_000
    STEPS = 2500
    #: The chase's cost on the box the first baseline was taken on; a
    #: literal, so calibrated values keep the unit of the raw ones.
    REFERENCE_NS_PER_STEP = 1000.0

    class Node:
        __slots__ = ("key", "next", "cells")

        def __init__(self, key: int) -> None:
            self.key = key
            self.next = self
            self.cells = [0, 0]

    def __init__(self) -> None:
        nodes = [self.Node(index) for index in range(self.RING)]
        order = list(range(self.RING))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self.head = nodes[0]

    def chase(self) -> float:
        """Walk ``STEPS`` nodes; returns the seconds it took."""
        node = self.head
        total = 0
        start = time.perf_counter()
        for step in range(self.STEPS):
            node = node.next
            total += node.key
            node.cells[step & 1] = total
            total += hash((b"%d" % node.key, step)) & 3
        self.head = node
        return time.perf_counter() - start

    def reference_s(self) -> float:
        """What one chase takes at reference machine speed."""
        return self.STEPS * self.REFERENCE_NS_PER_STEP * 1e-9


# --------------------------------------------------------------------- trials
#: Host seconds between calibration probes inside a trial.
PROBE_EVERY_S = 0.03


@dataclass
class Span:
    """One phase of a trial: wall-clock seconds relative to the trial start."""

    name: str
    start: float
    end: float
    parent: str | None


class Trial:
    """Clock, phase spans, calibration probes and the timed region of one
    workload trial.

    ``profiler`` (optional) is enabled exactly around the timed region;
    ``tracing`` asks the workload to scrape the per-layer counters at the
    region's boundaries.  Both are off when end-to-end metrics are taken.
    """

    SETUP, TIMED, AFTER = 0, 1, 2

    def __init__(self, calibrator: Calibrator, profiler=None, tracing: bool = False) -> None:
        self.calibrator = calibrator
        self.profiler = profiler
        self.tracing = tracing
        self.spans: list[Span] = []
        self.open: list[str] = []
        self.stage = self.SETUP
        self.profiling = False
        #: Per stage: how long each calibration probe took.
        self.probe_times: tuple[list[float], ...] = ([], [], [])
        self.began = time.perf_counter()
        self.timed_start = 0.0
        self.timed_end = 0.0
        self.last_probe = 0.0
        self.probe()

    def probe(self) -> None:
        """Run one calibration chase (outside the profile, off the clock)."""
        if self.profiling:
            self.profiler.disable()
        self.probe_times[self.stage].append(self.calibrator.chase())
        self.last_probe = time.perf_counter()
        if self.profiling:
            self.profiler.enable()

    def checkpoint(self) -> None:
        """A slice boundary: probe if the last probe is ``PROBE_EVERY_S`` old."""
        if self.stage != self.AFTER and time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probe()

    def advance(self, simulator: Simulator, until: float, step: float) -> None:
        """``simulator.run(until=until)`` in slices of ``step`` virtual
        seconds with a checkpoint after each (event order is unchanged)."""
        while simulator.now < until:
            simulator.run(until=min(until, simulator.now + step))
            self.checkpoint()

    @contextmanager
    def phase(self, name: str):
        """Record a span around the enclosed calls."""
        parent = self.open[-1] if self.open else None
        self.open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.open.pop()
            self.spans.append(
                Span(name, start - self.began, time.perf_counter() - self.began, parent)
            )
            self.checkpoint()

    @contextmanager
    def timed(self):
        """The timed region: cyclic GC off, profiler (if any) on."""
        gc.collect()
        gc.disable()
        try:
            with self.phase("timed"):
                self.probe()
                self.timed_start = time.perf_counter()
                self.stage = self.TIMED
                self.probe()
                if self.profiler is not None:
                    self.profiling = True
                    self.profiler.enable()
                try:
                    yield
                finally:
                    if self.profiling:
                        self.profiler.disable()
                        self.profiling = False
                    self.probe()
                    self.timed_end = time.perf_counter()
                    self.stage = self.AFTER
        finally:
            gc.enable()

    @property
    def setup_wall_s(self) -> float:
        """Trial start → start of the timed region, probes excluded."""
        return self.timed_start - self.began - sum(self.probe_times[self.SETUP])

    @property
    def timed_wall_s(self) -> float:
        """The timed region's wall clock, probes excluded."""
        return self.timed_end - self.timed_start - sum(self.probe_times[self.TIMED])

    def speed(self, stage: int) -> float:
        """Reference chase time ÷ the stage's median chase time (below 1 = the
        machine ran slower than the reference).  The median, because a
        scheduling stall that lands in one 2 ms probe would swamp a mean."""
        return self.calibrator.reference_s() / statistics.median(self.probe_times[stage])

    @property
    def setup_s(self) -> float:
        """Set-up seconds at reference machine speed."""
        return self.setup_wall_s * self.speed(self.SETUP)

    @property
    def timed_s(self) -> float:
        """Timed-region seconds at reference machine speed."""
        return self.timed_wall_s * self.speed(self.TIMED)

    def phase_seconds(self) -> dict[str, float]:
        """Total wall-clock seconds per phase name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        return totals


@dataclass
class TrialResult:
    """What one trial measured.  Everything except the trial clock is sim."""

    attempted: int
    completed: int
    latency_p50_ms: float
    latency_p99_ms: float
    latency_samples: int
    wire_bytes: int
    checks: dict[str, bool]
    #: Raw per-layer counters over the timed region (only when tracing).
    counts: dict[str, float] = field(default_factory=dict)

    def sim_metrics(self) -> dict[str, float]:
        """The seeded quantities two trials of one seed must agree on."""
        ops = max(1, self.completed)
        return {
            "sim_latency_p50_ms": self.latency_p50_ms,
            "sim_latency_p99_ms": self.latency_p99_ms,
            "wire_bytes_per_op": self.wire_bytes / ops,
            "failed_ops_ratio": (self.attempted - self.completed) / max(1, self.attempted),
        }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarise(
    attempted: int,
    completed: int,
    latencies_s: list[float],
    wire_bytes: int,
    checks: dict[str, bool],
    counts: dict[str, float],
) -> TrialResult:
    ordered = sorted(latencies_s)
    return TrialResult(
        attempted=attempted,
        completed=completed,
        latency_p50_ms=percentile(ordered, 0.50) * 1000.0,
        latency_p99_ms=percentile(ordered, 0.99) * 1000.0,
        latency_samples=len(ordered),
        wire_bytes=wire_bytes,
        checks=checks,
        counts=counts,
    )


def jitter(rng: random.Random, value: float) -> float:
    """``value`` scaled by a seeded factor within ±``DELAY_JITTER``."""
    return value * (1.0 + rng.uniform(-DELAY_JITTER, DELAY_JITTER))


# ------------------------------------------------------------------- scraping
def scrape_network(network: Network, tree=None) -> dict[str, object]:
    """Network, pool, simulator (and relay-tree) gauges by their public
    telemetry names (``net_*``, ``pool_*``, ``sim_*``, ``relaynet_*``)."""
    registry = MetricsRegistry()
    collect_run(registry, network, tree)
    return registry.snapshot()


def scrape_sessions(sessions, mirrored=()) -> dict[str, float]:
    """QUIC and MoQT counters summed over MoQT sessions (``session_*`` keys).

    Each session contributes what it *sent*; a session in ``mirrored``
    additionally contributes what it *received*, standing in for a peer
    whose session has no public accessor.
    """
    totals = dict.fromkeys(
        ("packets_sent", "retransmissions", "congestion_events", "control_messages_sent", "objects_sent"),
        0,
    )
    for session in sessions:
        connection = session.connection
        totals["packets_sent"] += connection.statistics.packets_sent
        totals["retransmissions"] += connection.statistics.retransmissions
        totals["congestion_events"] += connection.congestion.congestion_events
        totals["control_messages_sent"] += session.statistics.control_messages_sent
        totals["objects_sent"] += session.statistics.objects_sent
    for session in mirrored:
        totals["packets_sent"] += session.connection.statistics.packets_received
        totals["control_messages_sent"] += session.statistics.control_messages_received
        totals["objects_sent"] += session.statistics.objects_received
    return {f"session_{name}": value for name, value in totals.items()}


def flat_delta(after: dict, before: dict) -> dict[str, float]:
    """``after - before`` over the numeric leaves of two scrapes, label
    families flattened to ``name{labels}`` keys."""

    def flatten(snapshot: dict) -> dict[str, float]:
        flat: dict[str, float] = {}
        for name, value in snapshot.items():
            if isinstance(value, dict):
                for labels, child in value.items():
                    flat[f"{name}{{{labels}}}"] = child
            else:
                flat[name] = value
        return flat

    old = flatten(before)
    return {name: value - old.get(name, 0) for name, value in flatten(after).items()}


# ------------------------------------------------------------------------ DNS
def dns_topology(rng: random.Random, params: dict, seed: int):
    """The synthetic hierarchy of ``params["domains"]`` top-list domains."""
    toplist = SyntheticToplist(ToplistConfig(size=int(params["domains"])))
    zones = WorkloadZones(
        toplist,
        ChangeModel(ChangeModelConfig(seed=rng.getrandbits(32))),
        ZoneBuildConfig(auth_server_count=int(params["auth_hosts"])),
    )
    stub_rtt = jitter(rng, STUB_RTT)
    upstream_rtt = jitter(rng, UPSTREAM_RTT)
    topology = build_workload_topology(
        zones, stub_rtt=stub_rtt, upstream_rtt=upstream_rtt, seed=seed
    )
    return toplist, zones, topology, stub_rtt, upstream_rtt


def updates_published(topology) -> int:
    """Objects the authoritative servers pushed (``AuthServerStatistics``)."""
    return sum(server.statistics.updates_published for server in topology.moqt_servers.values())


def dns_scrape(topology) -> dict[str, object]:
    """Network gauges plus the DNS chain's session and resolver counters.

    Sessions reachable through public names: the forwarder's and the
    recursive resolver's upstream sessions and those the authoritative
    servers accepted.  The recursive resolver's stub-facing sessions have no
    public accessor, so the forwarder's sessions are mirrored for them.
    """
    stub_side = list(topology.forwarder.sessions.sessions().values())
    sessions = stub_side + list(topology.recursive.sessions.sessions().values())
    for server in topology.moqt_servers.values():
        sessions += server.sessions()
    scrape = scrape_network(topology.network)
    scrape.update(scrape_sessions(sessions, mirrored=stub_side))
    forwarder = topology.forwarder.statistics
    recursive = topology.recursive.statistics
    scrape["core_lookups"] = forwarder.local_answers + forwarder.upstream_lookups
    scrape["core_local_answers"] = forwarder.local_answers
    scrape["core_upstream_msgs"] = recursive.upstream_subscribe_fetch
    scrape["core_pushes_forwarded"] = recursive.pushes_forwarded
    scrape["core_updates_published"] = updates_published(topology)
    return scrape


def dns_counts(topology, before: dict, ops: int) -> dict[str, float]:
    counts = flat_delta(dns_scrape(topology), before)
    counts["ops"] = ops
    states = [topology.forwarder.state_summary(), topology.recursive.state_summary()]
    counts["core_open_sessions"] = sum(state["open_sessions"] for state in states)
    counts["core_subscriptions"] = sum(state["subscriptions"] for state in states)
    sizes = [record.message.size for record in topology.forwarder.records().values()]
    counts["dns_answer_bytes_mean"] = sum(sizes) / max(1, len(sizes))
    return counts


def answer_texts(message, rdtype: RecordType) -> list[str]:
    return sorted(r.rdata.to_text() for r in message.answers if r.rdtype == rdtype)


def zone_texts(zones: WorkloadZones, name, rdtype: RecordType) -> list[str]:
    rrset = zones.assignment(name).zone.get_rrset(name, rdtype)
    return rrset.sorted_rdata_texts() if rrset is not None else []


def session_warmup_domains(toplist: SyntheticToplist, zones: WorkloadZones) -> list:
    """The least popular domains that between them touch every TLD server
    and every authoritative host once (so the timed region runs on reused
    sessions and its latency tail is not the handshake transient)."""
    uncovered = set(zones.tld_hosts.values()) | set(zones.auth_hosts)
    chosen = []
    for domain in reversed(toplist.domains()):
        tld_host = zones.tld_hosts[domain.name.labels[-1].decode("ascii")]
        touched = {tld_host, zones.assignment(domain.name).auth_host} & uncovered
        if touched and domain.record_types:
            chosen.append(domain)
            uncovered -= touched
    return chosen


def dns_lookup(trial: Trial, params: dict, seed: int) -> TrialResult:
    """One op = one ``MoqForwarder.resolve`` answered (open loop in virtual
    time: one Zipf client issuing at ``qps``)."""
    rng = random.Random(seed)
    with trial.phase("build"):
        toplist, zones, topology, stub_rtt, upstream_rtt = dns_topology(rng, params, seed)
        events = QueryModel(
            toplist,
            QueryModelConfig(queries_per_second=params["qps"], seed=rng.getrandbits(32)),
        ).generate(params["duration_s"])
    simulator = topology.simulator
    forwarder = topology.forwarder

    warm_latencies: list[float] = []
    with trial.phase("subscribe"):
        for domain in session_warmup_domains(toplist, zones):
            started = simulator.now
            forwarder.resolve(
                DnsQuestionKey(qname=domain.name, qtype=domain.record_types[0]),
                lambda message, version, started=started: warm_latencies.append(
                    simulator.now - started
                ),
            )
            simulator.run(until=simulator.now + 2.0)
    before = dns_scrape(topology) if trial.tracing else {}
    wire_before = topology.network.total_link_statistics()["bytes_sent"]

    answers: list[tuple[object, object]] = []
    latencies: list[float] = []

    def issue(event) -> None:
        issued = simulator.now

        def answered(message, version) -> None:
            answers.append((event, message))
            if simulator.now > issued:
                latencies.append(simulator.now - issued)

        forwarder.resolve(DnsQuestionKey(qname=event.domain.name, qtype=event.rdtype), answered)

    with trial.timed(), trial.phase("lookup"):
        origin = simulator.now
        for event in events:
            simulator.call_at(origin + event.time, issue, event)
        trial.advance(simulator, origin + params["duration_s"] + 5.0, params["slice_s"])

    with trial.phase("verify"):
        wire = topology.network.total_link_statistics()["bytes_sent"] - wire_before
        completed = sum(1 for _, message in answers if message is not None)
        cold = recursive_lookup_latency(
            TransportScenario.MOQT_COLD, stub_rtt, [upstream_rtt] * 3
        ).total
        checks = {
            "every_lookup_answered": completed == len(events),
            "answers_match_zones": all(
                message is not None
                and answer_texts(message, event.rdtype)
                == zone_texts(zones, event.domain.name, event.rdtype)
                for event, message in answers
            ),
            "first_lookup_is_moqt_cold": bool(warm_latencies)
            and math.isclose(warm_latencies[0], cold, rel_tol=1e-9),
        }
        counts = dns_counts(topology, before, completed) if trial.tracing else {}
    return summarise(len(events), completed, latencies, wire, checks, counts)


def dns_update(trial: Trial, params: dict, seed: int) -> TrialResult:
    """One op = one record change delivered to the subscribed forwarder, out
    of those the authoritative servers published."""
    rng = random.Random(seed)
    with trial.phase("build"):
        toplist, zones, topology, stub_rtt, upstream_rtt = dns_topology(rng, params, seed)
        # Fig. 1b change model: every A record is observed once per TTL, at
        # a seeded phase within its first TTL window.
        ticks = []
        for domain in toplist.domains_with_type(RecordType.A):
            ttl = domain.ttl_for(RecordType.A)
            when = rng.uniform(0.0, ttl)
            while when < params["duration_s"]:
                ticks.append((when, domain.name))
                when += ttl
    simulator = topology.simulator
    forwarder = topology.forwarder
    keys = [
        DnsQuestionKey(qname=domain.name, qtype=RecordType.A)
        for domain in toplist.domains_with_type(RecordType.A)
    ]

    subscribed: list[object] = []
    with trial.phase("subscribe"):
        for key in keys:
            forwarder.resolve(key, lambda message, version: subscribed.append(message))
    with trial.phase("settle"):
        trial.advance(simulator, simulator.now + 10.0, 0.05)
    before = dns_scrape(topology) if trial.tracing else {}
    wire_before = topology.network.total_link_statistics()["bytes_sent"]
    published_before = updates_published(topology)

    changed_at: dict[object, float] = {}
    staleness: list[float] = []
    changes = [0]
    forwarder.on_record_updated.append(
        lambda key, record: staleness.append(simulator.now - changed_at[key.qname])
    )

    def tick(name) -> None:
        changed_at[name] = simulator.now
        if zones.advance_domain(name):
            changes[0] += 1

    with trial.timed(), trial.phase("update"):
        origin = simulator.now
        for when, name in ticks:
            simulator.call_at(origin + when, tick, name)
        trial.advance(simulator, origin + params["duration_s"] + 1.0, params["slice_s"])

    with trial.phase("verify"):
        wire = topology.network.total_link_statistics()["bytes_sent"] - wire_before
        published = updates_published(topology) - published_before
        one_way = upstream_rtt / 2.0 + stub_rtt / 2.0
        records = forwarder.records()
        checks = {
            "every_question_presubscribed": len(subscribed) == len(keys)
            and all(message is not None for message in subscribed),
            "every_change_published": published == changes[0] and changes[0] > 0,
            "every_update_arrives": len(staleness) == published,
            "staleness_is_sum_of_one_way_delays": all(
                math.isclose(value, one_way, rel_tol=1e-9) for value in staleness
            ),
            "final_records_match_zones": all(
                key in records
                and answer_texts(records[key].message, RecordType.A)
                == zone_texts(zones, key.qname, RecordType.A)
                for key in keys
            ),
        }
        counts = dns_counts(topology, before, len(staleness)) if trial.tracing else {}
    return summarise(published, len(staleness), staleness, wire, checks, counts)


# ----------------------------------------------------------------- relay tree
@dataclass
class Tree:
    simulator: Simulator
    network: Network
    publisher: object
    tree: object
    payloads: list[bytes]
    next_group: int = 2  # the origin seeds group 1

    def push(self) -> int:
        """Push the next payload; returns its group ID."""
        group = self.next_group
        self.next_group += 1
        self.publisher.push(
            MoqtObject(group_id=group, object_id=0, payload=self.payloads[group - 2])
        )
        return group

    def sessions(self) -> list:
        sessions = list(self.publisher.sessions)
        sessions += [subscriber.session for subscriber in self.tree.subscribers]
        for node in self.tree.nodes():
            sessions += node.relay.downstream_sessions()
            if node.relay.upstream_session is not None:
                sessions.append(node.relay.upstream_session)
        return sessions

    def scrape(self) -> dict[str, object]:
        scrape = scrape_network(self.network, self.tree)
        scrape.update(scrape_sessions(self.sessions()))
        return scrape


def build_tree(rng: random.Random, params: dict, seed: int, payload_count: int) -> Tree:
    """The E11 CDN tree (origin → mid → edge → subscribers); constrained and
    lossy when ``params`` carries ``bandwidth_bps`` / ``access_loss``."""
    bandwidth = params.get("bandwidth_bps")
    spec = RelayTreeSpec.cdn(
        mid_relays=int(params["mid"]),
        edge_per_mid=int(params["edge_per_mid"]),
        core_link=LinkConfig(delay=jitter(rng, CORE_DELAY), bandwidth=bandwidth),
        metro_link=LinkConfig(delay=jitter(rng, METRO_DELAY), bandwidth=bandwidth),
        access_link=LinkConfig(
            delay=jitter(rng, ACCESS_DELAY),
            bandwidth=bandwidth,
            loss_rate=params.get("access_loss", 0.0),
        ),
    )
    payloads = [rng.randbytes(int(params["payload_bytes"])) for _ in range(payload_count)]
    connections = {}
    if "suspect_after" in params:
        # Lossy regime: NewReno on the fan-out sender side, and a failure
        # detector desensitised to random loss on both ends (see E15).
        suspect_after = int(params["suspect_after"])
        connections = {
            "downstream_connection": ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,),
                liveness_suspect_after=suspect_after,
                congestion_controller=NewRenoCongestionController,
            ),
            "subscriber_connection": ConnectionConfig(
                alpn_protocols=(MOQT_ALPN,), liveness_suspect_after=suspect_after
            ),
        }
    simulator = Simulator(seed=seed)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    publisher = build_origin(network)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT), **connections).build(spec)
    return Tree(simulator, network, publisher, tree, payloads)


def tree_counts(
    after: dict, before: dict, ops: int, window: RelayNetStats, updates: int
) -> dict[str, float]:
    """Timed-region counter deltas (``after - before``) plus the per-update
    tier byte table of ``window``, the statistics delta over the ``updates``
    pushed updates."""
    counts = flat_delta(after, before)
    counts["ops"] = ops
    counts["updates"] = updates
    counts["pending_subscribe_high_water"] = after["relaynet_pending_subscribe_high_water"]
    counts["origin_egress_bytes"] = window.origin_egress_bytes
    for tier in window.tiers:
        counts[f"tier_bytes_below_{tier.tier}"] = tier.uplink_bytes
    counts["tier_bytes_below_subscribers"] = window.subscriber_link_bytes
    counts["relay_cache_hits"] = window.cache_hits
    counts["relay_cache_misses"] = window.cache_misses
    return counts


def per_link_bytes_agree(window: RelayNetStats, tree: Tree) -> bool:
    """Every tier carried the same bytes per link per update — so origin
    egress is (top-tier branching × one update), independent of how many
    subscribers sit below."""
    per_link = {tier.uplink_bytes / tier.relays for tier in window.tiers}
    per_link.add(window.subscriber_link_bytes / len(tree.tree.subscribers))
    return len(per_link) == 1 and window.origin_egress_bytes > 0


def tree_attach(trial: Trial, params: dict, seed: int) -> TrialResult:
    """One op = one subscriber attached and SUBSCRIBE_OK'd."""
    rng = random.Random(seed)
    subscribers = int(params["subscribers"])
    probes = int(params["probes"])
    with trial.phase("build"):
        tree = build_tree(rng, params, seed, probes)
    simulator = tree.simulator
    before = tree.scrape() if trial.tracing else {}
    wire_before = tree.network.total_link_statistics()["bytes_sent"]
    delivered = [0]

    def on_object(subscriber, obj) -> None:
        delivered[0] += 1

    with trial.timed():
        origin = simulator.now
        with trial.phase("attach"):
            tree.tree.attach_subscribers(subscribers)
        with trial.phase("subscribe"):
            subscriptions = tree.tree.subscribe_all(TRACK, on_object=on_object)
        with trial.phase("settle"):
            trial.advance(simulator, simulator.now + SETTLE_S, SETTLE_SLICE_S)

    with trial.phase("verify"):
        wire = tree.network.total_link_statistics()["bytes_sent"] - wire_before
        joined = [s for s in subscriptions if s.is_active and s.responded_at is not None]
        latencies = [s.responded_at - origin for s in joined]
        timed_after = tree.scrape() if trial.tracing else {}
        stats_before = RelayNetStats.collect(tree.tree)
        sent_before = tree.publisher.objects_sent
        for _ in range(probes):
            tree.push()
            simulator.run(until=simulator.now + PROBE_INTERVAL_S)
        simulator.run(until=simulator.now + 1.0)
        window = RelayNetStats.collect(tree.tree).delta(stats_before)
        checks = {
            "every_subscriber_joined": len(joined) == subscribers,
            "probes_reach_every_subscriber": delivered[0] == subscribers * probes,
            "origin_serves_only_its_children": tree.publisher.objects_sent - sent_before
            == int(params["mid"]) * probes,
            "origin_egress_independent_of_population": per_link_bytes_agree(window, tree),
        }
        counts = {}
        if trial.tracing:
            counts = tree_counts(timed_after, before, len(joined), window, probes)
    return summarise(subscribers, len(joined), latencies, wire, checks, counts)


def tree_deliver(trial: Trial, params: dict, seed: int) -> TrialResult:
    """One op = one object delivered to a subscriber callback (``tree_fanout``
    and, when ``params`` puts loss on the access links, ``tree_lossy``;
    attach is set-up)."""
    rng = random.Random(seed)
    lossy = params.get("access_loss", 0.0) > 0.0
    subscribers = int(params["subscribers"])
    updates = int(params["updates"])
    with trial.phase("build"):
        tree = build_tree(rng, params, seed, updates)
    simulator = tree.simulator
    pushed_at: dict[int, float] = {}
    latencies: list[float] = []
    last_group = [1] * subscribers
    received = [0] * subscribers
    out_of_order = [0]

    def on_object(subscriber, obj) -> None:
        index = subscriber.index
        group = obj.group_id
        if group != last_group[index] + 1:
            out_of_order[0] += 1
        last_group[index] = group
        received[index] += 1
        latencies.append(simulator.now - pushed_at[group])

    with trial.phase("attach"):
        tree.tree.attach_subscribers(subscribers)
    with trial.phase("subscribe"):
        tree.tree.subscribe_all(TRACK, on_object=on_object)
    with trial.phase("settle"):
        trial.advance(simulator, simulator.now + SETTLE_S, SETTLE_SLICE_S)
    before = tree.scrape() if trial.tracing else {}
    stats_before = RelayNetStats.collect(tree.tree)
    wire_before = tree.network.total_link_statistics()["bytes_sent"]
    sent_before = tree.publisher.objects_sent

    with trial.timed():
        with trial.phase("publish"):
            for _ in range(updates):
                pushed_at[tree.push()] = simulator.now
                simulator.run(until=simulator.now + params["interval_s"])
                trial.checkpoint()
        with trial.phase("drain"):
            trial.advance(simulator, simulator.now + params["drain_s"], params["interval_s"])

    with trial.phase("verify"):
        wire = tree.network.total_link_statistics()["bytes_sent"] - wire_before
        window = RelayNetStats.collect(tree.tree).delta(stats_before)
        delivered = len(latencies)
        checks = {
            "every_object_delivered": delivered == subscribers * updates,
            "every_subscriber_got_every_update": all(n == updates for n in received),
            "origin_serves_only_its_children": tree.publisher.objects_sent - sent_before
            == int(params["mid"]) * updates,
            "no_batch_fallback_waves": tree.network.link_batch_fallback_waves == 0,
        }
        if lossy:
            checks["loss_was_repaired"] = window.downstream_retransmissions > 0
            checks["congestion_control_reacted"] = window.congestion_events > 0
        else:
            checks["in_order_and_gapless"] = out_of_order[0] == 0
            checks["origin_egress_independent_of_population"] = per_link_bytes_agree(window, tree)
        counts = {}
        if trial.tracing:
            counts = tree_counts(tree.scrape(), before, delivered, window, updates)
    return summarise(subscribers * updates, delivered, latencies, wire, checks, counts)


#: name → (workload function, why it exists).  Names are fixed: later issues
#: refer to them, and ``BENCHMARK.json`` lists the same five.
WORKLOADS = {
    "dns_lookup": (
        dns_lookup,
        "request path: root -> TLD -> auth resolution chain over reused sessions, SUBSCRIBE+joining "
        "FETCH per hop, DNS codec; reads on core/dns, relaynet idle",
    ),
    "dns_update": (
        dns_update,
        "the paper's headline push path: zone change -> auth publish -> recursive -> forwarder; "
        "writes on the core/dns code dns_lookup reads, almost no quic/netsim work",
    ),
    "tree_attach": (
        tree_attach,
        "control plane at population scale: QUIC handshake, MoQT SETUP, SUBSCRIBE aggregation, "
        "placement, per-subscriber state; no object fan-out in the timed region",
    ),
    "tree_fanout": (
        tree_deliver,
        "data plane on the pooled batch path over ideal links, more than 64 groups so track "
        "retention is exercised; core/dns idle",
    ),
    "tree_lossy": (
        tree_deliver,
        "same netsim/quic layers used differently: 2 Mbit/s tiers, 2% access loss, NewReno; "
        "serialisation, loss draws, ACK ranges, retransmission, cwnd",
    ),
}
