"""Per-layer measurements of a traced run (layer = package under ``src/repro``).

Three sources, all taken from the benchmark's own files:

1. **Self time by layer.**  The layers call through each other re-entrantly
   (netsim delivers into quic, which calls moqt, which sends through quic
   into netsim), so cumulative timers cannot separate them; exclusive time
   can.  A deterministic profiler runs around the timed region and every
   function's self time (and call count) is summed into its package.  C
   functions are not profiled separately, so their time lands in the calling
   Python function — i.e. in the calling package.
2. **Counts** scraped from public statistics objects at the timed region's
   boundaries (see ``workloads.py``), normalised here per operation.
3. **Unit costs**: direct calls to a layer's public functions on canonical
   inputs, timed in batches (median batch reported).  They are workload
   independent, so every traced run reports all of them.

End-to-end metrics are never taken from a traced trial.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import statistics
import time

from repro.core.auth_server import MoqAuthoritativeServer
from repro.core.mapping import DnsQuestionKey, question_to_track
from repro.core.session_manager import UpstreamSessionManager
from repro.dns.message import Message, make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import MOQT_PORT, RecordType
from repro.dns.zone import Zone
from repro.moqt.datastream import encode_subgroup_object, encode_subgroup_stream_chunk
from repro.moqt.messages import Subscribe, SubscribeOk, decode_control_message
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.netsim.link import Link, LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.quic.frames import StreamFrame
from repro.quic.packet import Packet, PacketType
from repro.quic.varint import decode_varint, encode_varint
from repro.relaynet import RelayTreeBuilder, RelayTreeSpec

#: Layers in call order; ``harness`` is everything else (``repro.workload``,
#: ``repro.experiments``, ``repro.telemetry``, the standard library's Python
#: code and the benchmark's own callbacks).
LAYERS = ("netsim", "quic", "moqt", "relaynet", "core", "dns", "harness")

#: Phase spans reported per traced run, as a share of the trial's wall clock.
PHASES = ("build", "attach", "subscribe", "settle", "publish", "drain", "lookup", "update")

#: (name, unit, better) of every per-layer metric, in print order.  This
#: table is the source ``BENCHMARK.json``'s ``per_layer`` list is checked
#: against.  Times that are structurally zero for a workload that bypasses a
#: layer are reported as shares, not seconds.
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    + [(f"{layer}.calls_per_op", "count", "lower") for layer in LAYERS]
    + [
        ("trace.timed_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.self_sum_ratio", "ratio", "higher"),
        ("harness.import_s", "s", "lower"),
        ("harness.wall_us_per_op", "us", "lower"),
    ]
    + [(f"phase.{phase}_share", "ratio", "lower") for phase in PHASES]
    + [
        ("netsim.events_per_op", "count", "lower"),
        ("netsim.datagrams_per_op", "count", "lower"),
        ("netsim.datagrams_dropped", "count", "lower"),
        ("netsim.pool_hit_ratio", "ratio", "higher"),
        ("netsim.heap_compactions", "count", "lower"),
        ("netsim.batch_fallback_waves", "count", "lower"),
        ("netsim.event_ns", "ns", "lower"),
        ("netsim.transmit_many_ns_per_dgram", "ns", "lower"),
        ("quic.packets_per_op", "count", "lower"),
        ("quic.ack_only_share", "ratio", "lower"),
        ("quic.retransmissions_per_kop", "count", "lower"),
        ("quic.congestion_events", "count", "lower"),
        ("quic.handshake_dgrams_per_conn", "count", "lower"),
        ("quic.packet_decode_ns", "ns", "lower"),
        ("quic.packet_encode_ns", "ns", "lower"),
        ("quic.varint_ns", "ns", "lower"),
        ("moqt.control_msgs_per_op", "count", "lower"),
        ("moqt.objects_forwarded_per_op", "count", "lower"),
        ("moqt.relay_cache_hit_ratio", "ratio", "higher"),
        ("moqt.pending_subscribe_high_water", "count", "lower"),
        ("moqt.control_codec_ns", "ns", "lower"),
        ("moqt.object_encode_ns", "ns", "lower"),
        ("relaynet.origin_egress_bytes_per_update", "B", "lower"),
        ("relaynet.tier_bytes_per_update.mid", "B", "lower"),
        ("relaynet.tier_bytes_per_update.edge", "B", "lower"),
        ("relaynet.tier_bytes_per_update.subscribers", "B", "lower"),
        ("relaynet.subscriber_reattaches", "count", "lower"),
        ("relaynet.attach_call_us_per_sub", "us", "lower"),
        ("core.upstream_msgs_per_lookup", "count", "lower"),
        ("core.pushed_hit_ratio", "ratio", "higher"),
        ("core.open_sessions", "count", "lower"),
        ("core.subscriptions", "count", "lower"),
        ("core.updates_published", "count", "higher"),
        ("core.pushes_forwarded", "count", "higher"),
        ("core.answer_question_us", "us", "lower"),
        ("core.zone_change_us", "us", "lower"),
        ("dns.answer_bytes_mean", "B", "lower"),
        ("dns.message_codec_ns", "ns", "lower"),
        ("dns.zone_lookup_ns", "ns", "lower"),
    ]
)


# ------------------------------------------------------------ self time by layer
def new_profiler() -> cProfile.Profile:
    """A profiler that charges C-function time to the calling Python function."""
    return cProfile.Profile(subcalls=False, builtins=False)


def layer_of(filename: str) -> str:
    """The ``src/repro`` package a source file belongs to, else ``harness``."""
    tail = filename.replace("\\", "/").rpartition("/repro/")[2]
    package = tail.split("/", 1)[0]
    return package if package in LAYERS else "harness"


def self_time_by_layer(profiler: cProfile.Profile) -> tuple[dict[str, float], dict[str, int]]:
    """Exclusive seconds and call counts per layer of a finished profile."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _, _), (_, call_count, self_time, _, _) in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename)
        seconds[layer] += self_time
        calls[layer] += call_count
    return seconds, calls


# ------------------------------------------------------------------ unit costs
BATCHES = 5


def median_ns_per_call(batch, calls: int) -> float:
    """Run ``batch()`` (which makes ``calls`` calls) ``BATCHES`` times; the
    median batch's nanoseconds per call."""
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter_ns()
        batch()
        samples.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(samples)


def netsim_event_ns() -> float:
    """``call_later`` + ``run`` with every other event cancelled."""
    count = 20_000

    def batch() -> None:
        simulator = Simulator(seed=1)
        events = [simulator.call_later(index * 1e-6, int) for index in range(count)]
        for event in events[::2]:
            event.cancel()
        simulator.run()

    return median_ns_per_call(batch, count)


def netsim_transmit_many_ns_per_dgram() -> float:
    """One 1,000-recipient ``transmit_many`` wave, delivery included."""
    recipients = 1000
    simulator = Simulator(seed=1)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    network.add_host("hub")
    hosts = network.add_hosts("leaf", recipients)
    network.connect_star("hub", hosts, LinkConfig(delay=0.005))
    source = Address("hub", 1)
    links = [(network.link("hub", host.address), Address(host.address, 1)) for host in hosts]
    payload = bytes(300)

    def batch() -> None:
        pool = network.datagram_pool
        entries = [(link, pool.acquire(source, destination, payload)) for link, destination in links]
        Link.transmit_many(simulator, entries, network)
        simulator.run()

    return median_ns_per_call(batch, recipients)


def quic_packet_costs() -> tuple[float, float]:
    """(encode, decode) of a 1-RTT packet carrying one 300-byte STREAM frame."""
    count = 2000
    packet = Packet(
        PacketType.ONE_RTT, 0x1234_5678_9ABC, 4242, (StreamFrame(14, 0, bytes(300), True),)
    )
    wire = packet.encode()

    def encode() -> None:
        for _ in range(count):
            packet.encode()

    def decode() -> None:
        for _ in range(count):
            Packet.decode(wire)

    return median_ns_per_call(encode, count), median_ns_per_call(decode, count)


def quic_varint_ns() -> float:
    """``encode_varint`` + ``decode_varint`` over all four encoded widths."""
    values = (37, 15_293, 494_878_333, 151_288_809_941_952_652) * 250

    def batch() -> None:
        for value in values:
            decode_varint(encode_varint(value))

    return median_ns_per_call(batch, len(values))


def moqt_control_codec_ns() -> float:
    """Encode + decode of one SUBSCRIBE and one SUBSCRIBE_OK."""
    count = 500
    messages = (
        Subscribe(request_id=6, track_alias=3, full_track_name=TRACK),
        SubscribeOk(request_id=6, content_exists=True, largest_group_id=9),
    )

    def batch() -> None:
        for _ in range(count):
            for message in messages:
                decode_control_message(message.encode())

    return median_ns_per_call(batch, count * len(messages))


def moqt_object_encode_ns() -> float:
    """``encode_subgroup_object`` + ``encode_subgroup_stream_chunk`` of a
    300-byte object (the encode-once body plus one per-subscriber header)."""
    count = 2000
    obj = MoqtObject(group_id=77, object_id=0, payload=bytes(300))

    def batch() -> None:
        for _ in range(count):
            encode_subgroup_stream_chunk(5, obj, encode_subgroup_object(obj))

    return median_ns_per_call(batch, count)


def relaynet_attach_costs() -> tuple[float, float]:
    """(µs per subscriber inside ``attach_subscribers`` + ``subscribe_all``
    themselves, before the simulator runs; datagrams one QUIC handshake plus
    MoQT SETUP and SUBSCRIBE costs per connection — a sim count)."""
    subscribers = 200
    samples = []
    datagrams = 0.0
    for _ in range(BATCHES):
        simulator = Simulator(seed=1)
        network = Network(simulator, trace=NullTraceRecorder(simulator))
        build_origin(network)
        tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
            RelayTreeSpec.star(relays=1)
        )
        simulator.run(until=simulator.now + 1.0)
        before = network.total_link_statistics()["datagrams_sent"]
        start = time.perf_counter_ns()
        tree.attach_subscribers(subscribers)
        tree.subscribe_all(TRACK)
        samples.append((time.perf_counter_ns() - start) / subscribers / 1000.0)
        simulator.run(until=simulator.now + 1.0)
        datagrams = (network.total_link_statistics()["datagrams_sent"] - before) / subscribers
    return statistics.median(samples), datagrams


def a_rrset(name: Name, rng: random.Random) -> RRset:
    records = [
        ResourceRecord(name, RecordType.A, ARdata(f"203.0.{rng.randrange(250)}.{index + 1}"), 300)
        for index in range(4)
    ]
    return RRset(name, RecordType.A, records)


def core_costs() -> tuple[float, float]:
    """(``answer_question`` µs on an authoritative server holding 100 zones;
    ``Zone.replace_rrset`` µs on that server with 100 subscribed tracks, the
    push to the subscriber's session included)."""
    zone_count = 100
    rng = random.Random(1)
    simulator = Simulator(seed=1)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    network.add_host("auth")
    network.add_host("resolver")
    network.connect("auth", "resolver", LinkConfig(delay=0.010))
    names = [Name.from_text(f"site{index:05d}.com.") for index in range(zone_count)]
    zones = []
    for name in names:
        zone = Zone(name)
        zone.replace_rrset(a_rrset(name, rng), bump=False)
        zones.append(zone)
    server = MoqAuthoritativeServer(network.host("auth"), zones)
    keys = [DnsQuestionKey(qname=name, qtype=RecordType.A) for name in names]
    session = UpstreamSessionManager(network.host("resolver")).get_session(
        Address("auth", MOQT_PORT)
    )
    for key in keys:
        session.subscribe(question_to_track(key))
    simulator.run(until=simulator.now + 2.0)
    if server.subscriber_count() != zone_count:
        raise RuntimeError("unit-cost set-up failed: tracks not subscribed")

    def answer() -> None:
        for key in keys:
            server.answer_question(key)

    changes = 10  # each costs milliseconds today (O(tracks x zones))

    def change() -> None:
        for zone, name in zip(zones[:changes], names):
            zone.replace_rrset(a_rrset(name, rng))
        simulator.run(until=simulator.now + 1.0)

    return (
        median_ns_per_call(answer, zone_count) / 1000.0,
        median_ns_per_call(change, changes) / 1000.0,
    )


def dns_costs() -> tuple[float, float]:
    """(``to_wire`` + ``from_wire`` of a 4-A answer; ``Zone.lookup`` of an A
    RRset in a zone of 50 names)."""
    count = 500
    rng = random.Random(1)
    apex = Name.from_text("example.com.")
    zone = Zone(apex)
    names = [Name.from_text(f"host{index}.example.com.") for index in range(50)]
    for name in names:
        zone.replace_rrset(a_rrset(name, rng), bump=False)
    rrset = zone.get_rrset(names[7], RecordType.A)
    answer = make_response(make_query(names[7], RecordType.A), answers=list(rrset.records))

    def codec() -> None:
        for _ in range(count):
            Message.from_wire(answer.to_wire())

    def lookup() -> None:
        for _ in range(count // len(names)):
            for name in names:
                zone.lookup(name, RecordType.A)

    return median_ns_per_call(codec, count), median_ns_per_call(lookup, count)


def unit_costs() -> dict[str, float]:
    """Every unit-cost metric (about a second of host time in total)."""
    packet_encode, packet_decode = quic_packet_costs()
    attach_us, handshake_datagrams = relaynet_attach_costs()
    answer_us, change_us = core_costs()
    codec_ns, lookup_ns = dns_costs()
    return {
        "netsim.event_ns": netsim_event_ns(),
        "netsim.transmit_many_ns_per_dgram": netsim_transmit_many_ns_per_dgram(),
        "quic.packet_encode_ns": packet_encode,
        "quic.packet_decode_ns": packet_decode,
        "quic.varint_ns": quic_varint_ns(),
        "quic.handshake_dgrams_per_conn": handshake_datagrams,
        "moqt.control_codec_ns": moqt_control_codec_ns(),
        "moqt.object_encode_ns": moqt_object_encode_ns(),
        "relaynet.attach_call_us_per_sub": attach_us,
        "core.answer_question_us": answer_us,
        "core.zone_change_us": change_us,
        "dns.message_codec_ns": codec_ns,
        "dns.zone_lookup_ns": lookup_ns,
    }


# ------------------------------------------------------------- count metrics
def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(counts: dict[str, float]) -> dict[str, float]:
    """Per-layer count metrics from a trial's timed-region counter deltas
    (names as scraped in ``workloads.py``); absent counters read 0."""

    def get(name: str) -> float:
        return counts.get(name, 0)

    ops = max(1, get("ops"))
    updates = get("updates")
    packets = get("session_packets_sent")
    payload_packets = get("session_objects_sent") + get("session_control_messages_sent")
    return {
        "netsim.events_per_op": get("sim_events_scheduled") / ops,
        "netsim.datagrams_per_op": get("net_datagrams_sent") / ops,
        "netsim.datagrams_dropped": get("net_datagrams_dropped"),
        "netsim.pool_hit_ratio": ratio(
            get("pool_datagrams_reused"),
            get("pool_datagrams_reused") + get("pool_datagrams_allocated"),
        ),
        "netsim.heap_compactions": get("sim_compactions"),
        "netsim.batch_fallback_waves": get("net_link_batch_fallback_waves"),
        "quic.packets_per_op": packets / ops,
        "quic.ack_only_share": max(0.0, ratio(packets - payload_packets, packets)),
        "quic.retransmissions_per_kop": get("session_retransmissions") / ops * 1000.0,
        "quic.congestion_events": get("session_congestion_events"),
        "moqt.control_msgs_per_op": get("session_control_messages_sent") / ops,
        "moqt.objects_forwarded_per_op": get("session_objects_sent") / ops,
        "moqt.relay_cache_hit_ratio": ratio(
            get("relay_cache_hits"), get("relay_cache_hits") + get("relay_cache_misses")
        ),
        "moqt.pending_subscribe_high_water": get("pending_subscribe_high_water"),
        "relaynet.origin_egress_bytes_per_update": ratio(get("origin_egress_bytes"), updates),
        "relaynet.tier_bytes_per_update.mid": ratio(get("tier_bytes_below_mid"), updates),
        "relaynet.tier_bytes_per_update.edge": ratio(get("tier_bytes_below_edge"), updates),
        "relaynet.tier_bytes_per_update.subscribers": ratio(
            get("tier_bytes_below_subscribers"), updates
        ),
        "relaynet.subscriber_reattaches": get("relaynet_subscriber_reattaches"),
        "core.upstream_msgs_per_lookup": ratio(get("core_upstream_msgs"), get("core_lookups")),
        "core.pushed_hit_ratio": ratio(get("core_local_answers"), get("core_lookups")),
        "core.open_sessions": get("core_open_sessions"),
        "core.subscriptions": get("core_subscriptions"),
        "core.updates_published": get("core_updates_published"),
        "core.pushes_forwarded": get("core_pushes_forwarded"),
        "dns.answer_bytes_mean": get("dns_answer_bytes_mean"),
    }
