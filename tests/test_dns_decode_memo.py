"""A DNS answer is decoded once per simulation (``docs/dns-codec.md`` § Lifetime).

The chain ``build_workload_topology`` builds, and what one pushed answer
costs along it::

    authoritative server   encodes the new answer once, pushes the object
          |  SUBSCRIBE (recursive -> authoritative)
    recursive resolver     decodes it (the malformed-push check), stores the
          |                Message, relays the same object unchanged
          |  SUBSCRIBE (forwarder -> recursive)
    forwarder              decodes the same bytes: a memo hit, the same Message

Every role of one simulation decodes through its ``AnswerMemo`` view of the
simulation's tables (``Simulator.memos``), which keep successful decodes by
payload bytes, so the second role's decode is a dictionary hit.  Pinned here:

* the decode budget: one zone change costs exactly one ``Message.from_wire``
  in the simulation (without the memo it costs two), and a cold lookup's
  forwarder answer is a hit on what the recursive resolver parsed;
* the scope: each simulation has its own memo, so a simulation parses its
  answers, control messages and data streams even when an identical one ran
  before it in the process;
* memo safety: a hit cannot be mutated; a malformed payload is rejected at
  every role on every delivery and never stored; over the codec corpus of
  ``test_dns_codec.py`` a hit equals a fresh decode of the same bytes;
* serving what arrived: over the same corpus, re-encapsulating a decoded
  canonical payload under any version gives that payload back, which is why
  the recursive resolver may answer a FETCH with the object it received
  (``AnswerMemo.received``); a §4.5 classic answer never arrived as an object
  and is still encapsulated;
* the question table: a hit equals a fresh ``track_to_question`` of the
  same name, and a malformed track name is refused at both publishers on
  every request and never stored.

Source mutations tried when this file was written, each failing a test: no
memo (the budget, the shared-instance checks); failures stored in the memo
(the malformed cases); a mutable ``Message`` with list sections (the frozen
check); the memo seeded by ``encapsulate_response`` (the cold lookup's parse
count); one memo for the whole process (the scope checks); a source record
kept past eviction or across groups (the ``received`` check); the question
table storing failures (the malformed-name check).
"""

from __future__ import annotations

import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.recursive
from repro.core.encapsulation import decapsulate_response, encapsulate_response
from repro.core.errors import MappingError
from repro.core.mapping import DnsQuestionKey, question_to_track, track_to_question
from repro.core.subscribing import AnswerMemo
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import MOQT_PORT, RecordType
from repro.experiments.topology import (
    RECURSIVE_HOST, SmallTopology, SmallTopologyConfig, build_workload_topology,
)
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.session import MOQT_ALPN, MoqtSession, publish_to
from repro.moqt.track import FullTrackName, TrackNamespace
from repro.netsim.link import LinkConfig
from repro.netsim.packet import Address
from repro.memo import Memo
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.workload.change_model import ChangeModel, ChangeModelConfig
from repro.workload.toplist import SyntheticToplist, ToplistConfig
from repro.workload.zones import WorkloadZones, ZoneBuildConfig
from decode_counts import count_decodes
from test_dns_codec import GOLDEN, MALFORMED, written_messages
from test_property_wire import question_keys

#: ``Message.from_wire`` calls one zone change costs the whole simulation.
DECODES_PER_ZONE_CHANGE = 1
SECTIONS = ("questions", "answers", "authorities", "additionals")


def _count_decodes(monkeypatch) -> list[bytes]:
    """Every wire ``Message.from_wire`` parses from now on."""
    wires: list[bytes] = []
    decode = Message.from_wire.__func__

    def counting(cls, wire):
        wires.append(bytes(wire))
        return decode(cls, wire)

    monkeypatch.setattr(Message, "from_wire", classmethod(counting))
    return wires


def _chain():
    """Forwarder -> recursive -> authoritative over a small synthetic
    hierarchy, and the names of its A records."""
    toplist = SyntheticToplist(ToplistConfig(size=40))
    zones = WorkloadZones(
        toplist,
        change_model=ChangeModel(ChangeModelConfig(seed=17)),
        config=ZoneBuildConfig(auth_server_count=2),
    )
    topology = build_workload_topology(zones)
    names = [domain.name for domain in toplist.domains() if domain.has_type(RecordType.A)]
    return topology, names


def _subscribe(topology, name) -> DnsQuestionKey:
    """The forwarder looks ``name`` up, which subscribes the whole chain."""
    key = DnsQuestionKey(qname=name, qtype=RecordType.A)
    answers = []
    topology.forwarder.resolve(key, lambda message, version: answers.append(message))
    topology.simulator.run(until=topology.simulator.now + 5.0)
    assert answers and answers[0] is not None
    return key


def _addresses(message: Message) -> list[str]:
    return [record.rdata.to_text() for record in message.answers]


def _decapsulate_twice(wire: bytes) -> tuple[Message, Message]:
    """Decode ``wire`` through one memo from two objects whose payloads are
    equal, not identical."""
    memo = AnswerMemo(Simulator())
    first = memo.decapsulate(MoqtObject(group_id=1, object_id=0, payload=wire))
    second = memo.decapsulate(MoqtObject(group_id=2, object_id=0, payload=bytes(bytearray(wire))))
    return first, second


# --------------------------------------------------------------- the budget
def test_one_zone_change_costs_one_decode_in_the_simulation(monkeypatch):
    topology, names = _chain()
    key = _subscribe(topology, names[0])
    forwarder, recursive = topology.forwarder, topology.recursive
    zone = topology.zones.assignments[key.qname].zone
    record = ResourceRecord(key.qname, RecordType.A, ARdata("203.0.113.77"), 300)
    wires = _count_decodes(monkeypatch)
    zone.replace_rrset(RRset(key.qname, RecordType.A, [record]))
    topology.simulator.run(until=topology.simulator.now + 5.0)
    held = forwarder.record(key)
    assert _addresses(held.message) == ["203.0.113.77"] and held.version == zone.serial
    assert held.pushed_updates == recursive.record(key).pushed_updates == 1
    assert held.message is recursive.record(key).message
    assert len(wires) == DECODES_PER_ZONE_CHANGE, f"{len(wires)} decodes for one zone change"


def test_a_cold_lookups_forwarder_answer_is_a_memo_hit(monkeypatch):
    topology, names = _chain()
    _subscribe(topology, names[0])  # opens the sessions to the root, TLD and auth hosts
    wires = _count_decodes(monkeypatch)
    key = _subscribe(topology, names[1])
    forwarded = topology.forwarder.record(key).message
    assert forwarded is topology.recursive.record(key).message
    assert {record.name for record in forwarded.answers} == {key.qname}
    assert wires.count(forwarded.to_wire()) == 1, "the answer was not parsed exactly once"
    assert len(wires) == len(set(wires)), "some bytes were parsed twice"


# ------------------------------------------------------------------ scope
def test_every_role_of_a_simulation_shares_one_memo_and_no_other():
    topology, _ = _chain()
    again, _ = _chain()
    answers = topology.simulator.memos["dns.answer"]
    auth = next(iter(topology.moqt_servers.values()))
    for memo in (topology.forwarder.answers, topology.recursive.answers, auth._decodes):
        assert memo._answers is answers
        assert memo._questions is topology.simulator.memos["dns.question"]
    assert again.recursive.answers._answers is not answers


def test_a_simulation_parses_its_answers_after_an_identical_one(monkeypatch):
    """Two identical simulations in one process: the second still parses
    every answer, control message and data stream of a cold lookup, as the
    first did."""
    parsed = []
    for _ in range(2):
        topology, names = _chain()
        _subscribe(topology, names[0])  # opens the sessions
        wires = _count_decodes(monkeypatch)
        counts = count_decodes(monkeypatch)
        key = _subscribe(topology, names[1])
        monkeypatch.undo()
        assert wires.count(topology.forwarder.record(key).message.to_wire()) == 1
        assert counts["dns"] == len(wires)
        parsed.append(dict(counts))
    assert parsed[0] == parsed[1]
    assert parsed[0]["control"] > 0 and parsed[0]["stream"] > 0 and parsed[0]["dns"] > 0


# ----------------------------------------------------------------- safety
def test_a_memo_hit_cannot_be_mutated():
    """Every role gets the same decoded instance for the same bytes, so no
    field of it, however deep, may change under another role."""
    first, hit = _decapsulate_twice(bytes.fromhex(GOLDEN["answer"][1]))
    assert hit is first
    for name in ("header", *SECTIONS):
        with pytest.raises(FrozenInstanceError):
            setattr(hit, name, ())
    assert all(type(getattr(hit, name)) is tuple for name in SECTIONS)
    for target, name in (
        (hit.header, "message_id"),
        (hit.question, "qname"),
        (hit.answers[0], "ttl"),
        (hit.answers[0].rdata, "address"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, None)
    assert hit == Message.from_wire(bytes.fromhex(GOLDEN["answer"][1]))


@pytest.mark.parametrize("case", ["pointer loop", "shorter than a header"])
def test_a_malformed_push_is_dropped_at_both_roles_every_time_and_never_stored(
    monkeypatch, case
):
    topology, names = _chain()
    key = _subscribe(topology, names[0])
    forwarder, recursive = topology.forwarder, topology.recursive
    auth = topology.moqt_servers[topology.zones.assignments[key.qname].auth_host]
    version = forwarder.record(key).version
    held = [(node, node.record(key).message) for node in (forwarder, recursive)]
    relayed = recursive.statistics.pushes_forwarded
    bad = MALFORMED[case]
    wires = _count_decodes(monkeypatch)
    for push in (1, 2):
        obj = MoqtObject(group_id=version + push, object_id=0, payload=bad)
        received = recursive.statistics.pushes_received, forwarder.statistics.pushes_received
        # From the authoritative end: the recursive resolver drops it and
        # relays nothing, so the forwarder gets it from the recursive's end.
        assert publish_to(auth._tracks[key].subscribers, obj) == 1
        topology.simulator.run(until=topology.simulator.now + 1.0)
        assert publish_to(recursive._downstream[key], obj) == 1
        topology.simulator.run(until=topology.simulator.now + 1.0)
        assert recursive.statistics.pushes_received == received[0] + 1
        assert forwarder.statistics.pushes_received == received[1] + 1
        assert wires.count(bad) == 2 * push, "a role skipped the check"
    assert recursive.statistics.pushes_forwarded == relayed
    for node, message in held:
        assert node.record(key).message is message and node.record(key).version == version


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_payload_is_parsed_and_rejected_every_time(monkeypatch, case):
    memo = AnswerMemo(Simulator())
    wires = _count_decodes(monkeypatch)
    for _ in range(2):
        with pytest.raises(MappingError):
            memo.decapsulate(MoqtObject(group_id=1, object_id=0, payload=MALFORMED[case]))
    assert wires == [MALFORMED[case]] * 2, "a failure was kept"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_a_hit_equals_a_fresh_decode_on_the_golden_messages(case):
    wire = bytes.fromhex(GOLDEN[case][1])
    first, hit = _decapsulate_twice(wire)
    assert hit is first and hit == Message.from_wire(wire) == GOLDEN[case][0]()


@given(written_messages())
@settings(max_examples=100)
def test_a_hit_equals_a_fresh_decode_on_generated_messages(written):
    wire, expected = written
    first, hit = _decapsulate_twice(wire)
    assert hit is first and hit == Message.from_wire(wire) == expected


# ------------------------------------------------------- serving what arrived
def _reencapsulates_to_itself(message: Message, version: int) -> None:
    obj = encapsulate_response(message, version)
    for other in (version, version + 1, 0):
        assert encapsulate_response(decapsulate_response(obj), other).payload == obj.payload


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_a_decoded_canonical_payload_reencapsulates_to_itself_on_the_golden_messages(case):
    _reencapsulates_to_itself(GOLDEN[case][0](), 7)


@given(written_messages(), st.integers(0, 2**40))
@settings(max_examples=100)
def test_a_decoded_canonical_payload_reencapsulates_to_itself_on_generated_messages(
    written, version
):
    _reencapsulates_to_itself(written[1], version)


def test_the_memo_knows_which_object_an_answer_came_from(monkeypatch):
    memo = AnswerMemo(Simulator())
    obj = encapsulate_response(GOLDEN["answer"][0](), 5)
    message = memo.decapsulate(obj)
    assert memo.received(message, 5) is obj
    assert memo.received(message, 6) is None, "another group is another object"
    # A later object with the same bytes is a hit; the record stays the first object's.
    assert memo.decapsulate(MoqtObject(group_id=6, object_id=0, payload=obj.payload)) is message
    assert memo.received(message, 6) is None and memo.received(message, 5) is obj
    equal = Message.from_wire(obj.payload)  # equal, but not the instance the memo handed out
    assert memo.received(equal, 5) is None
    monkeypatch.setattr(Memo, "MAX_ENTRIES", 1)
    memo.decapsulate(encapsulate_response(GOLDEN["referral"][0](), 5))  # evicts the answer
    assert memo.received(message, 5) is None


def test_a_fallback_answer_is_still_encapsulated_by_the_recursive_resolver(monkeypatch):
    """§4.5: the authoritative server speaks no MoQT, so the recursive
    resolver's answer came over UDP and was never received as bytes."""
    topology = SmallTopology(SmallTopologyConfig(moqt_on_auth=False))
    encapsulated = []

    def spy(message, version):
        encapsulated.append(encapsulate_response(message, version))
        return encapsulated[-1]

    monkeypatch.setattr(repro.core.recursive, "encapsulate_response", spy)
    key = DnsQuestionKey(qname=Name.from_text(topology.config.domain), qtype=RecordType.A)
    answers = []
    topology.forwarder.resolve(key, lambda message, version: answers.append((message, version)))
    topology.run(5.0)
    ((message, version),) = answers
    record = topology.moqt_recursive.record(key)
    assert not record.via_moqt and _addresses(message) == [topology.config.initial_address]
    assert topology.moqt_recursive.answers.received(record.message, record.version) is None
    (obj,) = encapsulated  # the FETCH answer, encapsulated once
    assert (obj.group_id, obj.payload) == (version, message.to_wire())


# ----------------------------------------------------------- question table
@given(question_keys())
@settings(max_examples=100)
def test_a_question_hit_equals_a_fresh_parse(key):
    memo = AnswerMemo(Simulator())
    track = question_to_track(key)
    first = memo.question(track)
    equal = FullTrackName(
        TrackNamespace(tuple(bytes(bytearray(element)) for element in track.namespace.elements)),
        bytes(bytearray(track.name)),
    )
    hit = memo.question(equal)
    assert hit is first and hit == track_to_question(track) == key


BAD_TRACKS = {
    "two namespace elements": FullTrackName(TrackNamespace((b"\x10", b"\x00\x01")), b"\x00"),
    "unknown QTYPE": FullTrackName(
        TrackNamespace((b"\x10", (999).to_bytes(2, "big"), b"\x00\x01")), b"\x00"
    ),
    "trailing bytes": FullTrackName(
        TrackNamespace((b"\x10", b"\x00\x01", b"\x00\x01")), b"\x00\x01x"
    ),
}


def wrap_track_to_question(monkeypatch, wrap) -> None:
    """Replace ``track_to_question`` with ``wrap(track_to_question)`` in every
    ``repro`` module that has it, so a parse is seen wherever it is called from."""
    original = sys.modules["repro.core.mapping"].track_to_question
    wrapped = wrap(original)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "track_to_question", None) is original:
            monkeypatch.setattr(module, "track_to_question", wrapped)


def _session_to(topology, host: str, server: str) -> MoqtSession:
    topology.network.add_host(host)
    topology.network.connect(host, server, LinkConfig(delay=0.010))
    connection = QuicEndpoint(topology.network.host(host)).connect(
        Address(server, MOQT_PORT), ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
    )
    return MoqtSession(connection, is_client=True)


@pytest.mark.parametrize("case", sorted(BAD_TRACKS))
def test_a_malformed_track_name_is_refused_at_both_publishers_every_time(monkeypatch, case):
    topology, _ = _chain()
    auth_host = sorted(topology.moqt_servers)[-1]
    sessions = [
        _session_to(topology, "10.9.9.1", RECURSIVE_HOST),
        _session_to(topology, "10.9.9.2", auth_host),
    ]
    questions = topology.simulator.memos["dns.question"]
    parsed = []

    def counting(parse):
        def counted(full_track_name):
            parsed.append(full_track_name)
            return parse(full_track_name)
        return counted

    wrap_track_to_question(monkeypatch, counting)
    bad = BAD_TRACKS[case]
    for attempt in (1, 2):
        requests = []
        for session in sessions:
            requests.append(session.subscribe(bad))
            requests.append(session.fetch(bad, Location(0, 0), Location(0, 0), on_complete=lambda fetch: None))
        topology.simulator.run(until=topology.simulator.now + 2.0)
        assert [request.state for request in requests] == ["error"] * 4
        assert len(parsed) == 4 * attempt, "a publisher skipped the check"
        assert bad not in questions
