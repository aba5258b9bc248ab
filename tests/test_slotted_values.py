"""Slotted values mean what the dict-backed dataclasses meant (``docs/state.md``).

Every frozen value class under ``repro.dns``, ``repro.moqt`` and
``repro.core.mapping``, and the per-question ``TrackedSubscription``, is a
slotted dataclass: one subscribed question holds a few dozen of these
values, and an instance ``__dict__`` each was the largest share of what it
held (``tests/test_question_footprint.py``).  Pinned here:

* one parametrised test over every such class: ``==``, ``hash`` and ``repr``
  equal the field-tuple reference, ``pickle``, ``copy.deepcopy`` and
  ``dataclasses.replace`` round-trip (``tests/value_samples.py``, which also
  runs as a plain script on interpreters without pytest);
* the samples cover every class, so a new value class needs a sample;
* the derived attributes: ``AAAARdata`` compares on ``address`` as given
  while encoding the parsed address, ``DnsQuestionKey`` keeps the hash it
  always had, and ``MoqtObject.location`` is built from the IDs and is in
  neither ``==``, ``hash`` nor ``repr``.

Source mutations tried when this file was written, each failing a test:
``AAAARdata.__post_init__`` storing the canonical text as ``address`` (the
``"::1"`` case); ``location`` a plain ``init=False`` field (its parametrised
case and the ``location`` test); ``_hash`` computed without ``opcode``
(its parametrised case and the ``DnsQuestionKey`` test); ``TrackNamespace``
left without ``slots=True`` (its parametrised case's ``__dict__`` check, and
``tests/test_source_census.py``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.mapping import DnsQuestionKey
from repro.dns.message import Message, make_query, make_response
from repro.dns.name import Name
from repro.dns.rdata import AAAARdata
from repro.dns.rr import ResourceRecord
from repro.dns.types import DNSClass, Opcode, RecordType
from repro.moqt.objectmodel import Location, MoqtObject

from value_samples import SAMPLES, check_value, value_classes


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_a_slotted_value_means_what_its_fields_mean(cls):
    check_value(*SAMPLES[cls])


def test_every_value_class_has_samples():
    classes = value_classes()
    assert len(classes) == len(set(classes))
    assert set(classes) == set(SAMPLES), sorted(
        cls.__name__ for cls in set(classes) ^ set(SAMPLES)
    )


def test_aaaa_compares_on_the_address_as_given():
    short, long = AAAARdata("::1"), AAAARdata("0::1")
    assert short != long and hash(short) != hash(long)
    assert short.to_wire() == long.to_wire() == bytes(15) + b"\x01"
    assert short.to_text() == long.to_text() == "::1"
    # A decoded AAAA record carries the canonical text, and its slots.
    name = Name.from_text("v6.example.")
    record = ResourceRecord(name, RecordType.AAAA, long, 300)
    wire = make_response(make_query(name, RecordType.AAAA), answers=[record]).to_wire()
    (decoded,) = Message.from_wire(wire).answers
    assert decoded.rdata == short and decoded.rdata.to_wire() == long.to_wire()
    assert repr(decoded.rdata) == "AAAARdata(address='::1')"


def test_the_question_key_keeps_its_hash():
    key = DnsQuestionKey(
        Name.from_text("www.example.com."),
        RecordType.AAAA,
        DNSClass.IN,
        Opcode.QUERY,
        recursion_desired=False,
        checking_disabled=True,
    )
    reference = hash((key.qname, RecordType.AAAA, DNSClass.IN, Opcode.QUERY, False, True))
    assert key._hash == hash(key) == reference
    assert "_hash" not in repr(key)
    assert dataclasses.replace(key, recursion_desired=True) == DnsQuestionKey(
        key.qname, RecordType.AAAA, checking_disabled=True
    )


def test_an_objects_location_is_derived_and_not_compared():
    obj = MoqtObject(5, 2, b"payload")
    assert obj.location == Location(5, 2) and type(obj.location) is Location
    assert obj.location is obj.location, "built once, on construction"
    assert dataclasses.replace(obj, object_id=3).location == Location(5, 3)
    twin = MoqtObject(5, 2, b"payload")
    object.__setattr__(twin, "location", Location(9, 9))  # in neither ==, hash nor repr
    assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
    assert "location" not in repr(obj)
