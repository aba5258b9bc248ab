"""Two distinct values of every slotted value class, and the checks they pass.

The frozen value classes under ``repro.dns``, ``repro.moqt`` and
``repro.core.mapping`` (and the mutable ``TrackedSubscription``) are slotted
dataclasses (``docs/state.md``).  Slotting must not change what a value
means, so :func:`check_value` holds each one to what the dict-backed
dataclass computed from its fields:

* ``==`` is the tuple of its init fields, between instances of one class;
  ``hash`` (for a frozen class) is ``hash`` of that tuple, and ``repr`` is
  ``Class(field=value, ...)`` over the same fields;
* an attribute derived on construction (``AAAARdata._packed`` / ``_text``,
  ``DnsQuestionKey._hash``, ``MoqtObject.location``) is an ``init=False``
  field in neither ``==``, ``hash`` nor ``repr``;
* positional construction from those fields gives an equal value;
* ``pickle``, ``copy.deepcopy`` and ``dataclasses.replace`` give back an
  equal value with every slot, derived ones included, equal;
* an instance has no ``__dict__`` and a frozen one refuses assignment to a field.

``tests/test_slotted_values.py`` runs it under pytest.  pytest is not needed
for the round trip itself, so it also runs as a plain script on any
interpreter: ``PYTHONPATH=src python tests/value_samples.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import repro.core
import repro.dns
import repro.moqt
from repro.core.mapping import DnsQuestionKey
from repro.core.subscription import TrackedSubscription
from repro.dns.message import Flags, Header, Message, Question
from repro.dns.name import Name
from repro.dns.rdata import (
    AAAARdata,
    ARdata,
    CNAMERdata,
    GenericRdata,
    HTTPSRdata,
    MXRdata,
    NameRdata,
    NSRdata,
    PTRRdata,
    Rdata,
    SOARdata,
    SRVRdata,
    SVCBRdata,
    TXTRdata,
)
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import DNSClass, Opcode, Rcode, RecordType
from repro.dns.zone import LookupResult, ZoneChange
from repro.moqt.datastream import FetchStreamHeader, SubgroupStreamHeader
from repro.moqt.messages import (
    Announce,
    AnnounceOk,
    ClientSetup,
    ControlMessage,
    Fetch,
    FetchCancel,
    FetchError,
    FetchOk,
    FetchType,
    Goaway,
    MaxRequestId,
    ServerSetup,
    Subscribe,
    SubscribeDone,
    SubscribeError,
    SubscribeOk,
    Unsubscribe,
)
from repro.moqt.objectmodel import MoqtObject, ObjectStatus
from repro.moqt.parameters import Parameter, Parameters
from repro.moqt.track import FullTrackName, TrackNamespace

WWW = Name.from_text("www.example.com.")
MAIL = Name.from_text("mail.example.com.")
RECORD = ResourceRecord(WWW, RecordType.A, ARdata("192.0.2.1"), ttl=60)
OTHER_RECORD = ResourceRecord(MAIL, RecordType.A, ARdata("192.0.2.2"), 300)
NAMESPACE = TrackNamespace((b"\x10", b"\x00\x01", b"\x00\x01"))
TRACK = FullTrackName(NAMESPACE, WWW.to_wire())
PARAMETERS = Parameters((Parameter(2, b"\x05"),))
KEY = DnsQuestionKey(WWW, RecordType.A)

#: Class -> two values of it that differ in at least one field (``None``
#: for a class without fields).
SAMPLES: dict[type, tuple[object, object | None]] = {
    Rdata: (Rdata(), None),
    ARdata: (ARdata("192.0.2.1"), ARdata("192.0.2.2")),
    AAAARdata: (AAAARdata("2001:db8::1"), AAAARdata("::1")),
    NameRdata: (NameRdata(WWW), NameRdata(MAIL)),
    CNAMERdata: (CNAMERdata(WWW), CNAMERdata(MAIL)),
    NSRdata: (NSRdata(WWW), NSRdata(MAIL)),
    PTRRdata: (PTRRdata(WWW), PTRRdata(MAIL)),
    SOARdata: (SOARdata(WWW, MAIL, 7), SOARdata(WWW, MAIL, 8)),
    MXRdata: (MXRdata(10, MAIL), MXRdata(20, MAIL)),
    TXTRdata: (TXTRdata((b"v=spf1",)), TXTRdata((b"a", b"b"))),
    SRVRdata: (SRVRdata(1, 2, 443, WWW), SRVRdata(1, 2, 8443, WWW)),
    SVCBRdata: (SVCBRdata.with_alpn(1, WWW, ["h3"]), SVCBRdata(1, WWW, ())),
    HTTPSRdata: (HTTPSRdata.with_alpn(1, WWW, ["h3", "moq-00"]), HTTPSRdata(2, WWW, ())),
    GenericRdata: (GenericRdata(99, b"\x01"), GenericRdata(99, b"\x02")),
    ResourceRecord: (RECORD, RECORD.with_ttl(61)),
    Flags: (Flags(), Flags(qr=True, aa=True)),
    Header: (Header(7), Header(7, Flags(qr=True), Opcode.QUERY, Rcode.NXDOMAIN)),
    Question: (Question(WWW, RecordType.A), Question(WWW, RecordType.AAAA)),
    Message: (
        Message(Header(1), (Question(WWW, RecordType.A),), (RECORD,)),
        Message(Header(1), (Question(WWW, RecordType.A),), (RECORD,), (), (OTHER_RECORD,)),
    ),
    LookupResult: (LookupResult(Rcode.NOERROR, (RECORD,)), LookupResult(Rcode.NXDOMAIN)),
    ZoneChange: (
        ZoneChange(3, WWW, RecordType.A, RRset(WWW, RecordType.A, [RECORD])),
        ZoneChange(4, WWW, RecordType.A, None),
    ),
    DnsQuestionKey: (KEY, DnsQuestionKey(WWW, RecordType.A, recursion_desired=False)),
    TrackedSubscription: (TrackedSubscription(KEY, 2.0), TrackedSubscription(KEY, 2.0, 3)),
    ControlMessage: (ControlMessage(), None),
    ClientSetup: (ClientSetup(), ClientSetup((1, 2), PARAMETERS)),
    ServerSetup: (ServerSetup(), ServerSetup(1)),
    Subscribe: (Subscribe(1, 2, TRACK), Subscribe(1, 2, TRACK, forward=False)),
    SubscribeOk: (SubscribeOk(1), SubscribeOk(1, content_exists=True, largest_group_id=4)),
    SubscribeError: (SubscribeError(1, 4, "no"), SubscribeError(1, 4, "no", retry_after_ms=10)),
    Unsubscribe: (Unsubscribe(1), Unsubscribe(2)),
    SubscribeDone: (SubscribeDone(1), SubscribeDone(1, 2, 3, "done")),
    Fetch: (
        Fetch(1, full_track_name=TRACK, end_group=9),
        Fetch(3, fetch_type=FetchType.RELATIVE_JOINING, joining_request_id=1, joining_start=1),
    ),
    FetchOk: (FetchOk(1), FetchOk(1, end_of_track=True, parameters=PARAMETERS)),
    FetchError: (FetchError(1, 2, "gone"), FetchError(1, 2, "")),
    FetchCancel: (FetchCancel(1), FetchCancel(2)),
    Announce: (Announce(1, NAMESPACE), Announce(1, TrackNamespace.of("dns"))),
    AnnounceOk: (AnnounceOk(1), AnnounceOk(2)),
    MaxRequestId: (MaxRequestId(10), MaxRequestId(20)),
    Goaway: (Goaway(), Goaway("moqt://elsewhere")),
    Parameter: (Parameter(2, b"\x05"), Parameter(2, b"\x06")),
    Parameters: (PARAMETERS, Parameters()),
    TrackNamespace: (NAMESPACE, TrackNamespace.of("dns")),
    FullTrackName: (TRACK, FullTrackName.of(["dns"], "www")),
    MoqtObject: (
        MoqtObject(3, 0, b"answer"),
        MoqtObject(3, 1, b"answer", status=ObjectStatus.END_OF_GROUP, extensions=b"\x01"),
    ),
    SubgroupStreamHeader: (SubgroupStreamHeader(1, 3), SubgroupStreamHeader(1, 4)),
    FetchStreamHeader: (FetchStreamHeader(1), FetchStreamHeader(2)),
}

#: The packages whose frozen dataclasses are values (``repro.core`` has one,
#: in ``mapping.py``), and the mutable per-question record slotted with them.
VALUE_PACKAGES = (repro.dns, repro.moqt, repro.core)
MUTABLE_SLOTTED = (TrackedSubscription,)


def value_classes() -> list[type]:
    """Every frozen dataclass defined under ``VALUE_PACKAGES``, plus ``MUTABLE_SLOTTED``."""
    found = list(MUTABLE_SLOTTED)
    for package in VALUE_PACKAGES:
        for module_info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            module = importlib.import_module(module_info.name)
            for value in vars(module).values():
                if (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)
                    and value.__dataclass_params__.frozen
                ):
                    found.append(value)
    return found


def _fields(value: object) -> list[str]:
    """The fields the value is made of: what the dict-backed class compared."""
    return [item.name for item in dataclasses.fields(value) if item.init]


def _slots(value: object) -> list[object]:
    """Every slot's content, derived ones included."""
    return [getattr(value, item.name) for item in dataclasses.fields(value)]


def check_value(value: object, other: object | None) -> None:
    """Assert everything the module docstring lists for ``value`` (and ``other``,
    a value of the same class differing in some field)."""
    cls = type(value)
    names = _fields(value)
    as_tuple = tuple(getattr(value, name) for name in names)
    assert not hasattr(value, "__dict__"), f"{cls.__name__} has an instance __dict__"
    for item in dataclasses.fields(value):
        if not item.init:
            assert not item.compare and not item.repr, f"{cls.__name__}.{item.name} is compared"
    assert value == cls(*as_tuple)
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{cls.__qualname__}({shown})"
    if cls.__dataclass_params__.frozen:
        assert hash(value) == hash(as_tuple)
        for name in names[:1]:
            try:
                setattr(value, name, None)
            except dataclasses.FrozenInstanceError:
                pass
            else:
                raise AssertionError(f"{cls.__name__} accepted an assignment")
    else:
        assert cls.__hash__ is None, f"{cls.__name__} became hashable"
    if other is not None:
        assert type(other) is cls
        assert tuple(getattr(other, name) for name in names) != as_tuple
        assert value != other
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
        assert type(copied) is cls and copied is not value
        assert copied == value and _slots(copied) == _slots(value)
        if cls.__dataclass_params__.frozen:
            assert hash(copied) == hash(value)


if __name__ == "__main__":
    import sys

    missing = [cls.__name__ for cls in value_classes() if cls not in SAMPLES]
    assert not missing, f"no samples for {missing}"
    for value, other in SAMPLES.values():
        check_value(value, other)
    print(f"{len(SAMPLES)} slotted value classes round-trip on Python {sys.version.split()[0]}")
