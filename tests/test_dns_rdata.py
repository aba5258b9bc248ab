"""Tests for typed RDATA wire and presentation codecs."""

from __future__ import annotations

import pytest

from repro.dns.name import Name
from repro.dns.rdata import (
    AAAARdata,
    ARdata,
    CNAMERdata,
    GenericRdata,
    HTTPSRdata,
    MXRdata,
    NSRdata,
    RdataError,
    SOARdata,
    SRVRdata,
    SVCBRdata,
    TXTRdata,
    decode_rdata,
    parse_rdata,
)
from repro.dns.types import RecordType


def _roundtrip(rdata, rdtype):
    wire = rdata.to_wire()
    decoded = decode_rdata(rdtype, wire, 0, len(wire))
    return decoded


class TestAddressRdata:
    def test_a_roundtrip(self):
        rdata = ARdata("192.0.2.33")
        assert rdata.to_wire() == bytes([192, 0, 2, 33])
        assert _roundtrip(rdata, RecordType.A) == rdata
        assert rdata.to_text() == "192.0.2.33"

    def test_a_rejects_invalid_address(self):
        with pytest.raises(Exception):
            ARdata("not-an-ip")

    def test_a_wrong_length_rejected(self):
        with pytest.raises(RdataError):
            ARdata.from_wire(b"\x01\x02", 0, 2)

    def test_aaaa_roundtrip_and_canonical_text(self):
        rdata = AAAARdata("2001:DB8::1")
        assert _roundtrip(rdata, RecordType.AAAA).to_text() == "2001:db8::1"
        assert len(rdata.to_wire()) == 16

    def test_decoding_yields_the_value_the_constructor_would(self):
        for packed in (bytes([0, 0, 0, 0]), bytes([10, 0, 200, 255]), bytes([255] * 4)):
            decoded = ARdata.from_wire(b"\xff" + packed, 1, 4)
            built = ARdata(decoded.address)
            assert decoded == built and hash(decoded) == hash(built)
            assert decoded.to_wire() == packed
        for packed in (bytes(16), bytes(range(16)), bytes([0x20, 1, 0x0D, 0xB8] + [0] * 11 + [1])):
            decoded = AAAARdata.from_wire(packed, 0, 16)
            assert decoded == AAAARdata(decoded.address)
            assert decoded.to_text() == decoded.address and decoded.to_wire() == packed

    def test_truncated_or_mislabelled_address_rejected(self):
        with pytest.raises(RdataError):
            ARdata.from_wire(b"\x01\x02\x03", 0, 4)
        with pytest.raises(RdataError):
            ARdata.from_wire(bytes(5), 0, 5)
        with pytest.raises(RdataError):
            AAAARdata.from_wire(bytes(15), 0, 16)
        with pytest.raises(RdataError):
            AAAARdata.from_wire(bytes(16), 0, 4)

    def test_constructor_and_from_text_still_validate(self):
        for bad in ("256.0.0.1", "1.2.3", "01.2.3.4"):
            with pytest.raises(ValueError):
                ARdata(bad)
            with pytest.raises(ValueError):
                ARdata.from_text(bad)
        with pytest.raises(ValueError):
            AAAARdata.from_text("2001:db8:::1")


class TestNameBasedRdata:
    def test_cname_roundtrip(self):
        rdata = CNAMERdata(Name.from_text("target.example.com"))
        assert _roundtrip(rdata, RecordType.CNAME) == rdata

    def test_ns_from_text(self):
        rdata = parse_rdata(RecordType.NS, "ns1.example.net.")
        assert isinstance(rdata, NSRdata)
        assert rdata.target == Name.from_text("ns1.example.net")

    def test_mx_roundtrip(self):
        rdata = MXRdata(10, Name.from_text("mail.example.com"))
        decoded = _roundtrip(rdata, RecordType.MX)
        assert decoded.preference == 10
        assert decoded.exchange == Name.from_text("mail.example.com")

    def test_srv_roundtrip(self):
        rdata = SRVRdata(1, 5, 443, Name.from_text("svc.example.com"))
        assert _roundtrip(rdata, RecordType.SRV) == rdata
        assert parse_rdata(RecordType.SRV, rdata.to_text()) == rdata


class TestSoaRdata:
    def test_roundtrip_and_fields(self):
        soa = SOARdata(
            Name.from_text("ns1.example.com"),
            Name.from_text("hostmaster.example.com"),
            serial=2024010101,
            refresh=7200,
            retry=900,
            expire=1209600,
            minimum=120,
        )
        decoded = _roundtrip(soa, RecordType.SOA)
        assert decoded == soa
        assert decoded.serial == 2024010101

    def test_from_text_requires_seven_fields(self):
        with pytest.raises(RdataError):
            SOARdata.from_text("ns1.example.com. hostmaster.example.com. 1 2 3")

    def test_text_roundtrip(self):
        soa = SOARdata(Name.from_text("ns1.x."), Name.from_text("admin.x."), 7)
        assert parse_rdata(RecordType.SOA, soa.to_text()) == soa


class TestTxtRdata:
    def test_multiple_strings_roundtrip(self):
        rdata = TXTRdata((b"hello", b"world"))
        assert _roundtrip(rdata, RecordType.TXT) == rdata

    def test_oversized_string_rejected(self):
        with pytest.raises(RdataError):
            TXTRdata((b"x" * 256,))

    def test_from_text_with_quotes(self):
        rdata = TXTRdata.from_text('"v=spf1 -all"')
        assert rdata.strings == (b"v=spf1 -all",)


class TestSvcbHttpsRdata:
    def test_alpn_helper_roundtrip(self):
        rdata = HTTPSRdata.with_alpn(1, Name.root(), ["h2", "h3"])
        decoded = _roundtrip(rdata, RecordType.HTTPS)
        assert decoded.alpns() == ["h2", "h3"]
        assert decoded.priority == 1

    def test_text_roundtrip(self):
        rdata = SVCBRdata.with_alpn(16, Name.from_text("svc.example.com"), ["h3"])
        text = rdata.to_text()
        assert "alpn=h3" in text
        assert parse_rdata(RecordType.SVCB, text) == rdata

    def test_unknown_svcparam_in_text_rejected(self):
        with pytest.raises(RdataError):
            SVCBRdata.from_text("1 . frobnicate=1")

    def test_empty_alpn_list(self):
        rdata = HTTPSRdata(1, Name.root(), ())
        assert rdata.alpns() == []


class TestGenericAndRegistry:
    def test_generic_preserves_unknown_type_bytes(self):
        decoded = decode_rdata(RecordType.ANY, b"\x01\x02\x03", 0, 3)
        assert isinstance(decoded, GenericRdata)
        assert decoded.data == b"\x01\x02\x03"

    def test_generic_text_roundtrip(self):
        rdata = GenericRdata(0, b"\xde\xad\xbe\xef")
        assert GenericRdata.from_text(rdata.to_text()).data == b"\xde\xad\xbe\xef"
