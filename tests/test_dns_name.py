"""Tests for DNS name handling and wire format."""

from __future__ import annotations

import pytest

from repro.dns.name import MAX_NAME_LENGTH, Name, NameError_


class TestNameParsing:
    def test_from_text_and_back(self):
        assert Name.from_text("www.Example.COM").to_text() == "www.example.com."

    def test_trailing_dot_optional(self):
        assert Name.from_text("example.com.") == Name.from_text("example.com")

    def test_root_name(self):
        root = Name.from_text(".")
        assert root.is_root
        assert root.to_text() == "."
        assert len(root) == 0

    def test_case_insensitive_equality_and_hash(self):
        lower = Name.from_text("mail.example.com")
        upper = Name.from_text("MAIL.EXAMPLE.COM")
        assert lower == upper
        assert hash(lower) == hash(upper)

    def test_label_too_long_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a" * 64 + ".com")

    def test_name_too_long_rejected(self):
        labels = [b"a" * 63] * 4 + [b"b" * 8]
        with pytest.raises(NameError_):
            Name(labels)

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name([b"www", b"", b"com"])


class TestNameRelations:
    def test_parent_and_child(self):
        name = Name.from_text("www.example.com")
        assert name.parent() == Name.from_text("example.com")
        assert Name.from_text("example.com").child("api") == Name.from_text("api.example.com")

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            Name.root().parent()

    def test_subdomain_relation(self):
        child = Name.from_text("a.b.example.com")
        assert child.is_subdomain_of(Name.from_text("example.com"))
        assert child.is_subdomain_of(Name.root())
        assert child.is_subdomain_of(child)
        assert not Name.from_text("example.org").is_subdomain_of(Name.from_text("example.com"))
        assert not Name.from_text("notexample.com").is_subdomain_of(Name.from_text("example.com"))

    def test_ancestors_include_root(self):
        ancestors = Name.from_text("www.example.com").ancestors()
        assert ancestors[0] == Name.from_text("www.example.com")
        assert ancestors[-1] == Name.root()
        assert len(ancestors) == 4

    def test_derived_names_equal_parsed_ones(self):
        name = Name.from_text("WWW.Example.COM")
        texts = ["www.example.com.", "example.com.", "com.", "."]
        for derived, text in zip(name.ancestors(), texts):
            parsed = Name.from_text(text)
            assert derived == parsed and hash(derived) == hash(parsed)
            assert derived.to_text() == text and derived.to_wire() == parsed.to_wire()
        assert name.parent().parent().parent() == Name.root()
        assert Name.root().ancestors() == [Name.root()]

    def test_canonical_ordering_is_root_first(self):
        first = Name.from_text("a.example.com")
        second = Name.from_text("b.example.com")
        other_zone = Name.from_text("a.example.org")
        assert first < second
        assert second < other_zone  # com sorts before org at the top level


class TestNameWireFormat:
    def test_uncompressed_roundtrip(self):
        name = Name.from_text("mail.example.com")
        wire = name.to_wire()
        decoded, consumed = Name.from_wire(wire, 0)
        assert decoded == name
        assert consumed == len(wire)

    def test_root_encodes_to_single_zero_byte(self):
        assert Name.root().to_wire() == b"\x00"

    def test_compression_reuses_suffix(self):
        compress: dict[Name, int] = {}
        buffer = bytearray()
        Name.from_text("www.example.com")._append_wire(buffer, compress)
        first = len(buffer)
        Name.from_text("mail.example.com")._append_wire(buffer, compress)
        # The second name should be shorter than its uncompressed form because
        # "example.com" is emitted as a 2-byte pointer.
        assert len(buffer) - first < len(Name.from_text("mail.example.com").to_wire())
        decoded_first, _ = Name.from_wire(bytes(buffer), 0)
        decoded_second, _ = Name.from_wire(bytes(buffer), first)
        assert decoded_first == Name.from_text("www.example.com")
        assert decoded_second == Name.from_text("mail.example.com")

    def test_pointer_loop_protection(self):
        # A pointer pointing at itself must not loop forever.
        wire = b"\xc0\x00"
        with pytest.raises(NameError_):
            Name.from_wire(wire, 0)

    def test_truncated_name_rejected(self):
        with pytest.raises(NameError_):
            Name.from_wire(b"\x03ww", 0)

    def test_truncated_pointer_rejected(self):
        with pytest.raises(NameError_):
            Name.from_wire(b"\xc0", 0)

    def test_reserved_label_type_rejected(self):
        with pytest.raises(NameError_):
            Name.from_wire(b"\x80abc", 0)
