"""Tests for the TTL-driven DNS cache."""

from __future__ import annotations

import pytest

from repro.dns.cache import DnsCache
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import Rcode, RecordType
from repro.netsim.simulator import Simulator


def _rrset(name: str, addresses: list[str], ttl: int = 300) -> RRset:
    owner = Name.from_text(name)
    return RRset(
        owner,
        RecordType.A,
        [ResourceRecord(owner, RecordType.A, ARdata(address), ttl) for address in addresses],
    )


@pytest.fixture
def cache(simulator: Simulator) -> DnsCache:
    return DnsCache(simulator)


class TestCacheBasics:
    def test_miss_then_hit(self, simulator, cache):
        name = Name.from_text("www.example.com.")
        assert cache.get(name, RecordType.A) is None
        cache.put(name, RecordType.A, _rrset("www.example.com.", ["192.0.2.1"]))
        entry = cache.get(name, RecordType.A)
        assert entry is not None and entry.rrset is not None
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1

    def test_expiry_follows_simulated_clock(self, simulator, cache):
        name = Name.from_text("www.example.com.")
        cache.put(name, RecordType.A, _rrset("www.example.com.", ["192.0.2.1"], ttl=10))
        simulator.advance(9.999)
        assert cache.get(name, RecordType.A) is not None
        simulator.advance(0.002)
        assert cache.get(name, RecordType.A) is None
        assert cache.statistics.expirations == 1

    def test_remaining_ttl_follows_the_simulated_clock(self, simulator, cache):
        name = Name.from_text("www.example.com.")
        cache.put(name, RecordType.A, _rrset("www.example.com.", ["192.0.2.1"], ttl=100))
        simulator.advance(40.0)
        entry = cache.get(name, RecordType.A)
        assert entry is not None
        assert entry.remaining_ttl(simulator.now) == 60.0
        assert entry.remaining_ttl(simulator.now + 100.0) == 0.0

    def test_expired_entries_are_dropped_when_looked_up(self, simulator, cache):
        for index in range(5):
            cache.put(
                Name.from_text(f"h{index}.example.com."),
                RecordType.A,
                _rrset(f"h{index}.example.com.", ["192.0.2.9"], ttl=10 + index),
            )
        simulator.advance(12.5)
        found = [
            cache.get(Name.from_text(f"h{index}.example.com."), RecordType.A) is not None
            for index in range(5)
        ]
        assert found == [False, False, False, True, True]
        assert len(cache) == 2
        assert cache.statistics.expirations == 3

    def test_negative_entries_require_ttl(self, cache):
        name = Name.from_text("nope.example.com.")
        with pytest.raises(ValueError):
            cache.put(name, RecordType.A, None)
        cache.put(name, RecordType.A, None, rcode=Rcode.NXDOMAIN, ttl=30)
        entry = cache.get(name, RecordType.A)
        assert entry is not None and entry.rcode == Rcode.NXDOMAIN

    def test_put_replaces_the_entry_and_restarts_its_ttl(self, simulator, cache):
        name = Name.from_text("www.example.com.")
        cache.put(name, RecordType.A, _rrset("www.example.com.", ["192.0.2.1"], ttl=10))
        simulator.advance(8.0)
        cache.put(name, RecordType.A, _rrset("www.example.com.", ["192.0.2.2"], ttl=10))
        simulator.advance(8.0)
        entry = cache.get(name, RecordType.A)
        assert entry is not None and entry.inserted_at == 8.0
        assert [record.rdata.to_text() for record in entry.rrset] == ["192.0.2.2"]
        assert len(cache) == 1 and cache.statistics.insertions == 2

    def test_flush(self, cache):
        name = Name.from_text("www.example.com.")
        cache.put(name, RecordType.A, _rrset("www.example.com.", ["192.0.2.1"]))
        cache.flush()
        assert len(cache) == 0

    def test_hit_ratio(self, simulator, cache):
        name = Name.from_text("www.example.com.")
        cache.put(name, RecordType.A, _rrset("www.example.com.", ["192.0.2.1"]))
        cache.get(name, RecordType.A)
        cache.get(Name.from_text("other.example.com."), RecordType.A)
        assert cache.statistics.hit_ratio == pytest.approx(0.5)


class TestCacheBounds:
    def test_live_entries_are_never_evicted(self, simulator, cache):
        # The cache has no size bound: only a lookup past the TTL drops an
        # entry, whatever the number or lifetimes of the others.
        names = [Name.from_text(f"h{index}.example.com.") for index in range(300)]
        for index, name in enumerate(names):
            cache.put(name, RecordType.A, _rrset(name.to_text(), ["192.0.2.1"], ttl=10 + index))
        assert len(cache) == 300
        simulator.advance(9.0)
        assert all(cache.get(name, RecordType.A) is not None for name in names)
        assert cache.statistics.expirations == 0 and len(cache) == 300
