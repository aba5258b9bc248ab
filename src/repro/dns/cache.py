"""A TTL-driven DNS cache bound to the simulated clock.

The cache stores RRsets keyed by (name, type) along with the virtual
time at which they were inserted.  Lookups return ``None`` once the TTL has
expired; returned RRsets have their TTL reduced by the time already spent in
the cache, exactly like a real resolver cache.

The cache also records hit/miss/expiry counters and, for the staleness
experiments, can report the *insertion time* of an entry so an experiment can
compute how old the data a client received actually is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.name import Name
from repro.dns.rr import RRset
from repro.dns.types import Rcode, RecordType
from repro.netsim.simulator import Simulator


@dataclass
class CacheEntry:
    """A cached RRset (or negative answer) with bookkeeping."""

    rrset: RRset | None
    rcode: Rcode
    inserted_at: float
    ttl: float

    def expires_at(self) -> float:
        """Absolute virtual time at which the entry stops being served."""
        return self.inserted_at + self.ttl

    def is_expired(self, now: float) -> bool:
        """Whether the entry has outlived its TTL."""
        return now >= self.expires_at()

    def remaining_ttl(self, now: float) -> float:
        """Seconds of validity left at time ``now`` (0 when expired)."""
        return max(0.0, self.expires_at() - now)


@dataclass
class CacheStatistics:
    """Hit/miss counters of a cache."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    insertions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class DnsCache:
    """An RRset cache driven by the simulator clock (``simulator`` provides
    the virtual clock used for TTL expiry); an expired entry leaves when it
    is next looked up."""

    def __init__(self, simulator: Simulator) -> None:
        self._simulator = simulator
        self._entries: dict[tuple[Name, RecordType], CacheEntry] = {}
        self.statistics = CacheStatistics()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ write
    def put(
        self,
        name: Name,
        rdtype: RecordType,
        rrset: RRset | None,
        rcode: Rcode = Rcode.NOERROR,
        ttl: float | None = None,
    ) -> CacheEntry:
        """Insert or replace an entry.

        ``ttl`` defaults to the RRset's minimum TTL; negative answers must
        provide an explicit TTL (usually the SOA minimum).
        """
        if ttl is None:
            if rrset is None:
                raise ValueError("negative cache entries need an explicit TTL")
            ttl = float(rrset.ttl)
        entry = CacheEntry(
            rrset=rrset, rcode=rcode, inserted_at=self._simulator.now, ttl=float(ttl)
        )
        self._entries[(name, rdtype)] = entry
        self.statistics.insertions += 1
        return entry

    # ------------------------------------------------------------------- read
    def get(self, name: Name, rdtype: RecordType) -> CacheEntry | None:
        """Look up a fresh entry; expired entries are removed and counted."""
        key = (name, rdtype)
        entry = self._entries.get(key)
        if entry is None:
            self.statistics.misses += 1
            return None
        if entry.is_expired(self._simulator.now):
            del self._entries[key]
            self.statistics.expirations += 1
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        return entry

    # ------------------------------------------------------------- maintenance
    def flush(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def entries(self) -> dict[tuple[Name, RecordType], CacheEntry]:
        """A shallow copy of the cache content (for inspection in tests)."""
        return dict(self._entries)
