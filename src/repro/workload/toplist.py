"""A synthetic Tranco-like top list.

The paper resolves the Tranco top-10k from 2025-06-24 and finds 8435 domains
with A records, 2870 with AAAA records and 1835 with HTTPS records.  The
synthetic list reproduces those coverage ratios (scaled to the configured
population), assigns each domain a TTL per record type from the
:func:`~repro.workload.ttl_model.sample_ttl`, and gives every domain a rank so
query models can apply Zipf popularity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.workload.ttl_model import sample_ttl

#: Record-type coverage observed in the paper (fraction of the top-10k).
PAPER_COVERAGE = {
    RecordType.A: 8435 / 10000,
    RecordType.AAAA: 2870 / 10000,
    RecordType.HTTPS: 1835 / 10000,
}

#: TLD mix used for synthetic names (share of domains per TLD).
DEFAULT_TLDS = (("com", 0.62), ("net", 0.12), ("org", 0.12), ("io", 0.08), ("dev", 0.06))


@dataclass(frozen=True)
class ToplistDomain:
    """One synthetic domain: name, rank and its records' types and TTLs."""

    name: Name
    rank: int
    record_types: tuple[RecordType, ...]
    ttls: tuple[tuple[RecordType, int], ...]
    address_pool_size: int

    def ttl_for(self, rdtype: RecordType) -> int | None:
        """The TTL assigned to a record type (None if the type is absent)."""
        for record_type, ttl in self.ttls:
            if record_type == rdtype:
                return ttl
        return None

    def has_type(self, rdtype: RecordType) -> bool:
        """Whether the domain publishes records of this type."""
        return rdtype in self.record_types


#: The top list's RNG seed: the date of the paper's Tranco list.
SEED = 2025_06_24


@dataclass
class ToplistConfig:
    """Parameters of the synthetic top list."""

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"toplist size must be positive: {self.size}")


class SyntheticToplist:
    """Generates and holds the synthetic domain population."""

    def __init__(self, config: ToplistConfig) -> None:
        self.config = config
        self._rng = random.Random(SEED)
        self._domains: list[ToplistDomain] = []
        self._generate()

    def _pick_tld(self) -> str:
        names = [name for name, _ in DEFAULT_TLDS]
        weights = [weight for _, weight in DEFAULT_TLDS]
        return self._rng.choices(names, weights=weights, k=1)[0]

    def _generate(self) -> None:
        coverage = PAPER_COVERAGE
        for rank in range(1, self.config.size + 1):
            tld = self._pick_tld()
            name = Name.from_text(f"site{rank:05d}.{tld}.")
            record_types: list[RecordType] = []
            # Record-type coverage is drawn independently per type so the
            # population fractions match the paper's totals; domains without
            # any address record still exist in the list (the paper resolves
            # 8435 A records out of 10 000 domains).
            if self._rng.random() < coverage.get(RecordType.A, 1.0):
                record_types.append(RecordType.A)
            if self._rng.random() < coverage.get(RecordType.AAAA, 0.0):
                record_types.append(RecordType.AAAA)
            if self._rng.random() < coverage.get(RecordType.HTTPS, 0.0):
                record_types.append(RecordType.HTTPS)
            ttls = tuple(
                (rdtype, sample_ttl(rdtype, self._rng))
                for rdtype in record_types
            )
            self._domains.append(
                ToplistDomain(
                    name=name,
                    rank=rank,
                    record_types=tuple(record_types),
                    ttls=ttls,
                    address_pool_size=self._rng.choice((2, 4, 8)),
                )
            )

    # ------------------------------------------------------------------ access
    def domains(self) -> list[ToplistDomain]:
        """All domains, most popular first."""
        return list(self._domains)

    def __len__(self) -> int:
        return len(self._domains)

    def __iter__(self):
        return iter(self._domains)

    def domain(self, rank: int) -> ToplistDomain:
        """The domain at a given 1-based rank."""
        return self._domains[rank - 1]

    def domains_with_type(self, rdtype: RecordType) -> list[ToplistDomain]:
        """Domains that publish records of the given type."""
        return [domain for domain in self._domains if domain.has_type(rdtype)]

    def count_by_type(self) -> dict[RecordType, int]:
        """Number of domains per record type (the Fig. 1a totals)."""
        counts: dict[RecordType, int] = {}
        for rdtype in (RecordType.A, RecordType.AAAA, RecordType.HTTPS):
            counts[rdtype] = len(self.domains_with_type(rdtype))
        return counts

    def ttl_histogram(self, rdtype: RecordType) -> dict[int, int]:
        """Number of domains per TTL cluster for a record type (Fig. 1a)."""
        histogram: dict[int, int] = {}
        for domain in self.domains_with_type(rdtype):
            ttl = domain.ttl_for(rdtype)
            if ttl is None:
                continue
            histogram[ttl] = histogram.get(ttl, 0) + 1
        return dict(sorted(histogram.items()))

    def tld_names(self) -> list[str]:
        """All TLD labels present in the list."""
        return sorted({domain.name.labels[-1].decode("ascii") for domain in self._domains})
