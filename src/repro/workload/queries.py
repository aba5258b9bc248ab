"""Client query arrival models.

Stub resolvers issue queries for domains drawn from a Zipf popularity
distribution over the top list (popular sites are looked up far more often),
with exponentially distributed inter-arrival times.  The model is
deterministic given its seed, so experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

from repro.dns.types import RecordType
from repro.workload.toplist import SyntheticToplist, ToplistDomain


#: Zipf exponent for domain popularity (1.0 is the classic web value).
ZIPF_EXPONENT = 1.0
#: Share of queries per record type.
TYPE_MIX = ((RecordType.A, 0.70), (RecordType.AAAA, 0.20), (RecordType.HTTPS, 0.10))


@dataclass
class QueryModelConfig:
    """Parameters of the query arrival model."""

    #: Mean queries per second issued by one client.
    queries_per_second: float
    seed: int


@dataclass(frozen=True)
class QueryEvent:
    """One query: when it is issued, for which domain and type."""

    time: float
    domain: ToplistDomain
    rdtype: RecordType


class QueryModel:
    """Generates query streams over a synthetic top list."""

    def __init__(self, toplist: SyntheticToplist, config: QueryModelConfig) -> None:
        self.toplist = toplist
        self.config = config
        # Cumulative, once: ``choices(weights=...)`` would re-accumulate all of
        # them on every draw.  ``choices`` accumulates the same floats the same
        # way, so the stream is the one ``weights=`` gives.
        self._cum_weights = list(
            accumulate(self._zipf_weights(len(toplist), ZIPF_EXPONENT))
        )

    @staticmethod
    def _zipf_weights(population: int, exponent: float) -> list[float]:
        return [1.0 / math.pow(rank, exponent) for rank in range(1, population + 1)]

    def sample_domain(self, rng: random.Random) -> ToplistDomain:
        """Draw a domain according to Zipf popularity."""
        index = rng.choices(
            range(len(self.toplist)), cum_weights=self._cum_weights, k=1
        )[0]
        return self.toplist.domain(index + 1)

    def sample_type(self, domain: ToplistDomain, rng: random.Random) -> RecordType:
        """Draw a record type the domain actually publishes."""
        candidates = [
            (rdtype, weight)
            for rdtype, weight in TYPE_MIX
            if domain.has_type(rdtype)
        ]
        if not candidates:
            # Clients still ask for A records even when the domain publishes
            # none (the answer is simply an empty NOERROR / NXDOMAIN).
            return domain.record_types[0] if domain.record_types else RecordType.A
        types = [rdtype for rdtype, _ in candidates]
        weights = [weight for _, weight in candidates]
        return rng.choices(types, weights=weights, k=1)[0]

    def generate(self, duration: float) -> list[QueryEvent]:
        """Generate the query stream of one client over ``duration`` seconds."""
        rng = random.Random(self.config.seed << 16)
        events: list[QueryEvent] = []
        now = 0.0
        rate = self.config.queries_per_second
        if rate <= 0:
            return events
        while True:
            now += rng.expovariate(rate)
            if now >= duration:
                break
            domain = self.sample_domain(rng)
            rdtype = self.sample_type(domain, rng)
            events.append(QueryEvent(time=now, domain=domain, rdtype=rdtype))
        return events
