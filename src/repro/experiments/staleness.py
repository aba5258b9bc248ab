"""E5 — update timeliness: how quickly resolvers see the latest record version.

The paper argues that pub/sub "can considerably reduce the time it takes for
a resolver to receive the latest version of a record, depending on the
actual TTL" (§5).  The experiment changes a record at the authoritative zone
at several offsets within the TTL window and measures:

* **pub/sub** — when the subscribed forwarder receives the pushed update
  (sum of propagation delays, independent of the TTL);
* **polling** — when a continuously interested classic stub first receives
  the new version (bounded by the remaining TTL at the recursive resolver's
  cache).

Both are compared against the analytical staleness model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.staleness import pubsub_staleness
from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import STUB_RTT, SmallTopology, SmallTopologyConfig

#: When in the recursive resolver's TTL window each record change happens.
CHANGE_OFFSETS = (0.25, 0.5, 0.75)


@dataclass
class StalenessSample:
    """One record change and when each resolver flavour learned about it."""

    ttl: int
    change_offset_fraction: float
    pubsub_staleness: float
    polling_staleness: float

    @property
    def improvement_factor(self) -> float:
        """Polling staleness divided by pub/sub staleness."""
        if self.pubsub_staleness <= 0:
            return float("inf")
        return self.polling_staleness / self.pubsub_staleness

    def as_row(self) -> dict[str, object]:
        """Row representation for report tables."""
        return {
            "ttl": self.ttl,
            "change_offset": round(self.change_offset_fraction, 2),
            "pubsub_s": round(self.pubsub_staleness, 4),
            "polling_s": round(self.polling_staleness, 4),
            "improvement_x": round(self.improvement_factor, 1),
        }


@dataclass
class StalenessResult:
    """Samples across TTLs plus the model predictions."""

    samples: list[StalenessSample]
    model_pubsub: float

    def rows(self) -> list[dict[str, object]]:
        """Table rows."""
        return [sample.as_row() for sample in self.samples]

    def mean_improvement(self, ttl: int) -> float:
        """Average improvement factor for one TTL."""
        factors = [
            sample.improvement_factor
            for sample in self.samples
            if sample.ttl == ttl and sample.improvement_factor != float("inf")
        ]
        return sum(factors) / len(factors) if factors else float("inf")


def _measure_one(ttl: int, change_offset_fraction: float) -> StalenessSample:
    config = SmallTopologyConfig(record_ttl=ttl)
    topology = SmallTopology(config)
    simulator = topology.simulator
    key = DnsQuestionKey(qname=Name.from_text(config.domain), qtype=RecordType.A)

    # Warm the pub/sub path (the forwarder subscribes) and establish the
    # classic sessions, then re-fill the recursive resolver's cache at a
    # known instant so the change offset is measured within its TTL window.
    topology.forwarder.resolve(key, lambda message, version: None)
    topology.classic_stub.resolve(config.domain, "A", lambda outcome: None)
    topology.run(5.0)
    topology.classic_recursive.cache.flush()
    topology.classic_stub.cache.flush()
    cache_filled: list[float] = []
    topology.classic_stub.resolve(
        config.domain, "A", lambda outcome: cache_filled.append(simulator.now)
    )
    topology.run(2.0)
    warm_time = cache_filled[0] if cache_filled else simulator.now

    # Change the record part-way through the recursive cache's TTL window.
    change_time = warm_time + change_offset_fraction * ttl
    topology.run(change_time - simulator.now)
    push_times: list[float] = []
    topology.forwarder.on_record_updated.append(
        lambda _key, record: push_times.append(simulator.now)
    )
    new_address = "192.0.2.200"
    topology.update_record(new_address)

    # Poll the classic path every second (with a per-query fresh stub cache)
    # until it returns the new address.
    polling_observed: list[float] = []

    def poll() -> None:
        if polling_observed:
            return
        topology.classic_stub.cache.flush()

        def on_answer(outcome) -> None:
            if polling_observed:
                return
            addresses = outcome.rrset.sorted_rdata_texts() if outcome.rrset else []
            if new_address in addresses:
                polling_observed.append(simulator.now)
            else:
                simulator.call_later(max(1.0, ttl / 20.0), poll)

        topology.classic_stub.resolve(config.domain, "A", on_answer)

    poll()
    topology.run(ttl * 2.0 + 10.0)

    pubsub = (push_times[0] - change_time) if push_times else float("nan")
    polling = (polling_observed[0] - change_time) if polling_observed else float("nan")
    return StalenessSample(
        ttl=ttl,
        change_offset_fraction=change_offset_fraction,
        pubsub_staleness=pubsub,
        polling_staleness=polling,
    )


def run_staleness(ttls: list[int]) -> StalenessResult:
    """Run the update-timeliness experiment across TTLs and change offsets."""
    samples = [_measure_one(ttl, offset) for ttl in ttls for offset in CHANGE_OFFSETS]
    model_push = pubsub_staleness([SmallTopologyConfig.upstream_rtt / 2.0, STUB_RTT / 2.0])
    return StalenessResult(samples=samples, model_pubsub=model_push)
