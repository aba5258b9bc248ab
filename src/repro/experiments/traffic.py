"""E6 — update traffic: request/response polling vs. pub/sub pushes.

The paper's second benefit claim: pushing updates to subscribed resolvers
"reduces the number of RR requests ... thereby limiting update traffic" (§2,
§5).  The experiment runs one record with a given TTL and change interval
for a fixed period and counts, at the authoritative server:

* classic DNS — the number of queries received from a continuously
  interested recursive resolver (one per TTL expiry);
* DNS over MoQT — the subscribe+fetch exchange plus one pushed object per
  record change.

Both are compared against the closed-form traffic model, and the crossover
(pub/sub wins when records change less often than once per TTL; polling wins
for extremely hot records with long TTLs) is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.traffic import TrafficComparison, traffic_comparison
from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import SmallTopology, SmallTopologyConfig


@dataclass
class TrafficSample:
    """Measured and modelled message counts for one (TTL, change interval)."""

    ttl: int
    change_interval: float
    duration: float
    measured_polling_queries: int
    measured_pubsub_messages: int
    model: TrafficComparison

    @property
    def measured_reduction_factor(self) -> float:
        """Measured polling messages divided by pub/sub messages."""
        if self.measured_pubsub_messages <= 0:
            return float("inf")
        return self.measured_polling_queries / self.measured_pubsub_messages

    def as_row(self) -> dict[str, object]:
        """Row representation for report tables."""
        return {
            "ttl": self.ttl,
            "change_interval": self.change_interval,
            "duration": self.duration,
            "polling_msgs": self.measured_polling_queries,
            "pubsub_msgs": self.measured_pubsub_messages,
            "model_polling": self.model.polling,
            "model_pubsub": self.model.pubsub,
            "reduction_x": round(self.measured_reduction_factor, 2),
            "pubsub_wins": self.measured_pubsub_messages < self.measured_polling_queries,
        }


@dataclass
class TrafficResult:
    """All samples of the traffic experiment."""

    samples: list[TrafficSample]

    def rows(self) -> list[dict[str, object]]:
        """Table rows."""
        return [sample.as_row() for sample in self.samples]


def _measure_one(ttl: int, change_interval: float, duration: float) -> TrafficSample:
    config = SmallTopologyConfig(record_ttl=ttl)
    topology = SmallTopology(config)
    simulator = topology.simulator
    key = DnsQuestionKey(qname=Name.from_text(config.domain), qtype=RecordType.A)

    # Pub/sub side: the forwarder subscribes once.
    topology.forwarder.resolve(key, lambda message, version: None)
    # Polling side: a continuously interested classic stub re-queries right
    # after every TTL expiry.  Polling a whisker later than the TTL makes
    # every poll a guaranteed cache miss at the recursive resolver, which is
    # the "continuously interested resolver" the closed-form model assumes.
    poll_interval = ttl * 1.02 + 0.1

    def classic_poll() -> None:
        topology.classic_stub.cache.flush()
        topology.classic_stub.resolve(config.domain, "A", lambda outcome: None)
        simulator.call_later(poll_interval, classic_poll)

    classic_poll()
    topology.run(1.0)

    auth_queries_before = topology.classic_auth.statistics.queries
    moqt_pushes_before = topology.moqt_auth.statistics.updates_published if topology.moqt_auth else 0
    moqt_fetches_before = topology.moqt_auth.statistics.fetches_served if topology.moqt_auth else 0

    # Drive record changes for the measurement period.
    start = simulator.now
    changes = 0
    address_counter = 20
    next_change = start + change_interval
    while next_change <= start + duration:
        topology.run(next_change - simulator.now)
        address_counter += 1
        topology.update_record(f"192.0.2.{address_counter % 250 + 1}")
        changes += 1
        next_change += change_interval
    topology.run(start + duration - simulator.now + 1.0)

    measured_polling = topology.classic_auth.statistics.queries - auth_queries_before
    measured_pubsub = 0
    if topology.moqt_auth is not None:
        measured_pubsub = (
            topology.moqt_auth.statistics.updates_published
            - moqt_pushes_before
            + (topology.moqt_auth.statistics.fetches_served - moqt_fetches_before)
        )
    model = traffic_comparison(
        duration=duration,
        ttl=ttl,
        change_interval=change_interval,
        resolvers=1,
    )
    return TrafficSample(
        ttl=ttl,
        change_interval=change_interval,
        duration=duration,
        measured_polling_queries=measured_polling,
        measured_pubsub_messages=measured_pubsub,
        model=model,
    )


def run_traffic(configurations: list[tuple[int, float]], duration: float) -> TrafficResult:
    """Run the traffic experiment.

    ``configurations`` is a list of ``(ttl, change_interval)`` pairs, such as
    records that change slower than their TTL (pub/sub wins) and records that
    change much faster (pub/sub pushes more messages than polling but keeps
    resolvers current).
    """
    samples = [_measure_one(ttl, interval, duration) for ttl, interval in configurations]
    return TrafficResult(samples=samples)
