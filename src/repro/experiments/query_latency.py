"""E4 — §5.2: query latency of classic DNS vs. DNS over MoQT.

Scenarios measured on the simulated stack and predicted by the analytical
round-trip model:

* ``udp-first``      — classic stub → recursive with a cold cache (1 RTT to
  the recursive + 1 RTT per authority);
* ``udp-cached``     — classic stub → recursive with a warm cache;
* ``moqt-cold``      — first MoQT lookup ever: 3 RTTs per hop (QUIC + MoQT
  session + subscription);
* ``moqt-reused``    — sessions already established end to end, record not
  cached: 1 RTT per hop;
* ``moqt-0rtt``      — sessions previously established but closed; 0-RTT
  resumption: 2 RTTs per hop with today's MoQT;
* ``moqt-0rtt-alpn`` — 0-RTT plus ALPN-based version negotiation (future
  MoQT): 1 RTT per hop;
* ``moqt-pushed``    — the record is already subscribed at the forwarder:
  no network traffic at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.latency_model import TransportScenario, recursive_lookup_latency
from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import SmallTopology, SmallTopologyConfig

#: Number of authority levels contacted on a cold lookup (root, TLD, auth).
AUTHORITY_LEVELS = 3


@dataclass
class LatencyMeasurement:
    """One scenario's measured and predicted latency."""

    scenario: str
    measured: float
    predicted: float

    @property
    def relative_error(self) -> float:
        """Relative deviation of measurement from prediction."""
        if self.predicted == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.predicted) / self.predicted

    def as_row(self) -> dict[str, object]:
        """Row representation for report tables."""
        return {
            "scenario": self.scenario,
            "measured_ms": round(self.measured * 1000, 3),
            "predicted_ms": round(self.predicted * 1000, 3),
            "relative_error": round(self.relative_error, 4),
        }


@dataclass
class QueryLatencyResult:
    """All scenario measurements for one (stub RTT, upstream RTT) point."""

    stub_rtt: float
    upstream_rtt: float
    measurements: list[LatencyMeasurement]

    def rows(self) -> list[dict[str, object]]:
        """Table rows."""
        return [measurement.as_row() for measurement in self.measurements]

    def measurement(self, scenario: str) -> LatencyMeasurement:
        """Look up one scenario by name."""
        for candidate in self.measurements:
            if candidate.scenario == scenario:
                return candidate
        raise KeyError(scenario)


def _question(topology: SmallTopology) -> DnsQuestionKey:
    return DnsQuestionKey(qname=Name.from_text(topology.config.domain), qtype=RecordType.A)


def _measure_classic(topology: SmallTopology, warm_cache: bool) -> float:
    results: list[float] = []
    if warm_cache:
        topology.classic_stub.resolve(topology.config.domain, "A", lambda outcome: None)
        topology.run(5.0)
    # Use a fresh stub cache for the measured query so only the recursive
    # resolver's cache state differs between cold and warm runs.
    topology.classic_stub.cache.flush()
    started = topology.simulator.now
    topology.classic_stub.resolve(
        topology.config.domain, "A", lambda outcome: results.append(topology.simulator.now - started)
    )
    topology.run(5.0)
    return results[0] if results else float("nan")


def _measure_moqt(topology: SmallTopology, scenario: str) -> float:
    key = _question(topology)
    if scenario in ("moqt-reused", "moqt-pushed"):
        # Warm everything up with a first lookup.
        topology.forwarder.resolve(key, lambda message, version: None)
        topology.run(5.0)
    if scenario == "moqt-reused":
        # Drop the cached records but keep sessions: forces subscribe+fetch
        # over existing sessions at every hop.
        topology.forwarder.flush_records()
        topology.moqt_recursive.flush_records()
    if scenario in ("moqt-0rtt", "moqt-0rtt-alpn"):
        # Establish sessions once (collecting tickets), then close them so the
        # next lookup resumes with 0-RTT.
        topology.forwarder.resolve(key, lambda message, version: None)
        topology.run(5.0)
        topology.forwarder.sessions.close_all()
        topology.moqt_recursive.sessions.close_all()
        topology.forwarder.flush_records()
        topology.moqt_recursive.flush_records()
        topology.run(1.0)
    results: list[float] = []
    started = topology.simulator.now
    topology.forwarder.resolve(
        key, lambda message, version: results.append(topology.simulator.now - started)
    )
    topology.run(10.0)
    return results[0] if results else float("nan")


def _predictions(stub_rtt: float, upstream_rtt: float) -> dict[str, float]:
    upstream = [upstream_rtt] * AUTHORITY_LEVELS
    return {
        "udp-first": recursive_lookup_latency(TransportScenario.UDP, stub_rtt, upstream).total,
        "udp-cached": recursive_lookup_latency(
            TransportScenario.UDP, stub_rtt, [], recursive_cache_hit=True
        ).total,
        "moqt-cold": recursive_lookup_latency(
            TransportScenario.MOQT_COLD, stub_rtt, upstream
        ).total,
        "moqt-reused": recursive_lookup_latency(
            TransportScenario.MOQT_REUSED_SESSION, stub_rtt, upstream
        ).total,
        "moqt-0rtt": recursive_lookup_latency(
            TransportScenario.MOQT_0RTT, stub_rtt, upstream
        ).total,
        "moqt-0rtt-alpn": recursive_lookup_latency(
            TransportScenario.MOQT_0RTT_ALPN, stub_rtt, upstream
        ).total,
        "moqt-pushed": 0.0,
    }


def run_query_latency(
    stub_rtt: float = 0.010, upstream_rtt: float = 0.040
) -> QueryLatencyResult:
    """Measure every scenario for one RTT configuration."""
    predictions = _predictions(stub_rtt, upstream_rtt)
    measurements: list[LatencyMeasurement] = []

    def topology(**overrides) -> SmallTopology:
        config = SmallTopologyConfig(stub_rtt=stub_rtt, upstream_rtt=upstream_rtt, **overrides)
        return SmallTopology(config)

    measurements.append(
        LatencyMeasurement(
            "udp-first", _measure_classic(topology(), warm_cache=False), predictions["udp-first"]
        )
    )
    measurements.append(
        LatencyMeasurement(
            "udp-cached", _measure_classic(topology(), warm_cache=True), predictions["udp-cached"]
        )
    )
    measurements.append(
        LatencyMeasurement(
            "moqt-cold", _measure_moqt(topology(), "moqt-cold"), predictions["moqt-cold"]
        )
    )
    measurements.append(
        LatencyMeasurement(
            "moqt-reused", _measure_moqt(topology(), "moqt-reused"), predictions["moqt-reused"]
        )
    )
    measurements.append(
        LatencyMeasurement(
            "moqt-0rtt", _measure_moqt(topology(), "moqt-0rtt"), predictions["moqt-0rtt"]
        )
    )
    measurements.append(
        LatencyMeasurement(
            "moqt-0rtt-alpn",
            _measure_moqt(topology(alpn_version_negotiation=True), "moqt-0rtt-alpn"),
            predictions["moqt-0rtt-alpn"],
        )
    )
    measurements.append(
        LatencyMeasurement(
            "moqt-pushed", _measure_moqt(topology(), "moqt-pushed"), predictions["moqt-pushed"]
        )
    )
    return QueryLatencyResult(
        stub_rtt=stub_rtt, upstream_rtt=upstream_rtt, measurements=measurements
    )
