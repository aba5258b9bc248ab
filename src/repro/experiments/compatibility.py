"""E10 — §4.5: incremental deployment and fallback to traditional DNS.

The experiment runs the MoQT resolver chain against an authoritative server
that does **not** support MoQT and checks the two §4.5 behaviours:

* the happy-eyeballs race still resolves the name (over classic UDP), and
  first-lookup latency stays close to pure UDP;
* in *decline* mode the stub's subscription is rejected with
  SUBSCRIBE_ERROR and no pushes arrive;
* in *periodic-refresh* mode the subscription is accepted, the recursive
  resolver re-requests the record once per TTL over UDP, and a changed record
  still reaches the subscribed stub — within one TTL rather than one
  propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compatibility import CompatibilityMode
from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import SmallTopology, SmallTopologyConfig

#: The record TTL of every scenario, in seconds.
TTL = 10


@dataclass
class CompatibilityOutcome:
    """Result of one compatibility scenario."""

    mode: str
    resolved: bool
    lookup_latency: float
    answer_via_udp_fallback: bool
    update_delivered: bool
    update_latency: float | None

    def as_row(self) -> dict[str, object]:
        """Row representation for report tables."""
        return {
            "mode": self.mode,
            "resolved": self.resolved,
            "lookup_ms": round(self.lookup_latency * 1000, 2),
            "udp_fallback": self.answer_via_udp_fallback,
            "update_delivered": self.update_delivered,
            "update_latency_s": (
                round(self.update_latency, 3) if self.update_latency is not None else None
            ),
        }


@dataclass
class CompatibilityResult:
    """Outcomes of all compatibility scenarios."""

    outcomes: list[CompatibilityOutcome]

    def rows(self) -> list[dict[str, object]]:
        """Table rows."""
        return [outcome.as_row() for outcome in self.outcomes]

    def outcome(self, mode: str) -> CompatibilityOutcome:
        """Look up one scenario by mode name."""
        for candidate in self.outcomes:
            if candidate.mode == mode:
                return candidate
        raise KeyError(mode)


def _run_scenario(mode: CompatibilityMode, moqt_on_auth: bool) -> CompatibilityOutcome:
    config = SmallTopologyConfig(
        record_ttl=TTL,
        moqt_on_auth=moqt_on_auth,
        happy_eyeballs=True,
        compatibility_mode=mode,
    )
    topology = SmallTopology(config)
    simulator = topology.simulator
    key = DnsQuestionKey(qname=Name.from_text(config.domain), qtype=RecordType.A)

    lookup_results: list[tuple[float, bool]] = []
    started = simulator.now
    topology.forwarder.resolve(
        key,
        lambda message, version: lookup_results.append(
            (simulator.now - started, message is not None)
        ),
    )
    topology.run(5.0)

    entry = topology.moqt_recursive.record(key)
    via_udp = entry is not None and not entry.via_moqt

    update_times: list[float] = []
    topology.forwarder.on_record_updated.append(
        lambda _key, record: update_times.append(simulator.now)
    )
    change_time = simulator.now
    topology.update_record("192.0.2.123")
    topology.run(TTL * 2.0 + 5.0)

    latency, resolved = lookup_results[0] if lookup_results else (float("nan"), False)
    return CompatibilityOutcome(
        mode=f"{mode.value}{'' if moqt_on_auth else ' (auth UDP-only)'}",
        resolved=resolved,
        lookup_latency=latency,
        answer_via_udp_fallback=via_udp,
        update_delivered=bool(update_times),
        update_latency=(update_times[0] - change_time) if update_times else None,
    )


def run_compatibility() -> CompatibilityResult:
    """Run the compatibility scenarios at a record TTL of ``TTL`` seconds.

    The MoQT-everywhere case is included as the baseline so the table shows
    how much update timeliness the fallback sacrifices (one TTL instead of
    one propagation delay).
    """
    baseline = _run_scenario(CompatibilityMode.PERIODIC_REFRESH, moqt_on_auth=True)
    decline = _run_scenario(CompatibilityMode.DECLINE_SUBSCRIPTION, moqt_on_auth=False)
    refresh = _run_scenario(CompatibilityMode.PERIODIC_REFRESH, moqt_on_auth=False)
    outcomes = [
        CompatibilityOutcome(
            mode="moqt-everywhere (baseline)",
            resolved=baseline.resolved,
            lookup_latency=baseline.lookup_latency,
            answer_via_udp_fallback=baseline.answer_via_udp_fallback,
            update_delivered=baseline.update_delivered,
            update_latency=baseline.update_latency,
        ),
        decline,
        refresh,
    ]
    return CompatibilityResult(outcomes=outcomes)
