"""Census of bare ACKs that leave beside a payload packet (ROADMAP item 6(b)).

Item 6(b) — "the ACK rides the response" — would move every wire-byte and
datagram-count pin on a request / response path, so the ROADMAP asks for a
count first: per end-to-end workload and per E1–E16 fast run, how many QUIC
datagrams are *bare ACKs* (every frame an ACK or ACK_RANGES) that leave in the
same virtual instant, from the same endpoint on the same connection, as a
packet carrying something else — the ACKs a bundling sender would not send.

No ``src/`` change: the census wraps ``Network.route`` (every QUIC datagram
passes through it once, at the instant it is sent) for the duration of a run
and reads the first frame type of each packet; packets are classified where
they lie and only per-instant tallies are kept.

    python3 benchmarks/perf/ack_census.py                 # everything, seed 7
    python3 benchmarks/perf/ack_census.py --only tree_attach,E4 --seed 23

E2E workloads are run at full scale and counted over their timed region (the
``netsim.datagrams_per_op`` window); E-runs are counted whole.  All counts are
exact for a seed.  The table is recorded in ``docs/quic-send.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro.experiments import runner  # noqa: E402
from repro.netsim.network import Network  # noqa: E402
from repro.quic.frames import PacketDecodeError  # noqa: E402
from repro.quic.packet import decode_header  # noqa: E402

ACK_FRAME_TYPES = (0x02, 0x03)  # ACK, ACK_RANGES: a packet opens with one only if bare


class Census:
    """Tallies of QUIC datagrams seen by ``Network.route`` while ``counting``."""

    def __init__(self) -> None:
        self.counting = lambda: True
        self.reset()

    def reset(self) -> None:
        self.datagrams = 0
        self.wire_bytes = 0
        self.bare_acks = 0
        self.beside_payload = 0
        self.beside_payload_bytes = 0
        self._instant = None
        #: (source, destination, connection id) -> [payload packets, bare
        #: ACKs, bytes of those ACKs] sent at ``_instant``.
        self._groups: dict[tuple, list[int]] = {}

    def _flush(self) -> None:
        for payload_packets, bare_acks, ack_bytes in self._groups.values():
            if payload_packets:
                self.beside_payload += bare_acks
                self.beside_payload_bytes += ack_bytes
        self._groups.clear()

    def observe(self, now: float, datagram) -> None:
        if datagram.protocol != "quic" or not self.counting():
            return
        data = datagram.payload
        try:
            _, connection_id, _, offset, end = decode_header(data)
        except PacketDecodeError:
            return
        if now != self._instant:
            self._flush()
            self._instant = now
        bare = offset < end and data[offset] in ACK_FRAME_TYPES
        self.datagrams += 1
        self.wire_bytes += len(data)
        self.bare_acks += bare
        group = self._groups.setdefault(
            (datagram.source, datagram.destination, connection_id), [0, 0, 0]
        )
        group[bare] += 1
        if bare:
            group[2] += len(data)

    def snapshot(self) -> tuple[int, int, int, float]:
        """``(datagrams, bare ACKs, of those beside a payload packet, the
        share of QUIC payload bytes those are)``."""
        self._flush()
        byte_share = self.beside_payload_bytes / self.wire_bytes if self.wire_bytes else 0.0
        return self.datagrams, self.bare_acks, self.beside_payload, byte_share


def install(census: Census):
    """Route every datagram past ``census``; returns the undo."""
    original = Network.route

    def route(self, datagram):
        census.observe(self.simulator.now, datagram)
        original(self, datagram)

    Network.route = route
    return lambda: setattr(Network, "route", original)


def e2e_rows(census: Census, names: list[str], seed: int):
    import workloads  # benchmarks/e2e/workloads.py

    calibrator = workloads.Calibrator()
    for name in names:
        census.reset()
        trial = workloads.Trial(calibrator)
        census.counting = lambda trial=trial: trial.stage == trial.TIMED
        result = workloads.WORKLOADS[name][0](trial, workloads.SCALES["full"][name], seed)
        assert all(result.checks.values()), (name, result.checks)
        yield name, result.completed, census.snapshot()
    census.counting = lambda: True


def experiment_rows(census: Census):
    """One row per ``run_*`` call of ``run_all(fast=True)``, in report order."""
    calls: list[tuple[int, int, int, float]] = []

    def counted(function):
        def wrapper(*args, **kwargs):
            census.reset()
            try:
                return function(*args, **kwargs)
            finally:
                calls.append(census.snapshot())

        return wrapper

    originals = {
        name: value
        for name, value in vars(runner).items()
        if name.startswith("run_") and name != "run_all"
    }
    for name, function in originals.items():
        setattr(runner, name, counted(function))
    try:
        reports = runner.run_all(fast=True)
    finally:
        for name, function in originals.items():
            setattr(runner, name, function)
    assert len(calls) == len(reports)
    for report, counts in zip(reports, calls):
        yield report.experiment_id, None, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="e2e workload seed (E-runs have their own)")
    parser.add_argument("--only", default="", help="comma-separated workload names / experiment ids")
    args = parser.parse_args()
    only = set(filter(None, args.only.split(",")))

    import workloads

    census = Census()
    undo = install(census)
    try:
        rows = []
        names = [name for name in workloads.WORKLOADS if not only or name in only]
        rows += list(e2e_rows(census, names, args.seed))
        if not only or any(item.startswith("E") for item in only):
            rows += [row for row in experiment_rows(census) if not only or row[0] in only]
    finally:
        undo()
    print(f"{'run':12s} {'datagrams':>10s} {'bare ACKs':>10s} {'beside payload':>15s} "
          f"{'of datagrams':>13s} {'of bytes':>9s} {'datagrams/op':>13s} {'without them':>13s}")
    for name, ops, (datagrams, bare_acks, beside, byte_share) in rows:
        share = f"{beside / datagrams:.3f}" if datagrams else "-"
        of_bytes = f"{byte_share:.3f}" if datagrams else "-"
        per_op = f"{datagrams / ops:.3f}" if ops else "-"
        without = f"{(datagrams - beside) / ops:.3f}" if ops else "-"
        print(f"{name:12s} {datagrams:10d} {bare_acks:10d} {beside:15d} {share:>13s} "
              f"{of_bytes:>9s} {per_op:>13s} {without:>13s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
