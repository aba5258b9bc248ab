"""Link waves vs one-datagram sends on constrained (bandwidth/loss) links.

The contract of ``Link.transmit_many``: for *any* link — bandwidth-limited,
lossy or both — a wave is indistinguishable from a loop of one-datagram
sends (``link_reference.transmit``) at the instant the wave is sent.  Same
delivery times (bit-exact floats), same drop set, same byte counters, same
seeded RNG consumption.  The property tests here drive that equivalence
with hypothesis-generated link mixes; the seeded regression pins the RNG
draw-order contract documented on :class:`repro.netsim.link.LinkConfig`.
The byte-counter tests hold that a link counts exactly the bytes offered to
its wire, and that network totals are the plain sum of its links.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.link import Link, LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address, Datagram
from repro.netsim.simulator import Simulator

from link_reference import transmit

SRC = Address("src", 1)
DST = Address("dst", 2)

#: Bandwidth choices (bits/s): unconstrained, slow, mid, fast.  The slow end
#: makes serialisation delay dominate so FIFO ordering is actually exercised.
BANDWIDTHS = (None, 8_000.0, 64_000.0, 1_000_000.0)
DELAYS = (0.0, 0.001, 0.010, 0.050)

link_configs = st.builds(
    LinkConfig,
    delay=st.sampled_from(DELAYS),
    bandwidth=st.sampled_from(BANDWIDTHS),
    loss_rate=st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9)),
)


def _run_wave(
    seed: int,
    configs: list[LinkConfig],
    assignments: list[tuple[int, bytes]],
    batched: bool,
) -> tuple[list[tuple[int, float, bytes]], list[dict[str, int]], int]:
    """One wave over fresh links; returns (deliveries, stats, events)."""
    simulator = Simulator(seed=seed)
    deliveries: list[tuple[int, float, bytes]] = []

    def make_deliver(index: int):
        return lambda datagram: deliveries.append(
            (index, simulator.now, bytes(datagram.payload))
        )

    links = [
        Link(config, make_deliver(index))
        for index, config in enumerate(configs)
    ]
    entries = [
        (links[link_index], Datagram(SRC, DST, payload))
        for link_index, payload in assignments
    ]
    if batched:
        Link.transmit_many(simulator, entries, Network(simulator))
    else:
        for link, datagram in entries:
            transmit(simulator, link, datagram)
    simulator.run()
    return deliveries, [link.statistics.as_dict() for link in links], simulator.events_scheduled


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    configs=st.lists(link_configs, min_size=1, max_size=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_batched_wave_is_bit_identical_to_per_datagram(seed, configs, data) -> None:
    """Delivery times, drop sets and byte counters match the unbatched path."""
    assignments = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(configs) - 1),
                st.binary(min_size=1, max_size=40),
            ),
            min_size=1,
            max_size=25,
        )
    )
    batched_deliveries, batched_stats, batched_events = _run_wave(
        seed, configs, assignments, batched=True
    )
    plain_deliveries, plain_stats, plain_events = _run_wave(
        seed, configs, assignments, batched=False
    )
    assert batched_deliveries == plain_deliveries
    assert batched_stats == plain_stats
    # Batching must never *add* scheduler work: one event per distinct
    # arrival slot is at most one event per surviving datagram.
    assert batched_events <= plain_events


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    config=link_configs,
    waves=st.lists(
        st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=10),
        min_size=2,
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_successive_waves_share_the_fifo_state(seed, config, waves) -> None:
    """Back-to-back waves on one link replay the per-datagram FIFO exactly:
    the busy time carried between waves matches the unbatched fold."""

    def run(batched: bool):
        simulator = Simulator(seed=seed)
        deliveries: list[tuple[float, bytes]] = []
        link = Link(
            config,
            lambda datagram: deliveries.append((simulator.now, bytes(datagram.payload))),
        )
        for wave_index, wave in enumerate(waves):
            entries = [(link, Datagram(SRC, DST, payload)) for payload in wave]
            if batched:
                Link.transmit_many(simulator, entries, Network(simulator))
            else:
                for wave_link, datagram in entries:
                    transmit(simulator, wave_link, datagram)
            simulator.run(until=simulator.now + 0.005 * (wave_index + 1))
        simulator.run()
        return deliveries, link.statistics.as_dict()

    assert run(batched=True) == run(batched=False)


def test_seeded_draw_order_regression() -> None:
    """Pin of the RNG draw-order contract in the ``LinkConfig`` docstring.

    One ``rng.random()`` draw per entry on a lossy link, in FIFO entry
    order; serialisation draws nothing; a dropped entry does not advance
    the FIFO busy time.  The expected drop set and arrival instants are
    recomputed here from an independent ``random.Random`` with the same
    seed — if the implementation ever reorders, adds or removes a draw,
    every seeded experiment output shifts and this test names the contract
    that broke.
    """
    seed = 42
    loss_rate = 0.25
    bandwidth = 64_000.0
    delay = 0.010
    payloads = [bytes([index]) * (index + 1) for index in range(12)]

    reference_rng = random.Random(seed)
    expected: list[tuple[float, bytes]] = []
    busy = 0.0
    for payload in payloads:
        if reference_rng.random() < loss_rate:
            continue  # dropped: no busy-time advance
        busy += len(payload) * 8 / bandwidth
        expected.append((busy + delay, payload))
    assert expected, "seed 42 must keep some survivors for the pin to bite"
    assert len(expected) < len(payloads), "seed 42 must drop something"

    for batched in (True, False):
        simulator = Simulator(seed=seed)
        deliveries: list[tuple[float, bytes]] = []
        link = Link(
            LinkConfig(delay=delay, bandwidth=bandwidth, loss_rate=loss_rate),
            lambda datagram: deliveries.append((simulator.now, bytes(datagram.payload))),
        )
        entries = [(link, Datagram(SRC, DST, payload)) for payload in payloads]
        if batched:
            Link.transmit_many(simulator, entries, Network(simulator))
        else:
            for _, datagram in entries:
                transmit(simulator, link, datagram)
        simulator.run()
        assert deliveries == expected
        assert link.statistics.datagrams_dropped == len(payloads) - len(expected)


class TestByteCountersAreTheWire:
    """A link's counters hold the bytes offered to its wire, read as-is."""

    PAYLOADS = [bytes([index]) * (3 * index + 1) for index in range(20)]

    def _send(self, config: LinkConfig, batched: bool, seed: int = 42):
        simulator = Simulator(seed=seed)
        deliveries: list[tuple[float, bytes]] = []
        link = Link(
            config,
            lambda datagram: deliveries.append((simulator.now, bytes(datagram.payload))),
        )
        entries = [(link, Datagram(SRC, DST, payload)) for payload in self.PAYLOADS]
        if batched:
            Link.transmit_many(simulator, entries, Network(simulator))
        else:
            for _, datagram in entries:
                transmit(simulator, link, datagram)
        simulator.run()
        return link.statistics, deliveries

    def test_unconstrained_link_counts_every_byte_once(self) -> None:
        total = sum(len(payload) for payload in self.PAYLOADS)
        for batched in (True, False):
            statistics, deliveries = self._send(LinkConfig(delay=0.001), batched)
            assert [payload for _, payload in deliveries] == self.PAYLOADS
            assert statistics.as_dict() == {
                "datagrams_sent": len(self.PAYLOADS),
                "datagrams_delivered": len(self.PAYLOADS),
                "datagrams_dropped": 0,
                "bytes_sent": total,
                "bytes_delivered": total,
            }

    def test_bandwidth_link_serialises_exactly_the_counted_bytes(self) -> None:
        bandwidth, delay = 64_000.0, 0.010
        busy = 0.0
        for payload in self.PAYLOADS:
            busy += len(payload) * 8 / bandwidth
        for batched in (True, False):
            statistics, deliveries = self._send(
                LinkConfig(delay=delay, bandwidth=bandwidth), batched
            )
            # The last arrival is the serialisation time of every counted
            # byte plus one propagation delay: nothing is counted that was
            # not on the wire, and nothing on the wire goes uncounted.
            assert deliveries[-1][0] == busy + delay
            assert statistics.bytes_sent == statistics.bytes_delivered
            assert statistics.bytes_sent * 8 / bandwidth == pytest.approx(busy)

    def test_lossy_link_counts_a_dropped_datagram_as_sent_only(self) -> None:
        total = sum(len(payload) for payload in self.PAYLOADS)
        for batched in (True, False):
            statistics, deliveries = self._send(
                LinkConfig(delay=0.001, loss_rate=0.5), batched
            )
            delivered = [payload for _, payload in deliveries]
            assert 0 < len(delivered) < len(self.PAYLOADS), "seed 42 must drop some"
            assert statistics.bytes_sent == total
            assert statistics.bytes_delivered == sum(len(payload) for payload in delivered)
            assert statistics.datagrams_delivered == len(delivered)
            assert statistics.datagrams_dropped == len(self.PAYLOADS) - len(delivered)

    def test_network_totals_are_the_plain_sum_of_its_links(self) -> None:
        simulator = Simulator(seed=7)
        network = Network(simulator)
        for address in ("a", "b", "c"):
            network.add_host(address)
        network.connect("a", "b", LinkConfig(delay=0.002, bandwidth=1_000_000.0))
        network.connect("b", "c", LinkConfig(delay=0.005, loss_rate=0.25))
        sent = [bytes([index]) * (index + 5) for index in range(16)]
        for payload in sent:
            network.route(Datagram(Address("a", 1), Address("c", 2), payload))
        simulator.run()

        per_link = [
            network.link(source, destination).statistics.as_dict()
            for source, destination in (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"))
        ]
        totals = network.total_link_statistics()
        for key, value in totals.items():
            assert value == sum(stats[key] for stats in per_link), key
        # Two hops: the first carries every byte, the second every byte the
        # first delivered — each counted once, on the link that carried it.
        first_hop = network.link("a", "b").statistics
        assert first_hop.bytes_delivered == sum(len(payload) for payload in sent)
        assert totals["bytes_sent"] == first_hop.bytes_sent + first_hop.bytes_delivered
