"""Tests pinned to the fast-path overhaul.

Covers the refactored varint codec against the RFC 9000 boundary values, the
rewritten event heap (lazy deletion, compaction, O(1) pending count, lazy
timers), determinism guarantees the simulator must preserve (FIFO
tie-breaking, seeded-RNG reproducibility), and the encode-once fan-out path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.moqt.datastream import (
    DataStreamParser,
    SubgroupStreamHeader,
    encode_subgroup_object,
    encode_subgroup_stream_chunk,
)
from repro.moqt.objectmodel import MoqtObject
from repro.netsim.simulator import PeriodicTask, Simulator, Timer
from repro.quic.varint import (
    MAX_VARINT,
    VarintError,
    VarintReader,
    VarintWriter,
    append_varint,
    decode_varint,
    encode_varint,
    varint_size,
)

# RFC 9000 §16: the varint size-class boundaries.
BOUNDARY_VALUES = [
    (0, 1),
    (1, 1),
    (63, 1),
    (64, 2),
    (16383, 2),
    (16384, 4),
    ((1 << 30) - 1, 4),
    (1 << 30, 8),
    ((1 << 62) - 1, 8),
]


class TestVarintBoundaries:
    @pytest.mark.parametrize("value,size", BOUNDARY_VALUES)
    def test_boundary_sizes(self, value, size):
        assert varint_size(value) == size
        assert len(encode_varint(value)) == size

    @pytest.mark.parametrize("value,size", BOUNDARY_VALUES)
    def test_boundary_roundtrip(self, value, size):
        encoded = encode_varint(value)
        decoded, consumed = decode_varint(encoded)
        assert decoded == value
        assert consumed == size

    def test_max_varint_is_2_62_minus_1(self):
        assert MAX_VARINT == (1 << 62) - 1
        assert decode_varint(encode_varint(MAX_VARINT))[0] == MAX_VARINT

    @pytest.mark.parametrize("value", [-1, MAX_VARINT + 1, 1 << 62, 1 << 70])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(VarintError):
            encode_varint(value)
        with pytest.raises(VarintError):
            varint_size(value)
        with pytest.raises(VarintError):
            append_varint(bytearray(), value)

    @pytest.mark.parametrize("value", [64, 16384, 1 << 30, MAX_VARINT])
    def test_truncated_encodings_rejected(self, value):
        encoded = encode_varint(value)
        for cut in range(1, len(encoded)):
            with pytest.raises(VarintError):
                decode_varint(encoded[:cut])

    def test_append_varint_matches_encode_varint(self):
        for value, _ in BOUNDARY_VALUES:
            buffer = bytearray()
            append_varint(buffer, value)
            assert bytes(buffer) == encode_varint(value)


class TestVarintProperties:
    @given(st.integers(min_value=0, max_value=MAX_VARINT))
    @settings(max_examples=300)
    def test_roundtrip_any_value(self, value):
        encoded = encode_varint(value)
        decoded, consumed = decode_varint(encoded)
        assert (decoded, consumed) == (value, len(encoded))

    @given(st.lists(st.integers(min_value=0, max_value=MAX_VARINT), min_size=1, max_size=24))
    @settings(max_examples=200)
    def test_reader_consumes_concatenated_stream(self, values):
        writer = VarintWriter()
        for value in values:
            writer.write_varint(value)
        blob = writer.getvalue()
        for source in (blob, bytearray(blob), memoryview(blob)):
            reader = VarintReader(source)
            assert [reader.read_varint() for _ in values] == values
            assert reader.at_end()

    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64))
    @settings(max_examples=200)
    def test_length_prefixed_roundtrip(self, first, second):
        writer = VarintWriter()
        writer.write_length_prefixed(first)
        writer.write_length_prefixed(second)
        reader = VarintReader(writer.getvalue())
        assert reader.read_length_prefixed() == first
        assert reader.read_length_prefixed() == second
        assert reader.remaining == 0


def _run_labelled_schedule(seed: int) -> list[tuple[str, float]]:
    """A churn-heavy schedule whose execution order must be reproducible."""
    simulator = Simulator(seed=seed)
    order: list[tuple[str, float]] = []
    events = []
    for index in range(50):
        delay = simulator.rng.random()
        label = f"event-{index}"
        events.append(
            simulator.call_later(delay, lambda label=label, s=simulator: order.append((label, s.now)))
        )
    for index in range(0, 50, 3):
        events[index].cancel()
    # Same-instant events must keep scheduling (FIFO) order.
    for index in range(10):
        simulator.call_at(2.0, lambda index=index, s=simulator: order.append((f"tie-{index}", s.now)))
    simulator.run_until_idle()
    return order


class TestSimulatorDeterminism:
    def test_seeded_runs_produce_identical_event_orders(self):
        assert _run_labelled_schedule(seed=42) == _run_labelled_schedule(seed=42)

    def test_different_seeds_differ(self):
        assert _run_labelled_schedule(seed=1) != _run_labelled_schedule(seed=2)

    def test_fifo_tie_breaking_survives_cancellation_churn(self):
        simulator = Simulator()
        order = []
        cancelled = [
            simulator.call_at(1.0, lambda: order.append("dead")) for _ in range(200)
        ]
        live = [
            simulator.call_at(1.0, lambda index=index: order.append(index))
            for index in range(20)
        ]
        for event in cancelled:
            event.cancel()  # >50% of the heap dead: triggers compaction
        del live
        simulator.run_until_idle()
        assert order == list(range(20))

    def test_interleaved_cancellation_churn_runs_exactly_the_live_events(self):
        """The per-packet timer pattern: every other scheduling cancels an
        earlier event (some of them twice) across 97 distinct deadlines."""
        simulator = Simulator()
        fired = []
        events = []
        for index in range(2_000):
            events.append(
                simulator.call_later(
                    (index % 97) * 1e-4,
                    lambda index=index: fired.append((simulator.now, index)),
                )
            )
            if index % 2 == 0:
                events[len(events) // 2].cancel()
        live = [index for index, event in enumerate(events) if not event.cancelled]
        assert simulator.pending_events == len(live) < len(events)
        assert simulator.compactions >= 1
        assert simulator.run_until_idle() == len(live)
        # Time order, and scheduling (FIFO) order within one instant.
        assert fired == sorted(fired)
        assert sorted(index for _, index in fired) == live
        assert simulator.pending_events == 0

    def test_compaction_shrinks_the_heap(self):
        simulator = Simulator()
        events = [simulator.call_later(1.0, lambda: None) for _ in range(200)]
        assert simulator.pending_events == 200
        for event in events[:150]:
            event.cancel()
        # >50% cancelled: the queue must have been rebuilt (dropping the dead
        # entries present at compaction time) rather than retaining all 200.
        assert simulator.pending_events == 50
        assert len(simulator._queue) < 150
        assert simulator.run_until_idle() == 50

    def test_pending_events_is_live_through_cancel_and_run(self):
        simulator = Simulator()
        first = simulator.call_later(1.0, lambda: None)
        simulator.call_later(2.0, lambda: None)
        assert simulator.pending_events == 2
        first.cancel()
        assert simulator.pending_events == 1
        first.cancel()  # idempotent: must not double-decrement
        assert simulator.pending_events == 1
        simulator.run_until_idle()
        assert simulator.pending_events == 0

    def test_event_args_are_passed_to_callback(self):
        simulator = Simulator()
        seen = []
        simulator.call_later(0.5, seen.append, "payload")
        simulator.run_until_idle()
        assert seen == ["payload"]


class TestTimerLazyRestart:
    def test_extending_restarts_do_not_grow_the_heap(self):
        simulator = Simulator()
        timer = Timer(simulator, lambda: None)
        timer.start(1.0)
        baseline = len(simulator._queue)
        for _ in range(100):
            timer.start(1.0)  # same relative delay from t=0: pure extends
        assert len(simulator._queue) == baseline
        assert simulator.pending_events == 1

    def test_extended_deadline_fires_once_at_the_extension(self):
        simulator = Simulator()
        fired = []
        timer = Timer(simulator, lambda: fired.append(simulator.now))
        timer.start(1.0)
        simulator.run(until=0.5)
        timer.start(1.0)  # deadline moves to 1.5
        assert timer.deadline == 1.5
        simulator.run_until_idle()
        assert fired == [1.5]

    def test_shortened_deadline_fires_early(self):
        simulator = Simulator()
        fired = []
        timer = Timer(simulator, lambda: fired.append(simulator.now))
        timer.start(5.0)
        timer.start(1.0)
        simulator.run_until_idle()
        assert fired == [1.0]

    def test_stop_after_extension_cancels(self):
        simulator = Simulator()
        fired = []
        timer = Timer(simulator, lambda: fired.append(True))
        timer.start(1.0)
        timer.start(3.0)
        timer.stop()
        simulator.run_until_idle()
        assert fired == []
        assert simulator.pending_events == 0


class TestPeriodicTaskRestart:
    def test_start_while_running_does_not_leak_a_second_chain(self):
        simulator = Simulator()
        fired = []
        task = PeriodicTask(simulator, 1.0, lambda: fired.append(simulator.now))
        task.start()
        simulator.run(until=2.5)
        assert fired == [1.0, 2.0]
        task.start()  # restart mid-flight: the armed tick must be cancelled
        simulator.run(until=6.0)
        task.stop()
        # One tick per interval from the restart at t=2.5 — a leaked chain
        # would produce two ticks per interval.
        assert fired == [1.0, 2.0, 3.5, 4.5, 5.5]


class TestPeriodicTaskReentrantRestart:
    def test_start_from_within_the_callback_does_not_double_fire(self):
        simulator = Simulator()
        fired = []
        task: list[PeriodicTask] = []

        def callback() -> None:
            fired.append(simulator.now)
            if len(fired) == 2:
                task[0].start()  # re-phase from inside the tick

        task.append(PeriodicTask(simulator, 1.0, callback))
        task[0].start()
        simulator.run(until=5.5)
        task[0].stop()
        # One tick per interval throughout; a second chain armed by the
        # re-entrant start() would fire twice per interval after t=2.
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestChurnDeterminism:
    """Seeded-determinism canary extended to churn (E12) and in-band E13.

    Wire bytes and seeded event ordering are contract even across relay
    kills: two runs with the same seed must produce bit-identical
    per-subscriber delivery sequences and FailoverRecord latencies.
    """

    def _churn(self):
        from repro.experiments.relay_churn import run_relay_churn

        return run_relay_churn(
            subscribers=30, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=2, updates_after=2,
        )

    def test_relay_churn_delivery_sequences_are_bit_identical(self):
        first, second = self._churn(), self._churn()
        assert first.delivery_sequences == second.delivery_sequences
        assert any(first.delivery_sequences.values()), "sequences were recorded"

    def test_relay_churn_failover_records_are_bit_identical(self):
        first, second = self._churn(), self._churn()
        for event_a, event_b in zip(first.events, second.events):
            assert event_a.at == event_b.at
            assert [
                (r.kind, r.name, r.new_parent, r.detached_at, r.reattached_at)
                for r in event_a.records
            ] == [
                (r.kind, r.name, r.new_parent, r.detached_at, r.reattached_at)
                for r in event_b.records
            ]
        assert first.rows() == second.rows()
        assert first.summary_row() == second.summary_row()

    def test_failure_detection_runs_are_bit_identical(self):
        from repro.experiments.failure_detection import run_failure_detection

        kwargs = dict(
            subscribers=24, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=4, updates_after=4,
        )
        first = run_failure_detection(**kwargs)
        second = run_failure_detection(**kwargs)
        assert first.delivery_sequences == second.delivery_sequences
        assert [
            (s.killed, s.detected_via, s.detection_latency, s.model_detection_latency)
            for s in first.samples
        ] == [
            (s.killed, s.detected_via, s.detection_latency, s.model_detection_latency)
            for s in second.samples
        ]
        assert first.rows() == second.rows()


class TestAckWireIdentity:
    def test_hand_rolled_ack_matches_packet_encoding(self):
        from repro.netsim.packet import Address
        from repro.quic.connection import ConnectionConfig, QuicConnection
        from repro.quic.frames import AckFrame
        from repro.quic.packet import Packet, PacketType

        sent: list[bytes] = []
        simulator = Simulator()
        connection = QuicConnection(
            simulator=simulator,
            send_datagram=lambda payload, destination: sent.append(payload),
            local_address=Address("client", 1),
            peer_address=Address("server", 2),
            connection_id=(1 << 48) | 12345,
            is_client=True,
            config=ConnectionConfig(),
        )
        connection._received_ranges = [[0, 77]]
        for handshake_complete in (False, True):
            connection.handshake_complete = handshake_complete
            expected_pn = connection._next_packet_number
            connection._send_ack()
            reference = Packet(
                packet_type=PacketType.ONE_RTT if handshake_complete else PacketType.INITIAL,
                connection_id=connection.connection_id,
                packet_number=expected_pn,
                frames=(AckFrame(largest=77),),
            ).encode()
            assert sent[-1] == reference

    def test_gapped_receive_set_emits_exact_ranges(self):
        from repro.netsim.packet import Address
        from repro.quic.connection import ConnectionConfig, QuicConnection
        from repro.quic.frames import AckRangesFrame
        from repro.quic.packet import Packet, PacketType

        sent: list[bytes] = []
        simulator = Simulator()
        connection = QuicConnection(
            simulator=simulator,
            send_datagram=lambda payload, destination: sent.append(payload),
            local_address=Address("client", 1),
            peer_address=Address("server", 2),
            connection_id=9,
            is_client=True,
            config=ConnectionConfig(),
        )
        connection.handshake_complete = True
        connection._received_ranges = [[0, 4], [6, 9], [12, 12]]
        expected_pn = connection._next_packet_number
        connection._send_ack()
        reference = Packet(
            packet_type=PacketType.ONE_RTT,
            connection_id=9,
            packet_number=expected_pn,
            frames=(AckRangesFrame(largest=12, delay_us=0, ranges=((0, 4), (6, 9), (12, 12))),),
        ).encode()
        assert sent[-1] == reference
        decoded = Packet.decode(sent[-1])
        (frame,) = decoded.frames
        assert isinstance(frame, AckRangesFrame)
        assert frame.ranges == ((0, 4), (6, 9), (12, 12))


class TestEncodeOnceFanout:
    def _object(self) -> MoqtObject:
        return MoqtObject(group_id=7, object_id=3, payload=b"payload-bytes", extensions=b"xx")

    def test_cached_body_produces_identical_wire_bytes(self):
        obj = self._object()
        cached = encode_subgroup_object(obj)
        for alias in (1, 63, 64, 5000):
            fresh = encode_subgroup_stream_chunk(alias, obj)
            reused = encode_subgroup_stream_chunk(alias, obj, cached)
            assert fresh == reused
            header = SubgroupStreamHeader(
                track_alias=alias,
                group_id=obj.group_id,
                subgroup_id=obj.subgroup_id,
                publisher_priority=obj.publisher_priority,
            )
            assert fresh == header.encode() + cached

    def test_parser_decodes_chunk_across_arbitrary_splits(self):
        obj = self._object()
        chunk = encode_subgroup_stream_chunk(9, obj, encode_subgroup_object(obj))
        for split in range(1, len(chunk)):
            parser = DataStreamParser()
            objects = parser.feed(chunk[:split], fin=False)
            objects += parser.feed(chunk[split:], fin=True)
            assert [o.payload for o in objects] == [obj.payload]
            assert parser.finished
            assert parser.header is not None and parser.header.track_alias == 9
