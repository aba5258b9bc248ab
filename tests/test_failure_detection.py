"""Tests for E13 (in-band failure detection) and the detection-latency model."""

from __future__ import annotations

import pytest

from repro.analysis.churn import recovery_model
from repro.analysis.detection import (
    DEFAULT_BACKOFF_CAP,
    DEFAULT_SUSPECT_AFTER,
    DetectionModel,
    pto_fire_offsets,
    suspect_latency,
)
from repro.experiments.failure_detection import run_failure_detection
from repro.quic.connection import QuicConnection


class TestDetectionModelClosedForms:
    def test_model_constants_pin_the_transport_defaults(self):
        # repro.analysis never imports the implementation, so the closed
        # forms restate the transport's constants; this is the drift alarm.
        assert DEFAULT_SUSPECT_AFTER == QuicConnection.LIVENESS_SUSPECT_AFTER
        assert DEFAULT_BACKOFF_CAP == QuicConnection.PTO_BACKOFF_EXPONENT_CAP

    def test_pto_fire_offsets_double_then_cap(self):
        # pto, then 2x, 4x, 8x, and capped at 2**3 = 8 probe intervals.
        offsets = pto_fire_offsets(0.1, 6, backoff_cap=3)
        intervals = [offsets[0]] + [b - a for a, b in zip(offsets, offsets[1:])]
        assert intervals == pytest.approx([0.1, 0.2, 0.4, 0.8, 0.8, 0.8])

    def test_suspect_latency_matches_transport_constants(self):
        # 3 x pto at the transport's default threshold of two PTOs.
        assert QuicConnection.LIVENESS_SUSPECT_AFTER == 2
        assert suspect_latency(0.1) == pytest.approx(0.3)

    def test_rejects_nonsense_inputs(self):
        with pytest.raises(ValueError):
            pto_fire_offsets(0.0, 1, DEFAULT_BACKOFF_CAP)
        with pytest.raises(ValueError):
            pto_fire_offsets(0.1, 0, DEFAULT_BACKOFF_CAP)
        with pytest.raises(ValueError):
            DetectionModel(
                crashed_at=1.0, probe_timeout=0.1, next_send_at=None, idle_deadline=0.5
            )
        with pytest.raises(ValueError):
            DetectionModel(
                crashed_at=1.0, probe_timeout=0.1, next_send_at=0.5, idle_deadline=2.0
            )

    def test_path_selection_pto_vs_idle(self):
        # Keepalives soon + short suspect window: the PTO path wins.
        pto = DetectionModel(
            crashed_at=10.0, probe_timeout=0.1, next_send_at=10.2, idle_deadline=40.0
        )
        assert pto.path == "pto-suspect"
        assert pto.detection_latency == pytest.approx(0.2 + 0.3)
        # No sends ever: only the idle timer can fire.
        idle = DetectionModel(
            crashed_at=10.0, probe_timeout=0.1, next_send_at=None, idle_deadline=11.4
        )
        assert idle.path == "idle-timeout"
        assert idle.detection_latency == pytest.approx(1.4)
        # Keepalive scheduled after the idle deadline: idle fires first and
        # the PING never happens.
        late = DetectionModel(
            crashed_at=10.0, probe_timeout=0.1, next_send_at=11.5, idle_deadline=11.4
        )
        assert late.path == "idle-timeout"

    def test_sends_restart_the_idle_timer_in_the_model(self):
        # The crash-time idle deadline is NOT final on a keepalive'd
        # connection: the PING at +0.5 (and the retransmission at +0.6)
        # restart the idle timer, so although the crash-time idle deadline
        # comes first, the suspect transition at +0.8 is what actually fires.
        model = DetectionModel(
            crashed_at=10.0, probe_timeout=0.1, next_send_at=10.5,
            idle_deadline=10.6, idle_timeout=0.6,
        )
        assert model.path == "pto-suspect"
        assert model.detection_latency == pytest.approx(0.8)
        # A backoff gap longer than the idle timeout: idle expiry lands
        # inside it, before the suspect transition.
        gappy = DetectionModel(
            crashed_at=10.0, probe_timeout=0.1, next_send_at=10.5,
            idle_deadline=10.65, idle_timeout=0.15,
        )
        assert gappy.path == "idle-timeout"
        # Last restart at the +0.6 retransmission, expiry 0.15 later —
        # before the second PTO firing at +0.8.
        assert gappy.detection_latency == pytest.approx(0.75)


class TestFailureDetectionExperiment:
    def test_small_run_recovers_both_paths_in_band(self):
        result = run_failure_detection(
            subscribers=24, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=4, updates_after=4,
        )
        assert result.control_plane_kills == 0
        assert result.false_positive_events == 0
        assert result.gapless
        assert result.delivered_objects == result.expected_objects == 24 * 10
        assert [s.detected_via for s in result.samples] == [
            "pto-suspect", "idle-timeout",
        ]
        for sample in result.samples:
            assert sample.complete
            assert sample.detection_model_ok, (
                sample.detection_latency, sample.model_detection_latency,
            )
            assert sample.reattach_model_ok
        assert result.detection_model_ok and result.reattach_model_ok
        assert result.uplink_failures_detected >= 1
        # The recovery machinery did real work during the detection window.
        assert result.recovery_fetches + result.subscriber_gap_fetches > 0

    def test_detection_latency_tracks_the_idle_timeout_knob(self):
        short = run_failure_detection(
            subscribers=12, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=4, updates_after=4,
            subscriber_idle_timeout=1.0,
        )
        long = run_failure_detection(
            subscribers=12, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=4, updates_after=6,
            subscriber_idle_timeout=1.5,
        )
        short_idle = short.samples[1]
        long_idle = long.samples[1]
        assert short_idle.detected_via == long_idle.detected_via == "idle-timeout"
        assert short_idle.detection_latency < long_idle.detection_latency
        assert short.gapless and long.gapless

    def test_rows_and_summary_are_reportable(self):
        result = run_failure_detection(
            subscribers=12, mid_relays=2, edge_per_mid=2,
            updates_before=2, updates_between=4, updates_after=4,
        )
        rows = result.rows()
        assert rows, "one row per crash per orphan tier"
        for row in rows:
            assert row["detect_ms"] == row["detect_model_ms"]
            assert row["reattach_ms_mean"] == row["reattach_model_ms"]
            assert row["failover_ms_model"] == pytest.approx(
                row["detect_model_ms"] + row["reattach_model_ms"]
            )
        summary = result.summary_row()
        assert summary["control_plane_kills"] == 0
        assert summary["detection_ok"] and summary["reattach_ok"]
