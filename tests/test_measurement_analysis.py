"""Tests for the measurement pipeline and the analytical models."""

from __future__ import annotations

import math

import pytest

from repro.analysis.latency_model import (
    TransportScenario,
    lookup_latency,
    lookup_round_trips,
    recursive_lookup_latency,
)
from repro.analysis.staleness import (
    expected_staleness_polling,
    pubsub_staleness,
)
from repro.analysis.state_overhead import StateModel, endpoint_state_bytes, state_comparison
from repro.analysis.traffic import (
    polling_requests,
    pubsub_messages,
    traffic_comparison,
)
from repro.analysis.usecases import (
    cdn_stub_traffic_bps,
    ddns_update_traffic_bps,
    deep_space_update_traffic_bps,
)
from repro.dns.types import RecordType
from repro.measurement.campaign import OBSERVATIONS, CampaignConfig, MeasurementCampaign
from repro.measurement.change_rate import count_changes, summarize_change_counts
from repro.workload.toplist import SyntheticToplist, ToplistConfig


class TestChangeCounting:
    def test_reordered_samples_do_not_count_as_changes(self):
        samples = [["1.1.1.1", "2.2.2.2"], ["2.2.2.2", "1.1.1.1"], ["1.1.1.1", "2.2.2.2"]]
        assert count_changes(samples) == 0

    def test_real_changes_counted(self):
        samples = [["1.1.1.1"], ["1.1.1.1"], ["3.3.3.3"], ["3.3.3.3"], ["1.1.1.1"]]
        assert count_changes(samples) == 2

    def test_empty_and_single_sample(self):
        assert count_changes([]) == 0
        assert count_changes([["1.1.1.1"]]) == 0

    def test_summary_percentiles(self):
        summary = summarize_change_counts(300, [0, 0, 10, 100, 200], observations=300)
        assert summary.ttl == 300
        assert summary.domains == 5
        assert summary.max == 200
        assert summary.zero_change_fraction == pytest.approx(0.4)
        assert summary.p90 >= summary.p50


class TestMeasurementCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        toplist = SyntheticToplist(ToplistConfig(size=800))
        return MeasurementCampaign(
            toplist, config=CampaignConfig(max_domains_per_ttl=30)
        )

    def test_ttl_distribution_totals_match_toplist(self, campaign):
        distribution = campaign.ttl_distribution()
        counts = campaign.toplist.count_by_type()
        assert distribution.totals[RecordType.A] == counts[RecordType.A]
        assert distribution.population == len(campaign.toplist)
        assert 0.0 < distribution.fraction(RecordType.HTTPS) < 0.3
        assert distribution.rows()

    def test_change_rates_follow_paper_shape(self, campaign):
        result = campaign.change_rates()
        low = [s for ttl, s in result.summaries.items() if ttl <= 300]
        high = [s for ttl, s in result.summaries.items() if ttl >= 600]
        assert low and high
        assert min(s.p90 for s in low) > 0.2 * 100
        assert max(s.p90 for s in high) == 0
        assert all(s.observations == OBSERVATIONS for s in result.summaries.values())

    def test_max_domains_per_ttl_cap_respected(self, campaign):
        result = campaign.change_rates()
        assert all(summary.domains <= 30 for summary in result.summaries.values())


class TestLatencyModel:
    def test_round_trip_counts_match_paper(self):
        assert lookup_round_trips(TransportScenario.UDP) == 1
        assert lookup_round_trips(TransportScenario.MOQT_COLD) == 3
        assert lookup_round_trips(TransportScenario.MOQT_REUSED_SESSION) == 1
        assert lookup_round_trips(TransportScenario.MOQT_0RTT) == 2
        assert lookup_round_trips(TransportScenario.MOQT_0RTT_ALPN) == 1

    def test_latency_scales_with_rtt(self):
        assert lookup_latency(TransportScenario.MOQT_COLD, 0.1) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            lookup_latency(TransportScenario.UDP, -1.0)

    def test_recursive_breakdown(self):
        breakdown = recursive_lookup_latency(
            TransportScenario.MOQT_COLD, stub_rtt=0.01, upstream_rtts=[0.04, 0.04, 0.04]
        )
        assert breakdown.stub_to_recursive == pytest.approx(0.03)
        assert breakdown.recursive_to_authorities == pytest.approx(0.36)
        assert breakdown.total == pytest.approx(0.39)

    def test_cache_hit_skips_upstream(self):
        breakdown = recursive_lookup_latency(
            TransportScenario.UDP, 0.01, [0.04] * 3, recursive_cache_hit=True
        )
        assert breakdown.total == pytest.approx(0.01)


class TestStalenessModel:

    def test_expected_polling_is_half_ttl(self):
        assert expected_staleness_polling(300) == 150

    def test_pubsub_is_sum_of_propagation_delays(self):
        assert pubsub_staleness([0.02, 0.005]) == pytest.approx(0.025)
        with pytest.raises(ValueError):
            pubsub_staleness([-0.1])


class TestTrafficModel:
    def test_polling_counts_one_request_per_ttl(self):
        assert polling_requests(duration=3600, ttl=300, resolvers=1) == 12
        assert polling_requests(duration=3600, ttl=300, resolvers=10) == 120
        with pytest.raises(ValueError):
            polling_requests(10, 0, 1)

    def test_pubsub_counts_one_push_per_change(self):
        assert pubsub_messages(duration=3600, change_interval=600, resolvers=1) == 6
        assert pubsub_messages(3600, 600, resolvers=10) == 60
        assert pubsub_messages(3600, 0, 1) == 0

    def test_comparison_and_crossover(self):
        wins = traffic_comparison(3600, ttl=300, change_interval=3600, resolvers=1)
        assert wins.pubsub_wins
        loses = traffic_comparison(3600, ttl=3600, change_interval=60, resolvers=1)
        assert not loses.pubsub_wins

    def test_comparison_scales_with_resolvers(self):
        single = traffic_comparison(3600, 300, 3600, resolvers=1)
        many = traffic_comparison(3600, 300, 3600, resolvers=100)
        assert many.polling == 100 * single.polling


class TestUseCaseEstimates:
    def test_ddns_estimate_matches_paper(self):
        estimate = ddns_update_traffic_bps()
        assert estimate.gbps == pytest.approx(5.5, rel=0.05)

    def test_cdn_estimate_matches_paper(self):
        estimate = cdn_stub_traffic_bps()
        assert estimate.kbps == pytest.approx(240.0, rel=0.01)

    def test_deep_space_throttling_reduces_traffic(self):
        throttled = deep_space_update_traffic_bps()
        unthrottled = 10_000 / 3_600 * 300 * 8
        assert throttled.bits_per_second == pytest.approx(unthrottled * (0.1 + 0.9 / 24))

    def test_estimates_expose_inputs(self):
        estimate = cdn_stub_traffic_bps()
        as_dict = estimate.as_dict()
        assert as_dict["subscribed_domains"] == 1000
        assert as_dict["bits_per_second"] == estimate.bits_per_second


class TestStateOverheadModel:
    def test_state_bytes_additive(self):
        model = StateModel()
        total = endpoint_state_bytes(2, 2, 10, 10, model)
        assert total == 2 * model.bytes_per_connection + 2 * model.bytes_per_session + 10 * (
            model.bytes_per_subscription + model.bytes_per_cache_entry
        )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            endpoint_state_bytes(-1, 0, 0, 0, StateModel())

    def test_moqt_always_costs_more_than_classic(self):
        comparison = state_comparison(tracked_questions=1000, upstream_servers=10, model=StateModel())
        assert comparison["moqt_bytes"] > comparison["classic_bytes"]
        assert comparison["extra_bytes"] == comparison["moqt_bytes"] - comparison["classic_bytes"]


class TestConstrainedPathModel:
    """Closed-form serialisation/propagation model behind E15."""

    def _model(self, bandwidth, wire_bytes=328):
        from repro.analysis.constrained import ConstrainedPathModel, HopSpec

        return ConstrainedPathModel(
            hops=(
                HopSpec(delay=0.020, bandwidth=bandwidth),
                HopSpec(delay=0.010, bandwidth=bandwidth),
                HopSpec(delay=0.005, bandwidth=bandwidth),
            ),
            wire_bytes=wire_bytes,
        )

    def test_delivery_time_replays_the_simulator_fold(self):
        model = self._model(200_000.0)
        push_time = 7.25
        expected = push_time
        for delay in (0.020, 0.010, 0.005):
            expected = expected + 328 * 8 / 200_000.0
            expected = expected + delay
        assert model.delivery_time(push_time) == expected
        assert model.delivery_latency() == model.delivery_time(0.0)

    def test_unconstrained_hops_add_no_serialisation(self):
        model = self._model(None)
        assert model.serialisation_seconds == 0.0
        assert model.delivery_latency() == model.propagation_seconds
        assert not model.serialisation_dominates

    def test_knee_index_on_a_descending_sweep(self):
        from repro.analysis.constrained import knee_index

        # 328 B * 8 = 2624 bits per hop; serialisation crosses the 35 ms
        # propagation floor between 250 kbit/s (31.5 ms) and 200 kbit/s
        # (39.4 ms).
        sweep = [self._model(b) for b in (1_000_000.0, 250_000.0, 200_000.0, 50_000.0)]
        assert [m.serialisation_dominates for m in sweep] == [False, False, True, True]
        assert knee_index(sweep) == 2
        assert knee_index([self._model(10_000_000.0)]) == -1

    def test_no_queueing_precondition(self):
        model = self._model(200_000.0)
        # One update serialises in 13.12 ms per hop: far below a 250 ms
        # push interval, just above a 13 ms one.
        assert model.no_queueing_below(0.25)
        assert not model.no_queueing_below(0.013)
        assert self._model(None).no_queueing_below(1e-9)

    def test_validation(self):
        import pytest

        from repro.analysis.constrained import ConstrainedPathModel, HopSpec

        with pytest.raises(ValueError, match="at least one hop"):
            ConstrainedPathModel(hops=(), wire_bytes=100)
        with pytest.raises(ValueError, match="wire_bytes"):
            ConstrainedPathModel(hops=(HopSpec(delay=0.01, bandwidth=None),), wire_bytes=0)
        with pytest.raises(ValueError, match="bandwidth"):
            HopSpec(delay=0.01, bandwidth=0.0)
        with pytest.raises(ValueError, match="delay"):
            HopSpec(delay=-0.01, bandwidth=None)
