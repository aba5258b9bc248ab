"""Tests for the experiment drivers: each must reproduce the paper's shape.

``TestAblations`` quantifies two design choices the drivers take for granted:
objects on QUIC streams rather than datagrams (§4.1), and a relay in front of
the origin (§3).
"""

from __future__ import annotations

import pytest

from repro.dns.types import RecordType
from repro.experiments.compatibility import run_compatibility
from repro.experiments.constrained_tiers import run_constrained_tiers
from repro.experiments.fig1a import PAPER_TOTALS, run_fig1a
from repro.experiments.fig1b import run_fig1b
from repro.experiments.fig2_sequence import run_fig2
from repro.experiments.query_latency import run_query_latency
from repro.experiments.report import format_table
from repro.experiments.staleness import run_staleness
from repro.experiments.state_overhead import QUESTIONS, run_state_overhead
from repro.experiments.topology import SmallTopology, SmallTopologyConfig
from repro.experiments.traffic import run_traffic
from repro.experiments.usecases import PAPER_CDN_STUB_KBPS, PAPER_DDNS_GBPS, run_usecases
from repro.moqt.objectmodel import MoqtObject, TrackState
from repro.moqt.relay import MoqtRelay
from repro.moqt.session import FetchResult, MoqtSession, SubscribeResult
from repro.moqt.track import FullTrackName
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext


class TestReportFormatting:
    def test_format_table_aligns_columns(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "longer"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"


class TestFig1aExperiment:
    def test_totals_match_paper_fractions(self):
        result = run_fig1a(population=3000)
        for row in result.total_rows():
            assert abs(row["measured_fraction"] - row["paper_fraction"]) < 0.04
        assert result.https_share_at_300() > 0.85

    def test_ttl_histograms_cover_observed_clusters(self):
        result = run_fig1a(population=1500)
        a_histogram = result.distribution.histograms[RecordType.A]
        assert set(a_histogram) <= {10, 20, 60, 300, 600, 1200, 3600}
        assert max(a_histogram, key=a_histogram.get) == 300


class TestFig1bExperiment:
    def test_change_rate_shape_matches_paper(self):
        result = run_fig1b(population=800, max_domains_per_ttl=50)
        assert result.matches_paper_shape()
        assert result.low_ttl_p90_minimum() >= 71
        assert result.high_ttl_p90_maximum() == 0

    def test_rows_cover_low_and_high_ttls(self):
        result = run_fig1b(population=600, max_domains_per_ttl=40)
        ttls = [row["ttl"] for row in result.rows()]
        assert any(ttl <= 300 for ttl in ttls)
        assert any(ttl >= 600 for ttl in ttls)


class TestFig2Experiment:
    def test_lookup_sequence_structure(self):
        result = run_fig2()
        assert result.upstream_subscribe_fetch_operations == 3
        assert result.answer_addresses == ["192.0.2.10"]
        actors = {step.actor for step in result.steps}
        assert {"stub", "recursive", "auth"} <= actors
        assert result.push_latency is not None
        assert result.push_latency < 0.1
        assert result.lookup_latency == pytest.approx(0.39, abs=1e-6)


class TestQueryLatencyExperiment:
    def test_all_scenarios_match_round_trip_model(self):
        result = run_query_latency(upstream_rtt=0.040)
        for measurement in result.measurements:
            assert measurement.relative_error < 0.02, measurement.scenario

    def test_scenario_ordering_matches_paper(self):
        result = run_query_latency(upstream_rtt=0.040)
        cold = result.measurement("moqt-cold").measured
        resumed = result.measurement("moqt-0rtt").measured
        reused = result.measurement("moqt-reused").measured
        udp = result.measurement("udp-first").measured
        pushed = result.measurement("moqt-pushed").measured
        assert cold > resumed > reused
        assert reused == pytest.approx(udp)
        assert pushed == 0.0

    def test_cold_lookup_pays_about_three_times_the_hop_cost_at_any_rtt(self):
        for rtt in (0.020, 0.080):
            result = run_query_latency(upstream_rtt=rtt)
            cold = result.measurement("moqt-cold").measured
            udp = result.measurement("udp-first").measured
            assert cold > 2.5 * udp / 1.3


@pytest.mark.slow
class TestStalenessExperiment:
    def test_pubsub_beats_polling_by_orders_of_magnitude(self):
        result = run_staleness(ttls=[10, 60, 300])
        for sample in result.samples:
            assert sample.pubsub_staleness < 0.1
            assert sample.polling_staleness > sample.pubsub_staleness
        assert result.mean_improvement(60) > 50
        assert result.mean_improvement(300) > result.mean_improvement(10)

    def test_pubsub_staleness_independent_of_ttl(self):
        result = run_staleness(ttls=[10, 60])
        values = [sample.pubsub_staleness for sample in result.samples]
        assert max(values) - min(values) < 0.01


@pytest.mark.slow
class TestTrafficExperiment:
    def test_pubsub_wins_when_changes_are_rarer_than_ttl(self):
        result = run_traffic(configurations=[(10, 120.0)], duration=240.0)
        sample = result.samples[0]
        assert sample.measured_pubsub_messages < sample.measured_polling_queries
        assert sample.measured_reduction_factor > 2

    def test_polling_wins_for_hot_records_with_long_ttl(self):
        result = run_traffic(configurations=[(300, 30.0)], duration=300.0)
        sample = result.samples[0]
        assert sample.measured_pubsub_messages > sample.measured_polling_queries

    def test_pubsub_sends_less_whenever_records_change_slower_than_their_ttl(self):
        configurations = [(300, 3600.0), (60, 600.0), (10, 30.0)]
        result = run_traffic(configurations=configurations, duration=600.0)
        assert [(s.ttl, s.change_interval) for s in result.samples] == configurations
        for sample in result.samples:
            assert sample.measured_pubsub_messages < sample.measured_polling_queries
            assert abs(sample.measured_polling_queries - sample.model.polling) <= 2
            assert abs(sample.measured_pubsub_messages - sample.model.pubsub) <= 2

    def test_measured_counts_close_to_model(self):
        result = run_traffic(configurations=[(10, 60.0)], duration=240.0)
        sample = result.samples[0]
        assert abs(sample.measured_polling_queries - sample.model.polling) <= 2
        assert abs(sample.measured_pubsub_messages - sample.model.pubsub) <= 1


class TestUseCaseExperiment:
    def test_closed_form_estimates_match_paper(self):
        result = run_usecases()
        assert result.ddns.gbps == pytest.approx(PAPER_DDNS_GBPS, rel=0.05)
        assert result.cdn_stub.kbps == pytest.approx(PAPER_CDN_STUB_KBPS, rel=0.01)

    def test_simulation_cross_check_agrees_with_formula(self):
        result = run_usecases()
        assert result.cdn_simulation_relative_error < 0.05
        assert result.simulated_cdn_update_bytes > 0


class TestStateOverheadExperiment:
    def test_policies_trade_state_for_resubscriptions(self):
        result = run_state_overhead()
        by_name = {outcome.policy: outcome for outcome in result.policies}
        assert by_name["never"].tracked_at_end == QUESTIONS
        assert by_name["never"].forced_resubscriptions == 0
        assert by_name["lru-budget"].tracked_at_end <= QUESTIONS // 4 + 1
        for name, outcome in by_name.items():
            if name != "never":
                assert outcome.state_bytes <= by_name["never"].state_bytes
                assert outcome.torn_down > 0
        assert result.classic_vs_moqt["extra_bytes"] > 0

    def test_rows_render(self):
        result = run_state_overhead()
        assert len(result.rows()) == 4


@pytest.mark.slow
class TestCompatibilityExperiment:
    def test_fallback_resolves_and_refresh_delivers_updates(self):
        result = run_compatibility()
        baseline = result.outcome("moqt-everywhere (baseline)")
        decline = result.outcome("decline (auth UDP-only)")
        refresh = result.outcome("periodic-refresh (auth UDP-only)")
        assert baseline.resolved and decline.resolved and refresh.resolved
        assert decline.answer_via_udp_fallback and refresh.answer_via_udp_fallback
        assert baseline.update_delivered and refresh.update_delivered
        assert not decline.update_delivered
        # Pub/sub end-to-end is much faster than the TTL-bounded refresh path.
        assert baseline.update_latency < 0.1
        assert refresh.update_latency <= 15.0
        assert refresh.update_latency > baseline.update_latency


class TestConstrainedTiersExperiment:
    """E15 as the runner runs it (20 subscribers, 3 updates, 2 x 2 relays)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_constrained_tiers()

    def test_every_sweep_point_is_model_exact_and_fully_delivered(self, result):
        assert len(result.samples) == 8
        for sample in result.samples:
            assert sample.model_exact, sample.bandwidth
            assert sample.delivered == sample.subscribers * sample.updates == 60
        assert result.all_model_exact
        assert result.total_fallback_waves == 0

    def test_measured_knee_is_the_models(self, result):
        knee = result.model_knee_index
        assert 0 < knee < len(result.samples)
        assert result.measured_knee_index == knee
        assert [sample.serialisation_dominates for sample in result.samples] == [
            index >= knee for index in range(len(result.samples))
        ]

    def test_lossy_edge_is_repaired_by_retransmission_under_newreno(self, result):
        loss = result.loss_sample
        assert loss.access_loss > 0
        assert loss.repaired and loss.delivered == loss.expected == 60
        assert loss.retransmissions > 0
        assert loss.congestion_events > 0
        assert loss.link_batch_fallback_waves == 0


class TestSmallTopology:
    def test_update_record_bumps_serial_once(self):
        topology = SmallTopology()
        serial_before = topology.auth_zone.serial
        topology.update_record("203.0.113.1")
        assert topology.auth_zone.serial == serial_before + 1

    def test_custom_domain_and_ttl(self):
        topology = SmallTopology(SmallTopologyConfig(domain="api.service.io.", record_ttl=60))
        rrset = topology.auth_zone.get_rrset("api.service.io.", "A")
        assert rrset is not None and rrset.ttl == 60


ABLATION_TRACK = FullTrackName.of(["dns", "a"], b"cdn.example")


class _OneTrackPublisher:
    """Minimal publisher delegate serving a single track."""

    def __init__(self) -> None:
        self.state = TrackState(ABLATION_TRACK)
        self.state.publish(MoqtObject(group_id=1, object_id=0, payload=b"v1" * 64))

    def handle_subscribe(self, session, message):
        return SubscribeResult(ok=True, largest=self.state.largest)

    def handle_fetch(self, session, message, full_track_name):
        return FetchResult(ok=True, objects=self.state.latest_objects(1), largest=self.state.largest)


def _serve(host, delegate) -> list[MoqtSession]:
    """A MoQT server on ``host``; returns the list its sessions land in."""
    sessions: list[MoqtSession] = []
    QuicEndpoint(
        host,
        port=4443,
        server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
        on_connection=lambda conn: sessions.append(
            MoqtSession(conn, is_client=False, publisher_delegate=delegate)
        ),
    )
    return sessions


def _subscribe(host, target, received) -> None:
    connection = QuicEndpoint(host).connect(target, ConnectionConfig(alpn_protocols=("moq-00",)))
    session = MoqtSession(connection, is_client=True)
    session.subscribe(ABLATION_TRACK, on_object=lambda obj: received.append(obj.group_id))


def _push(simulator, delegate, sessions, updates, payload, gap) -> None:
    for version in range(2, updates + 2):
        obj = MoqtObject(group_id=version, object_id=0, payload=payload)
        delegate.state.publish(obj)
        for session in sessions:
            for subscription in session.publisher_subscriptions():
                session.publish(subscription, obj)
        simulator.run(until=simulator.now + gap)


def _updates_arriving(loss_rate: float, updates: int = 50) -> int:
    """Publish ``updates`` objects across a lossy link; return how many arrive."""
    simulator = Simulator(seed=99)
    network = Network(simulator)
    network.add_host("pub")
    network.add_host("sub")
    network.connect("pub", "sub", LinkConfig(delay=0.02, loss_rate=loss_rate))
    delegate = _OneTrackPublisher()
    sessions = _serve(network.host("pub"), delegate)
    received: list[int] = []
    _subscribe(network.host("sub"), Address("pub", 4443), received)
    simulator.run(until=5.0)
    _push(simulator, delegate, sessions, updates, b"update" * 50, gap=1.0)
    simulator.run(until=simulator.now + 30.0)
    return len(set(received))


def _origin_load(subscribers: int, via_relay: bool, updates: int = 10) -> tuple[int, int]:
    """(objects the origin sent, objects all subscribers received)."""
    simulator = Simulator(seed=7)
    network = Network(simulator)
    for name in ("origin", "relay", *(f"sub{index}" for index in range(subscribers))):
        network.add_host(name)
    network.connect("origin", "relay", LinkConfig(delay=0.02))
    for index in range(subscribers):
        network.connect("relay", f"sub{index}", LinkConfig(delay=0.01))
        network.connect("origin", f"sub{index}", LinkConfig(delay=0.03))
    delegate = _OneTrackPublisher()
    sessions = _serve(network.host("origin"), delegate)
    MoqtRelay(
        network.host("relay"), Address("origin", 4443), 4443,
        upstream_connection=None, downstream_connection=None, admission=None,
    )
    target = Address("relay" if via_relay else "origin", 4443)
    received: list[int] = []
    for index in range(subscribers):
        _subscribe(network.host(f"sub{index}"), target, received)
    simulator.run(until=5.0)
    _push(simulator, delegate, sessions, updates, b"x" * 200, gap=0.5)
    simulator.run(until=simulator.now + 5.0)
    return sum(session.statistics.objects_sent for session in sessions), len(received)


class TestAblations:
    def test_streams_deliver_every_update_under_loss(self):
        """§4.1: objects ride streams "to avoid losing messages due to the
        unreliability of datagrams" — 50 updates over a 20 % loss link."""
        assert _updates_arriving(loss_rate=0.2) == 50

    def test_relay_aggregates_subscriptions_into_one_origin_stream(self):
        """§3: a relay in front of eight subscribers cuts origin sends eightfold."""
        direct_sent, direct_received = _origin_load(8, via_relay=False)
        relayed_sent, relayed_received = _origin_load(8, via_relay=True)
        assert direct_received == relayed_received == 8 * 10
        assert relayed_sent * 8 <= direct_sent + 1
