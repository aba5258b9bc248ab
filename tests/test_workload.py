"""Tests for the synthetic workload models (toplist, TTLs, changes, zones, queries)."""

from __future__ import annotations

import math
import random

import pytest

from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.workload.change_model import (
    DYNAMIC_CHANGE_RANGE,
    DYNAMIC_TTL_THRESHOLD,
    ChangeModel,
    ChangeModelConfig,
)
from repro.workload.queries import ZIPF_EXPONENT, QueryModel, QueryModelConfig
from repro.workload.toplist import PAPER_COVERAGE, SyntheticToplist, ToplistConfig
from repro.workload.ttl_model import DEFAULT_TTL_WEIGHTS, TTL_CLUSTERS, sample_ttl
from repro.workload.zones import WorkloadZones, ZoneBuildConfig


@pytest.fixture(scope="module")
def toplist() -> SyntheticToplist:
    return SyntheticToplist(ToplistConfig(size=2000))


class TestTtlModel:
    def test_samples_come_from_observed_clusters(self):
        rng = random.Random(1)
        for rdtype in (RecordType.A, RecordType.AAAA, RecordType.HTTPS):
            for _ in range(200):
                assert sample_ttl(rdtype, rng) in TTL_CLUSTERS

    def test_https_ttls_cluster_at_300(self):
        rng = random.Random(2)
        samples = [sample_ttl(RecordType.HTTPS, rng) for _ in range(500)]
        assert samples.count(300) / len(samples) > 0.9

    def test_every_mixture_weights_exactly_the_clusters(self):
        # Each record type's mixture names every cluster and nothing else,
        # with non-negative weights that sum to one.
        for rdtype, mixture in DEFAULT_TTL_WEIGHTS.items():
            assert tuple(mixture) == TTL_CLUSTERS, rdtype
            assert all(weight >= 0.0 for weight in mixture.values()), rdtype
            assert sum(mixture.values()) == pytest.approx(1.0), rdtype

    def test_a_type_without_a_mixture_draws_from_a(self):
        first, second = random.Random(4), random.Random(4)
        assert RecordType.TXT not in DEFAULT_TTL_WEIGHTS
        draws = [sample_ttl(RecordType.TXT, first) for _ in range(200)]
        assert draws == [sample_ttl(RecordType.A, second) for _ in range(200)]


class TestToplist:
    def test_population_size_and_ranks(self, toplist):
        assert len(toplist) == 2000
        assert toplist.domain(1).rank == 1
        assert toplist.domain(2000).rank == 2000

    def test_coverage_close_to_paper_fractions(self, toplist):
        counts = toplist.count_by_type()
        for rdtype, fraction in PAPER_COVERAGE.items():
            observed = counts[rdtype] / len(toplist)
            assert abs(observed - fraction) < 0.04, rdtype

    def test_deterministic_given_seed(self):
        first = SyntheticToplist(ToplistConfig(size=100))
        second = SyntheticToplist(ToplistConfig(size=100))
        assert [d.name for d in first] == [d.name for d in second]
        assert [d.ttls for d in first] == [d.ttls for d in second]

    def test_ttl_histogram_covers_only_clusters(self, toplist):
        histogram = toplist.ttl_histogram(RecordType.A)
        assert set(histogram) <= set(TTL_CLUSTERS)
        assert sum(histogram.values()) == len(toplist.domains_with_type(RecordType.A))

    def test_domains_have_unique_names(self, toplist):
        names = [domain.name for domain in toplist]
        assert len(set(names)) == len(names)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ToplistConfig(size=0)


class TestChangeModel:
    def test_low_ttl_domains_change_frequently_high_ttl_rarely(self):
        model = ChangeModel(ChangeModelConfig(seed=5))
        low_changes = []
        high_changes = []
        for index in range(300):
            low = model.process_for(index, ttl=60)
            high = model.process_for(index + 1000, ttl=3600)
            for _ in range(100):
                low.advance()
                high.advance()
            low_changes.append(low.changes)
            high_changes.append(high.changes)
        low_changes.sort()
        high_changes.sort()
        assert low_changes[int(0.9 * len(low_changes))] >= 20
        assert high_changes[int(0.9 * len(high_changes))] == 0

    def test_lexicographic_stability_of_current_sorted(self):
        model = ChangeModel()
        process = model.process_for(1, ttl=300)
        first = process.current_sorted()
        assert first == tuple(sorted(process.current_addresses()))

    def test_change_produces_different_address_set(self):
        model = ChangeModel(ChangeModelConfig(seed=1))
        process = next(
            process
            for process in (model.process_for(index, ttl=60) for index in range(100))
            if process.change_probability > 0
        )
        before = process.current_sorted()
        while not process.advance():
            pass
        assert process.current_sorted() != before

    def test_processes_are_deterministic_per_domain(self):
        model = ChangeModel(ChangeModelConfig(seed=9))
        first = model.process_for(11, ttl=300)
        second = model.process_for(11, ttl=300)
        for _ in range(20):
            first.advance()
            second.advance()
        assert first.current_sorted() == second.current_sorted()
        assert first.changes == second.changes

    def test_dynamic_fraction_threshold(self):
        model = ChangeModel()
        assert model.dynamic_fraction(DYNAMIC_TTL_THRESHOLD) > model.dynamic_fraction(600)


    def test_change_probabilities_come_from_the_calibrated_ranges(self):
        # A dynamic domain changes with a probability inside
        # DYNAMIC_CHANGE_RANGE; a static one never changes.
        model = ChangeModel(ChangeModelConfig(seed=3))
        low, high = DYNAMIC_CHANGE_RANGE
        for ttl in (60, 3600):
            probabilities = [model.process_for(index, ttl=ttl).change_probability for index in range(400)]
            assert all(p == 0.0 or low <= p <= high for p in probabilities)
            dynamic = sum(p > 0.0 for p in probabilities) / len(probabilities)
            assert abs(dynamic - model.dynamic_fraction(ttl)) < 0.08, ttl


class TestWorkloadZones:
    @pytest.fixture(scope="class")
    def zones(self) -> WorkloadZones:
        toplist = SyntheticToplist(ToplistConfig(size=50))
        return WorkloadZones(toplist, ChangeModel(), ZoneBuildConfig(auth_server_count=3))

    def test_root_zone_delegates_every_tld(self, zones):
        for tld in zones.toplist.tld_names():
            assert zones.root_zone.get_rrset(Name.from_text(f"{tld}."), RecordType.NS) is not None

    def test_tld_zones_delegate_every_domain_with_glue(self, zones):
        for domain in zones.toplist.domains():
            tld = domain.name.labels[-1].decode("ascii")
            tld_zone = zones.tld_zones[tld]
            assert tld_zone.get_rrset(domain.name, RecordType.NS) is not None
            assignment = zones.assignment(domain.name)
            ns_name = Name((b"ns1",) + domain.name.labels)
            glue = tld_zone.get_rrset(ns_name, RecordType.A)
            assert glue is not None
            assert glue.records[0].rdata.to_text() == assignment.auth_host

    def test_authoritative_zones_carry_declared_record_types(self, zones):
        for domain in zones.toplist.domains():
            zone = zones.assignment(domain.name).zone
            for rdtype in domain.record_types:
                assert zone.get_rrset(domain.name, rdtype) is not None, (domain.name, rdtype)

    def test_advance_domain_applies_changes_and_bumps_serial(self, zones):
        changed_any = False
        for domain in zones.toplist.domains_with_type(RecordType.A):
            assignment = zones.assignment(domain.name)
            serial_before = assignment.zone.serial
            rrset_before = assignment.zone.get_rrset(domain.name, RecordType.A)
            texts_before = rrset_before.sorted_rdata_texts()
            for _ in range(20):
                if zones.advance_domain(domain.name):
                    changed_any = True
                    rrset_after = assignment.zone.get_rrset(domain.name, RecordType.A)
                    assert rrset_after.sorted_rdata_texts() != texts_before
                    assert assignment.zone.serial > serial_before
                    break
            if changed_any:
                break
        assert changed_any, "at least one domain must change within 20 observations"

    def test_all_hosts_cover_root_tlds_and_auths(self, zones):
        hosts = zones.all_hosts()
        assert "198.41.0.4" in hosts
        assert len(hosts) >= 1 + len(zones.tld_zones)


def _weights_reference(model: QueryModel, duration: float) -> list[tuple]:
    """The reference stream of ``QueryModel.generate``: each domain drawn with
    ``choices(weights=...)`` over the raw Zipf weights, which ``choices``
    accumulates afresh on every draw."""
    config, toplist = model.config, model.toplist
    weights = [1.0 / math.pow(rank, ZIPF_EXPONENT) for rank in range(1, len(toplist) + 1)]
    rng = random.Random(config.seed << 16)
    events, now = [], 0.0
    while True:
        now += rng.expovariate(config.queries_per_second)
        if now >= duration:
            return events
        index = rng.choices(range(len(toplist)), weights=weights, k=1)[0]
        domain = toplist.domain(index + 1)
        events.append((now, domain.rank, model.sample_type(domain, rng)))


class TestQueryModel:
    def test_zipf_popularity_prefers_top_ranks(self):
        toplist = SyntheticToplist(ToplistConfig(size=500))
        model = QueryModel(toplist, QueryModelConfig(queries_per_second=1.0, seed=1))
        rng = random.Random(1)
        samples = [model.sample_domain(rng).rank for _ in range(3000)]
        top_100 = sum(1 for rank in samples if rank <= 100)
        assert top_100 / len(samples) > 0.5

    def test_generated_stream_is_sorted_and_bounded(self):
        toplist = SyntheticToplist(ToplistConfig(size=100))
        model = QueryModel(toplist, QueryModelConfig(queries_per_second=5.0, seed=2))
        events = model.generate(duration=60.0)
        times = [event.time for event in events]
        assert times == sorted(times)
        assert all(0 <= time < 60.0 for time in times)
        assert 100 < len(events) < 600
        assert len({event.domain.name for event in events}) <= 100

    def test_sample_type_respects_domain_capabilities(self):
        toplist = SyntheticToplist(ToplistConfig(size=200))
        model = QueryModel(toplist, QueryModelConfig(queries_per_second=1.0, seed=7))
        rng = random.Random(0)
        for domain in toplist.domains()[:50]:
            if not domain.record_types:
                continue
            rdtype = model.sample_type(domain, rng)
            assert rdtype in domain.record_types

    def test_zero_rate_yields_empty_stream(self):
        toplist = SyntheticToplist(ToplistConfig(size=10))
        model = QueryModel(toplist, QueryModelConfig(queries_per_second=0.0, seed=7))
        assert model.generate(10.0) == []

    @pytest.mark.parametrize("size", [10, 500, 2000])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_stream_equals_the_per_draw_weights_reference(self, size, seed):
        toplist = SyntheticToplist(ToplistConfig(size=size))
        model = QueryModel(toplist, QueryModelConfig(queries_per_second=20.0, seed=seed))
        events = model.generate(30.0)
        assert [(e.time, e.domain.rank, e.rdtype) for e in events] == _weights_reference(model, 30.0)

    def test_streams_deterministic_per_seed(self):
        toplist = SyntheticToplist(ToplistConfig(size=100))
        model = QueryModel(toplist, QueryModelConfig(queries_per_second=1.0, seed=3))
        first = model.generate(30.0)
        second = model.generate(30.0)
        assert [(e.time, e.domain.rank, e.rdtype) for e in first] == [
            (e.time, e.domain.rank, e.rdtype) for e in second
        ]
