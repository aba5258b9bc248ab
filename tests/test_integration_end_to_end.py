"""Whole-system integration tests combining workload, topology and both stacks."""

from __future__ import annotations

import pytest

from repro.core.mapping import DnsQuestionKey
from repro.dns.name import Name
from repro.dns.types import RecordType
from repro.experiments.topology import build_workload_topology
from repro.workload.change_model import ChangeModel, ChangeModelConfig
from repro.workload.toplist import SyntheticToplist, ToplistConfig
from repro.workload.zones import WorkloadZones, ZoneBuildConfig


@pytest.fixture(scope="module")
def workload_topology():
    toplist = SyntheticToplist(ToplistConfig(size=30))
    zones = WorkloadZones(
        toplist,
        change_model=ChangeModel(ChangeModelConfig(seed=17)),
        config=ZoneBuildConfig(auth_server_count=2),
    )
    return build_workload_topology(zones, moqt_fraction=1.0)


@pytest.mark.slow
class TestWorkloadTopology:
    def test_forwarder_resolves_many_domains_through_full_hierarchy(self, workload_topology):
        topology = workload_topology
        domains = [d for d in topology.zones.toplist.domains() if d.has_type(RecordType.A)][:10]
        answers = {}

        def make_callback(name):
            def callback(message, version):
                answers[name] = (message, version)

            return callback

        for domain in domains:
            key = DnsQuestionKey(qname=domain.name, qtype=RecordType.A)
            topology.forwarder.resolve(key, make_callback(domain.name))
        topology.simulator.run(until=60.0)

        assert len(answers) == len(domains)
        for domain in domains:
            message, version = answers[domain.name]
            assert message is not None, domain.name
            expected = topology.zones.assignment(domain.name).change_process.current_addresses()
            observed = sorted(record.rdata.to_text() for record in message.answers)
            assert observed == sorted(expected)

    def test_record_changes_propagate_to_subscribed_forwarder(self, workload_topology):
        topology = workload_topology
        simulator = topology.simulator
        # Pick a domain whose change process is actually dynamic so a change
        # is guaranteed to occur within a few observation intervals.
        domain = next(
            d
            for d in topology.zones.toplist.domains()
            if d.has_type(RecordType.A)
            and topology.zones.assignment(d.name).change_process is not None
            and topology.zones.assignment(d.name).change_process.change_probability > 0.3
        )
        key = DnsQuestionKey(qname=domain.name, qtype=RecordType.A)
        topology.forwarder.resolve(key, lambda message, version: None)
        simulator.run(until=simulator.now + 30.0)

        updates = []
        topology.forwarder.on_record_updated.append(
            lambda k, record: updates.append((k, record)) if k == key else None
        )
        # Force changes until the change process actually produces one.
        changed = False
        for _ in range(50):
            if topology.zones.advance_domain(domain.name):
                changed = True
                break
        if not changed:
            pytest.skip("change process produced no change for this domain")
        change_time = simulator.now
        simulator.run(until=change_time + 5.0)
        assert updates, "zone change must be pushed to the subscribed forwarder"
        _, record = updates[0]
        expected = topology.zones.assignment(domain.name).change_process.current_addresses()
        observed = sorted(r.rdata.to_text() for r in record.message.answers)
        assert observed == sorted(expected)

    def test_recursive_resolver_aggregates_auth_sessions(self, workload_topology):
        topology = workload_topology
        # Resolve what is asserted about: the fixture is module-scoped, and
        # this test must not depend on a sibling having run lookups first.
        domains = [d for d in topology.zones.toplist.domains() if d.has_type(RecordType.A)][:10]
        answered = []
        for domain in domains:
            key = DnsQuestionKey(qname=domain.name, qtype=RecordType.A)
            topology.forwarder.resolve(key, lambda message, version: answered.append(message))
        topology.simulator.run(until=topology.simulator.now + 60.0)
        assert len(answered) == len(domains) and all(answered)
        summary = topology.recursive.state_summary()
        # Root + TLD(s) + at most two auth hosts were contacted.
        assert 1 <= summary["open_sessions"] <= len(topology.moqt_servers)
        assert summary["records"] > 0

    def test_classic_and_moqt_servers_serve_same_zone_content(self, workload_topology):
        topology = workload_topology
        domain = next(
            d for d in topology.zones.toplist.domains() if d.has_type(RecordType.A)
        )
        assignment = topology.zones.assignment(domain.name)
        classic = topology.classic_servers[assignment.auth_host]
        result = classic.zone_for(domain.name).lookup(domain.name, RecordType.A)
        moqt_server = topology.moqt_servers[assignment.auth_host]
        answer = moqt_server.answer_question(DnsQuestionKey(domain.name, RecordType.A))
        assert answer is not None
        moqt_message, _ = answer
        assert sorted(r.rdata.to_text() for r in result.answers) == sorted(
            r.rdata.to_text() for r in moqt_message.answers
        )


@pytest.mark.slow
class TestMixedDeployment:
    def test_partial_moqt_deployment_still_resolves_everything(self):
        toplist = SyntheticToplist(ToplistConfig(size=12))
        zones = WorkloadZones(toplist, config=ZoneBuildConfig(auth_server_count=2))
        topology = build_workload_topology(zones, moqt_fraction=0.5)
        domains = [d for d in toplist.domains() if d.has_type(RecordType.A)][:6]
        answers = {}
        for domain in domains:
            key = DnsQuestionKey(qname=domain.name, qtype=RecordType.A)
            topology.forwarder.resolve(
                key, lambda message, version, name=domain.name: answers.__setitem__(name, message)
            )
        topology.simulator.run(until=90.0)
        assert len(answers) == len(domains)
        assert all(message is not None for message in answers.values())
        # With only part of the hierarchy speaking MoQT, some lookups must
        # have used the UDP fallback.
        assert topology.recursive.statistics.upstream_udp_queries > 0
