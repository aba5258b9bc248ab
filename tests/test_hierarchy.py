"""What the simulated DNS hierarchy holds, and that it is the same zones (``docs/state.md``).

``WorkloadZones`` builds each DNS value once: the delegation NS record and
its glue A record are built as values and the very same frozen records are
filed in the TLD zone and in the child zone's apex, names share their
parent's label objects, ``RRset`` and ``Zone`` are slotted, a change process
that cannot change drops its generator, and a zone nobody watches builds no
change notification.  Pinned here:

* (a) live bytes and blocks per domain of a 500-domain hierarchy, per layer,
  are rows of the exact-cost ledger (``tests/exact/``, ``domain.*``);
* (b) the build is the same zones — against the text-based build kept below
  as the reference, for two top-list sizes and two change seeds: every
  zone's text, every lookup of every domain and type, every change process's
  300-observation trace;
* (c) a name built by ``child()`` shares its parent's labels and is checked
  as before.

Source mutations tried when this file was written, each failing a test: the
child zone's delegation and glue built a second time (b: the identity check);
the NS target or the glue address pointing at another host (b: the zone texts
and the lookups differ); the generator dropped for a process that can change
(b: ``advance()`` raises); a process that cannot change drawing on with a
generator it no longer has (b); ``Name.__init__`` copying labels again (the
ledger's ``domain.*`` rows, c), keeping a ``bytearray`` label (c), or skipping
the empty-label, 63-byte or 255-byte check (c); ``RRset`` without
``__slots__`` (``domain.*``).
"""

from __future__ import annotations

import random

import pytest

from repro.dns.name import Name, NameError_
from repro.dns.rdata import ARdata, HTTPSRdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import RecordType
from repro.dns.zone import Zone
from repro.workload.change_model import ADDRESS_POOL, ChangeModel, ChangeModelConfig, RecordChangeProcess
from repro.workload.toplist import SyntheticToplist, ToplistConfig, ToplistDomain
from repro.workload.zones import (
    INFRASTRUCTURE_TTL,
    TLD_SERVER_PREFIX,
    DomainAssignment,
    WorkloadZones,
    ZoneBuildConfig,
)

DOMAINS = 500


# ------------------------------------------------------- (b) the same zones
class RngKeepingModel(ChangeModel):
    """The change model as it was: every process keeps its generator and
    draws from it on every observation, whatever its change probability."""

    def process_for(
        self,
        domain_index: int,
        ttl: int,
        rdtype: RecordType = RecordType.A,
        addresses_per_answer: int = 4,
    ) -> RecordChangeProcess:
        rng = random.Random((self.config.seed << 20) ^ (domain_index * 2654435761) ^ int(rdtype))
        probability = self.change_probability(ttl, rng)
        process = RecordChangeProcess(
            domain_index=domain_index,
            ttl=ttl,
            change_probability=probability,
            pool_size=ADDRESS_POOL,
            addresses_per_answer=addresses_per_answer,
            rng=rng,
        )
        process.rng = rng
        return process


class TextBuiltZones(WorkloadZones):
    """The hierarchy as it was built: every delegation's NS and glue A record
    parsed from presentation text, once for the parent zone and once for the
    child zone."""

    def _build_tld(self, tld: str, index: int) -> None:
        tld_host = f"{TLD_SERVER_PREFIX}{index + 1}"
        self.tld_hosts[tld] = tld_host
        tld_name = Name.from_text(f"{tld}.")
        ns_name = Name.from_text(f"ns.{tld}-servers.net.")
        self.root_zone.add(tld_name, RecordType.NS, ns_name.to_text(),
                           ttl=INFRASTRUCTURE_TTL, bump=False)
        self.root_zone.add(ns_name, RecordType.A, tld_host,
                           ttl=INFRASTRUCTURE_TTL, bump=False)
        self.tld_zones[tld] = Zone(tld_name)

    def _build_domain(self, domain: ToplistDomain, position: int) -> None:
        tld = domain.name.labels[-1].decode("ascii")
        tld_zone = self.tld_zones[tld]
        auth_host = self.auth_hosts[position % len(self.auth_hosts)]
        ns_name = Name((b"ns1",) + domain.name.labels)
        tld_zone.add(domain.name, RecordType.NS, ns_name.to_text(),
                     ttl=INFRASTRUCTURE_TTL, bump=False)
        tld_zone.add(ns_name, RecordType.A, auth_host,
                     ttl=INFRASTRUCTURE_TTL, bump=False)

        zone = Zone(domain.name)
        zone.add(ns_name, RecordType.A, auth_host, ttl=INFRASTRUCTURE_TTL, bump=False)
        zone.add(domain.name, RecordType.NS, ns_name.to_text(),
                 ttl=INFRASTRUCTURE_TTL, bump=False)
        change_process = None
        if domain.has_type(RecordType.A):
            ttl = domain.ttl_for(RecordType.A) or 300
            change_process = self.change_model.process_for(domain.rank, ttl)
            records = [
                ResourceRecord(domain.name, RecordType.A, ARdata(address), ttl)
                for address in change_process.current_addresses()
            ]
            zone.replace_rrset(RRset(domain.name, RecordType.A, records), bump=False)
        if domain.has_type(RecordType.AAAA):
            ttl = domain.ttl_for(RecordType.AAAA) or 300
            zone.add(domain.name, RecordType.AAAA, f"2001:db8:{domain.rank:x}::1", ttl=ttl, bump=False)
        if domain.has_type(RecordType.HTTPS):
            ttl = domain.ttl_for(RecordType.HTTPS) or 300
            rdata = HTTPSRdata.with_alpn(1, Name.root(), ["h2", "h3"])
            zone.add_record(ResourceRecord(domain.name, RecordType.HTTPS, rdata, ttl), bump=False)
        self.assignments[domain.name] = DomainAssignment(
            domain=domain, zone=zone, auth_host=auth_host, change_process=change_process
        )


def _both(size: int, seed: int) -> tuple[WorkloadZones, WorkloadZones]:
    toplist = SyntheticToplist(ToplistConfig(size=size))
    return (
        WorkloadZones(toplist, ChangeModel(ChangeModelConfig(seed=seed)), ZoneBuildConfig(auth_server_count=8)),
        TextBuiltZones(toplist, RngKeepingModel(ChangeModelConfig(seed=seed)), ZoneBuildConfig(auth_server_count=8)),
    )


def _all_zones(zones: WorkloadZones) -> list[Zone]:
    return [zones.root_zone, *zones.tld_zones.values(), *(a.zone for a in zones.assignments.values())]


CASES = [(60, 7), (60, 23), (DOMAINS, 7), (DOMAINS, 23)]


@pytest.mark.parametrize("size,seed", CASES)
def test_the_build_is_the_same_zones(size, seed):
    built, reference = _both(size, seed)
    assert [zone.to_text() for zone in _all_zones(built)] == [
        zone.to_text() for zone in _all_zones(reference)
    ]
    for domain in built.toplist.domains():
        tld = domain.name.labels[-1].decode("ascii")
        pairs = [
            (built.root_zone, reference.root_zone),
            (built.tld_zones[tld], reference.tld_zones[tld]),
            (built.assignment(domain.name).zone, reference.assignment(domain.name).zone),
        ]
        for qname in (domain.name, domain.name.child(b"ns1"), domain.name.child(b"www")):
            for rdtype in RecordType:
                for ours, theirs in pairs:
                    assert ours.lookup(qname, rdtype) == theirs.lookup(qname, rdtype), (qname, rdtype)
        # The parent and the child zone file the very same two records.
        ns_rrset = pairs[1][0].get_rrset(domain.name, RecordType.NS)
        (delegation,) = ns_rrset
        (glue,) = pairs[1][0].get_rrset(delegation.rdata.target, RecordType.A)
        child = pairs[2][0]
        assert child.get_rrset(domain.name, RecordType.NS).records[0] is delegation
        assert child.get_rrset(delegation.rdata.target, RecordType.A).records[0] is glue


@pytest.mark.parametrize("size,seed", CASES)
def test_every_change_process_traces_the_same(size, seed):
    built, reference = _both(size, seed)
    static = 0
    for name, assignment in built.assignments.items():
        ours = assignment.change_process
        theirs = reference.assignment(name).change_process
        if ours is None:
            assert theirs is None
            continue
        static += ours.change_probability <= 0.0
        assert (ours.rng is None) == (ours.change_probability <= 0.0)
        trace = []
        for process in (ours, theirs):
            trace.append([(process.advance(), process.current_sorted(), process.changes) for _ in range(300)])
        assert trace[0] == trace[1], name
    assert static > 0  # the no-generator path is exercised


# -------------------------------------------------------------- (c) names
def test_a_child_shares_its_parents_labels():
    parent = Name.from_text("site00042.com.")
    for child in (parent.child(b"ns1"), parent.child("www"), Name((b"ns1",) + parent.labels)):
        assert all(mine is theirs for mine, theirs in zip(child.labels[1:], parent.labels))
    # A label that needs lowercasing is a new object, lowercased.
    mixed = Name([b"WWW", *parent.labels])
    assert mixed.labels[0] == b"www" and mixed.labels[1] is parent.labels[0]
    # A mutable label is never kept.
    label = bytearray(b"mail")
    kept = Name([label, *parent.labels])
    label[0:1] = b"x"
    assert kept.labels[0] == b"mail" and type(kept.labels[0]) is bytes


def test_child_still_checks_every_label_and_the_name_length():
    parent = Name.from_text("example.com.")
    with pytest.raises(NameError_):
        parent.child(b"")
    with pytest.raises(NameError_):
        parent.child(b"a" * 64)
    assert len(parent.child(b"a" * 63).labels[0]) == 63
    # example.com. is 13 bytes on the wire; three 62-byte labels make 202.
    deep = parent.child(b"b" * 62).child(b"b" * 62).child(b"b" * 62)
    assert len(deep.child(b"c" * 52).to_wire()) == 255
    with pytest.raises(NameError_):
        deep.child(b"c" * 53)  # 256 bytes
