"""Building the simulated DNS hierarchy for a synthetic top list.

The builder creates the zones of a three-level hierarchy — a root zone with
TLD delegations, one TLD zone per top-level domain with delegations for every
listed domain, and per-domain authoritative zones — and assigns each
authoritative server an IP-literal host address so the zones can be attached
to simulated hosts.

It also wires each domain's A record to a
:class:`~repro.workload.change_model.RecordChangeProcess` so experiments can
advance simulated time and apply the resulting record changes to the
authoritative zones (which in turn triggers MoQT pushes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.name import Name
from repro.dns.rdata import ARdata, HTTPSRdata, NSRdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import RecordType
from repro.dns.zone import Zone
from repro.workload.change_model import ChangeModel, RecordChangeProcess
from repro.workload.toplist import SyntheticToplist, ToplistDomain

#: Host addresses used for the shared infrastructure.
ROOT_SERVER_ADDRESS = "198.41.0.4"
TLD_SERVER_PREFIX = "192.5.6."
AUTH_SERVER_PREFIX = "93.184."
#: TTL of infrastructure (NS / glue) records.
INFRASTRUCTURE_TTL = 3600


@dataclass
class ZoneBuildConfig:
    """Parameters of the hierarchy builder."""

    #: Number of distinct authoritative server hosts to spread domains over.
    auth_server_count: int


@dataclass
class DomainAssignment:
    """Where one domain's authoritative data lives."""

    domain: ToplistDomain
    zone: Zone
    auth_host: str
    change_process: RecordChangeProcess | None = None


class WorkloadZones:
    """The full set of zones for a synthetic top list."""

    def __init__(
        self,
        toplist: SyntheticToplist,
        change_model: ChangeModel,
        config: ZoneBuildConfig,
    ) -> None:
        self.toplist = toplist
        self.change_model = change_model
        self.config = config
        self.root_zone = Zone(".")
        self.tld_zones: dict[str, Zone] = {}
        self.tld_hosts: dict[str, str] = {}
        self.auth_hosts: list[str] = [
            f"{AUTH_SERVER_PREFIX}{index // 250}.{index % 250 + 1}"
            for index in range(self.config.auth_server_count)
        ]
        # One glue address per authoritative host, shared by its domains.
        self._auth_addresses = [ARdata(host) for host in self.auth_hosts]
        self.assignments: dict[Name, DomainAssignment] = {}
        self._build()

    # ------------------------------------------------------------------- build
    def _build(self) -> None:
        for index, tld in enumerate(self.toplist.tld_names()):
            self._build_tld(tld, index)
        for position, domain in enumerate(self.toplist.domains()):
            self._build_domain(domain, position)

    def _delegation(
        self, name: Name, ns_name: Name, address: ARdata
    ) -> tuple[ResourceRecord, ResourceRecord]:
        """The NS record delegating ``name`` to ``ns_name`` and its glue A record."""
        ttl = INFRASTRUCTURE_TTL
        return (
            ResourceRecord(name, RecordType.NS, NSRdata(ns_name), ttl),
            ResourceRecord(ns_name, RecordType.A, address, ttl),
        )

    def _build_tld(self, tld: str, index: int) -> None:
        tld_host = f"{TLD_SERVER_PREFIX}{index + 1}"
        self.tld_hosts[tld] = tld_host
        tld_name = Name.from_text(f"{tld}.")
        ns_name = Name.from_text(f"ns.{tld}-servers.net.")
        for record in self._delegation(tld_name, ns_name, ARdata(tld_host)):
            self.root_zone.add_record(record, bump=False)
        self.tld_zones[tld] = Zone(tld_name)

    def _build_domain(self, domain: ToplistDomain, position: int) -> None:
        tld = domain.name.labels[-1].decode("ascii")
        host_index = position % len(self.auth_hosts)
        auth_host = self.auth_hosts[host_index]
        zone = Zone(domain.name)
        # The delegation names the zone's primary server (its SOA MNAME,
        # ``ns1.<domain>``); the parent and the child zone file the same
        # two records.
        delegation, glue = self._delegation(
            domain.name, zone.soa.mname, self._auth_addresses[host_index]
        )
        tld_zone = self.tld_zones[tld]
        tld_zone.add_record(delegation, bump=False)
        tld_zone.add_record(glue, bump=False)
        zone.add_record(glue, bump=False)
        zone.add_record(delegation, bump=False)
        change_process: RecordChangeProcess | None = None
        if domain.has_type(RecordType.A):
            ttl = domain.ttl_for(RecordType.A) or 300
            change_process = self.change_model.process_for(domain.rank, ttl)
            self._apply_addresses(zone, domain.name, ttl, change_process, bump=False)
        if domain.has_type(RecordType.AAAA):
            ttl = domain.ttl_for(RecordType.AAAA) or 300
            zone.add(
                domain.name,
                RecordType.AAAA,
                f"2001:db8:{domain.rank:x}::1",
                ttl=ttl,
                bump=False,
            )
        if domain.has_type(RecordType.HTTPS):
            ttl = domain.ttl_for(RecordType.HTTPS) or 300
            rdata = HTTPSRdata.with_alpn(1, Name.root(), ["h2", "h3"])
            zone.add_record(
                ResourceRecord(domain.name, RecordType.HTTPS, rdata, ttl), bump=False
            )
        self.assignments[domain.name] = DomainAssignment(
            domain=domain, zone=zone, auth_host=auth_host, change_process=change_process
        )

    def _apply_addresses(
        self,
        zone: Zone,
        name: Name,
        ttl: int,
        process: RecordChangeProcess,
        bump: bool,
    ) -> None:
        records = [
            ResourceRecord(name, RecordType.A, ARdata(address), ttl)
            for address in process.current_addresses()
        ]
        zone.replace_rrset(RRset(name, RecordType.A, records), bump=bump)

    # --------------------------------------------------------------- mutation
    def advance_domain(self, name: Name) -> bool:
        """Advance one observation interval for a domain's A record.

        Applies the new addresses to the authoritative zone when the change
        process produced a change.  Returns whether a change happened.
        """
        assignment = self.assignments[name]
        process = assignment.change_process
        if process is None:
            return False
        changed = process.advance()
        if changed:
            ttl = assignment.domain.ttl_for(RecordType.A) or 300
            self._apply_addresses(assignment.zone, name, ttl, process, bump=True)
        return changed

    # ----------------------------------------------------------------- access
    def zones_for_auth_host(self, auth_host: str) -> list[Zone]:
        """All per-domain zones assigned to one authoritative server host."""
        return [
            assignment.zone
            for assignment in self.assignments.values()
            if assignment.auth_host == auth_host
        ]

    def all_hosts(self) -> dict[str, list[Zone]]:
        """Mapping of every server host address to the zones it serves."""
        hosts: dict[str, list[Zone]] = {ROOT_SERVER_ADDRESS: [self.root_zone]}
        for tld, host in self.tld_hosts.items():
            hosts.setdefault(host, []).append(self.tld_zones[tld])
        for auth_host in self.auth_hosts:
            zones = self.zones_for_auth_host(auth_host)
            if zones:
                hosts.setdefault(auth_host, []).extend(zones)
        return hosts

    def assignment(self, name: Name | str) -> DomainAssignment:
        """The assignment for a domain name."""
        key = name if isinstance(name, Name) else Name.from_text(name)
        return self.assignments[key]
