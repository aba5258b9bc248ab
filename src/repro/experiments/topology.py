"""Standard simulation topologies used by the experiments.

:class:`SmallTopology` builds the three-level hierarchy of Fig. 2 — a stub
host running a forwarder, a recursive resolver, and root / TLD /
authoritative servers — with every authority optionally serving both classic
DNS over UDP and DNS over MoQT on the same host (incremental deployment,
§4.5).  Experiments that need the full synthetic top list build on
:func:`build_workload_topology`, which instantiates one authoritative host
per workload assignment group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.auth_server import MoqAuthoritativeServer
from repro.core.compatibility import CompatibilityMode
from repro.core.forwarder import ForwarderConfig, MoqForwarder
from repro.core.recursive import MoqRecursiveResolver, ResolverConfig
from repro.core.session_manager import SessionManagerConfig
from repro.dns.name import Name
from repro.dns.server import AuthoritativeServer
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.types import DNS_UDP_PORT, MOQT_PORT
from repro.dns.zone import Zone
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.workload.zones import ROOT_SERVER_ADDRESS, WorkloadZones

STUB_HOST = "10.0.0.2"
RECURSIVE_HOST = "10.0.0.53"
ROOT_HOST = "198.41.0.4"
TLD_HOST = "192.5.6.30"
AUTH_HOST = "93.184.216.1"


@dataclass
class SmallTopologyConfig:
    """Parameters of the small three-level topology."""

    domain: str = "www.example.com."
    record_ttl: int = 300
    initial_address: str = "192.0.2.10"
    stub_rtt: float = 0.010
    upstream_rtt: float = 0.040
    #: Whether the authoritative server for the domain additionally runs a
    #: MoQT server (the root and the TLD always do).
    moqt_on_auth: bool = True
    #: Whether the recursive resolver races UDP against MoQT (§4.5).
    happy_eyeballs: bool = False
    compatibility_mode: CompatibilityMode = CompatibilityMode.PERIODIC_REFRESH
    #: Whether the MoQT resolver chain's sessions negotiate the version in
    #: ALPN (§5.2's third optimisation).
    alpn_version_negotiation: bool = False
    #: Optional QUIC parameters for connections the recursive resolver accepts
    #: from stubs (used by the deep-space example to survive long delays).
    resolver_downstream_connection: object | None = None


class SmallTopology:
    """A fully wired three-level DNS hierarchy with classic and MoQT stacks."""

    def __init__(self, config: SmallTopologyConfig | None = None) -> None:
        self.config = config if config is not None else SmallTopologyConfig()
        self.simulator = Simulator(seed=42)
        self.network = Network(self.simulator)
        self._build_hosts()
        self._build_zones()
        self._build_servers()
        self._build_resolvers()

    # ---------------------------------------------------------------- plumbing
    def _build_hosts(self) -> None:
        for host in (STUB_HOST, RECURSIVE_HOST, ROOT_HOST, TLD_HOST, AUTH_HOST):
            self.network.add_host(host)
        stub_link = LinkConfig(delay=self.config.stub_rtt / 2.0)
        upstream_link = LinkConfig(delay=self.config.upstream_rtt / 2.0)
        self.network.connect(STUB_HOST, RECURSIVE_HOST, stub_link)
        for upstream in (ROOT_HOST, TLD_HOST, AUTH_HOST):
            self.network.connect(RECURSIVE_HOST, upstream, upstream_link)

    def _build_zones(self) -> None:
        domain = Name.from_text(self.config.domain)
        # The zone apex is the parent of the queried name (www.example.com ->
        # example.com); single-label domains are their own apex.
        apex = domain.parent() if len(domain) > 1 else domain
        tld = Name(domain.labels[-1:])
        self.domain_name = domain
        self.zone_apex = apex
        self.root_zone = Zone(".")
        self.root_zone.add(tld, "NS", f"ns.{tld.to_text()}", ttl=3600, bump=False)
        self.root_zone.add(Name.from_text(f"ns.{tld.to_text()}"), "A", TLD_HOST, ttl=3600, bump=False)
        self.tld_zone = Zone(tld)
        ns_name = Name((b"ns1",) + apex.labels)
        self.tld_zone.add(apex, "NS", ns_name.to_text(), ttl=3600, bump=False)
        self.tld_zone.add(ns_name, "A", AUTH_HOST, ttl=3600, bump=False)
        self.auth_zone = Zone(apex)
        self.auth_zone.add(ns_name, "A", AUTH_HOST, ttl=3600, bump=False)
        self.auth_zone.add(
            domain, "A", self.config.initial_address, ttl=self.config.record_ttl, bump=False
        )

    def _build_servers(self) -> None:
        self.classic_root = AuthoritativeServer(self.network.host(ROOT_HOST), [self.root_zone])
        self.classic_tld = AuthoritativeServer(self.network.host(TLD_HOST), [self.tld_zone])
        self.classic_auth = AuthoritativeServer(self.network.host(AUTH_HOST), [self.auth_zone])
        self.moqt_root = MoqAuthoritativeServer(self.network.host(ROOT_HOST), [self.root_zone])
        self.moqt_tld = MoqAuthoritativeServer(self.network.host(TLD_HOST), [self.tld_zone])
        self.moqt_auth = (
            MoqAuthoritativeServer(self.network.host(AUTH_HOST), [self.auth_zone])
            if self.config.moqt_on_auth
            else None
        )

    def _build_resolvers(self) -> None:
        config = self.config
        resolver_config = ResolverConfig(
            happy_eyeballs=config.happy_eyeballs,
            compatibility_mode=config.compatibility_mode,
            session_manager=SessionManagerConfig(
                alpn_version_negotiation=config.alpn_version_negotiation
            ),
            downstream_connection=config.resolver_downstream_connection,
        )
        self.moqt_recursive = MoqRecursiveResolver(
            self.network.host(RECURSIVE_HOST),
            root_servers=[Address(ROOT_HOST, MOQT_PORT)],
            config=resolver_config,
        )
        # The classic recursive resolver serves on a distinct UDP port so it
        # can coexist with the MoQT resolver's UDP fallback interface.
        self.classic_recursive = RecursiveResolver(
            self.network.host(RECURSIVE_HOST),
            root_servers=[Address(ROOT_HOST, DNS_UDP_PORT)],
            serve_port=5353,
        )
        forwarder_config = ForwarderConfig(
            session_manager=SessionManagerConfig(
                alpn_version_negotiation=config.alpn_version_negotiation
            ),
        )
        self.forwarder = MoqForwarder(
            self.network.host(STUB_HOST),
            recursive_moqt_address=Address(RECURSIVE_HOST, MOQT_PORT),
            config=forwarder_config,
        )
        self.classic_stub = StubResolver(
            self.network.host(STUB_HOST), Address(RECURSIVE_HOST, 5353)
        )

    # ------------------------------------------------------------------ helpers
    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.simulator.run(until=self.simulator.now + duration)

    def update_record(self, new_address: str) -> int:
        """Change the experiment domain's A record; returns the new zone serial.

        The replacement is a single atomic zone change so exactly one version
        bump (and therefore one MoQT push per subscriber) results.
        """
        from repro.dns.rdata import ARdata
        from repro.dns.rr import ResourceRecord, RRset
        from repro.dns.types import RecordType

        record = ResourceRecord(
            self.domain_name, RecordType.A, ARdata(new_address), self.config.record_ttl
        )
        self.auth_zone.replace_rrset(RRset(self.domain_name, RecordType.A, [record]))
        return self.auth_zone.serial


@dataclass
class WorkloadTopology:
    """A topology hosting a full synthetic workload."""

    simulator: Simulator
    network: Network
    zones: WorkloadZones
    moqt_servers: dict[str, MoqAuthoritativeServer]
    classic_servers: dict[str, AuthoritativeServer]
    recursive: MoqRecursiveResolver
    forwarder: MoqForwarder


def build_workload_topology(
    zones: WorkloadZones,
    stub_rtt: float = 0.010,
    upstream_rtt: float = 0.040,
    moqt_fraction: float = 1.0,
    seed: int = 42,
) -> WorkloadTopology:
    """Build a topology serving a synthetic workload.

    ``moqt_fraction`` controls which share of authoritative hosts (beyond the
    root, which always supports MoQT) also run a MoQT server — the knob for
    the incremental-deployment experiment.
    """
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    network.add_host(STUB_HOST)
    network.add_host(RECURSIVE_HOST)
    network.connect(STUB_HOST, RECURSIVE_HOST, LinkConfig(delay=stub_rtt / 2.0))

    moqt_servers: dict[str, MoqAuthoritativeServer] = {}
    classic_servers: dict[str, AuthoritativeServer] = {}
    host_zones = zones.all_hosts()
    moqt_hosts = _select_moqt_hosts(host_zones, moqt_fraction)
    for host_address, served_zones in host_zones.items():
        host = network.add_host(host_address)
        network.connect(RECURSIVE_HOST, host_address, LinkConfig(delay=upstream_rtt / 2.0))
        classic_servers[host_address] = AuthoritativeServer(host, list(served_zones))
        if host_address in moqt_hosts:
            moqt_servers[host_address] = MoqAuthoritativeServer(host, list(served_zones))

    recursive = MoqRecursiveResolver(
        network.host(RECURSIVE_HOST),
        root_servers=[Address(ROOT_SERVER_ADDRESS, MOQT_PORT)],
        config=ResolverConfig(
            happy_eyeballs=moqt_fraction < 1.0,
        ),
    )
    forwarder = MoqForwarder(
        network.host(STUB_HOST), recursive_moqt_address=Address(RECURSIVE_HOST, MOQT_PORT)
    )
    return WorkloadTopology(
        simulator=simulator,
        network=network,
        zones=zones,
        moqt_servers=moqt_servers,
        classic_servers=classic_servers,
        recursive=recursive,
        forwarder=forwarder,
    )


def _select_moqt_hosts(host_zones: dict[str, list[Zone]], fraction: float) -> set[str]:
    hosts = sorted(host_zones)
    if fraction >= 1.0:
        return set(hosts)
    selected = {ROOT_SERVER_ADDRESS}
    remaining = [host for host in hosts if host != ROOT_SERVER_ADDRESS]
    count = int(round(fraction * len(remaining)))
    selected.update(remaining[:count])
    return selected
