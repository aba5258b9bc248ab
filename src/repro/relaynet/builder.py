"""The construction front ``benchmarks/e2e``, tests and examples build through.

All structure — tiers, parents, subscriber placement, join / leave /
failover — lives in :class:`~repro.relaynet.topology.RelayTopology`, and
:meth:`RelayTreeBuilder.build` hands back exactly that.  Experiments stand
their trees up through :mod:`repro.relaynet.scenario` instead
(``docs/scenarios.md`` lists this class as not yet removed).
"""

from __future__ import annotations

from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.relaynet.spec import RelayTreeSpec
from repro.relaynet.topology import RelayTopology


class RelayTreeBuilder:
    """Builds a :class:`RelayTopology` per spec below one origin.

    ``config`` is forwarded to the topology as is: session and connection
    configurations, failover and admission policy, ``origin_cluster``.
    """

    def __init__(self, network: Network, origin: Address, **config) -> None:
        self.network = network
        self.origin = origin
        self.config = config
        # Fail fast if the origin host is missing rather than at first build.
        network.host(origin.host)

    def build(self, spec: RelayTreeSpec) -> RelayTopology:
        """Create hosts, links and relays for every tier of ``spec``."""
        return RelayTopology(self.network, self.origin, spec, **self.config)
