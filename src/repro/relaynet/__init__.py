"""Hierarchical relay fan-out trees for CDN-scale DNS pub/sub (§3, §5.3).

The paper's central scalability argument is that MoQT relays are payload
oblivious, so a single authoritative server can push DNS record updates to
millions of resolvers through a tree of generic relays: the origin serves
only its direct children, every tier multiplies the fan-out, and each relay
aggregates its whole subtree into one upstream subscription.  This package
turns that argument into an executable subsystem:

* :mod:`repro.relaynet.spec` — declarative tree shapes
  (:class:`RelayTreeSpec`): star, balanced k-ary, and the CDN
  origin/mid/edge hierarchy, each tier with its own link configuration;
* :mod:`repro.relaynet.topology` — :class:`RelayTopology`, the live
  membership registry: dynamic join/leave (`add_relay`/`remove_relay`),
  crash failover (`kill_relay`) to the least-loaded surviving sibling, in-band
  failure detection (`crash_relay` + `report_failure`, driven by QUIC
  liveness instead of a control-plane kill signal), load-aware subscriber
  placement, and FETCH-based gap recovery so established subscriptions
  survive churn without duplicates or gaps;
* :mod:`repro.relaynet.origincluster` — :class:`OriginCluster`, the
  replicated origin: one active publisher plus warm standbys kept current
  by live MoQT subscriptions, a silent `crash_active` fault injector, and
  deterministic epoch-numbered promotion driven by the same in-band
  detection path (`report_origin_failure`) when tier-0 uplinks notice the
  active died;
* :mod:`repro.relaynet.scenario` — :class:`~repro.relaynet.scenario.Scenario`
  and :func:`~repro.relaynet.scenario.build_scenario`, the one way the
  E11–E16 drivers stand up simulator, network, origin and tree, push
  updates, score deliveries and scrape (``docs/scenarios.md``);
* :mod:`repro.relaynet.builder` — :class:`RelayTreeBuilder`, the older
  construction front (benchmarks, tests, examples): instantiates a spec on
  a :class:`~repro.netsim.network.Network` and returns the
  :class:`RelayTopology`;
* :mod:`repro.relaynet.stats` — :class:`RelayNetStats` snapshots per-tier
  relay counters, cache hit/miss totals and uplink bytes, with snapshot
  deltas to isolate measurement windows.

Every tree subscriber is a real one: its own host, access link and QUIC
session.  Fan-out at sizes no run stands up is the closed form's job.

The matching analytical models live in :mod:`repro.analysis.fanout`
(static fan-out), :mod:`repro.analysis.churn` (failover recovery) and
:mod:`repro.analysis.detection` (in-band detection latency); the
measured-vs-model experiments are :mod:`repro.experiments.relay_fanout`
(E11), :mod:`repro.experiments.relay_churn` (E12) and
:mod:`repro.experiments.failure_detection` (E13).
"""

from repro.relaynet.spec import RelayTierSpec, RelayTreeSpec
from repro.relaynet.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.relaynet.builder import RelayTreeBuilder
from repro.relaynet.origincluster import ClusterOrigin, OriginCluster, OriginPromotion
from repro.relaynet.stats import RelayNetStats, TierStats
from repro.relaynet.topology import (
    AdmissionRecord,
    FailoverEvent,
    FailoverRecord,
    FlashCrowdStorm,
    NoSurvivingParentError,
    RelayNode,
    RelayTopology,
    TreeSubscriber,
)

__all__ = [
    "RelayTierSpec",
    "RelayTreeSpec",
    "RelayNode",
    "RelayTreeBuilder",
    "TreeSubscriber",
    "ClusterOrigin",
    "OriginCluster",
    "OriginPromotion",
    "RelayNetStats",
    "TierStats",
    "RelayTopology",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionRecord",
    "FlashCrowdStorm",
    "FailoverEvent",
    "FailoverRecord",
    "NoSurvivingParentError",
]
