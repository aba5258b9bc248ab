"""Analytical models for the paper's quantitative arguments (§5).

These closed-form models accompany the simulations: every experiment both
*measures* its quantity on the simulated protocol stack and *predicts* it
with the corresponding model here, so discrepancies are caught by tests.

* :mod:`repro.analysis.latency_model` — round-trip accounting for query
  latency over classic DNS and DNS-over-MoQT with each of the §5.2
  optimisations;
* :mod:`repro.analysis.staleness` — how long a resolver serves an outdated
  record under TTL-based caching vs. pub/sub push;
* :mod:`repro.analysis.traffic` — upstream request and update-push message
  counts for polling vs. pub/sub;
* :mod:`repro.analysis.usecases` — the §5.3 back-of-envelope estimates
  (Dynamic DNS, CDN load balancing, deep space);
* :mod:`repro.analysis.state_overhead` — per-endpoint state accounting for
  the §5.1 discussion;
* :mod:`repro.analysis.fanout` — unicast vs. relay-tree per-tier update
  traffic for the §3 fan-out argument;
* :mod:`repro.analysis.churn` — re-attach latency and FETCH gap-recovery
  bounds for relay failover under a live tree;
* :mod:`repro.analysis.detection` — in-band failure-detection latency
  (QUIC PTO-suspect and idle-timeout paths) stacked on the re-attach floor;
* :mod:`repro.analysis.promotion` — origin-promotion latency for the
  replicated origin: detection + election + the tier-0 re-attach floor.
"""

from repro.analysis.latency_model import (
    TransportScenario,
    lookup_round_trips,
    lookup_latency,
    recursive_lookup_latency,
    LatencyBreakdown,
)
from repro.analysis.staleness import (
    expected_staleness_polling,
    pubsub_staleness,
)
from repro.analysis.traffic import (
    polling_requests,
    pubsub_messages,
    traffic_comparison,
    TrafficComparison,
)
from repro.analysis.usecases import (
    ddns_update_traffic_bps,
    cdn_stub_traffic_bps,
    deep_space_update_traffic_bps,
    UseCaseEstimate,
)
from repro.analysis.state_overhead import (
    StateModel,
    endpoint_state_bytes,
    state_comparison,
)
from repro.analysis.fanout import (
    FanoutModel,
    fanout_model,
    unicast_origin_messages,
    tier_ingress_messages,
    relative_deviation,
)
from repro.analysis.churn import (
    RecoveryModel,
    recovery_model,
)
from repro.analysis.detection import (
    DetectionModel,
    pto_fire_offsets,
    suspect_latency,
)
from repro.analysis.promotion import (
    ELECTION_LATENCY,
    PromotionModel,
    promotion_model,
)

__all__ = [
    "TransportScenario",
    "lookup_round_trips",
    "lookup_latency",
    "recursive_lookup_latency",
    "LatencyBreakdown",
    "expected_staleness_polling",
    "pubsub_staleness",
    "polling_requests",
    "pubsub_messages",
    "traffic_comparison",
    "TrafficComparison",
    "ddns_update_traffic_bps",
    "cdn_stub_traffic_bps",
    "deep_space_update_traffic_bps",
    "UseCaseEstimate",
    "StateModel",
    "endpoint_state_bytes",
    "state_comparison",
    "FanoutModel",
    "fanout_model",
    "unicast_origin_messages",
    "tier_ingress_messages",
    "relative_deviation",
    "RecoveryModel",
    "recovery_model",
    "DetectionModel",
    "pto_fire_offsets",
    "suspect_latency",
    "ELECTION_LATENCY",
    "PromotionModel",
    "promotion_model",
]
