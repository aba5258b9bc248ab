"""Workload models calibrated to the paper's measurement study (§2).

The paper resolved the Tranco top-10k domains from a single vantage point and
reported, for A, AAAA and HTTPS records, how many domains carry each type,
how the TTLs cluster, and how often records change between TTL-spaced
observations.  Because this repository has no network access, the same
population is synthesised:

* :mod:`repro.workload.toplist` — a synthetic top list with per-domain record
  type coverage matching the reported counts (8435 A, 2870 AAAA, 1835 HTTPS
  out of 10 000);
* :mod:`repro.workload.ttl_model` — TTL mixtures over the clusters the paper
  observes ([10] 20/60/300/600/1200/3600 s, with HTTPS almost exclusively
  300 s);
* :mod:`repro.workload.change_model` — per-TTL record change processes whose
  change-count distribution reproduces Fig. 1b (high change rates at TTLs
  ≤ 300 s, essentially none at ≥ 600 s);
* :mod:`repro.workload.zones` — builds the root/TLD/authoritative zone
  hierarchy for a toplist and applies record changes over simulated time;
* :mod:`repro.workload.queries` — client query arrival models (Zipf
  popularity, Poisson arrivals).
"""

from repro.workload.toplist import SyntheticToplist, ToplistDomain, ToplistConfig
from repro.workload.ttl_model import TTL_CLUSTERS
from repro.workload.change_model import ChangeModel, RecordChangeProcess, ChangeModelConfig
from repro.workload.zones import WorkloadZones, ZoneBuildConfig
from repro.workload.queries import QueryModel, QueryModelConfig

__all__ = [
    "SyntheticToplist",
    "ToplistDomain",
    "ToplistConfig",
    "TTL_CLUSTERS",
    "ChangeModel",
    "RecordChangeProcess",
    "ChangeModelConfig",
    "WorkloadZones",
    "ZoneBuildConfig",
    "QueryModel",
    "QueryModelConfig",
]
