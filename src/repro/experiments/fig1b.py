"""E2 — Fig. 1b: A-record change counts over 300 TTL-spaced observations.

The paper's finding: the lower the TTL the more changes — TTLs of 300 s and
below show at least 71 changes at the 90th percentile over 300 observations,
while TTLs of 600 s and above show no changes at all up to the same
percentile.  The experiment reproduces the per-TTL change-count percentiles
from the calibrated change processes using the lexicographic comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.measurement.campaign import CampaignConfig, ChangeRateResult, MeasurementCampaign
from repro.workload.change_model import ChangeModel, ChangeModelConfig
from repro.workload.toplist import SyntheticToplist, ToplistConfig

#: The paper's headline reference points for Fig. 1b.
PAPER_P90_LOW_TTL_MIN_CHANGES = 71
PAPER_HIGH_TTL_P90_CHANGES = 0
LOW_TTL_THRESHOLD = 300
#: The change model's seed.
SEED = 20250624


@dataclass
class Fig1bResult:
    """Measured Fig. 1b data."""

    change_rates: ChangeRateResult

    def rows(self) -> list[dict[str, float]]:
        """Per-TTL percentile rows."""
        return self.change_rates.rows()

    def low_ttl_p90_minimum(self) -> float:
        """The smallest p90 change count among TTL clusters <= 300 s."""
        values = [
            summary.p90
            for ttl, summary in self.change_rates.summaries.items()
            if ttl <= LOW_TTL_THRESHOLD
        ]
        return min(values) if values else 0.0

    def high_ttl_p90_maximum(self) -> float:
        """The largest p90 change count among TTL clusters >= 600 s."""
        values = [
            summary.p90
            for ttl, summary in self.change_rates.summaries.items()
            if ttl >= 600
        ]
        return max(values) if values else 0.0

    def matches_paper_shape(self) -> bool:
        """Whether the headline qualitative findings hold."""
        return (
            self.low_ttl_p90_minimum() >= PAPER_P90_LOW_TTL_MIN_CHANGES
            and self.high_ttl_p90_maximum() <= PAPER_HIGH_TTL_P90_CHANGES
        )


def run_fig1b(population: int, max_domains_per_ttl: int) -> Fig1bResult:
    """Run the Fig. 1b experiment.

    The per-TTL cap keeps the run short (the change study needs 300
    observations per domain) while leaving enough domains per cluster for
    stable percentiles.
    """
    toplist = SyntheticToplist(ToplistConfig(size=population))
    change_model = ChangeModel(ChangeModelConfig(seed=SEED))
    campaign = MeasurementCampaign(
        toplist,
        change_model=change_model,
        config=CampaignConfig(max_domains_per_ttl=max_domains_per_ttl),
    )
    return Fig1bResult(change_rates=campaign.change_rates())
