"""E1 — Fig. 1a: record-type coverage and TTL distribution of the top list.

The paper reports, for the Tranco top-10k resolved from one vantage point:
8435 domains with A records, 2870 with AAAA and 1835 with HTTPS, with TTLs
clustering at [20, 60, 300, 600, 1200, 3600] s and HTTPS almost exclusively
at 300 s.  This experiment runs the measurement campaign against the
synthetic top list and reports the same quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.types import RecordType
from repro.measurement.campaign import CampaignConfig, MeasurementCampaign, TtlDistributionResult
from repro.workload.toplist import SyntheticToplist, ToplistConfig

#: The totals reported in the paper for the top-10k population.
PAPER_TOTALS = {RecordType.A: 8435, RecordType.AAAA: 2870, RecordType.HTTPS: 1835}


@dataclass
class Fig1aResult:
    """Measured Fig. 1a data plus the paper's reference totals."""

    population: int
    distribution: TtlDistributionResult
    paper_totals: dict[RecordType, int]

    def total_rows(self) -> list[dict[str, object]]:
        """Rows comparing measured and paper record-type totals."""
        scale = self.population / 10_000
        rows = []
        for rdtype in (RecordType.A, RecordType.AAAA, RecordType.HTTPS):
            rows.append(
                {
                    "type": rdtype.to_text(),
                    "measured": self.distribution.totals.get(rdtype, 0),
                    "paper": round(self.paper_totals[rdtype] * scale),
                    "measured_fraction": self.distribution.fraction(rdtype),
                    "paper_fraction": self.paper_totals[rdtype] / 10_000,
                }
            )
        return rows

    def ttl_rows(self) -> list[dict[str, object]]:
        """Per-type TTL histogram rows."""
        return self.distribution.rows()

    def https_share_at_300(self) -> float:
        """Share of HTTPS records with a TTL of exactly 300 s."""
        histogram = self.distribution.histograms.get(RecordType.HTTPS, {})
        total = sum(histogram.values())
        if total == 0:
            return 0.0
        return histogram.get(300, 0) / total


def run_fig1a(population: int = 10_000) -> Fig1aResult:
    """Run the Fig. 1a experiment for a toplist of the given size."""
    toplist = SyntheticToplist(ToplistConfig(size=population))
    campaign = MeasurementCampaign(toplist, config=CampaignConfig())
    distribution = campaign.ttl_distribution()
    return Fig1aResult(
        population=population, distribution=distribution, paper_totals=dict(PAPER_TOTALS)
    )
