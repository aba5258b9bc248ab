"""The §2 measurement campaign: TTL distribution and change rates.

:class:`MeasurementCampaign` reproduces the two halves of the paper's
measurement study against the synthetic workload:

* :meth:`MeasurementCampaign.ttl_distribution` — which record types the top
  list publishes and how their TTLs are distributed (Fig. 1a);
* :meth:`MeasurementCampaign.change_rates` — for each TTL cluster, the
  distribution of the number of record changes over 300 consecutive
  TTL-spaced observations, using the lexicographic comparison (Fig. 1b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.types import RecordType
from repro.measurement.change_rate import ChangeRateSummary, count_changes, summarize_change_counts
from repro.workload.change_model import ChangeModel
from repro.workload.toplist import SyntheticToplist
from repro.workload.ttl_model import TTL_CLUSTERS


#: Number of consecutive observations per record (the paper's 300).
OBSERVATIONS = 300


@dataclass
class CampaignConfig:
    """Parameters of the measurement campaign."""

    #: Cap on domains per TTL cluster for the change-rate study (None = all).
    max_domains_per_ttl: int | None = None


@dataclass
class TtlDistributionResult:
    """Fig. 1a data: per-type totals and per-type TTL histograms."""

    totals: dict[RecordType, int]
    histograms: dict[RecordType, dict[int, int]]
    population: int

    def fraction(self, rdtype: RecordType) -> float:
        """Share of the population publishing this record type."""
        return self.totals.get(rdtype, 0) / self.population if self.population else 0.0

    def rows(self) -> list[dict[str, object]]:
        """Flat rows (type, ttl, count) for report tables."""
        rows: list[dict[str, object]] = []
        for rdtype, histogram in self.histograms.items():
            for ttl, count in sorted(histogram.items()):
                rows.append({"type": rdtype.to_text(), "ttl": ttl, "count": count})
        return rows


@dataclass
class ChangeRateResult:
    """Fig. 1b data: change-count summaries per TTL cluster."""

    summaries: dict[int, ChangeRateSummary]

    def rows(self) -> list[dict[str, float]]:
        """Flat rows for report tables, ordered by TTL."""
        return [self.summaries[ttl].as_row() for ttl in sorted(self.summaries)]


class MeasurementCampaign:
    """Runs the §2 measurement methodology against the synthetic workload."""

    def __init__(
        self,
        toplist: SyntheticToplist,
        config: CampaignConfig,
        change_model: ChangeModel | None = None,
    ) -> None:
        self.toplist = toplist
        self.change_model = change_model if change_model is not None else ChangeModel()
        self.config = config

    # ------------------------------------------------------------------ Fig 1a
    def ttl_distribution(self) -> TtlDistributionResult:
        """Record-type coverage and TTL histograms (Fig. 1a)."""
        totals: dict[RecordType, int] = {}
        histograms: dict[RecordType, dict[int, int]] = {}
        for rdtype in (RecordType.A, RecordType.AAAA, RecordType.HTTPS):
            domains = self.toplist.domains_with_type(rdtype)
            totals[rdtype] = len(domains)
            histograms[rdtype] = self.toplist.ttl_histogram(rdtype)
        return TtlDistributionResult(
            totals=totals, histograms=histograms, population=len(self.toplist)
        )

    # ------------------------------------------------------------------ Fig 1b
    def change_rates(self) -> ChangeRateResult:
        """Change counts over TTL-spaced observations per TTL cluster (Fig. 1b).

        For each domain publishing the analysed record type, the domain's
        change process is observed :data:`OBSERVATIONS` times at TTL spacing; the
        lexicographically ordered RDATA of consecutive observations are
        compared and the changes counted, then summarised per TTL cluster.
        """
        per_ttl_counts: dict[int, list[int]] = {ttl: [] for ttl in TTL_CLUSTERS}
        # The paper reports A; it notes AAAA behaves the same and HTTPS like
        # A at TTL 300.
        rdtype = RecordType.A
        per_ttl_domains: dict[int, int] = {ttl: 0 for ttl in TTL_CLUSTERS}
        for domain in self.toplist.domains_with_type(rdtype):
            ttl = domain.ttl_for(rdtype)
            if ttl is None or ttl not in per_ttl_counts:
                continue
            if (
                self.config.max_domains_per_ttl is not None
                and per_ttl_domains[ttl] >= self.config.max_domains_per_ttl
            ):
                continue
            per_ttl_domains[ttl] += 1
            process = self.change_model.process_for(domain.rank, ttl)
            samples = [process.current_sorted()]
            for _ in range(OBSERVATIONS - 1):
                process.advance()
                samples.append(process.current_sorted())
            per_ttl_counts[ttl].append(count_changes(samples))
        summaries = {
            ttl: summarize_change_counts(ttl, counts, OBSERVATIONS)
            for ttl, counts in per_ttl_counts.items()
            if counts
        }
        return ChangeRateResult(
            summaries=summaries,
        )
