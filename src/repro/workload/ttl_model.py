"""TTL distributions calibrated to Fig. 1a of the paper.

The paper reports that observed TTLs "naturally cluster" in
[20, 60, 300, 600, 1200, 3600] seconds for A and AAAA records, that HTTPS
records are seen almost exclusively with a TTL of 300 s, and (in §5.3) that
the lowest observed clustered TTL is 10 s.  The mixtures below reproduce
those qualitative facts; the exact proportions are not published in the
paper, so they are chosen to give the familiar shape of public TTL studies
(300 s dominating, a long tail at 3600 s, a small sub-minute head).
"""

from __future__ import annotations

import random

from repro.dns.types import RecordType

#: The clustered TTL values (seconds) the paper reports, including the 10 s
#: cluster mentioned in §5.3.
TTL_CLUSTERS: tuple[int, ...] = (10, 20, 60, 300, 600, 1200, 3600)

#: Default mixture weights per record type over :data:`TTL_CLUSTERS`.
DEFAULT_TTL_WEIGHTS: dict[RecordType, dict[int, float]] = {
    RecordType.A: {10: 0.03, 20: 0.07, 60: 0.15, 300: 0.40, 600: 0.10, 1200: 0.05, 3600: 0.20},
    RecordType.AAAA: {10: 0.02, 20: 0.06, 60: 0.14, 300: 0.42, 600: 0.11, 1200: 0.05, 3600: 0.20},
    RecordType.HTTPS: {10: 0.0, 20: 0.0, 60: 0.02, 300: 0.95, 600: 0.01, 1200: 0.0, 3600: 0.02},
}


def sample_ttl(rdtype: RecordType, rng: random.Random) -> int:
    """Draw a TTL for a record of the given type from
    :data:`DEFAULT_TTL_WEIGHTS` (a type with no mixture of its own draws
    from A's)."""
    mixture = DEFAULT_TTL_WEIGHTS.get(rdtype)
    if mixture is None:
        mixture = DEFAULT_TTL_WEIGHTS[RecordType.A]
    values = list(mixture.keys())
    weights = [mixture[value] for value in values]
    return rng.choices(values, weights=weights, k=1)[0]
