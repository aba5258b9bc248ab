"""E11 at 10,000 subscribers: the dense tree, pinned.

Every tree subscriber is a real one — its own host, access link and QUIC
session — so the fan-out claim (§5.3) at this scale is measured, not
multiplied out.  The pins are the seeded run's exact outputs:

* the tier byte table (mid / edge / subscriber links) over the update window;
* origin egress: 6,560 B and 20 objects, the same as at 10 or 1,000
  subscribers — the origin serves its direct children, not the population;
* every subscriber is handed every update exactly once;
* the scheduler's work: 130,297 events over the whole run (26,059.4 per
  pushed update, setup amortised) — a fan-out that scheduled per datagram
  or per subscriber again would move it.

Beyond 10k the closed form in ``repro.analysis.fanout`` is the claim; this
run is the largest the suite checks it against (≈ 6 s).
"""

from __future__ import annotations

import pytest

from repro.experiments.relay_fanout import run_relay_fanout

SUBSCRIBERS = 10_000
UPDATES = 5


@pytest.mark.slow
def test_dense_ten_thousand_subscriber_tree_is_pinned():
    (sample,) = run_relay_fanout(subscriber_counts=(SUBSCRIBERS,), updates=UPDATES).samples
    assert sample.tier_names == ("mid", "edge", "subscribers")
    assert sample.measured_tier_bytes == (6560, 26240, 16_400_000)
    assert sample.measured_tier_objects == (20, 80, SUBSCRIBERS * UPDATES)
    assert sample.origin_egress_bytes == 6560
    assert sample.measured_origin_objects == 20
    assert sample.delivered_objects == SUBSCRIBERS * UPDATES
    # The model is exact here, not within a tolerance.
    assert sample.measured_tier_bytes == tuple(round(b) for b in sample.model.tier_bytes())
    assert sample.link_batch_fallback_waves == 0
    assert sample.events_scheduled == 130_297
