#!/usr/bin/env python3
"""CDN load balancing: short-TTL records that change constantly (§1, §5.3).

CDNs use DNS with short TTLs to steer clients between servers as load
shifts.  This example runs one CDN-style record (TTL 10 s, a new set of
addresses every 30 s) for ten minutes and compares, side by side:

* how many requests a continuously interested classic resolver sends to the
  authoritative server vs. how many objects the MoQT server pushes;
* how stale the record is at the client when it changes, for both flavours;
* the per-stub downstream update bitrate, compared with the paper's
  240 kbit/s estimate for 1 000 subscribed domains updating every 10 s.

Run with:  python examples/cdn_load_balancing.py
"""

from __future__ import annotations

from repro.analysis.traffic import traffic_comparison
from repro.analysis.usecases import cdn_stub_traffic_bps
from repro.experiments.report import format_table
from repro.experiments.staleness import run_staleness
from repro.experiments.traffic import run_traffic


def main() -> None:
    ttl = 10
    change_interval = 30.0
    duration = 600.0

    print("== CDN-style record: TTL 10 s, address set changes every 30 s ==\n")

    print("-- Upstream messages at the authoritative server over 10 minutes --")
    traffic = run_traffic(configurations=[(ttl, change_interval)], duration=duration)
    print(format_table(traffic.rows()))
    sample = traffic.samples[0]
    print(
        f"\n  pub/sub sends {sample.measured_pubsub_messages} pushes instead of "
        f"{sample.measured_polling_queries} polls "
        f"({sample.measured_reduction_factor:.1f}x fewer messages)\n"
    )

    print("-- Staleness when the record changes (lower is fresher) --")
    staleness = run_staleness(ttls=[ttl])
    print(format_table(staleness.rows()))
    print(
        f"\n  subscribed resolvers are ~{staleness.model_pubsub * 1000:.0f} ms behind the origin;"
        " TTL-based caches lag by a good part of the TTL\n"
    )

    print("-- Scaling to a whole stub (the paper's §5.3 estimate) --")
    estimate = cdn_stub_traffic_bps(subscribed_domains=1000)
    print(f"  1000 subscribed domains x 1 update/10 s x 300 B = {estimate.kbps:.0f} kbit/s per stub")
    model = traffic_comparison(duration=86400, ttl=ttl, change_interval=change_interval, resolvers=1000)
    print(
        f"  over a day, 1000 interested resolvers would poll {model.polling:.0f} times; "
        f"pub/sub pushes {model.pubsub:.0f} objects"
    )


if __name__ == "__main__":
    main()
