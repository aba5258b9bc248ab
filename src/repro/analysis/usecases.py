"""The §5.3 back-of-envelope use-case estimates.

The paper works through three deployment scenarios:

* **Dynamic DNS** — 100 M users, 1 000 interested parties each, 5 MoQ relays
  on the path, 2 IP address updates per day, 300 B per update →
  ≈ 5.5 Gbit/s of globally distributed application-layer update traffic
  ("negligible at global scale").
* **CDN load balancing** — a stub resolver subscribed to 1 000 domains, all
  updated at the lowest observed clustered TTL of 10 s with 300 B per update
  → ≈ 240 kbit/s of downstream update traffic per stub.
* **Deep space** — the same push mechanism with throttling of
  high-update-rate domains, since load-balancing freshness is pointless at
  interplanetary RTTs.

The estimators below reproduce those numbers exactly and expose every input.
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_DAY = 86_400.0
#: Bytes per pushed update in all three scenarios.
UPDATE_SIZE_BYTES = 300.0
#: The CDN scenario's update interval: the lowest observed clustered TTL.
CDN_UPDATE_INTERVAL_SECONDS = 10.0


@dataclass(frozen=True)
class UseCaseEstimate:
    """A named traffic estimate with its inputs."""

    name: str
    bits_per_second: float
    inputs: tuple[tuple[str, float], ...]

    @property
    def gbps(self) -> float:
        """The estimate in gigabits per second."""
        return self.bits_per_second / 1e9

    @property
    def kbps(self) -> float:
        """The estimate in kilobits per second."""
        return self.bits_per_second / 1e3

    def as_dict(self) -> dict[str, float]:
        """Inputs plus the result as a flat dictionary."""
        result = dict(self.inputs)
        result["bits_per_second"] = self.bits_per_second
        return result


def ddns_update_traffic_bps() -> UseCaseEstimate:
    """Global application-layer update traffic for the Dynamic DNS scenario.

    The paper's 5.5 Gbit/s figure counts each update delivered once per
    interested party (100 M users x 2 updates/day x 1 000 interested x 300 B
    x 8 / 86 400 s ≈ 5.5 Gbit/s); the 5 MoQ relays describe the distribution
    path but do not multiply the delivered volume in that arithmetic.
    """
    users, interested_per_user, updates_per_day = 100e6, 1_000.0, 2.0
    updates_per_second = users * updates_per_day / SECONDS_PER_DAY
    bits_per_second = updates_per_second * interested_per_user * (UPDATE_SIZE_BYTES * 8.0)
    return UseCaseEstimate(
        name="ddns-global-update-traffic",
        bits_per_second=bits_per_second,
        inputs=(
            ("users", users),
            ("interested_per_user", interested_per_user),
            ("updates_per_day", updates_per_day),
            ("update_size_bytes", UPDATE_SIZE_BYTES),
        ),
    )


def cdn_stub_traffic_bps(
    subscribed_domains: float = 1_000.0,
    update_size_bytes: float = UPDATE_SIZE_BYTES,
) -> UseCaseEstimate:
    """Downstream update traffic at one stub for the CDN scenario.

    Conservatively assumes every subscribed domain is updated once per
    ``CDN_UPDATE_INTERVAL_SECONDS`` (the lowest observed clustered TTL).
    """
    updates_per_second = subscribed_domains / CDN_UPDATE_INTERVAL_SECONDS
    bits_per_second = updates_per_second * update_size_bytes * 8.0
    return UseCaseEstimate(
        name="cdn-stub-update-traffic",
        bits_per_second=bits_per_second,
        inputs=(
            ("subscribed_domains", subscribed_domains),
            ("update_interval_seconds", CDN_UPDATE_INTERVAL_SECONDS),
            ("update_size_bytes", update_size_bytes),
        ),
    )


def deep_space_update_traffic_bps() -> UseCaseEstimate:
    """Update traffic towards a deep-space site with throttling.

    A fraction of domains (those with high update rates, e.g. CDN load
    balancing) is throttled down to a much longer forwarding interval, as
    §5.3 suggests, since choosing the closest CDN node is meaningless at
    interplanetary distances: 10 000 subscribed domains updated hourly, 90 %
    of them forwarded once a day.
    """
    subscribed_domains, update_interval_seconds = 10_000.0, 3_600.0
    throttled_fraction, throttled_interval_seconds = 0.9, SECONDS_PER_DAY
    unthrottled = subscribed_domains * (1.0 - throttled_fraction) / update_interval_seconds
    throttled = subscribed_domains * throttled_fraction / throttled_interval_seconds
    bits_per_second = (unthrottled + throttled) * UPDATE_SIZE_BYTES * 8.0
    return UseCaseEstimate(
        name="deep-space-update-traffic",
        bits_per_second=bits_per_second,
        inputs=(
            ("subscribed_domains", subscribed_domains),
            ("update_interval_seconds", update_interval_seconds),
            ("update_size_bytes", UPDATE_SIZE_BYTES),
            ("throttled_fraction", throttled_fraction),
            ("throttled_interval_seconds", throttled_interval_seconds),
        ),
    )
