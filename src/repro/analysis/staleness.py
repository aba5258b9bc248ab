"""Record staleness: TTL-bounded caching vs. pub/sub push (§2 and §5).

The paper's central benefit claim is that pub/sub "can considerably reduce
the time it takes for a resolver to receive the latest version of a record".
With TTL-based caching, a resolver keeps serving the old version until its
cached copy expires; in the worst case a record is as old as *the number of
caches in the lookup path multiplied by the TTL* (§1).  With pub/sub, a new
version reaches every subscribed resolver after one propagation delay per
hop.
"""

from __future__ import annotations


def expected_staleness_polling(ttl: float) -> float:
    """Expected time until a caching resolver learns about a change.

    A change happens at a time uniformly distributed within the resolver's
    current TTL window, so the resolver re-fetches after ``ttl / 2`` on
    average.
    """
    if ttl < 0:
        raise ValueError(f"TTL must be non-negative: {ttl}")
    return ttl / 2.0


def pubsub_staleness(propagation_delays: list[float]) -> float:
    """Time until a subscribed resolver has the new version.

    The update is pushed hop by hop (authoritative → recursive → stub), so
    the staleness equals the sum of the one-way delays on the path.
    """
    if any(delay < 0 for delay in propagation_delays):
        raise ValueError("propagation delays must be non-negative")
    return sum(propagation_delays)
