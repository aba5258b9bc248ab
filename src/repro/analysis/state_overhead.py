"""Per-endpoint state accounting (§5.1).

DNS over UDP is stateless; DNS over MoQT requires each endpoint to hold a
QUIC connection, a MoQT session and one subscription per tracked DNS
question.  The model below turns those counts into approximate memory
figures so the state-overhead experiment can compare policies; the byte
constants are rough (order-of-magnitude) but configurable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StateModel:
    """Approximate per-item state sizes in bytes."""

    bytes_per_connection: int = 8_192
    bytes_per_session: int = 1_024
    bytes_per_subscription: int = 256
    bytes_per_cache_entry: int = 192


def endpoint_state_bytes(
    connections: int,
    sessions: int,
    subscriptions: int,
    cache_entries: int,
    model: StateModel,
) -> int:
    """Approximate state held by one endpoint."""
    if min(connections, sessions, subscriptions, cache_entries) < 0:
        raise ValueError("state counts must be non-negative")
    return (
        connections * model.bytes_per_connection
        + sessions * model.bytes_per_session
        + subscriptions * model.bytes_per_subscription
        + cache_entries * model.bytes_per_cache_entry
    )


def state_comparison(
    tracked_questions: int,
    upstream_servers: int,
    model: StateModel,
) -> dict[str, int]:
    """State of a resolver under classic DNS vs. DNS over MoQT.

    Classic DNS keeps only cache entries; DNS over MoQT additionally keeps a
    connection and session per upstream server plus a subscription per
    tracked question (§5.1).
    """
    classic = endpoint_state_bytes(0, 0, 0, cache_entries=tracked_questions, model=model)
    moqt = endpoint_state_bytes(
        connections=upstream_servers,
        sessions=upstream_servers,
        subscriptions=tracked_questions,
        cache_entries=tracked_questions,
        model=model,
    )
    return {
        "classic_bytes": classic,
        "moqt_bytes": moqt,
        "extra_bytes": moqt - classic,
        "tracked_questions": tracked_questions,
        "upstream_servers": upstream_servers,
    }
