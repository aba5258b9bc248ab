"""A query with a chosen message id, for tests that pin one on the wire."""

from __future__ import annotations

from dataclasses import replace

from repro.dns.message import Message, make_query


def query_with_id(qname, qtype, message_id: int, **flags) -> Message:
    """``make_query``'s query carrying ``message_id`` (a transport assigns one
    to an id-0 query when it sends it)."""
    query = make_query(qname, qtype, **flags)
    return replace(query, header=replace(query.header, message_id=message_id))
