"""DNS over MoQT — the paper's primary contribution.

This package maps the DNS onto Media over QUIC Transport and implements the
three roles of the prototype described in §5 of the paper:

* :class:`~repro.core.auth_server.MoqAuthoritativeServer` — an authoritative
  nameserver that accepts subscriptions for DNS question tracks, answers
  joining fetches with the current record version, and pushes a new MoQT
  object (group ID = zone version number) to every subscriber whenever a
  record changes (§4.2);
* :class:`~repro.core.recursive.MoqRecursiveResolver` — a recursive resolver
  that resolves names by subscribing and fetching along the delegation chain
  (Fig. 2), keeps its cache up to date from pushed objects, serves stub
  resolvers over MoQT or classic DNS, and falls back to classic DNS for
  authoritative servers that do not support MoQT (§4.5);
* :class:`~repro.core.forwarder.MoqForwarder` — a forwarder that accepts
  classic DNS queries (e.g. from an unmodified OS stub resolver on the same
  host) and forwards them over MoQT to a recursive resolver.

Supporting modules implement the resolver core the forwarder and the
recursive resolver share (:mod:`repro.core.subscribing`), the query↔track
mapping of Fig. 3 (:mod:`repro.core.mapping`), the response encapsulation of Fig. 4
(:mod:`repro.core.encapsulation`), upstream session reuse and 0-RTT
(:mod:`repro.core.session_manager`), subscription state management and
teardown policies (§4.4, :mod:`repro.core.subscription`) and the
compatibility fallbacks (§4.5, :mod:`repro.core.compatibility`).
"""

from repro.core.mapping import DnsQuestionKey, question_to_track, track_to_question
from repro.core.encapsulation import encapsulate_response, decapsulate_response
from repro.core.auth_server import MoqAuthoritativeServer
from repro.core.recursive import MoqRecursiveResolver
from repro.core.forwarder import MoqForwarder
from repro.core.session_manager import UpstreamSessionManager
from repro.core.subscription import (
    SubscriptionRegistry,
    TeardownPolicy,
    NeverTearDown,
    IdleTimeoutPolicy,
    LruBudgetPolicy,
    AdaptivePolicy,
)
from repro.core.errors import DnsMoqError, MappingError

__all__ = [
    "DnsQuestionKey",
    "question_to_track",
    "track_to_question",
    "encapsulate_response",
    "decapsulate_response",
    "MoqAuthoritativeServer",
    "MoqRecursiveResolver",
    "MoqForwarder",
    "UpstreamSessionManager",
    "SubscriptionRegistry",
    "TeardownPolicy",
    "NeverTearDown",
    "IdleTimeoutPolicy",
    "LruBudgetPolicy",
    "AdaptivePolicy",
    "DnsMoqError",
    "MappingError",
]
