"""Media over QUIC Transport (MoQT), draft-ietf-moq-transport-12 subset.

The package implements the pieces of MoQT that the DNS mapping in the paper
uses:

* track naming — namespace tuples plus a track name, with the 4096-byte
  combined limit the paper's Fig. 3 mapping relies on
  (:mod:`repro.moqt.track`);
* the control-message codec over the bidirectional control stream:
  CLIENT_SETUP / SERVER_SETUP, SUBSCRIBE / SUBSCRIBE_OK / SUBSCRIBE_ERROR,
  UNSUBSCRIBE, SUBSCRIBE_DONE, FETCH (standalone and joining) / FETCH_OK /
  FETCH_ERROR / FETCH_CANCEL, ANNOUNCE / ANNOUNCE_OK, GOAWAY and
  MAX_REQUEST_ID (:mod:`repro.moqt.messages`);
* the object model — groups, subgroups and objects with status codes
  (:mod:`repro.moqt.objectmodel`) and their encodings on unidirectional
  streams and in datagrams (:mod:`repro.moqt.datastream`);
* the session state machine on top of a QUIC connection, exposing publisher
  and subscriber roles (:mod:`repro.moqt.session`);
* the receive side of one followed track — dedupe, resume point, gap FETCH
  and hold-back across a re-attach (:mod:`repro.moqt.receiver`), shared by
  relays, tree subscribers and standby origins;
* relays that aggregate subscriptions and cache objects without inspecting
  payloads (:mod:`repro.moqt.relay`), supporting the fan-out scenarios in
  §3 and §5.3 of the paper;
* the reference origin publisher — encode-once fan-out over MoQT sessions
  with a FETCH-served track cache (:mod:`repro.moqt.origin`), the root the
  relay trees and the replicated origin cluster build on.
"""

from repro.moqt.track import TrackNamespace, FullTrackName, MAX_FULL_TRACK_NAME_LENGTH
from repro.moqt.objectmodel import MoqtObject, ObjectStatus, Location
from repro.moqt.session import (
    MoqtSession,
    Subscription,
    FetchRequest,
    PublisherDelegate,
    SubscribeResult,
    FetchResult,
)
from repro.moqt.relay import MoqtRelay, RelayStatistics, RelayTrack
from repro.moqt.origin import OriginPublisher, build_origin, build_origin_endpoint
from repro.moqt.errors import MoqtError, SubscribeErrorCode, FetchErrorCode

__all__ = [
    "TrackNamespace",
    "FullTrackName",
    "MAX_FULL_TRACK_NAME_LENGTH",
    "MoqtObject",
    "ObjectStatus",
    "Location",
    "MoqtSession",
    "Subscription",
    "FetchRequest",
    "PublisherDelegate",
    "SubscribeResult",
    "FetchResult",
    "MoqtRelay",
    "RelayStatistics",
    "RelayTrack",
    "OriginPublisher",
    "build_origin",
    "build_origin_endpoint",
    "MoqtError",
    "SubscribeErrorCode",
    "FetchErrorCode",
]
