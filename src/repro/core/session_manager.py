"""Upstream QUIC/MoQT session management: reuse and 0-RTT (§5.2).

The paper's first two latency optimisations are implemented here:

* **Connection and session reuse** — the manager keeps one MoQT session per
  upstream address and hands it to every lookup that needs that server, so
  only the first lookup pays connection and session establishment.
* **0-RTT resumption** — the manager shares a single
  :class:`~repro.quic.tls.SessionTicketStore` across all connections of its
  endpoint, so re-connecting to a previously visited server sends the request
  in the first flight.

A third knob, ``alpn_version_negotiation``, models the future MoQT change of
moving version negotiation into ALPN so that requests need not wait for
SERVER_SETUP (§5.2, third optimisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.moqt.session import MoqtSession
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint


def _upstream_connection() -> ConnectionConfig:
    return ConnectionConfig(keepalive_interval=15.0, idle_timeout=60.0)


@dataclass
class SessionManagerConfig:
    """How the manager connects upstream.

    ``connection`` configures every upstream QUIC connection: MoQT's ALPN,
    keepalives every 15 s and a 60 s idle timeout unless given (a
    very-high-delay path, deep space, raises the idle timeout and seeds the
    retransmission timer with the real RTT).  It is validated when built.
    """

    connection: ConnectionConfig = field(default_factory=_upstream_connection)
    alpn_version_negotiation: bool = False


@dataclass
class SessionManagerStatistics:
    """Counters of upstream session usage."""

    sessions_created: int = 0
    sessions_reused: int = 0
    zero_rtt_attempts: int = 0
    sessions_closed: int = 0


class UpstreamSessionManager:
    """Manages MoQT client sessions to upstream servers."""

    def __init__(self, host: Host, config: SessionManagerConfig | None = None) -> None:
        self.host = host
        self.simulator = host.simulator
        self.config = config if config is not None else SessionManagerConfig()
        self.statistics = SessionManagerStatistics()
        self._endpoint = QuicEndpoint(host)
        self._sessions: dict[Address, MoqtSession] = {}

    @property
    def endpoint(self) -> QuicEndpoint:
        """The client QUIC endpoint (shared ticket store lives here)."""
        return self._endpoint

    def session_count(self) -> int:
        """Number of currently open upstream sessions."""
        return sum(1 for session in self._sessions.values() if not session.closed)

    def sessions(self) -> dict[Address, MoqtSession]:
        """All managed sessions keyed by upstream address."""
        return dict(self._sessions)

    def get_session(self, upstream: Address) -> MoqtSession:
        """Return an open session to ``upstream``, creating one if needed."""
        session = self._sessions.get(upstream)
        if session is not None and not session.closed:
            self.statistics.sessions_reused += 1
            return session
        if session is not None and session.closed:
            self.statistics.sessions_closed += 1
        session = self._create_session(upstream)
        self._sessions[upstream] = session
        return session

    def _create_session(self, upstream: Address) -> MoqtSession:
        had_ticket = self._endpoint.ticket_store.get(upstream.host, self.simulator.now) is not None
        connection = self._endpoint.connect(upstream, self.config.connection)
        if had_ticket:
            self.statistics.zero_rtt_attempts += 1
        session = MoqtSession(
            connection, is_client=True, alpn_version_negotiation=self.config.alpn_version_negotiation
        )
        self.statistics.sessions_created += 1
        return session

    def close_session(self, upstream: Address) -> bool:
        """Close the session to ``upstream`` if one exists."""
        session = self._sessions.pop(upstream, None)
        if session is None:
            return False
        if not session.closed:
            session.close("teardown")
        self.statistics.sessions_closed += 1
        return True

    def close_all(self) -> None:
        """Close every managed session."""
        for upstream in list(self._sessions):
            self.close_session(upstream)

    def state_summary(self) -> dict[str, int]:
        """State-overhead accounting used by the §5.1 experiment."""
        open_sessions = [s for s in self._sessions.values() if not s.closed]
        return {
            "open_connections": len(open_sessions),
            "open_sessions": len(open_sessions),
            "subscriptions": sum(
                1
                for session in open_sessions
                for subscription in session.subscriptions()
                if subscription.state in ("pending", "active")
            ),
        }
