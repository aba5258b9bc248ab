"""The DNS-over-MoQT forwarder (§5 of the paper).

The forwarder is the prototype's stand-in for a native MoQT stub resolver:
it runs on (or next to) the client device, accepts classic DNS-over-UDP
queries from unmodified applications and operating-system stubs, and
forwards them over MoQT to a recursive resolver.  Each distinct question
becomes a subscription, so after the first lookup the forwarder holds the
latest version of the record locally and answers subsequent queries without
any network traffic at all — the "browser can start loading immediately"
scenario of §5.2.

On top of the shared :class:`~repro.core.subscribing.SubscribingResolver` it
adds one fixed upstream, the ``on_record_updated`` listeners and a teardown
that forgets the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.mapping import DnsQuestionKey
from repro.core.session_manager import SessionManagerConfig
from repro.core.subscribing import QuestionRecord, SubscribeFetch, SubscribingResolver
from repro.core.subscription import TeardownPolicy
from repro.dns.message import Message
from repro.dns.types import DNS_UDP_PORT
from repro.moqt.objectmodel import MoqtObject
from repro.netsim.node import Host
from repro.netsim.packet import Address


@dataclass
class ForwarderConfig:
    """Behavioural knobs of the forwarder; ``listen_port`` is where
    unmodified clients send classic DNS queries."""

    listen_port: int = DNS_UDP_PORT
    upstream_timeout: float = 3.0
    session_manager: SessionManagerConfig = field(default_factory=SessionManagerConfig)


@dataclass
class ForwarderStatistics:
    """Counters kept by the forwarder."""

    client_queries: int = 0
    local_answers: int = 0
    upstream_lookups: int = 0
    pushes_received: int = 0
    failures: int = 0


class MoqForwarder(SubscribingResolver):
    """Forwards classic DNS queries over MoQT to a recursive resolver."""

    def __init__(
        self,
        host: Host,
        recursive_moqt_address: Address,
        config: ForwarderConfig | None = None,
        teardown_policy: TeardownPolicy | None = None,
    ) -> None:
        self.config = config if config is not None else ForwarderConfig()
        self.upstream_address = recursive_moqt_address
        self.statistics = ForwarderStatistics()
        #: Callbacks invoked with (key, record) whenever a pushed update arrives;
        #: applications (and the staleness experiment) can watch record changes.
        self.on_record_updated: list[Callable[[DnsQuestionKey, QuestionRecord], None]] = []
        super().__init__(host, self.config.listen_port, teardown_policy)

    @property
    def address(self) -> Address:
        """Address classic clients should query."""
        return self.udp_address

    # ---------------------------------------------------------------- lookups
    def resolve(
        self, key: DnsQuestionKey, callback: Callable[[Message | None, int], None]
    ) -> None:
        """Look a question up: from the held record, else upstream (coalesced)."""
        self.registry.record_lookup(key, self.simulator.now)
        record = self._records.get(key)
        if record is not None:
            # Subscribed questions are always up to date: answer locally.
            self.statistics.local_answers += 1
            callback(record.message, record.version)
        elif self._join_lookup(key, callback):
            self.statistics.upstream_lookups += 1
            # No ``on_response``: the recursive resolver may decline the
            # subscription (§4.5) and still answer the joining FETCH with a
            # one-shot record, so a SUBSCRIBE_ERROR decides nothing here.
            SubscribeFetch(
                self,
                self.upstream_address,
                key,
                self.config.upstream_timeout,
                partial(self._upstream_answered, key),
            )

    def _upstream_answered(
        self, key: DnsQuestionKey, message: Message | None, version: int
    ) -> None:
        if message is None:
            self.statistics.failures += 1
        else:
            self._store(key, message, version)
        self._finish_lookup(key, message, version)

    # ------------------------------------------------- the shared core's hooks
    def _handle_udp_query(self, query: Message, source: Address, respond) -> None:
        self.statistics.client_queries += 1
        super()._handle_udp_query(query, source, respond)

    _answer_client = resolve  # a classic client's lookup is a lookup

    def _pushed(self, key: DnsQuestionKey, record: QuestionRecord, obj: MoqtObject) -> None:
        for listener in self.on_record_updated:
            listener(key, record)

    def _torn_down(self, key: DnsQuestionKey) -> None:
        self._records.pop(key, None)
