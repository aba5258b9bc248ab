"""The subscribing resolver: what the forwarder, the stub and the recursive resolver share.

One :class:`QuestionRecord` per question, updated in place; one coalescer of
concurrent lookups; one SUBSCRIBE + joining-FETCH attempt under a timeout
(:class:`SubscribeFetch`, a Fig. 2 step); one ingest of the objects the
subscription pushes afterwards, through the simulation's decode memo
(:class:`AnswerMemo`, which the publishers parse track names through too);
one classic-DNS front for unmodified stubs.
What each role adds, and what is alive during a lookup and after it, is
``docs/resolvers.md``.  The rule for the latter: a finished attempt drops its
timer, its callback and the subscription's ``on_response``, so all a question
keeps on its subscription is the push handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core.encapsulation import decapsulate_response
from repro.core.errors import MappingError
from repro.core.mapping import DnsQuestionKey, question_to_track, track_to_question
from repro.core.session_manager import UpstreamSessionManager
from repro.core.subscription import SubscriptionRegistry, TeardownPolicy
from repro.dns.message import Message, make_response
from repro.dns.transport import DnsUdpEndpoint
from repro.dns.types import Rcode
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.session import FetchRequest, Subscription
from repro.moqt.track import FullTrackName
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator, Timer


@dataclass(slots=True)
class QuestionRecord:
    """What a resolver knows about one DNS question; newer answers overwrite it.

    ``subscribed``: a subscription keeps the answer current, so its TTL does
    not apply.  ``via_moqt``: ``version`` is the publisher's group ID, not a
    counter the resolver keeps itself for a classic upstream (§4.5).
    """

    key: DnsQuestionKey
    message: Message
    version: int
    updated_at: float
    subscribed: bool = True
    via_moqt: bool = True
    pushed_updates: int = 0


class AnswerMemo:
    """A role's view of its simulation's DNS decodes: answers and questions.

    A pushed answer crosses several roles (authoritative -> recursive ->
    forwarder) as the same bytes, and a question's track name crosses the
    recursive resolver and the authoritative servers as equal values.  Each
    role still runs its decode, but after the first it is a dictionary hit
    that hands back the instance the first parse produced.  ``Message`` and
    ``DnsQuestionKey`` are immutable, so sharing them is safe, and a verdict
    is a function of the input, so the malformed-input checks are kept: only
    successful decodes are stored, and a malformed payload or track name
    raises :class:`MappingError` at every role on every delivery.

    The tables are the simulation's own (:attr:`Simulator.memos`), so a
    simulation's decodes never depend on which simulations ran before it.
    Each decoded answer also remembers the object it was first decoded from
    (:meth:`received`), so a relaying role can serve those bytes instead of
    encoding the answer again.  That record is keyed by the ``Message``
    instance and goes when the answer does: a miss stores one entry in each
    of the two tables, so they fill, and are cleared, together.
    """

    __slots__ = ("_answers", "_sources", "_questions")

    def __init__(self, simulator: Simulator) -> None:
        self._answers = simulator.memos["dns.answer"]
        # id(message) -> (message, the object it was first decoded from).
        self._sources = simulator.memos["dns.source"]
        self._questions = simulator.memos["dns.question"]

    def decapsulate(self, obj: MoqtObject) -> Message:
        """:func:`decapsulate_response`, once per distinct payload."""
        payload = obj.payload
        message = self._answers.get(payload)
        if message is None:
            message = decapsulate_response(obj)
            self._answers.keep(payload, message)
            self._sources.keep(id(message), (message, obj))
        return message

    def received(self, message: Message, version: int) -> MoqtObject | None:
        """The object ``message`` was decoded from, if it is ``version``'s.

        ``None`` for an answer this memo did not decode (a §4.5 classic
        answer, an evicted one) or one first received under another group.
        """
        source = self._sources.get(id(message))
        if source is not None and source[0] is message and source[1].group_id == version:
            return source[1]
        return None

    def question(self, full_track_name: FullTrackName | None) -> DnsQuestionKey:
        """:func:`track_to_question`, once per distinct track name."""
        key = self._questions.get(full_track_name)
        if key is None:
            key = self._questions.keep(full_track_name, track_to_question(full_track_name))
        return key


class PushHandler:
    """A subscription's ``on_object`` for one question: ``resolver._on_push(key, obj)``.

    A question keeps one for each of its subscriptions for as long as it is
    subscribed, so it is one slotted object, where
    ``partial(resolver._on_push, key)`` would be four: the partial, a bound
    method, an argument tuple and an empty keyword dict.
    """

    __slots__ = ("resolver", "key")

    def __init__(self, resolver: "SubscribingResolver", key: DnsQuestionKey) -> None:
        self.resolver = resolver
        self.key = key

    def __call__(self, obj: MoqtObject) -> None:
        self.resolver._on_push(self.key, obj)  # noqa: SLF001 - its own core


class SubscribeFetch:
    """One SUBSCRIBE + joining FETCH (offset 1) for a question, under a timeout.

    ``callback(message, version)`` is called exactly once: with the decoded
    current answer and its group ID, or with ``(None, 0)`` when the FETCH
    failed, carried no DNS message or nothing came back in ``timeout`` seconds.
    ``on_response(attempt, subscription)`` is the caller's SUBSCRIBE_OK /
    SUBSCRIBE_ERROR policy (``None``: the FETCH alone decides), handed to
    ``session.subscribe``; a policy that gives up calls :meth:`finish`.
    """

    __slots__ = ("resolver", "key", "callback", "subscription", "timer")

    def __init__(
        self,
        resolver: "SubscribingResolver",
        server: Address,
        key: DnsQuestionKey,
        timeout: float,
        callback: Callable[[Message | None, int], None],
        on_response: Callable[["SubscribeFetch", Subscription], None] | None = None,
    ) -> None:
        self.resolver = resolver
        self.key = key
        self.callback: Callable[[Message | None, int], None] | None = callback
        session = resolver.sessions.get_session(server)
        self.subscription: Subscription | None = session.subscribe(
            question_to_track(key),
            on_object=PushHandler(resolver, key),
            on_response=on_response and partial(on_response, self),
        )
        session.joining_fetch(self.subscription, on_complete=self.finish)
        self.timer: Timer | None = Timer(resolver.simulator, self.finish)
        self.timer.start(timeout)

    def finish(self, fetch_request: FetchRequest | None = None) -> None:
        """End the attempt, once: with the FETCH's outcome, or (no argument) as failed."""
        callback = self.callback
        if callback is None:
            return
        self.callback = None
        self.timer.stop()
        self.timer = None
        self.subscription.on_response = None
        self.subscription = None
        message, version = None, 0
        if fetch_request is not None and fetch_request.succeeded and fetch_request.objects:
            obj = fetch_request.objects[-1]
            try:
                message = self.resolver.answers.decapsulate(obj)
            except MappingError:
                pass
            else:
                version = obj.group_id
                resolver = self.resolver
                resolver.registry.record_update(self.key, resolver.simulator.now, version)
        callback(message, version)


class SubscribingResolver:
    """Question records, lookup coalescing, push ingest and the classic front.

    ``udp_port`` is where unmodified stubs are served.  A role sets
    ``config`` (with ``session_manager``) and ``statistics`` (with ``pushes_received``) first, and provides ``resolve``
    and three hooks: ``_answer_client(key, answered)`` resolves for a classic
    client and calls ``answered(message)``; ``_pushed(key, record, obj)``
    follows up a stored push; ``_torn_down(key)`` models the unsubscribe.
    """

    def __init__(
        self, host: Host, udp_port: int, teardown_policy: TeardownPolicy | None
    ) -> None:
        self.host = host
        self.simulator = host.simulator
        # Shared with every other role of the simulation (``docs/dns-codec.md``).
        self.answers = AnswerMemo(self.simulator)
        self.registry = SubscriptionRegistry(teardown_policy)
        self.sessions = UpstreamSessionManager(host, config=self.config.session_manager)
        self._records: dict[DnsQuestionKey, QuestionRecord] = {}
        # Question -> the callbacks waiting for the one lookup in flight for it.
        self._in_flight: dict[DnsQuestionKey, list[Callable[..., None]]] = {}
        self._udp_server = DnsUdpEndpoint(host, port=udp_port, handler=self._handle_udp_query)

    # ---------------------------------------------------------------- records
    @property
    def udp_address(self) -> Address:
        """Address for classic DNS clients."""
        return self._udp_server.address

    def record(self, key: DnsQuestionKey) -> QuestionRecord | None:
        """The resolver's current record for a question, if any."""
        return self._records.get(key)

    def records(self) -> dict[DnsQuestionKey, QuestionRecord]:
        """All held records."""
        return dict(self._records)

    def flush_records(self) -> None:
        """Forget every held answer; sessions and subscriptions stay open."""
        self._records.clear()

    def state_summary(self) -> dict[str, int]:
        """State-overhead accounting (§5.1): sessions, subscriptions, records."""
        summary = self.sessions.state_summary()
        summary["tracked_questions"] = self.registry.state_size()
        summary["records"] = len(self._records)
        summary["inflight_lookups"] = len(self._in_flight)
        return summary

    def run_teardown(self) -> int:
        """Apply the teardown policy (§4.4); returns the subscriptions dropped.

        Unsubscribing is modelled by the role's :meth:`_torn_down`; the next
        lookup re-subscribes, resuming from the registry's last known group.
        """
        victims = self.registry.collect_victims(self.simulator.now)
        for victim in victims:
            self._torn_down(victim.key)
        return len(victims)

    def _store(
        self,
        key: DnsQuestionKey,
        message: Message,
        version: int,
        subscribed: bool = True,
        via_moqt: bool = True,
    ) -> QuestionRecord:
        """File an answer under its question, in the record already there if any."""
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = QuestionRecord(
                key, message, version, self.simulator.now, subscribed, via_moqt
            )
        else:
            record.message = message
            record.version = version
            record.updated_at = self.simulator.now
            record.subscribed = subscribed
            record.via_moqt = via_moqt
        return record

    # ------------------------------------------------------ lookup coalescing
    def _join_lookup(self, key: DnsQuestionKey, callback: Callable[..., None]) -> bool:
        """Wait for the lookup of ``key``; True when the caller has to start it."""
        waiters = self._in_flight.setdefault(key, [])
        waiters.append(callback)
        return len(waiters) == 1

    def _finish_lookup(self, key: DnsQuestionKey, *result: object) -> None:
        """Hand ``result`` to everyone who waited for the lookup of ``key``."""
        for callback in self._in_flight.pop(key, ()):
            callback(*result)

    # ------------------------------------------------------------ push ingest
    def _on_push(self, key: DnsQuestionKey, obj: MoqtObject) -> None:
        """The publisher pushed a new version of a subscribed question's answer."""
        self.statistics.pushes_received += 1
        try:
            message = self.answers.decapsulate(obj)
        except MappingError:
            return
        record = self._records.get(key)
        if record is not None and record.via_moqt and obj.group_id <= record.version:
            return
        record = self._store(key, message, obj.group_id)
        record.pushed_updates += 1
        self.registry.record_update(key, self.simulator.now, obj.group_id)
        self._pushed(key, record, obj)

    # ------------------------------------------------------ classic-UDP front
    def _handle_udp_query(self, query: Message, source: Address, respond) -> None:
        if not query.questions:
            respond(make_response(query, rcode=Rcode.FORMERR))
            return
        self._answer_client(
            DnsQuestionKey.from_message(query), partial(_respond, query, respond)
        )


def _respond(query: Message, respond, answer: Message | None, version: int = 0) -> None:
    """Answer a classic query with a held or just-resolved MoQT answer.

    ``version`` is only there so a ``(message, version)`` lookup callback fits.
    """
    if answer is None:
        respond(make_response(query, rcode=Rcode.SERVFAIL, recursion_available=True))
        return
    respond(
        make_response(
            query,
            answers=answer.answers,
            authorities=answer.authorities,
            additionals=answer.additionals,
            rcode=answer.rcode,
            recursion_available=True,
        )
    )
