"""The paper's freshness claim as an invariant over the resolver chain (§4.4, §4.5, §5).

A hypothesis ``RuleBasedStateMachine`` over ``SmallTopology`` (forwarder →
recursive resolver → root, TLD and authoritative servers).  Its steps are
zone edits at the authoritative server (a serial-bumping replace, add or
clear of an A RRset), forwarder and recursive lookups, ``run_teardown`` at
either resolver under each of the four §4.4 policies, and ``advance`` (across
record and negative TTLs).  Every rule runs the simulation until it is
quiet, and after each one:

* a subscribed record at either resolver holds what a fresh
  ``answer_question`` at the zone's current serial holds (answer and
  authority content; the SOA's serial aside, since a serial bump alone
  pushes nothing);
* no answer a lookup handed back is older than one TTL: the zone held it at
  some instant within the answer's TTL before the lookup was answered;
* each question has at most one live (pending or active) upstream
  subscription per resolver;
* the authoritative server's subscriber count equals the questions the
  recursive resolver holds subscribed against it, and the recursive
  resolver's downstream subscribers equal the questions the forwarder holds
  subscribed;
* no lookup is left in flight at either resolver.

The run is 200 examples of up to 30 steps (about 6 s).  Under
``--hypothesis-profile ci`` (``tests/conftest.py``) the examples are
derandomised: the same sequence every run.  Source mutations tried when this
file was written, each failing the machine under that profile (with
other seeds a mutant can survive: ``test_question_footprint.py`` pins each
deterministically): ``run_teardown`` not calling ``session.unsubscribe`` (the
authoritative server keeps a subscriber nothing holds); the forwarder
answering from any held record, past its TTL (an answer older than one
TTL); tearing down a question a downstream subscriber still follows (no
``_downstream`` veto: the forwarder's subscribed record misses the next
push); the recursive resolver accepting a subscription from a torn-down
record without subscribing upstream again (the same miss).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.mapping import DnsQuestionKey
from repro.core.subscription import AdaptivePolicy, IdleTimeoutPolicy, LruBudgetPolicy, NeverTearDown
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import RecordType
from repro.experiments.topology import SmallTopology, SmallTopologyConfig

TTL = 30
#: Seconds after which a rule's messages have all arrived: a cold lookup is
#: three handshakes and three SUBSCRIBE + FETCH round trips of 40 ms.
QUIET = 2.0
#: How far an answer may trail the zone: one propagation path, not a TTL.
SLACK = 0.5

WWW, MAIL = Name.from_text("www.example.com."), Name.from_text("mail.example.com.")
#: An A question for an existing name and one for a name that is NXDOMAIN
#: until an edit adds it; clearing an RRset makes either a NODATA answer.
QUESTIONS = [DnsQuestionKey(qname=name, qtype=RecordType.A) for name in (WWW, MAIL)]
#: The four §4.4 policies, each at a setting that picks a question idle for
#: the length of one step.
POLICIES = [
    NeverTearDown(), IdleTimeoutPolicy(idle_timeout=1.0), LruBudgetPolicy(budget=1), AdaptivePolicy(base_retention=1.0)
]
ROLES = st.sampled_from(["forwarder", "recursive"])
#: One rule draws every step, so hypothesis's swarm testing (which turns whole
#: rules off per example) cannot leave out the edits, lookups, teardowns or
#: waits a fault needs together.
ACTIONS = st.one_of(
    st.tuples(st.just("edit"), st.sampled_from([WWW, MAIL]), st.sampled_from([None, "192.0.2.20", "192.0.2.30"])),
    st.tuples(st.just("lookup"), ROLES, st.sampled_from(QUESTIONS)),
    st.tuples(st.just("tear_down"), ROLES, st.sampled_from(POLICIES)),
    st.tuples(st.just("advance"), st.sampled_from([5.0, TTL + 1.0, 301.0])),
)


def content(message: Message) -> tuple:
    """What a resolver answers with, the SOA's serial aside."""
    return (
        message.rcode,
        tuple(sorted(record.to_text() for record in message.answers)),
        tuple(
            sorted(
                record.to_text()
                for record in message.authorities
                if record.rdtype != RecordType.SOA
            )
        ),
    )


def ttl_of(message: Message) -> float:
    """The answer's TTL; a negative answer's is its SOA's."""
    if message.answers:
        return min(record.ttl for record in message.answers)
    return min(
        min(record.ttl, record.rdata.minimum)
        for record in message.authorities
        if record.rdtype == RecordType.SOA
    )


class FreshnessChain(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.topology = SmallTopology(SmallTopologyConfig(record_ttl=TTL))
        self.roles = {"forwarder": self.topology.forwarder, "recursive": self.topology.moqt_recursive}
        # Question -> [(since, content)]: what the zone answered, and from when.
        self.history = {key: [(0.0, self.reference(key))] for key in QUESTIONS}
        # (answered at, question, message) of every lookup not yet checked.
        self.answers: list[tuple[float, DnsQuestionKey, Message]] = []

    def reference(self, key: DnsQuestionKey) -> tuple:
        message, _ = self.topology.moqt_auth.answer_question(key)
        return content(message)

    def quiesce(self) -> None:
        self.topology.run(QUIET)

    # ------------------------------------------------------------------ rules
    @initialize()
    def warm_up(self) -> None:
        """The forwarder subscribes to the first question through the chain;
        the others start cold at both resolvers."""
        self.lookup("forwarder", QUESTIONS[0])

    @rule(action=ACTIONS)
    def step(self, action: tuple) -> None:
        getattr(self, action[0])(*action[1:])

    def edit(self, name: Name, address: str | None) -> None:
        records = [] if address is None else [ResourceRecord(name, RecordType.A, ARdata(address), TTL)]
        self.topology.auth_zone.replace_rrset(RRset(name, RecordType.A, records))
        now = self.topology.simulator.now
        for key, changes in self.history.items():
            current = self.reference(key)
            if current != changes[-1][1]:
                changes.append((now, current))
        self.quiesce()

    def lookup(self, role: str, key: DnsQuestionKey) -> None:
        simulator = self.topology.simulator
        if role == "forwarder":
            self.topology.forwarder.resolve(
                key, lambda message, version: self.answers.append((simulator.now, key, message))
            )
        else:
            self.topology.moqt_recursive.resolve(
                key, lambda outcome: self.answers.append((simulator.now, key, outcome.message))
            )
        self.quiesce()

    def tear_down(self, role: str, policy) -> None:
        self.roles[role].run_teardown(policy)
        self.quiesce()

    def advance(self, seconds: float) -> None:
        self.topology.run(seconds)

    # ------------------------------------------------------------- invariants
    @invariant()
    def subscribed_records_are_current(self) -> None:
        for role, resolver in self.roles.items():
            for key in QUESTIONS:
                record = resolver.record(key)
                if record is not None and record.subscribed:
                    assert content(record.message) == self.reference(key), (role, key)

    @invariant()
    def no_answer_is_older_than_one_ttl(self) -> None:
        for answered_at, key, message in self.answers:
            assert message is not None, (answered_at, key)
            changes = self.history[key]
            # The last instant the zone held this content (now if it still does).
            held_until = [
                changes[index + 1][0] if index + 1 < len(changes) else answered_at
                for index, (_, held) in enumerate(changes)
                if held == content(message)
            ]
            assert held_until, (answered_at, key, "never the zone's answer")
            assert max(held_until) >= answered_at - ttl_of(message) - SLACK, (answered_at, key)
        self.answers.clear()

    @invariant()
    def one_live_upstream_subscription_per_question(self) -> None:
        for role, resolver in self.roles.items():
            live = Counter(
                subscription.full_track_name
                for session in resolver.sessions.sessions().values()
                for subscription in session.subscriptions()
                if subscription.state in ("pending", "active")
            )
            assert all(count == 1 for count in live.values()), (role, live)

    @invariant()
    def publishers_hold_what_their_subscribers_hold(self) -> None:
        def subscribed(resolver) -> int:
            records = [resolver.record(key) for key in QUESTIONS]
            return sum(1 for record in records if record is not None and record.subscribed)

        forwarder, recursive = self.roles["forwarder"], self.roles["recursive"]
        assert self.topology.moqt_auth.state_summary()["subscribers"] == subscribed(recursive)
        assert recursive.state_summary()["downstream_subscribers"] == subscribed(forwarder)

    @invariant()
    def nothing_in_flight(self) -> None:
        for resolver in self.roles.values():
            assert resolver.state_summary()["inflight_lookups"] == 0


FreshnessChain.TestCase.settings = settings(max_examples=200, stateful_step_count=30, deadline=None)
TestFreshnessChain = FreshnessChain.TestCase
