"""Structural guards: one subscription record, one fan-out loop, one receiver.

An ``ast`` walk over ``src/repro`` (``docs/publishers.md``):

* ``MoqtSession.publish`` — the two-or-more-argument ``.publish(subscription,
  obj[, encoded])``, as opposed to ``TrackState.publish(obj)`` — is called from
  exactly one function, ``publish_to`` in ``moqt/session.py``;
* outside ``moqt/session.py`` no module of ``core/`` or ``moqt/`` keeps or
  consults a table keyed by ``(session, request_id)``: nothing is indexed or
  looked up by a request ID, and the pair itself is never written down — an
  accepted subscription is its record, which carries the session, and a
  deferred one (the relay's ``awaiting_upstream``) is its SUBSCRIBE message;
* outside ``moqt/receiver.py`` no module of ``moqt/`` or ``relaynet/`` carries a
  piece of the gapless-receive algorithm (``docs/failover.md``): none prunes a
  dedupe window, none puts objects in location order (``TrackState`` range
  reads in ``moqt/objectmodel.py`` aside), and none names the open FETCH range
  end except the relay's cold-cache forward in ``handle_fetch``;
* the six E11–E16 drivers stand nothing up themselves (``docs/scenarios.md``):
  none calls ``Simulator``, ``Network``, ``OriginCluster``, ``RelayTopology``,
  ``RelayTreeBuilder``, ``build_origin`` or ``collect_run``, no ``if`` tests
  the origin kind, and ``relaynet/builder.py`` defines one class;
* under ``core/`` the subscribing resolver exists once (``docs/resolvers.md``):
  one function calls ``.joining_fetch(``, one module calls
  ``decapsulate_response``, one dataclass has an ``updated_at`` field, one
  function constructs a ``DnsUdpEndpoint`` with a ``handler=``, one module
  touches the ``_in_flight`` table, one module names ``TRACK_DOES_NOT_EXIST``
  and one function is called ``_ns_key``;
* the tree subscriber has one lifecycle (``docs/failover.md`` § Receive): one
  function constructs a ``TreeSubscriber``, one opens a subscriber session
  (directly, or by calling ``_open_subscriber_session``), one sends a
  SUBSCRIBE with an answer hook under ``relaynet/``, one calls
  ``switch_upstream``, one records an orphan with an empty ``new_parent``,
  one builds the ``(load, index)`` placement key, and one places a new
  population through ``plan_leaf_assignments``;
* every tree subscriber is a real one (``docs/scaling.md``): nothing under
  ``src/repro`` defines or reads a counted-leaf name — ``multiplicity``,
  ``extra_bytes`` as an attribute (a string result key is another thing),
  ``queue_ticket_ids``, ``split_subscriber``, ``on_subscriber_split``,
  ``AggregateLeaf`` or an ``aggregate_leaves`` parameter;
* a datagram leaves through one send method, ``Link.transmit_many``
  (``docs/datagram-handoff.md``): nothing under ``src/repro`` defines a
  ``transmit`` method, ``_forward_along`` or ``_transmit_batched``, names
  ``batchable``, ``batching_enabled`` or ``note_batch_fallback``, or calls
  ``.transmit(``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only place an object is sent to a subscription.
FAN_OUT = ("moqt/session.py", "publish_to")
LOOKUPS = {"get", "pop", "setdefault", "publisher_subscription"}
#: The only home of dedupe, resume point, gap FETCH and ordered release.
RECEIVER = "moqt/receiver.py"
#: A downstream FETCH forwarded upstream as "everything so far".
COLD_FORWARD = ("moqt/relay.py", "handle_fetch")
#: The drivers whose tree is stood up and loaded by SCENARIO.
DRIVERS = [
    f"experiments/{name}.py"
    for name in (
        "relay_fanout", "relay_churn", "failure_detection",
        "origin_failover", "constrained_tiers", "flash_crowd",
    )
]
SCENARIO = "relaynet/scenario.py"
STAND_UP = {
    "Simulator", "Network", "OriginCluster", "RelayTopology",
    "RelayTreeBuilder", "build_origin", "collect_run",
}


def _identifiers(node: ast.AST) -> set[str]:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _mentions_session(names: set[str]) -> bool:
    return any(name == "session" or name.endswith("_session") for name in names)


def _by_location(call: ast.Call) -> bool:
    """Whether a ``sorted(...)`` / ``.sort(...)`` call orders by location: its
    key names one (``o.location``, ``attrgetter("location")``, ``_by_location``)."""
    return any(
        keyword.arg == "key" and "location" in ast.dump(keyword.value)
        for keyword in call.keywords
    )


def violations(source: str, path: str) -> list[str]:
    """Every offending ``path:line: why`` in one module's source."""
    found: list[str] = []
    guarded_tables = path.startswith(("core/", "moqt/")) and path != "moqt/session.py"
    guarded_receive = path.startswith(("moqt/", "relaynet/")) and path != RECEIVER

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        where = f"src/repro/{path}:{getattr(node, 'lineno', 0)}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "publish"
            and len(node.args) + len(node.keywords) >= 2
            and (path, function) != FAN_OUT
        ):
            found.append(f"{where}: MoqtSession.publish called outside publish_to (in {function})")
        if guarded_tables:
            if isinstance(node, ast.Subscript) and "request_id" in _identifiers(node.slice):
                found.append(f"{where}: table indexed by a request ID (in {function})")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOOKUPS
                and any("request_id" in _identifiers(argument) for argument in node.args)
            ):
                found.append(f"{where}: lookup by request ID via .{node.func.attr}() (in {function})")
            if isinstance(node, ast.Tuple):
                names = _identifiers(node)
                if "request_id" in names and _mentions_session(names):
                    found.append(f"{where}: (session, request_id) pair (in {function})")
        if guarded_receive:
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if callee == "prune_seen_locations":
                    found.append(f"{where}: dedupe window pruned outside the receiver (in {function})")
                if callee in ("sorted", "sort") and _by_location(node) and path != "moqt/objectmodel.py":
                    found.append(f"{where}: objects sorted by location outside the receiver (in {function})")
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id == "OPEN_RANGE_END"
                and (path, function) != COLD_FORWARD
            ):
                found.append(f"{where}: open-ended FETCH range outside the receiver (in {function})")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_one_record_one_loop():
    found: list[str] = []
    fan_out_sites = 0
    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        source = file.read_text()
        found += violations(source, path)
        if path == FAN_OUT[0]:
            # The allowed call must actually be there, or the guard guards nothing.
            fan_out_sites = len(violations(source, "elsewhere.py"))
    assert not found, "\n".join(["publisher bookkeeping crept back:", *found])
    assert fan_out_sites == 1, f"expected one fan-out call in {FAN_OUT}, found {fan_out_sites}"


def test_guard_catches_what_this_pr_removed():
    second_loop = """
def _publish_update(self, state, obj):
    for subscription in state.subscribers:
        subscription.session.publish(subscription, obj)
"""
    assert len(violations(second_loop, "core/auth_server.py")) == 1
    assert violations("def push(self, obj):\n    self.state.publish(obj)\n", "moqt/origin.py") == []

    mirrored_index = """
def handle_subscribe(self, session, message):
    self._subscriptions.setdefault(session, {})[message.request_id] = state
    state.subscribers.append((session, message.request_id))

def _forward(self, key, obj):
    for session, request_id in self._downstream[key]:
        subscription = session.publisher_subscription(request_id)
"""
    reasons = violations(mirrored_index, "core/recursive.py")
    assert [reason.split(": ")[1].split(" (")[0] for reason in reasons] == [
        "table indexed by a request ID",
        "(session, request_id) pair",
        "(session, request_id) pair",
        "lookup by request ID via .publisher_subscription()",
    ]
    assert all(reason.startswith("src/repro/core/recursive.py:") for reason in reasons)
    # The session itself owns the by-request tables.
    assert violations(mirrored_index, "moqt/session.py") == []


def test_one_receiver():
    """The receiver holds each step of the algorithm in exactly one function,
    and the relay reaches its upstream through one SUBSCRIBE site."""
    # The guard must see the allowed sites when it looks at them as a stranger.
    inside = violations((SRC / RECEIVER).read_text(), "moqt/elsewhere.py")
    sites = sorted(reason.split(": ", 1)[1] for reason in inside)
    assert sites == [
        "dedupe window pruned outside the receiver (in on_object)",
        "objects sorted by location outside the receiver (in release)",
        "objects sorted by location outside the receiver (in release)",
        "open-ended FETCH range outside the receiver (in _on_answer)",
    ]
    relay = ast.parse((SRC / COLD_FORWARD[0]).read_text())
    subscribes = [
        node.lineno
        for node in ast.walk(relay)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "subscribe"
    ]
    assert len(subscribes) == 1, f"upstream-SUBSCRIBE sites in {COLD_FORWARD[0]}: {subscribes}"


def test_guard_catches_a_second_copy_of_the_receiver():
    relay_copy = """
def _on_switch_response(self, track, subscription, resume_from, on_reattached):
    upstream.fetch(track.full_track_name, resume_from, OPEN_RANGE_END, on_complete=done)

def _on_recovery_fetched(self, track, fetch_request, session):
    for obj in sorted(fetch_request.objects, key=lambda o: o.location):
        self._deliver_upstream_object(track, obj)

def _record_forwarded(self, track, location):
    track.forwarded = prune_seen_locations(track.forwarded, track.largest_forwarded)

def release(self, deliver):
    for obj in sorted(buffered, key=attrgetter("location")):
        deliver(obj)

def handle_fetch(self, session, message, full_track_name):
    end = OPEN_RANGE_END
"""
    reasons = violations(relay_copy, "moqt/relay.py")
    assert [reason.split(": ")[1].split(" (")[0] for reason in reasons] == [
        "open-ended FETCH range outside the receiver",
        "objects sorted by location outside the receiver",
        "dedupe window pruned outside the receiver",
        "objects sorted by location outside the receiver",
    ]
    assert all(reason.startswith("src/repro/moqt/relay.py:") for reason in reasons)
    # The same shapes one layer up, where the subscriber's copy lived; there
    # the cold-cache forward is no excuse.
    assert len(violations(relay_copy, "relaynet/topology.py")) == 5
    assert violations(relay_copy, RECEIVER) == []
    # A cache range read is not a delivery order.
    cache_read = "def latest(self):\n    return sorted(self._objects.values(), key=lambda o: o.location)\n"
    assert violations(cache_read, "moqt/objectmodel.py") == []


def scaffolding(source: str, path: str) -> list[str]:
    """Every ``path:line: why`` where a module stands a tree up by hand or
    branches on how it was stood up (origin kind).  An ``if`` that only
    raises is argument validation, not a mode branch."""
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        where = f"src/repro/{path}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if callee in STAND_UP:
                found.append(f"{where}: calls {callee}")
        validation = isinstance(node, ast.If) and not node.orelse and all(
            isinstance(statement, ast.Raise) for statement in node.body
        )
        if isinstance(node, (ast.If, ast.IfExp)) and not validation:
            names = _identifiers(node.test)
            if any(name == "origins" or "cluster" in name for name in names):
                found.append(f"{where}: branches on the origin kind")
    return found


def test_drivers_stand_nothing_up():
    found = [
        reason for path in DRIVERS for reason in scaffolding((SRC / path).read_text(), path)
    ]
    assert not found, "\n".join(["tree scaffolding crept back into a driver:", *found])
    # The guard must see the real thing when it looks at the module that owns it.
    owned = {reason.split(": ", 1)[1] for reason in scaffolding((SRC / SCENARIO).read_text(), SCENARIO)}
    assert owned == {
        "calls Simulator", "calls Network", "calls OriginCluster", "calls RelayTopology",
        "calls build_origin", "branches on the origin kind",
    }
    builder = ast.parse((SRC / "relaynet/builder.py").read_text())
    classes = [node.name for node in ast.walk(builder) if isinstance(node, ast.ClassDef)]
    assert classes == ["RelayTreeBuilder"]


def test_guard_catches_a_private_stand_up():
    private_copy = """
def run_relay_churn(subscribers, seed, origins=1):
    if origins < 1:
        raise ValueError(origins)
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    origin_cluster = None
    if spec.origins > 1:
        origin_cluster = OriginCluster(network, origins=spec.origins)
    else:
        publisher = build_origin(network)
    tree = RelayTreeBuilder(network, origin, origin_cluster=origin_cluster).build(spec)
    (origin_cluster if origin_cluster is not None else publisher).push(obj)
    collect_run(MetricsRegistry(), network, tree)
"""
    reasons = scaffolding(private_copy, DRIVERS[1])
    assert sorted(reason.split(": ", 1)[1] for reason in reasons) == [
        "branches on the origin kind",
        "branches on the origin kind",
        "calls Network",
        "calls OriginCluster",
        "calls RelayTreeBuilder",
        "calls Simulator",
        "calls build_origin",
        "calls collect_run",
    ]
    assert all(reason.startswith("src/repro/experiments/relay_churn.py:") for reason in reasons)


def resolver_parts(source: str, path: str) -> list[tuple[str, str]]:
    """Every ``(part, site)`` of the subscribing resolver found in one module of
    ``core/``: the pieces the forwarder and the recursive resolver each used to
    carry a copy of.  A site is a function (``path:name``) or the module."""
    found: set[tuple[str, str]] = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            if node.name == "_ns_key":
                found.add(("_ns_key", f"{path}:{function}"))
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if callee == "joining_fetch":
                found.add(("subscribe + joining FETCH", f"{path}:{function}"))
            if callee == "decapsulate_response":
                found.add(("decapsulation", path))
            if callee == "DnsUdpEndpoint" and any(k.arg == "handler" for k in node.keywords):
                found.add(("classic-UDP front", f"{path}:{function}"))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(statement, ast.AnnAssign) and getattr(statement.target, "id", "") == "updated_at"
            for statement in node.body
        ):
            found.add(("question record", f"{path}:{node.name}"))
        if isinstance(node, ast.Attribute):
            if node.attr == "_in_flight":
                found.add(("in-flight coalescer", path))
            if node.attr == "TRACK_DOES_NOT_EXIST":
                found.add(("TRACK_DOES_NOT_EXIST answer", path))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_one_subscribing_resolver():
    sites: dict[str, list[str]] = {}
    for file in sorted((SRC / "core").glob("*.py")):
        path = file.relative_to(SRC).as_posix()
        for part, site in resolver_parts(file.read_text(), path):
            sites.setdefault(part, []).append(site)
    assert sites == {
        "subscribe + joining FETCH": ["core/subscribing.py:__init__"],
        "decapsulation": ["core/subscribing.py"],
        "question record": ["core/subscribing.py:QuestionRecord"],
        "classic-UDP front": ["core/subscribing.py:__init__"],
        "in-flight coalescer": ["core/subscribing.py"],
        "TRACK_DOES_NOT_EXIST answer": ["core/mapping.py"],
        "_ns_key": ["core/recursive.py:_ns_key"],
    }


def test_guard_catches_a_second_copy_of_the_resolver():
    forwarder_copy = """
@dataclass
class ForwarderRecord:
    key: DnsQuestionKey
    message: Message
    version: int
    updated_at: float
    pushed_updates: int = 0

class MoqForwarder:
    def __init__(self, host, recursive_moqt_address, config=None):
        self._in_flight = {}
        self._server = DnsUdpEndpoint(host, port=53, handler=self._handle_client_query)
        self._client = DnsUdpEndpoint(host)

    def _lookup_upstream(self, key, callback):
        finished = {"done": False}
        subscription = session.subscribe(track, on_object=on_push, on_response=on_sub_response)

        def on_fetch_complete(fetch_request):
            message = decapsulate_response(fetch_request.objects[-1])

        session.joining_fetch(subscription, 1, on_complete=on_fetch_complete)

    def handle_fetch(self, session, message, full_track_name):
        return FetchResult(ok=False, error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST, reason="no")

    def _ns_key(self, zone_name):
        return DnsQuestionKey(qname=zone_name, qtype=RecordType.NS)
"""
    assert resolver_parts(forwarder_copy, "core/forwarder.py") == [
        ("TRACK_DOES_NOT_EXIST answer", "core/forwarder.py"),
        ("_ns_key", "core/forwarder.py:_ns_key"),
        ("classic-UDP front", "core/forwarder.py:__init__"),
        ("decapsulation", "core/forwarder.py"),
        ("in-flight coalescer", "core/forwarder.py"),
        ("question record", "core/forwarder.py:ForwarderRecord"),
        ("subscribe + joining FETCH", "core/forwarder.py:_lookup_upstream"),
    ]


def lifecycle_parts(source: str, path: str) -> list[tuple[str, str]]:
    """Every ``(part, site)`` of the tree-subscriber lifecycle and the relay
    failover found in one module, a site being ``path:function``: the pieces
    the topology used to write once per kind of join, move or failover."""
    found: set[tuple[str, str]] = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        site = f"{path}:{function}"
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
            arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
            if callee == "TreeSubscriber":
                found.add(("subscriber constructed", site))
            if callee == "_open_subscriber_session" or (
                callee == "connect"
                and any("subscriber_connection" in _identifiers(a) for a in arguments)
            ):
                found.add(("subscriber session opened", site))
            if callee == "switch_upstream":
                found.add(("relay re-pointed", site))
            if any(
                keyword.arg == "new_parent"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value == ""
                for keyword in node.keywords
            ):
                found.add(("orphan stranded", site))
            if callee == "subscribe" and path.startswith("relaynet/") and any(
                keyword.arg == "on_response"
                and not (isinstance(keyword.value, ast.Constant) and keyword.value.value is None)
                for keyword in node.keywords
            ):
                found.add(("hooked SUBSCRIBE", site))
            if callee == "plan_leaf_assignments":
                found.add(("population placed", site))
        if (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 2
            and getattr(node.elts[0], "attr", "") == "load"
            and getattr(node.elts[1], "attr", "") == "index"
        ):
            found.add(("(load, index) key", site))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_one_subscriber_lifecycle():
    sites: dict[str, list[str]] = {}
    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        for part, site in lifecycle_parts(file.read_text(), path):
            sites.setdefault(part, []).append(site)
    assert sites == {
        "subscriber constructed": ["relaynet/topology.py:_new_subscriber"],
        "subscriber session opened": ["relaynet/topology.py:_move"],
        "hooked SUBSCRIBE": ["relaynet/topology.py:_subscribe"],
        "relay re-pointed": ["relaynet/topology.py:_repoint"],
        "orphan stranded": ["relaynet/topology.py:_strand"],
        "(load, index) key": ["relaynet/topology.py:load_order"],
        "population placed": ["relaynet/topology.py:attach_subscribers"],
    }


def test_guard_catches_a_second_copy_of_the_lifecycle():
    # The shapes the topology carried before its lifecycle was written once:
    # a subscriber made per kind of join, a session opened per kind of move,
    # a second answer hook, re-point and strand steps per failover kind, the
    # placement key per picker.
    topology_copy = """
def attach_subscribers(self, count, session_config=None, host_prefix="sub"):
    leaf = self._pick_leaf()
    session = self._open_subscriber_session(host, leaf, config)
    subscriber = TreeSubscriber(index=index, host=host, session=session, leaf=leaf)

def _storm_join(self, storm, config, host_prefix, on_object, retry, pinned_leaf=None):
    subscriber = TreeSubscriber(index=index, host=host, session=session, leaf=leaf)

def _pick_leaf(self):
    return min(candidates, key=lambda node: (node.load, node.index))

def _open_subscriber_session(self, host, leaf, config):
    connection = QuicEndpoint(host).connect(leaf.address, self.subscriber_connection)

def _reattach_subscriber(self, subscriber, new_leaf, record):
    subscriber.session = self._open_subscriber_session(subscriber.host, new_leaf, config)
    track.subscribe(subscriber.session, recover=True, on_response=mark_reattached)

def _reparent_relay(self, child, dead, event, now):
    event.records.append(FailoverRecord(kind="relay", name=name, tier=tier, new_parent="", detached_at=now))
    child.relay.switch_upstream(upstream, on_track_reattached=mark)

def report_origin_failure(self, reporter, via=""):
    node.relay.switch_upstream(self.origin, on_track_reattached=mark)

def _failover_subscriber(self, subscriber, event, now):
    event.records.append(FailoverRecord(kind="subscriber", name=name, tier=tier, new_parent="", detached_at=now))

def subscribe_track(self, full_track_name, on_object=None, on_response=None):
    return track.subscribe(self.session, on_response=on_response)
"""
    found: dict[str, list[str]] = {}
    for part, site in lifecycle_parts(topology_copy, "relaynet/topology.py"):
        found.setdefault(part, []).append(site.split(":")[1])
    assert found == {
        "subscriber constructed": ["_storm_join", "attach_subscribers"],
        "subscriber session opened": [
            "_open_subscriber_session", "_reattach_subscriber", "attach_subscribers",
        ],
        "hooked SUBSCRIBE": ["_reattach_subscriber", "subscribe_track"],
        "relay re-pointed": ["_reparent_relay", "report_origin_failure"],
        "orphan stranded": ["_failover_subscriber", "_reparent_relay"],
        "(load, index) key": ["_pick_leaf"],
    }
    # A plain SUBSCRIBE is no hook; outside relaynet/ a hook is none of its business.
    plain = "def subscribe_all(self):\n    track.subscribe(session, on_response=None)\n"
    assert lifecycle_parts(plain, "relaynet/topology.py") == []
    elsewhere = {part for part, _ in lifecycle_parts(topology_copy, "moqt/relay.py")}
    assert "hooked SUBSCRIBE" not in elsewhere


#: The counted-leaf mode: one subscriber standing in for many, the links and
#: tickets that corrected for it, and the switch that turned it on.
COUNTED_LEAF = {
    "multiplicity", "extra_bytes", "queue_ticket_ids", "split_subscriber",
    "on_subscriber_split", "AggregateLeaf", "aggregate_leaves",
}


def retired_names(source: str, path: str, retired: set[str]) -> list[str]:
    """Every ``path:line: name`` where a module defines or reads a ``retired``
    name — as a variable, attribute, function, class, parameter, keyword,
    import or ``__slots__`` entry (leading underscores ignored); a string used
    as a dict key is not a name."""
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        names: list[str | None] = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.arg, ast.keyword)):
            names = [node.arg]
        elif isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1], node.asname]
        elif isinstance(node, ast.Assign) and any(
            getattr(target, "id", "") == "__slots__" for target in node.targets
        ):
            names = [
                child.value
                for child in ast.walk(node.value)
                if isinstance(child, ast.Constant) and isinstance(child.value, str)
            ]
        for name in names:
            if name is not None and name.lstrip("_") in retired:
                found.append(f"src/repro/{path}:{getattr(node, 'lineno', 0)}: {name}")
    return found


def test_every_tree_subscriber_is_a_real_one():
    found = [
        reason
        for file in sorted(SRC.rglob("*.py"))
        for reason in retired_names(file.read_text(), file.relative_to(SRC).as_posix(), COUNTED_LEAF)
    ]
    assert not found, "\n".join(["the counted-leaf mode crept back:", *found])
    # E9's result key of the same spelling is a string, not the link attribute.
    state_overhead = (SRC / "analysis/state_overhead.py").read_text()
    assert '"extra_bytes"' in state_overhead
    assert retired_names(state_overhead, "analysis/state_overhead.py", COUNTED_LEAF) == []


def test_guard_catches_the_counted_leaf_mode():
    # The counted attach as it stood before the mode was deleted.
    parent_plan_counted = """
from repro.relaynet.aggregate import AggregateLeaf

class Link:
    __slots__ = ("_simulator", "statistics", "multiplicity", "_extra_bytes")

class RelayTopology:
    def __init__(self, network, origin, spec, aggregate_leaves=False):
        self.aggregate_leaves = aggregate_leaves
        self.on_subscriber_split = None

    def _plan_counted(self, leaves, placement, start, host_prefix):
        for leaf, indices in placed.items():
            group = None
            if len(counted) == 1:
                connecting[counted[0]] = None
            elif counted:
                group = AggregateLeaf(leaf=leaf, member_indices=counted, host_prefix=host_prefix)
                connecting[counted[0]] = group
            context = leaf.relay.server_tls
            base = context.next_ticket_id - 1
            context.queue_ticket_ids([dense_ticket[index] for index in real], base + len(indices) + 1)
        return connecting

    def split_subscriber(self, subscriber_index):
        downlink.extra_bytes = group.handshake_byte_deficit
        return subscriber.leaf.load - subscriber.multiplicity
"""
    found = retired_names(parent_plan_counted, "relaynet/topology.py", COUNTED_LEAF)
    assert all(reason.startswith("src/repro/relaynet/topology.py:") for reason in found)
    assert sorted(reason.rsplit(": ", 1)[1] for reason in found) == [
        "AggregateLeaf", "AggregateLeaf", "_extra_bytes",
        "aggregate_leaves", "aggregate_leaves", "aggregate_leaves",
        "extra_bytes", "multiplicity", "multiplicity",
        "on_subscriber_split", "queue_ticket_ids", "split_subscriber",
    ]


#: The second send path: the per-datagram send beside the link wave, the
#: switch and the opt-out that chose between them, and the transit-hop closure.
SECOND_SEND_PATH = {
    "batchable", "batching_enabled", "note_batch_fallback", "forward_along", "transmit_batched",
}


def second_send_path(source: str, path: str) -> list[str]:
    """Every ``path:line: why`` where a module brings back a send beside
    ``Link.transmit_many``: a retired name, a ``transmit`` method or a call of
    one (``_transmit`` and ``transmit_many`` are other names)."""
    found = retired_names(source, path, SECOND_SEND_PATH)
    for node in ast.walk(ast.parse(source)):
        where = f"src/repro/{path}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "transmit":
            found.append(f"{where}: def transmit")
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "transmit":
            found.append(f"{where}: .transmit(")
    return found


def test_one_send_method():
    found = [
        reason
        for file in sorted(SRC.rglob("*.py"))
        for reason in second_send_path(file.read_text(), file.relative_to(SRC).as_posix())
    ]
    assert not found, "\n".join(["a second send path crept back:", *found])
    # The guard must see the one send method when it looks for it.
    link = ast.parse((SRC / "netsim/link.py").read_text())
    (link_class,) = [node for node in link.body if isinstance(node, ast.ClassDef) and node.name == "Link"]
    methods = [node.name for node in link_class.body if isinstance(node, ast.FunctionDef)]
    assert [name for name in methods if "transmit" in name] == ["transmit_many"]


def test_guard_catches_the_second_send_path():
    # Network.route, Link.transmit_many and the transit-hop forwarder as they
    # stood while a per-datagram send ran beside the link wave.
    parent_route = """
class Link:
    __slots__ = ("_simulator", "_deliver", "batchable", "statistics")

    def transmit(self, datagram, deliver=None):
        self._simulator.call_at(arrival, self._arrive, datagram, deliver or self._deliver)

    @staticmethod
    def transmit_many(simulator, entries, batch_sink=None):
        if not all(link.batchable for link, _ in entries):
            note_batch_fallback(batch_sink)
            for link, datagram in entries:
                link.transmit(datagram)
            return
        Link._transmit_batched(simulator, entries, batch_sink)

def route(self, datagram):
    if link is not None:
        if self._batch_depth and self.batching_enabled:
            if link.batchable:
                self._batch.append((link, datagram))
            else:
                self._batch_fallback_pending = True
                link.transmit(datagram)
        else:
            link.transmit(datagram)
        return
    path = self.shortest_path(source, destination)
    self._forward_along(path, 0, datagram)

def _forward_along(self, path, index, datagram):
    link.transmit(datagram, deliver=forward)
"""
    found = second_send_path(parent_route, "netsim/network.py")
    assert all(reason.startswith("src/repro/netsim/network.py:") for reason in found)
    assert sorted(reason.rsplit(": ", 1)[1] for reason in found) == [
        ".transmit(", ".transmit(", ".transmit(", ".transmit(",
        "_forward_along", "_forward_along", "_transmit_batched",
        "batchable", "batchable", "batchable", "batching_enabled",
        "def transmit", "note_batch_fallback",
    ]
    # The one send method, and the DNS transport's own ``_transmit``, are not it.
    one_path = """
def end_batch(self):
    Link.transmit_many(self.simulator, entries, self)

def _transmit(self, message, destination):
    self._send(message, destination)
"""
    assert second_send_path(one_path, "netsim/network.py") == []
