"""Structural guards: one benchmark system, and src/ holds what runs.

An ``ast`` walk over the repository:

* the benchmark is ``benchmarks/e2e`` (``BENCHMARK.json``) and nothing else:
  no module under ``src/``, ``tests/``, ``examples/`` or ``benchmarks/``
  imports ``perf_fastpath`` or names ``BENCH_fastpath.json``, no CI workflow
  runs either or installs ``pytest-benchmark``, and the only Python file under
  ``benchmarks/`` outside ``e2e/`` is ``perf/ack_census.py`` (until ROADMAP
  0(g) turns its count into a metric).  The gates the retired harness ran are
  tier-1 tests; ``CHANGES.md`` maps each to its test;
* no definition under ``src/repro`` is used by nothing, and none is used by
  tests alone.  :class:`Census` says where the corpus uses every module-level
  function, class and name and every method (dunder names are the
  interpreter's): a method wherever its name appears, a module-level name only
  where it is imported from its own module and named, read off its module, or
  named in its own module; a package re-export or an ``__all__`` entry is no
  use.  The census iterates to a fixpoint: a use inside a definition it found
  does not count, so what only a test-only definition reaches is test-only
  too.  Over ``src/``, ``tests/``, ``examples/`` and ``benchmarks/`` it finds
  only ``UNREFERENCED``; over what runs (no ``tests/``, no ``test_*.py``) it
  finds only those and ``TEST_ONLY``, each entry an observer, an oracle or
  wiring a ROADMAP item adds.  Both lists are exact: an entry that gains a
  use must leave its list.

* no module under ``src/repro`` imports a name it never uses (no linter is
  installed, so this is the tool): a package ``__init__.py`` re-exports and
  a ``# noqa: F401`` line says so, and both are exempt.

* no function under ``src/repro`` writes a module-level table: a name bound
  at module level to a dict, list or set (a display, a comprehension or a
  constructor call, weak mappings included) that a function stores into,
  deletes from, or calls ``clear`` / ``pop`` / ``setdefault`` / ``update`` /
  ``append`` / ``add`` on.  Such a table is process-wide state: what one
  simulation leaves in it changes the next one.  State a run builds belongs
  to an object of the run, such as the simulator's decode memo
  (``Simulator.memos``).  Constant tables (``_DECODERS``, ``RCODES``) pass,
  because nothing writes them.

* no handler under ``src/repro/moqt`` catches ``Exception`` or
  ``BaseException`` (or is a bare ``except:``).  A MoQT session fails one way:
  the decoders raise ``ProtocolViolation`` and nothing else, and the session
  catches exactly that and closes (``docs/quic-receive.md``); a blanket
  handler would swallow a bug, or keep a chunk that failed to decode.

* every value class is compact: a frozen dataclass under ``src/repro/dns``,
  ``src/repro/moqt`` or ``src/repro/core`` is declared ``slots=True``, no
  module there uses ``cached_property`` (it needs an instance ``__dict__``;
  a derived attribute is an ``init=False`` field filled in
  ``__post_init__``), and nothing under ``src/repro`` writes an instance
  ``__dict__`` (a decoder fills slots with ``object.__setattr__``).  One
  subscribed question holds a few dozen of these values (``docs/state.md``).
  The DNS hierarchy's containers are not dataclasses, so they are named:
  ``Name``, ``RRset`` and ``Zone`` each declare ``__slots__`` (a simulated
  hierarchy holds thousands of each).

Methods go by name, so the census under-reports them: a method whose name
another class's method or attribute, or a bare name in what runs (a local,
a parameter, a builtin), shares passes.  Of 882 methods under
``src/repro``, 498 share a name (the count prints with the test).  Those
that what runs names only as a bare name are found mechanically
(:func:`bare_named_methods`); the others that tests name were checked by
hand against what runs.  What only tests reach is in ``HIDDEN_BY_NAME``.

* every option has two values in what runs: a defaulted field of a config
  dataclass, a defaulted ``__init__`` parameter, or a defaulted parameter of
  a module-level function or of a method under ``src/repro`` is passed a
  second value somewhere in ``src/``, ``examples/`` or ``benchmarks/``
  (:func:`one_valued`), or it is in ``ONE_VALUE`` with its reason:
  ``deployment``, ``peer behaviour``, the ``canary`` test that runs it at
  another value or the ``ROADMAP`` item that sets it.  Any other option with
  one value in use is a constant.  A default is a value only where a call or
  construction leaves it in place: one every call overrides is dead (drop
  it); the fields of the wire messages and values (``WIRE_MODULES``) are
  data and exempt.  A method is called by name on any object, so any call
  ``x.method(...)`` sets its parameters (by position after ``self``, from 0
  for a staticmethod), one handed on by reference has them all set, and one
  only tests reach has none.  A value forwarded through a function's
  parameter is followed to the function's callers; an attribute read is
  followed to its owner's option where the owner is evident (``self``, a
  parameter annotated with a class, a local bound to one), else linked by
  name and listed in ``LINKED_BY_NAME``.  The test prints what it cannot
  see: those by-name links, method parameters outside the census (none) and
  the wire fields every construction sets.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
CORPUS = ("src", "tests", "examples", "benchmarks")
#: What runs: the corpus without the tests.
RUNS = ("src", "examples", "benchmarks")

#: ``path::qualname`` under ``src/repro`` kept with no reference, and why.
UNREFERENCED = {
    "dns/types.py::DNSClass._missing_": "enum hook: Enum calls it for a value with no member (CLASS99)",
    "dns/types.py::RecordType._missing_": "enum hook: Enum calls it for a value with no member (TYPE99)",
    "moqt/parameters.py::SetupParameterType": "SETUP parameter keys (MAX_REQUEST_ID), for ROADMAP 3(b)",
    "moqt/parameters.py::VersionSpecificParameterType": "SUBSCRIBE / FETCH parameter keys, for ROADMAP 3(b)",
}

#: ``path::qualname`` under ``src/repro`` that only tests reach, and why:
#: ``observer`` (a read-only accessor tests assert through), ``oracle`` (a
#: closed form or reference codec tests compare the system against) or
#: ``ROADMAP n`` (wiring the open item adds).
TEST_ONLY: dict[str, str] = {
    "analysis/detection.py::DEFAULT_BACKOFF_CAP": "oracle: the PTO backoff cap suspect_latency assumes (test_failure_detection.py pins it to the transport's)",
    "analysis/detection.py::DEFAULT_SUSPECT_AFTER": "oracle: the PTOs to suspicion suspect_latency assumes (test_failure_detection.py pins it to the transport's)",
    "analysis/detection.py::suspect_latency": "oracle: the PTO suspect time test_quic_connection.py checks the connection against",
    "core/compatibility.py::CapabilityMemo.known_moqt_hosts": "observer: the hosts the memo believes speak MoQT",
    "core/compatibility.py::RefreshScheduler.refresh_counts": "observer: refreshes per question",
    "core/forwarder.py::MoqForwarder._torn_down": "ROADMAP 7(b), 8: called by run_teardown",
    "core/recursive.py::MoqRecursiveResolver._torn_down": "ROADMAP 7(b), 8: called by run_teardown",
    "core/session_manager.py::UpstreamSessionManager.session_count": "observer: open upstream sessions",
    "core/subscribing.py::SubscribingResolver.run_teardown": "ROADMAP 7(b), 8: the teardown policy no run applies yet",
    "dns/cache.py::CacheStatistics.hit_ratio": "observer: hits per lookup",
    "experiments/staleness.py::StalenessResult.mean_improvement": "observer: E7's improvement per TTL",
    "experiments/usecases.py::UseCaseResult.cdn_simulation_relative_error": "observer: E10's simulated CDN rate against the closed form",
    "moqt/origin.py::OriginPublisher.high_water": "observer: the publisher's largest location",
    "moqt/relay.py::MoqtRelay.shutdown": "ROADMAP 16: called by remove_relay",
    "moqt/relay.py::RelayTrack.upstream_subscription": "observer: the track's upstream subscription",
    "moqt/session.py::MoqtSession.goaway": "ROADMAP 16: GOAWAY that a relay acts on",
    "moqt/session.py::MoqtSession.publisher_subscriptions": "observer: the session's downstream subscriptions",
    "netsim/node.py::Host.bound_ports": "observer: ports with a handler",
    "netsim/trace.py::TraceEvent.attribute": "observer: one attribute of a trace event",
    "quic/congestion.py::NewRenoCongestionController.in_slow_start": "observer: cwnd below ssthresh",
    "quic/congestion.py::NewRenoCongestionController.ssthresh": "observer: the slow-start threshold",
    "quic/connection.py::QuicConnection.cwnd_blocked_packets": "observer: packets held by the congestion window",
    "quic/connection.py::QuicConnection.handshake_rtts": "observer: round trips before the first request",
    "quic/connection.py::QuicConnection.loss_deadline": "observer: when the probe timeout fires",
    "quic/connection.py::QuicConnection.smoothed_rtt": "observer: the RTT estimate",
    "quic/connection.py::QuicConnection.stream_reorder_backlog": "observer: peer streams held ahead of a gap",
    "quic/frames.py::decode_frames": "oracle: the frame-list codec the wire round trips run every frame through",
    "quic/frames.py::encode_frames": "oracle: the frame-list codec the wire round trips run every frame through",
    "quic/packet.py::Packet.is_ack_eliciting": "oracle: the reference receive model's ACK rule (test_quic_receive.py)",
    "relaynet/admission.py::AdmissionController.outstanding_reservations": "observer: rate-rejected sessions not yet retried",
    "relaynet/origincluster.py::ClusterOrigin.high_water": "observer: the origin's largest location",
    "relaynet/topology.py::RelayTopology._tier_index": "ROADMAP 16: called by add_relay",
    "relaynet/topology.py::RelayTopology.add_relay": "ROADMAP 16: a relay joining the running tree",
    "relaynet/topology.py::RelayTopology.alive_nodes": "observer: called by alive_relay_count",
    "relaynet/topology.py::FlashCrowdStorm.retries": "observer: retry SUBSCRIBEs the storm issued",
    "relaynet/topology.py::RelayTopology.alive_relay_count": "observer: relays in the tree",
    "relaynet/topology.py::RelayTopology.relay_count": "observer: relays ever built",
    "relaynet/topology.py::RelayTopology.remove_relay": "ROADMAP 16: the controller-driven leave GOAWAY replaces",
    "workload/toplist.py::SyntheticToplist.count_by_type": "observer: domains per record type (the Fig. 1a totals)",
}
TEST_REASON = re.compile(r"observer|oracle|ROADMAP \d+(\([a-z]\))?(, \d+(\([a-z]\))?)*")

#: Methods under ``src/repro`` that only tests reach but that the census
#: cannot see, because another definition or attribute there shares the
#: name; with ``TEST_ONLY``'s reasons.  Found by hand: every name-shared
#: method a test names, checked against a profile of what runs (the
#: runner, the examples and the five benchmark workloads) and then a grep
#: of each name's uses there.
HIDDEN_BY_NAME: dict[str, str] = {
    "analysis/usecases.py::UseCaseEstimate.as_dict": "observer: E10's estimate as a row",
    "core/auth_server.py::MoqAuthoritativeServer.zones": "observer: the zones served",
    "core/subscription.py::SubscriptionRegistry.active": "observer: the tracked subscriptions",
    "dns/cache.py::DnsCache.entries": "observer: the cache content",
    "dns/rdata.py::SVCBRdata.alpns": "observer: the ALPN ids a record advertises",
    "dns/server.py::AuthoritativeServer.zones": "observer: the zones served",
    "dns/zone.py::Zone.names": "observer: the owner names in order of first appearance",
    "experiments/compatibility.py::CompatibilityResult.outcome": "observer: one deployment scenario by mode",
    "experiments/failure_detection.py::FailureDetectionResult.gapless": "observer: every delivered sequence is gapless",
    "experiments/origin_failover.py::OriginFailoverResult.gapless": "observer: every delivered sequence is gapless",
    "experiments/query_latency.py::QueryLatencyResult.measurement": "observer: one E4 scenario by name",
    "experiments/relay_churn.py::RelayChurnResult.gapless": "observer: every delivered sequence is gapless",
    "moqt/session.py::MoqtSession.liveness": "observer: the transport's liveness state",
    "moqt/track.py::FullTrackName.encoded_length": "oracle: the MoQT track-name length the mapping tests bound",
    "netsim/trace.py::TraceEvent.as_dict": "observer: one trace event as a row",
    "netsim/trace.py::TraceRecorder.filter": "observer: the events a predicate selects",
    "netsim/trace.py::TraceRecorder.kinds": "observer: the event kinds recorded, in order of first occurrence",
    "quic/endpoint.py::QuicEndpoint.connections": "observer: every connection the endpoint has seen",
    "relaynet/topology.py::FlashCrowdStorm.join_latencies": "observer: each stormer's join latency",
}

#: A string that may be an expression naming something: a ``getattr`` name,
#: a string annotation, an ``__all__`` entry.
EXPRESSION = re.compile(r"[\w.\[\], |]+")

#: Python files under ``benchmarks/`` that are not the benchmark itself.
BENCHMARK_STRAGGLERS = ["perf/ack_census.py"]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_of(path: str) -> str:
    """``repro.a.b`` for ``path`` ``a/b.py`` (relative to ``src/repro``)."""
    parts = path.removesuffix(".py").split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts])


@lru_cache(maxsize=None)
def _nodes(source: str) -> tuple[ast.AST, ...]:
    """Every node of ``source``'s tree, the module first."""
    return tuple(ast.walk(ast.parse(source)))


def definitions(source: str, path: str) -> list[tuple[str, str, int, int, bool]]:
    """``(path::qualname, name, first line, last line, module level?)`` of
    every module-level function, class and assigned name and every method
    of ``source``.  A definition's lines include its decorators."""
    found: list[tuple[str, str, int, int, bool]] = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno, *(decorator.lineno for decorator in node.decorator_list)])
                if not _dunder(node.name):
                    found.append((f"{path}::{prefix}{node.name}", node.name, first, node.end_lineno, not prefix))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
            elif not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not _dunder(target.id):
                        found.append((f"{path}::{target.id}", target.id, node.lineno, node.end_lineno, True))

    visit(_nodes(source)[0].body, "")
    return found


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of names and attributes, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def _imports(nodes: tuple[ast.AST, ...], packages: set[str]) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """What the imports among ``nodes`` bind: ``(local dotted name -> module,
    local name -> (module, name))``.  ``packages`` are the dotted names of
    the modules under ``src/repro``."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in packages:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in packages:
                    modules[alias.asname or alias.name] = full
                elif node.module in packages:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, names


class Census:
    """Where the corpus (``path`` relative to the repository -> source) uses
    each definition under ``src/repro``.

    A method is used wherever its name is: a name, an attribute, an import,
    or inside a string that parses as an expression (``getattr`` names,
    string annotations).  A module-level name is used only where it is
    imported from its own module and then named, where its module is
    imported and the attribute read (``module.name``, ``getattr(module,
    "name")``), or where its own module names it.  An import re-exporting it
    (a package ``__init__``, a ``# noqa: F401`` line) only forwards it, and
    an ``__all__`` entry is not a use.  Docstrings do not count.
    """

    def __init__(self, corpus: dict[str, str]) -> None:
        nodes = {path: _nodes(source) for path, source in corpus.items()}
        # Dotted module -> its path relative to the repository.
        modules = {
            module_of(path.removeprefix("src/repro/")): path
            for path in corpus
            if path.startswith("src/repro/")
        }
        packages = set(modules)
        self.top = {
            module: {name for _, name, _, _, top in definitions(corpus[path], path) if top}
            for module, path in modules.items()
        }
        self.imported = {module: _imports(nodes[path], packages)[1] for module, path in modules.items()}
        #: ``name -> [(path, line)]`` and ``(module, name) -> [(path, line)]``.
        self.names: dict[str, list[tuple[str, int]]] = {}
        self.uses: dict[tuple[str, str], list[tuple[str, int]]] = {}
        for path, found in nodes.items():
            self._scan(path, found, packages)

    def origin(self, module: str, name: str) -> tuple[str, str] | None:
        """The ``(module, name)`` that defines what ``module.name`` is,
        following re-exports; ``None`` for what is defined outside."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if name in self.top.get(module, ()):
                return module, name
            forwarded = self.imported.get(module, {}).get(name)
            if forwarded is None:
                return None
            module, name = forwarded
        return None

    def _use(self, module: str, name: str, path: str, line: int) -> None:
        found = self.origin(module, name)
        if found is not None:
            self.uses.setdefault(found, []).append((path, line))

    def _scan(self, path: str, nodes: tuple[ast.AST, ...], packages: set[str]) -> None:
        own = module_of(path.removeprefix("src/repro/")) if path.startswith("src/repro/") else None
        modules, names = _imports(nodes, packages)
        skipped = set()
        for node in nodes:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                skipped.add(id(node.value))  # a docstring
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                skipped.update(id(child) for child in ast.walk(node.value))

        def refer(node: ast.AST, line: int) -> None:
            if isinstance(node, ast.Name):
                self.names.setdefault(node.id, []).append((path, line))
                if node.id in names:
                    self._use(*names[node.id], path, line)
                elif own is not None:
                    self._use(own, node.id, path, line)
            elif isinstance(node, ast.Attribute):
                self.names.setdefault(node.attr, []).append((path, line))
                module = modules.get(_dotted(node.value) or "")
                if module is not None:
                    self._use(module, node.attr, path, line)
            elif isinstance(node, ast.alias):
                self.names.setdefault(node.name.rsplit(".", 1)[-1], []).append((path, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                module = modules.get(_dotted(node.args[0]) or "")
                if module is not None:
                    self._use(module, node.args[1].value, path, line)

        for node in nodes:
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if not EXPRESSION.fullmatch(node.value):
                    continue
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for child in ast.walk(expression):
                    refer(child, node.lineno)
            else:
                refer(node, getattr(node, "lineno", 0))

    def unused(self, modules: dict[str, str], kept: Iterable[str] = ()) -> list[str]:
        """``path::qualname`` of every definition in ``modules`` (``path``
        relative to ``src/repro``) that the corpus uses nowhere but inside
        itself or inside another such definition: the census iterates to a
        fixpoint.  What a ``kept`` definition uses counts (the interpreter
        runs it).  A definition inside a found one is not listed again."""
        kept = set(kept)
        candidates = [
            (qualname, f"src/repro/{path}", module_of(path), name, first, last, top)
            for path, source in modules.items()
            for qualname, name, first, last, top in definitions(source, path)
        ]
        found: set[str] = set()
        while True:
            dead: dict[str, list[tuple[int, int]]] = {}
            for qualname, own, _, _, first, last, _ in candidates:
                if qualname in found and qualname not in kept:
                    dead.setdefault(own, []).append((first, last))
            now = set()
            for qualname, own, module, name, first, last, top in candidates:
                places = self.uses.get((module, name), ()) if top else self.names.get(name, ())
                if not any(
                    (file != own or not first <= line <= last)
                    and not any(start <= line <= end for start, end in dead.get(file, ()))
                    for file, line in places
                ):
                    now.add(qualname)
            if now == found:
                break
            found = now
        return sorted(
            qualname
            for qualname in found
            if not any(qualname.startswith(f"{outer}.") for outer in found)
        )


def _corpus(roots: tuple[str, ...]) -> dict[str, str]:
    """``path`` (relative to the repository) -> source of every Python file
    under ``roots``; outside ``tests/`` a ``test_*.py`` or ``conftest.py``
    file is a test and left out."""
    return {
        file.relative_to(REPO).as_posix(): file.read_text()
        for root in roots
        for file in sorted((REPO / root).rglob("*.py"))
        if root == "tests" or not (file.name.startswith("test_") or file.name == "conftest.py")
    }


@pytest.fixture(scope="module")
def repository():
    """``(modules under src/repro, the whole corpus, what runs)``."""
    modules = {file.relative_to(SRC).as_posix(): file.read_text() for file in sorted(SRC.rglob("*.py"))}
    return modules, _corpus(CORPUS), _corpus(RUNS)


def _exact(found: list[str], listed: dict[str, str], what: str) -> None:
    assert found == sorted(listed), "\n".join(
        [f"{what} (delete it, or list it with its reason):"]
        + [name for name in found if name not in listed]
        + ["listed but used now:"]
        + [name for name in listed if name not in found]
    )


def test_nothing_under_src_is_referenced_by_nothing(repository):
    modules, corpus, _ = repository
    found = Census(corpus).unused(modules, kept=UNREFERENCED)
    _exact(found, UNREFERENCED, "referenced by nothing (UNREFERENCED)")


def test_nothing_under_src_is_reached_only_by_tests(repository):
    modules, _, runs = repository
    found = [name for name in Census(runs).unused(modules, kept=UNREFERENCED) if name not in UNREFERENCED]
    _exact(found, TEST_ONLY, "reached only by tests (TEST_ONLY)")
    assert not [name for name, why in TEST_ONLY.items() if not TEST_REASON.fullmatch(why.split(":")[0])]
    counts: dict[str, int] = {}
    for why in TEST_ONLY.values():
        reason = why.split(":")[0]
        counts[reason] = counts.get(reason, 0) + 1
    print("TEST_ONLY by reason:", ", ".join(f"{reason} {count}" for reason, count in sorted(counts.items())))


def name_shared_methods(modules: dict[str, str], runs: dict[str, str]) -> list[str]:
    """``path::qualname`` of every method under ``src/repro`` whose name
    another definition there, an attribute assigned or declared there, or a
    bare name in what runs (a variable, a parameter, a builtin) also has:
    the census counts a use of any of them as a use of the method."""
    found = [
        (qualname, name, top)
        for path, source in modules.items()
        for qualname, name, _, _, top in definitions(source, path)
    ]
    owners: dict[str, int] = {}
    for _, name, _ in found:
        owners[name] = owners.get(name, 0) + 1
    attributes = set()
    for source in modules.values():
        for node in _nodes(source):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                attributes.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                attributes.update(
                    statement.target.id
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
                )
    for source in runs.values():
        for node in _nodes(source):
            if isinstance(node, ast.Name):
                attributes.add(node.id)
            elif isinstance(node, ast.arg):
                attributes.add(node.arg)
    return sorted(qualname for qualname, name, top in found if not top and (owners[name] > 1 or name in attributes))


def bare_named_methods(modules: dict[str, str], runs: dict[str, str]) -> list[str]:
    """Methods under ``src/repro`` that what runs names, but never as an
    attribute (``x.method``) nor in their own class body: only a bare name
    shares the method's name, so nothing that runs reaches it."""
    attributes = {node.attr for source in runs.values() for node in _nodes(source) if isinstance(node, ast.Attribute)}
    names = {node.id for source in runs.values() for node in _nodes(source) if isinstance(node, ast.Name)}
    found = []
    for path, source in modules.items():
        for node in _nodes(source):
            if not isinstance(node, ast.ClassDef):
                continue
            body = {
                name.id
                for statement in node.body
                if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                for name in ast.walk(statement)
                if isinstance(name, ast.Name)
            }
            found += [
                f"{path}::{node.name}.{method.name}"
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _dunder(method.name)
                and method.name in names - attributes - body
            ]
    return sorted(found)


def test_the_methods_the_census_cannot_see_are_counted_and_checked(repository):
    modules, corpus, runs = repository
    shared = name_shared_methods(modules, runs)
    methods = sum(not top for path, source in modules.items() for *_, top in definitions(source, path))
    print(f"methods: {methods}, {len(shared)} share a name; HIDDEN_BY_NAME {len(HIDDEN_BY_NAME)}")
    # Those only a local name in what runs shares are found mechanically.
    assert [name for name in bare_named_methods(modules, runs) if name not in HIDDEN_BY_NAME] == []
    # Each listed method is hidden, is named by a test, and has a reason.
    assert sorted(HIDDEN_BY_NAME) == [name for name in shared if name in HIDDEN_BY_NAME]
    tests = Census({path: source for path, source in corpus.items() if path not in runs})
    assert all(name.rsplit(".", 1)[1] in tests.names for name in HIDDEN_BY_NAME)
    assert not [name for name, why in HIDDEN_BY_NAME.items() if not TEST_REASON.fullmatch(why.split(":")[0])]


def test_census_catches_what_the_retired_harness_alone_called(repository):
    # E15's 100k macro (experiments/constrained_tiers.py) and one exporter,
    # abridged from the parent, where the harness was their only caller.
    parent_constrained = '''
@dataclass
class ConstrainedMacroResult:
    delivered: int
    expected: int

    @property
    def repaired(self) -> bool:
        return self.delivered == self.expected


def run_constrained_macro(subscribers=100_000, updates=5, seed=7):
    """The lossy regime at E11 macro scale."""
    run = _run_constrained_tree(_lossy_scenario(seed), subscribers, updates, drain=6.0)
    return ConstrainedMacroResult(delivered=run.delivered, expected=subscribers * updates)
'''
    parent_export = '''
def write_spans_jsonl(tracer, path):
    records = spans_to_records(tracer)
    with open(path, "w", encoding="utf-8") as stream:
        _write_jsonl(stream, records)
    return len(records)


def _write_jsonl(stream, records):
    for record in records:
        stream.write(json.dumps(record, separators=(",", ":")))
'''
    modules = {
        "experiments/constrained_macro.py": parent_constrained,
        "telemetry/export.py": parent_export,
    }
    _, _, runs = repository
    planted = {**runs, **{f"src/repro/{path}": source for path, source in modules.items()}}
    # The result class and the writer's helper are reached only from the
    # two: the census iterates to a fixpoint and catches them too.
    assert Census(planted).unused(modules) == [
        "experiments/constrained_macro.py::ConstrainedMacroResult",
        "experiments/constrained_macro.py::run_constrained_macro",
        "telemetry/export.py::_write_jsonl",
        "telemetry/export.py::write_spans_jsonl",
    ]
    # A name read through ``getattr`` on its module, or imported and named
    # in a string annotation, is used.
    hooked = (
        "from repro.telemetry import export\n"
        "from repro.experiments.constrained_macro import run_constrained_macro\n"
        'handler = getattr(export, "write_spans_jsonl", None)\n'
        'macro: "run_constrained_macro | None"\n'
    )
    assert Census({**planted, "src/repro/hooks.py": hooked}).unused(modules) == []


def test_census_follows_imports_and_iterates(repository):
    # netsim/stats.py and its package as they stood before the census
    # followed imports, abridged.  ``Counter`` is re-exported by the package
    # alone and shares its name with telemetry.metrics.Counter; ``histogram``
    # shares its name with MetricsRegistry.histogram; ``_bins`` is reached
    # only from ``histogram``.  The name-based census passed all three.
    # ``SummaryStatistics`` is imported from its module and used
    # (measurement/change_rate.py).
    parent_stats = '''
class Counter:
    """A named group of integer counters."""


class SummaryStatistics:
    def __init__(self, samples=()):
        self.samples = list(samples)


def histogram(samples, bins):
    counts = _bins(bins)
    for sample in samples:
        counts[sample] += 1
    return counts


def _bins(bins):
    return {value: 0 for value in bins}
'''
    parent_package = '''
from repro.netsim.stats import Counter, SummaryStatistics

__all__ = ["Counter", "SummaryStatistics"]
'''
    modules = {"netsim/stats.py": parent_stats}
    _, _, runs = repository
    planted = {**runs, "src/repro/netsim/stats.py": parent_stats, "src/repro/netsim/__init__.py": parent_package}
    assert Census(planted).unused(modules) == [
        "netsim/stats.py::Counter",
        "netsim/stats.py::_bins",
        "netsim/stats.py::histogram",
    ]
    # Imported through the package and named, or read as an attribute of
    # its module, a definition is used, and so is what it reaches.
    through = (
        "from repro.netsim import Counter\n"
        "import repro.netsim.stats as stats\n"
        "COUNTS = Counter()\n"
        "TABLE = stats.histogram([], [])\n"
    )
    assert Census({**planted, "src/repro/uses.py": through}).unused(modules) == []


# ------------------------------------------------------------ one-valued options
#: ``path::Class.field``, ``path::Class(parameter)`` or
#: ``path::function(parameter)`` under ``src/repro`` that what runs passes no
#: second value (or, for a function, always passes: its default is dead), and
#: why it stays an option: ``deployment`` (a port, host or address), ``peer
#: behaviour`` (the other value makes this program act as a peer the code
#: must still handle), ``canary: <test files>`` (a Ground-rules canary runs
#: at a value what runs never passes) or ``ROADMAP n`` (the open item that
#: sets it).
ONE_VALUE: dict[str, str] = {
    "analysis/state_overhead.py::StateModel.bytes_per_cache_entry": "ROADMAP 8: E9's guessed byte costs, which leave src/ when E9 is measured",
    "analysis/state_overhead.py::StateModel.bytes_per_connection": "ROADMAP 8: E9's guessed byte costs, which leave src/ when E9 is measured",
    "analysis/state_overhead.py::StateModel.bytes_per_session": "ROADMAP 8: E9's guessed byte costs, which leave src/ when E9 is measured",
    "analysis/state_overhead.py::StateModel.bytes_per_subscription": "ROADMAP 8: E9's guessed byte costs, which leave src/ when E9 is measured",
    "core/auth_server.py::MoqAuthoritativeServer(port)": "deployment: the MoQT port",
    "core/forwarder.py::ForwarderConfig.listen_port": "deployment: the classic DNS port",
    "core/forwarder.py::MoqForwarder(teardown_policy)": "ROADMAP 7(b), 8: the teardown policy no run applies yet",
    "core/recursive.py::MoqRecursiveResolver(teardown_policy)": "ROADMAP 7(b), 8: the teardown policy no run applies yet",
    "core/recursive.py::ResolverConfig.moqt_port": "deployment: the MoQT port",
    "core/recursive.py::ResolverConfig.udp_port": "deployment: the classic DNS port",
    "core/subscription.py::AdaptivePolicy(base_retention)": "ROADMAP 8: a teardown policy's parameter, which E9 on the running system sweeps",
    "core/subscription.py::AdaptivePolicy(cap)": "ROADMAP 8: a teardown policy's parameter, which E9 on the running system sweeps",
    "core/subscription.py::IdleTimeoutPolicy(idle_timeout)": "ROADMAP 8: a teardown policy's parameter, which E9 on the running system sweeps",
    "dns/rr.py::RRset(rdclass)": "peer behaviour: a record from the wire carries its own class",
    "dns/rr.py::ResourceRecord.rdclass": "peer behaviour: a record from the wire carries its own class (the decoder fills it)",
    "dns/server.py::AuthoritativeServer(port)": "deployment: the classic DNS port",
    "experiments/failure_detection.py::run_failure_detection(edge_per_mid)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the 4 x 4 tree of the 1k default run and the 200-subscriber run",
    "experiments/failure_detection.py::run_failure_detection(keepalive_interval)": "ROADMAP 21: E13's detection latency over the keepalive",
    "experiments/failure_detection.py::run_failure_detection(mid_relays)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the 4 x 4 tree of the 1k default run and the 200-subscriber run",
    "experiments/failure_detection.py::run_failure_detection(origins)": "canary: tests/test_origin_failover.py: the replication canary's idle standby",
    "experiments/failure_detection.py::run_failure_detection(subscriber_idle_timeout)": "ROADMAP 21: E13's detection latency over the idle timeout (test_failure_detection.py sweeps it)",
    "experiments/failure_detection.py::run_failure_detection(subscribers)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the 1k default run and the 200-subscriber run",
    "experiments/failure_detection.py::run_failure_detection(updates_after)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the default run's updates",
    "experiments/failure_detection.py::run_failure_detection(updates_before)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the default run's updates",
    "experiments/failure_detection.py::run_failure_detection(updates_between)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the default run's updates",
    "experiments/flash_crowd.py::run_flash_crowd(bucket_depth)": "ROADMAP 21: E16's admission schedule over the bucket depth (test_admission.py sweeps it)",
    "experiments/flash_crowd.py::run_flash_crowd(stormers)": "ROADMAP 21: E16's admission schedule over the storm size (test_admission.py sweeps it)",
    "experiments/flash_crowd.py::run_flash_crowd(subscribe_rate)": "ROADMAP 21: E16's admission schedule over the rate (test_admission.py sweeps it)",
    "experiments/origin_failover.py::run_origin_failover(edge_per_mid)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the 4 x 4 tree of the 1k default run and the 200-subscriber run",
    "experiments/origin_failover.py::run_origin_failover(mid_relays)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the 4 x 4 tree of the 1k default run and the 200-subscriber run",
    "experiments/origin_failover.py::run_origin_failover(subscribers)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the 1k default run and the 200-subscriber run",
    "experiments/origin_failover.py::run_origin_failover(updates_after)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the default run's updates",
    "experiments/origin_failover.py::run_origin_failover(updates_before)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the default run's updates",
    "experiments/origin_failover.py::run_origin_failover(updates_between)": "canary: tests/test_dense_tree.py, tests/test_telemetry.py: the default run's updates",
    "experiments/query_latency.py::run_query_latency(upstream_rtt)": "ROADMAP 21: E4's latencies over the upstream RTT (test_experiments.py sweeps it)",
    "experiments/relay_churn.py::run_relay_churn(edge_per_mid)": "canary: tests/test_dense_tree.py: the 4 x 4 tree of the 1k default run",
    "experiments/relay_churn.py::run_relay_churn(mid_relays)": "canary: tests/test_dense_tree.py: the 4 x 4 tree of the 1k default run",
    "experiments/relay_churn.py::run_relay_churn(origins)": "canary: tests/test_origin_failover.py: the replication canary's idle standby",
    "experiments/relay_churn.py::run_relay_churn(subscribers)": "canary: tests/test_dense_tree.py: the 1k default run",
    "experiments/relay_churn.py::run_relay_churn(updates_after)": "canary: tests/test_dense_tree.py: the default run's updates",
    "experiments/relay_churn.py::run_relay_churn(updates_before)": "canary: tests/test_dense_tree.py: the default run's updates",
    "experiments/relay_churn.py::run_relay_churn(updates_between)": "canary: tests/test_dense_tree.py: the default run's updates",
    "experiments/relay_fanout.py::FanoutSample.link_batch_fallback_waves": "ROADMAP 0(a): the constant 0 E11 prints goes with the benchmark's read of it",
    "experiments/relay_fanout.py::TreeRun.link_batch_fallback_waves": "ROADMAP 0(a): the constant 0 E11 prints goes with the benchmark's read of it",
    "experiments/relay_fanout.py::run_relay_fanout(origins)": "canary: tests/test_origin_failover.py: the replication canary's idle standby",
    "experiments/topology.py::build_workload_topology(seed)": "ROADMAP 0: benchmarks/e2e passes the workload's seed",
    "experiments/topology.py::build_workload_topology(stub_rtt)": "ROADMAP 0: benchmarks/e2e passes the workload's RTTs",
    "experiments/topology.py::build_workload_topology(upstream_rtt)": "ROADMAP 0: benchmarks/e2e passes the workload's RTTs",
    "moqt/origin.py::OriginPublisher(track)": "deployment: the name the track is published at",
    "moqt/origin.py::build_origin_endpoint(port)": "deployment: the origins' port",
    "netsim/packet.py::Datagram.protocol": "canary: tests/test_megafan.py, tests/test_constrained_batch.py: the delivery canary and the constrained equivalence send bare datagrams, labelled with the default",
    "netsim/simulator.py::Simulator(seed)": "canary: tests/test_fastpath.py, tests/test_megafan.py: the determinism pins and the delivery canary run at the default seed",
    "quic/tls.py::ServerTlsContext.accept_early_data": "peer behaviour: a server that refuses 0-RTT",
    "quic/tls.py::SessionTicket.lifetime": "peer behaviour: a server whose tickets expire",
    "relaynet/admission.py::AdmissionPolicy.bucket_depth": "canary: tests/test_admission.py: admission on/off identity runs the unlimited AdmissionPolicy()",
    "relaynet/admission.py::AdmissionPolicy.max_pending_subscribes": "ROADMAP 3(c): the pending-subscribe cap 3(c) makes binding",
    "relaynet/admission.py::AdmissionPolicy.queue_retry_after": "ROADMAP 3(c): the hint the pending-subscribe cap quotes",
    "relaynet/admission.py::AdmissionPolicy.subscribe_rate": "canary: tests/test_admission.py: admission on/off identity runs the unlimited AdmissionPolicy()",
    "relaynet/origincluster.py::OriginCluster(host)": "deployment: the active origin's host",
    "relaynet/origincluster.py::OriginCluster(port)": "deployment: the origins' port",
    "relaynet/origincluster.py::OriginCluster(track)": "deployment: the name the track is published at",
    "relaynet/spec.py::RelayTreeSpec.host_prefix": "deployment: the relays' host names",
    "relaynet/topology.py::RelayTopology(port)": "deployment: the relays' port",
    "relaynet/topology.py::RelayTopology.flash_crowd(on_object)": "ROADMAP 4(c): E17's generator checks that every stormer's delivery is gapless (test_subscriber_lifecycle.py records it)",
}
ONE_VALUE_REASON = re.compile(r"deployment|peer behaviour|canary|ROADMAP \d+(\([a-z]\))?(, \d+(\([a-z]\))?)*")


def _callee(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _dataclass(node: ast.ClassDef) -> str | None:
    """``"frozen"`` or ``"dataclass"`` for a dataclass, else ``None``."""
    for decorator in node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        if _callee(call.func if call else decorator) == "dataclass":
            frozen = call and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in call.keywords)
            return "frozen" if frozen else "dataclass"
    return None


def _fields(node: ast.ClassDef) -> list[tuple[str, ast.expr | None]]:
    """``(name, default)`` of each ``__init__`` field of a dataclass, in
    order; the default is the ``field(default=...)`` or ``default_factory``
    expression, ``None`` when there is none."""
    found = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign) or not isinstance(statement.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        default = statement.value
        if isinstance(default, ast.Call) and _callee(default.func) == "field":
            keywords = {keyword.arg: keyword.value for keyword in default.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            default = keywords.get("default", keywords.get("default_factory"))
        found.append((statement.target.id, default))
    return found


class Option:
    """One defaulted field, ``__init__`` parameter, module-level function
    parameter or method parameter: where it is, and the class, function or
    method whose call sets it (a method's owner is ``.name``: any call
    ``x.name(...)`` sets it)."""

    def __init__(
        self, qualname: str, owner: str, name: str, position: int | None, default: ast.expr, function: bool = False
    ) -> None:
        self.qualname = qualname
        self.owner = owner
        self.name = name
        self.position = position
        self.default = default
        self.field = "(" not in qualname
        self.method = owner.startswith(".")
        self.function = function


def _defaulted(arguments: ast.arguments, first: int = 0) -> list[tuple[str, int | None, ast.expr]]:
    """``(name, position, default)`` of each defaulted parameter; positions
    count from ``first`` (``-1`` skips ``self``), a keyword-only one has none."""
    positional = arguments.posonlyargs + arguments.args
    defaults = [None] * (len(positional) - len(arguments.defaults)) + list(arguments.defaults)
    return [
        (argument.arg, position + first, default)
        for position, (argument, default) in enumerate(zip(positional, defaults))
        if default is not None
    ] + [(argument.arg, None, default) for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults) if default]


def options(modules: dict[str, str]) -> list[Option]:
    """Every option under ``src/repro`` (``path`` relative to it -> source).

    An option is a defaulted field of a dataclass whose public fields are
    never assigned after construction (``self.field = ...`` in one of its
    own methods other than ``__post_init__``, or ``anything.field = ...``
    outside the class: a counter or a state record is not configured), or
    a defaulted ``__init__`` parameter.  A field named ``_...`` is the
    object's own state, never an option.  So is a defaulted parameter of a
    module-level function, owned by the function, and one of a method other
    than ``__init__``, owned by every call of the method's name, unless only
    tests reach the method (``TEST_ONLY``, ``HIDDEN_BY_NAME``).
    """
    trees = {path: _nodes(source) for path, source in modules.items()}
    tested = {*TEST_ONLY, *HIDDEN_BY_NAME}
    stored: set[str] = set()
    own: dict[str, set[str]] = {}
    for nodes in trees.values():
        for node in nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name != "__post_init__":
                    own.setdefault(node.name, set()).update(
                        target.attr
                        for target in ast.walk(method)
                        if isinstance(target, ast.Attribute)
                        and isinstance(target.ctx, ast.Store)
                        and getattr(target.value, "id", None) == "self"
                    )
        stored.update(
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) != "self"
        )
    found = []
    for path, nodes in trees.items():
        for node in nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            kind = _dataclass(node)
            if kind:
                fields = _fields(node)
                public = {name for name, _ in fields if not name.startswith("_")}
                if kind == "frozen" or not public & (stored | own.get(node.name, set())):
                    found += [
                        Option(f"{path}::{node.name}.{name}", node.name, name, position, default)
                        for position, (name, default) in enumerate(fields)
                        if default is not None and not name.startswith("_")
                    ]
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or f"{path}::{node.name}.{method.name}" in tested:
                    continue
                if method.name == "__init__":
                    found += [
                        Option(f"{path}::{node.name}({name})", node.name, name, position, default)
                        for name, position, default in _defaulted(method.args, -1)
                    ]
                    continue
                static = any(_callee(decorator) == "staticmethod" for decorator in method.decorator_list)
                found += [
                    Option(f"{path}::{node.name}.{method.name}({name})", f".{method.name}", name, position, default)
                    for name, position, default in _defaulted(method.args, 0 if static else -1)
                ]
        for function in nodes[0].body:
            if isinstance(function, ast.FunctionDef):
                found += [
                    Option(f"{path}::{function.name}({name})", function.name, name, position, default, True)
                    for name, position, default in _defaulted(function.args)
                ]
    return found


#: What a call passes an option: the expression, or ``None`` for a value the
#: census cannot read (``*args``, ``**`` of a table it cannot see into).
Passed = tuple[str, "ast.expr | None"]


def _scopes(nodes: tuple[ast.AST, ...]) -> dict[int, tuple[ast.ClassDef | None, ast.FunctionDef | None]]:
    """``id(node) -> (innermost class, innermost function)`` around it."""
    scopes: dict[int, tuple[ast.ClassDef | None, ast.FunctionDef | None]] = {}

    def visit(node: ast.AST, cls: ast.ClassDef | None, function: ast.FunctionDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            scopes[id(child)] = (cls, function)
            if isinstance(child, ast.ClassDef):
                visit(child, child, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child)
            else:
                visit(child, cls, function)

    visit(nodes[0], None, None)
    return scopes


def _passed(
    node: ast.Call, function: ast.FunctionDef | None, tree: ast.AST
) -> tuple[list[Passed], ast.expr | None]:
    """What ``node`` passes by keyword (``name``) and by position (``"0"``,
    ...; ``"*n"`` for a ``*`` argument at ``n``), and the one ``**``
    argument the census could not read into, if any.  A ``**`` of a dict
    display, or of a name ``function`` binds only to dict displays, is
    read.  So is a ``**`` of a comprehension over ``fields(...)`` (a copy
    or a delta of an instance's own values, ``TierStats.delta``): it passes
    each field nothing the fields do not already hold, so nothing."""
    passed: list[Passed] = []
    unread = None
    for keyword in node.keywords:
        if keyword.arg is not None:
            passed.append((keyword.arg, keyword.value))
            continue
        table = keyword.value
        if isinstance(table, ast.Name):
            bound = [
                statement.value
                for statement in ast.walk(function or tree)
                if isinstance(statement, ast.Assign)
                and any(getattr(target, "id", None) == table.id for target in statement.targets)
            ]
            if bound:
                table = bound
        tables = table if isinstance(table, list) else [table]
        if all(isinstance(one, ast.Dict) and all(isinstance(key, ast.Constant) for key in one.keys) for one in tables):
            passed.extend((key.value, value) for one in tables for key, value in zip(one.keys, one.values))
        elif not all(
            isinstance(one, ast.DictComp)
            and all(isinstance(loop.iter, ast.Call) and _callee(loop.iter.func) == "fields" for loop in one.generators)
            for one in tables
        ):
            unread = keyword.value
    for position, argument in enumerate(node.args):
        if isinstance(argument, ast.Starred):
            passed.append((f"*{position}", None))
            break
        passed.append((str(position), argument))
    return passed, unread


def passed_values(
    runs: dict[str, str], owners: set[str]
) -> tuple[dict[str, list[list[Passed]]], dict[str, list[Passed]]]:
    """What the corpus ``runs`` passes each class or function in ``owners``
    at each call, and each field through ``dataclasses.replace``: ``(owner
    -> [[(keyword or position, expression)] per call], field -> [...])``.

    A call counts when its callee is named like the class (``Class(...)``,
    ``module.Class(...)``, a bare ``field(default_factory=Class)``), when it
    is ``cls(...)`` in a classmethod or
    ``type(self)(...)`` inside the class, or ``super().__init__(...)`` in a
    subclass.  Two shapes are followed to the class they reach: a function
    that calls a class its caller passes it (``_get(Counter, ...)`` calling
    ``cls(name, ...)``), and a ``**`` argument that forwards the enclosing
    function's ``**`` parameter (directly, or kept as ``self.attribute`` by
    ``__init__``): what the function's callers pass it is passed on.  Any
    other ``**`` passes every option of the class a value the census cannot
    read.
    """
    constructed: dict[str, list[list[Passed]]] = {}
    replaced: dict[str, list[Passed]] = {}
    #: function or class name -> the classes its ``**`` parameter reaches.
    forwards: dict[str, list[str]] = {}
    #: function name -> [(the class parameter's position, the call, its scope)].
    chosen: dict[str, list[tuple[int, ast.Call, ast.FunctionDef]]] = {}
    every: list[tuple[ast.Call, ast.FunctionDef | None, ast.AST]] = []
    for source in runs.values():
        nodes = _nodes(source)
        scopes = _scopes(nodes)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            cls, function = scopes[id(node)]
            every.append((node, function, nodes[0]))
            if _callee(node.func) == "field":
                # ``field(default_factory=Class)`` constructs the class bare.
                factory = next((k.value for k in node.keywords if k.arg == "default_factory"), None)
                if isinstance(factory, (ast.Name, ast.Attribute)) and _callee(factory) in owners:
                    constructed.setdefault(_callee(factory), []).append([])
            if isinstance(node.func, ast.Attribute) and f".{node.func.attr}" in owners:
                passed, unread = _passed(node, function, nodes[0])
                if unread is not None:
                    passed.append(("**", None))
                constructed.setdefault(f".{node.func.attr}", []).append(passed)
            callee = _callee(node.func)
            parameters = [argument.arg for argument in function.args.args] if function else []
            classmethod_ = bool(function) and any(
                _callee(decorator) == "classmethod" for decorator in function.decorator_list
            )
            if isinstance(node.func, ast.Name) and callee in parameters and not (callee == "cls" and classmethod_):
                chosen.setdefault(function.name, []).append((parameters.index(callee), node, function))
                continue
            if callee == "cls" and cls is not None:
                callee = cls.name
            elif isinstance(node.func, ast.Call) and _callee(node.func.func) == "type" and cls is not None:
                callee = cls.name
            elif (
                callee == "__init__"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _callee(node.func.value.func) == "super"
                and cls is not None
                and cls.bases
            ):
                callee = _callee(cls.bases[0])
            if callee != "replace" and callee not in owners:
                continue
            passed, unread = _passed(node, function, nodes[0])
            if unread is not None:
                forwarded, scope = getattr(unread, "id", None), function
                if isinstance(unread, ast.Attribute) and getattr(unread.value, "id", None) == "self" and cls:
                    scope = next((item for item in cls.body if getattr(item, "name", None) == "__init__"), None)
                    kept = [
                        statement.value.id
                        for statement in ast.walk(scope or cls)
                        if isinstance(statement, ast.Assign)
                        and isinstance(statement.value, ast.Name)
                        and any(_dotted(target) == _dotted(unread) for target in statement.targets)
                    ]
                    forwarded = kept[0] if kept else None
                if scope is not None and scope.args.kwarg and forwarded == scope.args.kwarg.arg:
                    name = cls.name if scope.name == "__init__" and cls is not None else scope.name
                    forwards.setdefault(name, []).append(callee)
                else:
                    passed.append(("**", None))
            if callee == "replace":
                for key, value in passed:
                    replaced.setdefault(key, []).append((key, value))
            else:
                constructed.setdefault(callee, []).append(passed)
    for node, function, tree in every:
        name = _callee(node.func) or ""
        # Keywords given to a forwarder reach the class it forwards to.
        for target in forwards.get(name, ()):
            constructed.setdefault(target, []).append(
                [(key, value) for key, value in _passed(node, function, tree)[0] if not key[0].isdigit()]
            )
        # A class handed to a function that constructs it.
        for position, call, scope in chosen.get(name, ()):
            offset = 1 if isinstance(node.func, ast.Attribute) and scope.args.args[0].arg == "self" else 0
            if position - offset < len(node.args):
                target = _callee(node.args[position - offset])
                if target in owners:
                    constructed.setdefault(target, []).append(_passed(call, scope, tree)[0])
    return constructed, replaced


def _number(node: ast.expr) -> int | float | None:
    """The value of a numeric literal (``7``, ``7.0``, ``-7``), else ``None``."""
    negative = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    operand = node.operand if negative else node
    if isinstance(operand, ast.Constant) and type(operand.value) in (int, float):
        return -operand.value if negative else operand.value
    return None


def spelling(runs: dict[str, str]):
    """``spell(expression) -> str``: what the option census compares a
    passed value with a default by.  A numeric literal is its number, so
    ``7`` and ``7.0`` are one value; a module constant (a name bound once at
    the top of a module of what runs, read in that module, imported from it
    or read off it, and not a local) is its value's spelling, so
    ``seed=SEED`` with ``SEED = 7`` is ``seed=7``; anything else is its
    ``ast.dump``."""
    packages = {module_of(path.removeprefix("src/repro/")): path for path in runs if path.startswith("src/repro/")}
    dotted = set(packages)
    where: dict[int, str] = {}
    scopes: dict[int, tuple[ast.ClassDef | None, ast.FunctionDef | None]] = {}
    constants: dict[str, dict[str, ast.expr]] = {}
    imports: dict[str, tuple[dict[str, str], dict[str, tuple[str, str]]]] = {}
    for path, source in runs.items():
        nodes = _nodes(source)
        found = _scopes(nodes)
        scopes.update(found)
        where.update(dict.fromkeys(found, path))
        bound = [
            (target.id, statement.value)
            for statement in nodes[0].body
            if isinstance(statement, (ast.Assign, ast.AnnAssign)) and statement.value is not None
            for target in (statement.targets if isinstance(statement, ast.Assign) else [statement.target])
            if isinstance(target, ast.Name)
        ]
        once = [name for name, _ in bound]
        constants[path] = {name: value for name, value in bound if once.count(name) == 1}
        imports[path] = _imports(nodes, dotted)

    @lru_cache(maxsize=None)
    def local(function: ast.FunctionDef) -> set[str]:
        return {argument.arg for argument in ast.walk(function.args) if isinstance(argument, ast.arg)} | {
            name.id for name in ast.walk(function) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        }

    def constant(node: ast.expr) -> ast.expr | None:
        head = node.value if isinstance(node, ast.Attribute) else node
        if not isinstance(head, ast.Name) or id(head) not in where:
            return None
        path, function = where[id(head)], scopes[id(head)][1]
        if function is not None and head.id in local(function):
            return None
        modules, names = imports[path]
        if isinstance(node, ast.Attribute):
            module = modules.get(head.id)
            return constants.get(packages.get(module, ""), {}).get(node.attr)
        if head.id in constants[path]:
            return constants[path][head.id]
        module, name = names.get(head.id, ("", ""))
        return constants.get(packages.get(module, ""), {}).get(name)

    def spell(node: ast.expr, depth: int = 0) -> str:
        number = _number(node)
        if number is not None:
            try:
                return f"number {float(number)!r}" if float(number) == number else f"number {number!r}"
            except OverflowError:
                return f"number {number!r}"
        value = constant(node) if depth < 8 else None
        return ast.dump(node) if value is None else spell(value, depth + 1)

    return spell


def _annotated(annotation: ast.expr | None, classes: set[str]) -> str | None:
    """The class under ``src/repro`` an annotation names (``Foo``,
    ``"Foo"``, ``Foo | None``, ``Optional[Foo]``), else ``None``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [side for side in (annotation.left, annotation.right) if getattr(side, "value", 0) is not None]
        return _annotated(sides[0], classes) if len(sides) == 1 else None
    if isinstance(annotation, ast.Subscript) and _callee(annotation.value) == "Optional":
        return _annotated(annotation.slice, classes)
    name = _callee(annotation) if isinstance(annotation, (ast.Name, ast.Attribute)) else None
    return name if name in classes else None


def attribute_classes(modules: dict[str, str]) -> tuple[set[str], dict[tuple[str, str], str]]:
    """``(class names under src/repro, (class, attribute) -> the class the
    attribute holds)``, where that is evident: a field or ``self.attribute``
    annotated with a class, or ``self.attribute`` bound in a method to a
    parameter annotated with one, or to a construction of one."""
    trees = [_nodes(source) for source in modules.values()]
    classes = {node.name for nodes in trees for node in nodes if isinstance(node, ast.ClassDef)}
    held: dict[tuple[str, str], str] = {}
    for nodes in trees:
        for node in nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                    found = _annotated(statement.annotation, classes)
                    if found:
                        held[(node.name, statement.target.id)] = found
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                parameters = {argument.arg: argument.annotation for argument in ast.walk(method.args) if isinstance(argument, ast.arg)}
                for statement in ast.walk(method):
                    if isinstance(statement, ast.AnnAssign):
                        targets, found = [statement.target], _annotated(statement.annotation, classes)
                    elif isinstance(statement, ast.Assign):
                        value = statement.value.body if isinstance(statement.value, ast.IfExp) else statement.value
                        if isinstance(value, ast.Name):
                            found = _annotated(parameters.get(value.id), classes)
                        else:
                            found = _callee(value.func) if isinstance(value, ast.Call) else None
                        targets = statement.targets
                    else:
                        continue
                    for target in targets:
                        if found in classes and isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
                            held.setdefault((node.name, target.attr), found)
    return classes, held


def one_valued(modules: dict[str, str], runs: dict[str, str]) -> OptionCensus:
    """Every option, and the qualnames of those what runs passes no second
    value, or whose default no call leaves in place (outside
    ``WIRE_MODULES``).  A second value is any expression that does not spell
    the default's value (:func:`spelling`), except one that forwards another
    option: a parameter of the enclosing ``__init__`` that is itself an
    option, or an attribute read (``config.idle_timeout``) of the option of
    that name on the read object's class where that is evident
    (:func:`attribute_classes`), else of any option of that name.  Those
    count once the option they forward has a second value: the census
    iterates to a fixpoint; reading an option's own value is none.  A parameter of any
    other function is followed to what the function's callers pass it (its
    default where a call leaves it out), through as many functions as
    forward it; a function that what runs also names without calling it (a
    callback) passes an unreadable value."""
    found = options(modules)
    constructed, replaced = passed_values(runs, {option.owner for option in found})
    spell = spelling(runs)
    defaults = {option.qualname: spell(option.default) for option in found}
    by_name: dict[str, list[Option]] = {}
    for option in found:
        by_name.setdefault(option.name, []).append(option)
    sources = {}
    #: function name -> [(a call naming it, the call's function, its tree)].
    calls: dict[str, list[tuple[ast.Call, ast.FunctionDef | None, ast.AST]]] = {}
    #: names what runs reads other than as a call's callee or a local.
    referenced: set[str] = set()
    local: dict[int, set[str]] = {}
    for source in runs.values():
        nodes = _nodes(source)
        for node, (cls, function) in _scopes(nodes).items():
            sources[node] = (cls, function)
        callees = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node.func) or "", []).append((node, sources[id(node)][1], nodes[0]))
            elif isinstance(node, ast.Attribute) and id(node) not in callees:
                referenced.add(node.attr)
            elif isinstance(node, ast.Name) and id(node) not in callees:
                function = sources[id(node)][1]
                if function is not None and id(function) not in local:
                    local[id(function)] = {argument.arg for argument in ast.walk(function.args) if isinstance(argument, ast.arg)} | {
                        name.id for name in ast.walk(function) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                    }
                if function is None or node.id not in local[id(function)]:
                    referenced.add(node.id)

    def received(value: ast.expr | None, seen: frozenset[int] = frozenset()) -> list[ast.expr | None]:
        """``value``, or what reaches it when it is a parameter of a plain
        function: each caller's argument, or the parameter's default."""
        if not isinstance(value, ast.Name):
            return [value]
        cls, function = sources.get(id(value), (None, None))
        if function is None or function.name == "__init__" or id(function) in seen:
            return [value]
        arguments = function.args
        positional = arguments.posonlyargs + arguments.args
        defaults = dict(zip(positional[len(positional) - len(arguments.defaults):], arguments.defaults))
        defaults.update((argument, default) for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults) if default)
        parameter = next((argument for argument in positional + arguments.kwonlyargs if argument.arg == value.id), None)
        if parameter is None:
            return [value]
        if function.name in referenced:
            return [None]
        bound = cls is not None and positional and positional[0].arg in ("self", "cls")
        index = positional.index(parameter) if parameter in positional else None
        found: list[ast.expr | None] = []
        for call, scope, tree in calls.get(function.name, ()):
            offset = 1 if bound and isinstance(call.func, ast.Attribute) else 0
            passed, unread = _passed(call, scope, tree)
            given = [
                argument
                for key, argument in passed
                if key == parameter.arg
                or (index is not None and key == str(index - offset))
                or (key.startswith("*") and index is not None and int(key[1:]) <= index - offset)
            ]
            if unread is not None:
                given.append(None)
            for argument in given or [defaults.get(parameter)]:
                found += received(argument, seen | {id(function)})
        return found

    values: dict[str, list[ast.expr | None]] = {}
    #: options some call leaves at their default (a call out of sight may).
    live: set[str] = set()
    for option in found:
        passed: list[ast.expr | None] = []
        for call in constructed.get(option.owner, ()):
            given = [
                value
                for key, value in call
                if key == option.name
                or key == "**"
                or (option.position is not None and key == str(option.position))
                or (key.startswith("*") and key != "**" and option.position is not None and int(key[1:]) <= option.position)
            ]
            if not given:
                live.add(option.qualname)
            passed += given
        if option.field:
            passed += [value for _, value in replaced.get(option.name, ())]
        if (option.function or option.method) and option.owner.lstrip(".") in referenced:
            passed.append(None)
            live.add(option.qualname)
        values[option.qualname] = [value for one in passed for value in received(one)]

    classes, held = attribute_classes(modules)

    def owner_of(node: ast.expr, depth: int = 0) -> str | None:
        """The class ``node`` evidently holds: ``self`` in a class, a
        parameter annotated with a class, a local bound once to a
        construction or to another such expression, or an attribute of any
        of these that :func:`attribute_classes` knows."""
        if isinstance(node, ast.Call):
            return _callee(node.func) if _callee(node.func) in classes else None
        if isinstance(node, ast.Attribute):
            owner = owner_of(node.value, depth)
            return held.get((owner, node.attr)) if owner else None
        if not isinstance(node, ast.Name):
            return None
        cls, function = sources.get(id(node), (None, None))
        if node.id == "self":
            return cls.name if cls is not None else None
        if function is None:
            return None
        arguments = function.args
        for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
            if argument.arg == node.id:
                return _annotated(argument.annotation, classes)
        bound = [
            statement.value
            for statement in ast.walk(function)
            if isinstance(statement, ast.Assign)
            and any(getattr(target, "id", None) == node.id for target in statement.targets)
        ]
        return owner_of(bound[0], depth + 1) if len(bound) == 1 and depth < 4 else None

    def forwarded(option: Option, value: ast.expr) -> list[Option] | None:
        if isinstance(value, ast.Attribute):
            owner = owner_of(value.value)
            others = [
                other
                for other in by_name.get(value.attr, ())
                if not other.function and not other.method and owner in (None, other.owner)
            ]
            if owner is not None and others:
                # The owner's own option, the one read: forwarding itself is no new value.
                return [other for other in others if other is not option]
            return [other for other in others if other is not option] or None
        if isinstance(value, ast.Name):
            cls, function = sources.get(id(value), (None, None))
            if function is not None and function.name == "__init__" and cls is not None:
                return [
                    other
                    for other in by_name.get(value.id, ())
                    if other.owner == cls.name and not other.field and not other.function and not other.method and other is not option
                ] or None
        return None

    def seconds(option: Option, second: set[str]) -> list[ast.expr | None]:
        """The values of ``option`` that are a second value, given the
        options known to have one."""
        return [
            value
            for value in values[option.qualname]
            if value is None
            or (
                spell(value) != defaults[option.qualname]
                and ((others := forwarded(option, value)) is None or any(other.qualname in second for other in others))
            )
        ]

    second: set[str] = set()
    while True:
        grown = {option.qualname for option in found if seconds(option, second)}
        if grown == second:
            break
        second = grown
    # Options whose every second value is an attribute read linked to
    # another option by its name alone.
    linked = {
        option.qualname
        for option in found
        if option.qualname in second
        and all(
            isinstance(value, ast.Attribute) and owner_of(value.value) is None and forwarded(option, value)
            for value in seconds(option, second)
        )
    }
    dead = {option.qualname for option in found if option.qualname not in live}
    flagged = sorted(
        option.qualname
        for option in found
        if option.qualname not in second or (option.qualname in dead and not _wire(option))
    )
    return OptionCensus(found, flagged, second, dead, linked)


#: Modules whose classes are wire messages and values: a field every
#: construction sets is data, not an option with a dead default.
WIRE_MODULES = ("moqt/messages.py", "moqt/datastream.py", "dns/message.py", "quic/frames.py", "quic/tls.py")


def _wire(option: Option) -> bool:
    """Whether ``option`` is a field or ``__init__`` parameter of a class in
    ``WIRE_MODULES``."""
    return not (option.function or option.method) and option.qualname.split("::")[0] in WIRE_MODULES


class OptionCensus(NamedTuple):
    """What :func:`one_valued` finds: every option, the flagged ones, those
    with a second value, those no call leaves at their default, and those
    whose second value is linked by name only."""

    options: list[Option]
    flagged: list[str]
    second: set[str]
    dead: set[str]
    linked: set[str]


def method_parameters(modules: dict[str, str]) -> list[str]:
    """``path::Class.method(parameter)`` of every defaulted parameter of a
    method other than ``__init__`` under ``src/repro``."""
    return [
        f"{path}::{node.name}.{method.name}({name})"
        for path, source in modules.items()
        for node in _nodes(source)
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
        for name, _, _ in _defaulted(method.args)
    ]


#: Options whose second value is an attribute read the census can only link
#: to an option by its name (the owner of the object read is not evident),
#: and why that link is the right one.
LINKED_BY_NAME = {
    "core/session_manager.py::UpstreamSessionManager(config)": (
        "self.config.session_manager in SubscribingResolver: self.config is the role's "
        "ResolverConfig or ForwarderConfig, each with its own session_manager"
    ),
}


def test_every_option_has_two_values_in_what_runs(repository):
    """Every option has two values in what runs, or is listed in ONE_VALUE.

    Printed with the test, what the census still cannot see:

    * options whose second value is only an attribute read whose owner is not
      evident (``Foo(x=thing.x)``, ``thing`` neither ``self``, a parameter
      annotated with a class, nor a local bound to one): the by-name link
      counts it once any option named ``x`` has a second value.  Each is in
      ``LINKED_BY_NAME`` with its reason;
    * defaulted method parameters outside the census: none, since a method
      only tests reach has no options;
    * fields of the wire messages and values (``WIRE_MODULES``) that no
      construction in what runs leaves at their default: per-message data
      (``SubscribeError.request_id``), not options, so the dead-default rule
      passes them.
    """
    modules, _, runs = repository
    census = one_valued(modules, runs)
    _exact(census.flagged, ONE_VALUE, "an option what runs sets to one value only (ONE_VALUE; make it a constant)")
    _exact(sorted(census.linked), LINKED_BY_NAME, "an option linked to another by name only (LINKED_BY_NAME)")
    assert not [name for name, why in ONE_VALUE.items() if not ONE_VALUE_REASON.fullmatch(why.split(":")[0])]
    # A canary names the test files that run it.
    for why in ONE_VALUE.values():
        if why.startswith("canary:"):
            assert all((REPO / file).is_file() for file in why.split(":")[1].strip().split(", ")), why
    counts: dict[str, int] = {}
    for why in ONE_VALUE.values():
        reason = why.split(":")[0]
        counts[reason] = counts.get(reason, 0) + 1
    kinds = {
        "of classes": [option for option in census.options if not option.function and not option.method],
        "function parameters": [option for option in census.options if option.function],
        "method parameters": [option for option in census.options if option.method],
    }
    print(
        "options: "
        + ", ".join(f"{len(found)} {kind}" for kind, found in kinds.items())
        + f"; {len(census.flagged)} with one value in what runs"
    )
    for kind in ("function parameters", "method parameters"):
        print(
            f"{kind}: "
            f"{sum(option.qualname not in census.second for option in kinds[kind])} passed no second value, "
            f"{sum(option.qualname in census.flagged for option in kinds[kind])} flagged once a dead default counts"
        )
    print("ONE_VALUE by reason:", ", ".join(f"{reason} {count}" for reason, count in sorted(counts.items())))
    seen = {option.qualname for option in census.options}
    tested = {*TEST_ONLY, *HIDDEN_BY_NAME}
    outside = [name for name in method_parameters(modules) if name not in seen and name.split("(")[0] not in tested]
    assert outside == []
    wire = [option for option in census.options if _wire(option) and option.qualname in census.dead]
    print(
        f"not seen: {len(census.linked)} options linked by name only; "
        f"{len(outside)} method parameters outside the census "
        f"({len(method_parameters(modules)) - len(kinds['method parameters'])} of methods only tests reach); "
        f"{len(wire)} wire-message fields no construction leaves at the default"
    )


def test_option_census_follows_a_parameter_to_the_callers():
    # The re-attach model's ALPN flag as it stood: set only through the
    # factory's own parameter, whose callers never pass it.
    model = '''
from dataclasses import dataclass


@dataclass(frozen=True)
class RecoveryModel:
    link_delay: float
    alpn_version_negotiation: bool = False


def recovery_model(link_delay, alpn_version_negotiation=False):
    return RecoveryModel(link_delay=link_delay, alpn_version_negotiation=alpn_version_negotiation)


def baseline(link_delay):
    return RecoveryModel(link_delay=link_delay)
'''
    modules = {"analysis/churn.py": model}

    def one(caller: str) -> list[str]:
        runs = {"src/repro/analysis/churn.py": model, "src/repro/experiments/run.py": caller}
        return [name for name in one_valued(modules, runs).flagged if "::RecoveryModel." in name]

    flag = ["analysis/churn.py::RecoveryModel.alpn_version_negotiation"]
    assert one("def run():\n    return recovery_model(0.01)\n") == flag
    # A parameter is followed through every function that forwards it.
    assert one("def run(alpn):\n    return recovery_model(0.01, alpn)\n") == flag
    assert one("def run(config):\n    return recovery_model(0.01, config.alpn)\n") == []
    assert one("def run():\n    return recovery_model(0.01, alpn_version_negotiation=True)\n") == []
    # Handed on as a callback, the function's calls are out of sight.
    assert one("def run(schedule):\n    schedule(recovery_model)\n") == []


def test_option_census_sees_function_parameters():
    # Driver shapes as they stood with the runner's second mode gone: a
    # population the runner passes, a knob forwarded to a helper.
    drivers = """
def run_fig1a(population=10_000):
    return population


def _calibrate(count, seed=7):
    return count + seed


def run_fanout(seed=7):
    return _calibrate(1) + _calibrate(2, seed=seed)
"""
    modules = {"experiments/drivers.py": drivers}

    def census(caller: str) -> OptionCensus:
        return one_valued(modules, {"src/repro/experiments/drivers.py": drivers, "src/repro/experiments/runner.py": caller})

    population = "experiments/drivers.py::run_fig1a(population)"
    # Every call passes one literal: one value, and the default is dead.
    assert population in census("def main():\n    run_fig1a(population=2_000)\n").flagged
    # One call leaves the default, another passes a literal: two values.
    assert population not in census("def main():\n    run_fig1a()\n    run_fig1a(population=2_000)\n").flagged
    # Every call passes a run-time value: it has values, but its default is dead.
    found = census("def main(argv):\n    size = len(argv)\n    run_fig1a(size)\n")
    assert population in found.second and population in found.dead and population in found.flagged
    # A driver forwarding its parameter to a helper is followed to the
    # driver's callers: left at its default, the helper's seed is one value ...
    flagged = [name for name in census("def main():\n    run_fanout()\n").flagged if name != population]
    assert flagged == ["experiments/drivers.py::_calibrate(seed)", "experiments/drivers.py::run_fanout(seed)"]
    # ... and given another, two; the driver's own default is then dead.
    flagged = [name for name in census("def main():\n    run_fanout(seed=3)\n").flagged if name != population]
    assert flagged == ["experiments/drivers.py::run_fanout(seed)"]


def test_option_census_folds_constants_and_numbers():
    # One value in two spellings: a module constant for the default's
    # literal, an int for a float default.
    drivers = """
SEED = 7


def run(seed=7, rate=10_000.0):
    return seed * rate
"""
    modules = {"experiments/drivers.py": drivers}

    def flagged(caller: str) -> list[str]:
        runs = {"src/repro/experiments/drivers.py": drivers, "examples/caller.py": caller}
        return one_valued(modules, runs).flagged

    seed, rate = "experiments/drivers.py::run(seed)", "experiments/drivers.py::run(rate)"
    imported = "from repro.experiments import drivers\nfrom repro.experiments.drivers import SEED, run\n"
    assert flagged(imported + "run()\nrun(seed=SEED, rate=10_000)\n") == [rate, seed]
    assert flagged(imported + "run()\nrun(seed=drivers.SEED, rate=10_000)\n") == [rate, seed]
    assert flagged(imported + "run()\nrun(seed=7.0, rate=1e4)\n") == [rate, seed]
    # A constant of the caller's own, and another value, are second values;
    # a local of the same name is not the constant.
    assert flagged("from repro.experiments.drivers import run\nSEED = 8\nrun()\nrun(seed=SEED, rate=2.0)\n") == []
    shadowed = "from repro.experiments.drivers import SEED, run\ndef main(argv):\n    SEED = len(argv)\n    run()\n    run(seed=SEED, rate=2)\n"
    assert flagged(shadowed) == []


def test_option_census_reads_the_double_star_calls():
    # The two ``**`` shapes under src/: a delta over the class's own fields
    # (``TierStats.delta``) and a local forwarder (E4's ``topology(**overrides)``).
    stats = '''
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class TierStats:
    tier: str
    retransmissions: int = 0

    def delta(self, earlier):
        changes = {f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self) if f.name != "tier"}
        return TierStats(tier=self.tier, **changes)
'''
    modules = {"relaynet/stats.py": stats}

    def one(caller: str) -> list[str]:
        runs = {"src/repro/relaynet/stats.py": stats, "src/repro/experiments/run.py": caller}
        return one_valued(modules, runs)[1]

    flag = ["relaynet/stats.py::TierStats.retransmissions"]
    # Read, the delta passes nothing new: the default alone is one value.
    assert one("def run():\n    return TierStats('edge').delta(TierStats('edge'))\n") == flag
    assert one("def run():\n    return TierStats('edge', retransmissions=3)\n") == []
    # A local forwarder's ``**`` carries what its own calls pass.
    forwarder = "def run():\n    def stats(**overrides):\n        return TierStats('edge', **overrides)\n    return stats({})\n"
    assert one(forwarder.replace("({})", "()")) == flag
    assert one(forwarder.replace("({})", "(retransmissions=3)")) == []


def _census(modules: dict[str, str], caller: str) -> OptionCensus:
    """The option census of planted ``modules`` (under ``src/repro``) and
    one caller module."""
    runs = {f"src/repro/{path}": source for path, source in modules.items()}
    return one_valued(modules, {**runs, "src/repro/experiments/run.py": caller})


def test_option_census_matches_a_method_call_by_name():
    # Simulator.run as it stood, with a second class's ``run``: a call of
    # either name on any object passes both, by position after ``self``.
    simulator = """
class Simulator:
    def run(self, until=None, max_events=None):
        return until, max_events


class SmallTopology:
    def run(self, seconds):
        return seconds
"""
    modules = {"netsim/simulator.py": simulator}
    until, max_events = "netsim/simulator.py::Simulator.run(until)", "netsim/simulator.py::Simulator.run(max_events)"
    found = _census(modules, "def main(simulator):\n    simulator.run()\n    simulator.run(until=5.0)\n")
    assert max_events in found.flagged and until not in found.flagged
    # ``topology.run(10.0)`` is matched by name: its first argument is a
    # second value of ``until``, and one of ``max_events`` nowhere.
    found = _census(modules, "def main(simulator, topology):\n    simulator.run()\n    topology.run(10.0)\n")
    assert until in found.second and max_events in found.flagged
    found = _census(modules, "def main(simulator):\n    simulator.run()\n    simulator.run(1.0, 25)\n")
    assert found.flagged == []


def test_option_census_counts_a_method_handed_on_as_set():
    # RelayTopology's storm join as it stood: scheduled by reference, so the
    # census cannot see its calls and every parameter counts as set.
    topology = """
class RelayTopology:
    def flash_crowd(self, count, host_prefix="storm"):
        for index in range(count):
            self.simulator.call_later(0.001 * index, self._storm_join, host_prefix)

    def _storm_join(self, host_prefix="storm", pinned_leaf=None):
        return host_prefix, pinned_leaf
"""
    modules = {"relaynet/topology.py": topology}
    found = _census(modules, "def main(topology):\n    topology.flash_crowd(4)\n")
    assert found.flagged == ["relaynet/topology.py::RelayTopology.flash_crowd(host_prefix)"]
    assert "relaynet/topology.py::RelayTopology._storm_join(pinned_leaf)" in found.second


def test_option_census_counts_a_staticmethods_positions_from_zero():
    # Link.transmit_many as it stood: positions start at ``simulator``.
    link = """
class Link:
    @staticmethod
    def transmit_many(simulator, entries, batch_sink=None):
        return simulator, entries, batch_sink
"""
    modules = {"netsim/link.py": link}
    sink = "netsim/link.py::Link.transmit_many(batch_sink)"
    # Every call passes the sink: one value, and its default is dead.
    found = _census(modules, "def main(simulator, entries):\n    Link.transmit_many(simulator, entries, Network(simulator))\n")
    assert found.flagged == [sink] and sink in found.second and sink in found.dead
    # A two-entry call leaves it out: counted from ``self``, ``entries``
    # would have been the sink and the default dead still.
    found = _census(
        modules,
        "def main(simulator, entries):\n"
        "    Link.transmit_many(simulator, entries, Network(simulator))\n    Link.transmit_many(simulator, entries)\n",
    )
    assert found.flagged == []


def test_option_census_flags_a_dead_method_default():
    # MoqtRelay.abandon_upstream as it stood: its one call passes a reason.
    relay = """
class MoqtRelay:
    def abandon_upstream(self, reason="no surviving parent"):
        return reason
"""
    modules = {"moqt/relay.py": relay}
    reason = "moqt/relay.py::MoqtRelay.abandon_upstream(reason)"
    found = _census(modules, "def main(relay, error):\n    relay.abandon_upstream(error.replace('-', ' '))\n")
    assert found.flagged == [reason] and reason in found.second and reason in found.dead
    found = _census(modules, "def main(relay, error):\n    relay.abandon_upstream(str(error))\n    relay.abandon_upstream()\n")
    assert found.flagged == []


def test_option_census_gives_a_method_only_tests_reach_no_options():
    # MoqtRelay.shutdown is in TEST_ONLY: its reason is no option, while
    # the same shape on a method what runs calls is one.
    relay = """
class MoqtRelay:
    def shutdown(self, reason="relay shutting down"):
        return reason

    def abandon_upstream(self, reason="no surviving parent"):
        return reason
"""
    modules = {"moqt/relay.py": relay}
    found = _census(modules, "def main(relay):\n    relay.abandon_upstream()\n")
    assert [option.qualname for option in found.options] == ["moqt/relay.py::MoqtRelay.abandon_upstream(reason)"]
    assert found.flagged == ["moqt/relay.py::MoqtRelay.abandon_upstream(reason)"]


def test_option_census_follows_an_attribute_read_to_its_evident_owner():
    # A relay's port as the topology forwarded it, next to an unrelated
    # ``port`` with two values: the by-name link counted that one for both.
    relay = """
class MoqtRelay:
    def __init__(self, host, port=4443):
        self.port = port


class RelayTopology:
    def __init__(self, network, port=4443):
        self.port = port

    def add(self, host):
        return MoqtRelay(host, port=self.port)


class DnsServer:
    def __init__(self, host, port=53):
        self.port = port
"""
    modules = {"moqt/relay.py": relay}
    caller = (
        "def main(network, host):\n    RelayTopology(network).add(host)\n    MoqtRelay(host)\n"
        "    DnsServer(host)\n    DnsServer(host, 5353)\n"
    )
    found = _census(modules, caller)
    assert found.flagged == ["moqt/relay.py::MoqtRelay(port)", "moqt/relay.py::RelayTopology(port)"]
    assert found.linked == set()
    # Read off an object of no evident class, the value is linked by name.
    unknown = caller + "\ndef other(thing, host):\n    MoqtRelay(host, port=thing.port)\n"
    found = _census(modules, unknown)
    assert found.flagged == ["moqt/relay.py::RelayTopology(port)"]
    assert found.linked == {"moqt/relay.py::MoqtRelay(port)"}


def test_option_census_flags_a_dead_class_default_outside_the_wire_messages():
    # A result field every construction sets (Fig2Result.push_latency as
    # it stood), and a wire message's field every construction sets.
    result = """
from dataclasses import dataclass


@dataclass
class Fig2Result:
    lookup_latency: float
    push_latency: float | None = None
"""
    message = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Unsubscribe:
    request_id: int = 0
"""
    modules = {"experiments/fig2_sequence.py": result, "moqt/messages.py": message}
    caller = "def main(latency, push, request):\n    Fig2Result(latency, push_latency=float(push))\n    Unsubscribe(int(request))\n"
    found = _census(modules, caller)
    assert found.flagged == ["experiments/fig2_sequence.py::Fig2Result.push_latency"]
    assert "moqt/messages.py::Unsubscribe.request_id" in found.dead


def unused_imports(source: str, path: str) -> list[str]:
    """Every ``path:line: name`` that ``source`` imports and never uses.

    A use is the bare name anywhere, or inside a string that parses as an
    expression (a string annotation, an ``__all__`` entry).  Imports on a
    ``# noqa: F401`` line and ``from __future__`` are not checked.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[str, int]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if EXPRESSION.fullmatch(node.value):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(child.id for child in ast.walk(expression) if isinstance(child, ast.Name))
    return [f"{path}:{line}: {name}" for name, line in imported if name not in used]


def test_nothing_under_src_imports_what_it_does_not_use(repository):
    modules, _, _ = repository
    found = [
        unused
        for path, source in modules.items()
        if not path.endswith("__init__.py")
        for unused in unused_imports(source, f"src/repro/{path}")
    ]
    assert not found, "\n".join(["imported and never used (delete the import):", *found])


def test_guard_catches_an_unused_import():
    # quic/connection.py's imports as they stood before the guard, abridged.
    parent_connection = """
from __future__ import annotations

from typing import Callable, Protocol
from repro.netsim.packet import Address, Datagram
from repro.quic.stream import (
    QuicStream,
    stream_initiator_is_client,
)
from repro.quic.tls import MOQT_ALPN  # noqa: F401 - re-exported


class ConnectionDelegate(Protocol):
    on_closed: "Callable[[int, str], None]"


def open_stream(peer: Address) -> QuicStream:
    return QuicStream(0)
"""
    assert unused_imports(parent_connection, "quic/connection.py") == [
        "quic/connection.py:5: Datagram",
        "quic/connection.py:6: stream_initiator_is_client",
    ]


def harness_uses(source: str, path: str) -> list[str]:
    """Every ``path:line: what`` where a module imports the retired harness or
    names its reference document."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "BENCH_fastpath" in node.value:
            found.append(f"{path}:{node.lineno}: names BENCH_fastpath")
            continue
        else:
            continue
        if any("perf_fastpath" in module for module in modules):
            found.append(f"{path}:{node.lineno}: imports perf_fastpath")
    return found


def test_one_benchmark_system(repository):
    _, corpus, _ = repository
    this = Path(__file__).resolve().relative_to(REPO).as_posix()
    found = [
        reason
        for path, source in corpus.items()
        if path != this and ("perf_fastpath" in source or "BENCH_fastpath" in source)
        for reason in harness_uses(source, path)
    ]
    assert not found, "\n".join(["the retired perf harness is back:", *found])
    benchmarks = REPO / "benchmarks"
    assert [
        file.relative_to(benchmarks).as_posix()
        for file in sorted(benchmarks.rglob("*.py"))
        if file.relative_to(benchmarks).parts[0] != "e2e"
    ] == BENCHMARK_STRAGGLERS
    assert not (REPO / "BENCH_fastpath.json").exists()
    for workflow in sorted((REPO / ".github" / "workflows").glob("*.yml")):
        text = workflow.read_text()
        for retired in ("perf_fastpath", "BENCH_fastpath", "pytest-benchmark", "benchmarks/bench_"):
            assert retired not in text, f"{workflow.name} still mentions {retired}"


def test_guard_catches_the_harness_coming_back():
    # tests/test_megafan.py's harness import and the CI gate's reference
    # document, as they stood before the harness was retired.
    parent_megafan = """
class TestPerfHarness:
    def _import_harness(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "perf"))
        import perf_fastpath

        return perf_fastpath

    def test_check_against_reference_gates_on_throughput(self, tmp_path):
        from perf_fastpath import check_against_reference

        reference = json.loads(Path("BENCH_fastpath.json").read_text())
"""
    assert harness_uses(parent_megafan, "tests/test_megafan.py") == [
        "tests/test_megafan.py:5: imports perf_fastpath",
        "tests/test_megafan.py:10: imports perf_fastpath",
        "tests/test_megafan.py:12: names BENCH_fastpath",
    ]
    # The e2e benchmark's own check that it does not import the harness is not a use.
    e2e_check = 'assert not any("perf_fastpath" in module for module in imported)\n'
    assert harness_uses(e2e_check, "benchmarks/e2e/test_e2e_bench.py") == []


#: Expressions and calls that build a mutable table when bound to a
#: module-level name.
TABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
TABLE_CONSTRUCTORS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
    "WeakKeyDictionary", "WeakValueDictionary", "WeakSet",
}
#: Methods that write a table.
TABLE_WRITES = {"clear", "pop", "setdefault", "update", "append", "add"}


def _builds_a_table(value: ast.expr | None) -> bool:
    if isinstance(value, TABLE_DISPLAYS):
        return True
    if not isinstance(value, ast.Call):
        return False
    function = value.func
    name = function.id if isinstance(function, ast.Name) else getattr(function, "attr", "")
    return name in TABLE_CONSTRUCTORS


def module_table_writes(source: str, path: str) -> list[str]:
    """Every ``path:line: name`` where a function writes a module-level table.

    A function that binds the name itself (an argument, an assignment)
    without declaring it ``global`` writes its own local, not the table; a
    local bound to the table itself (``cache = _CACHE``) is the table.
    """
    tree = ast.parse(source)
    tables = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _builds_a_table(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            tables.update(target.id for target in targets if isinstance(target, ast.Name))
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = list(ast.walk(function))
        declared = {name for node in body if isinstance(node, ast.Global) for name in node.names}
        local = {node.arg for node in body if isinstance(node, ast.arg)}
        local |= {node.id for node in body if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        # Local name -> the table it names.
        written = {name: name for name in tables - (local - declared)}
        for node in body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in written:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        written[target.id] = written[node.value.id]
        for node in body:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in TABLE_WRITES:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in written:
                found.add((node.lineno, written[target.id]))
    return [f"{path}:{line}: {name}" for line, name in sorted(found)]


def test_no_module_level_table_is_written_at_run_time(repository):
    modules, _, _ = repository
    found = [
        write
        for path, source in modules.items()
        for write in module_table_writes(source, f"src/repro/{path}")
    ]
    assert not found, "\n".join(
        ["a function writes a module-level table (process-wide state: keep it on an object of the run):"]
        + found
    )


def test_guard_catches_a_process_wide_memo():
    # The two module-level decode memos and the per-simulator registry as
    # they stood before the decode memo became the simulator's, abridged.
    parent_memos = """
from weakref import WeakKeyDictionary

_DECODERS = {0x20: ClientSetup, 0x21: ServerSetup}
_CONTROL_MESSAGE_CACHE: dict[tuple[int, bytes], "ControlMessage"] = {}
_MEMOS: WeakKeyDictionary[Simulator, AnswerMemo] = WeakKeyDictionary()
_COMPLETE_STREAM_CACHE = {}


def decode_control_message(key):
    message = _CONTROL_MESSAGE_CACHE.get(key)
    if message is None:
        message = _DECODERS[key[0]].decode_payload(key[1])
        if len(_CONTROL_MESSAGE_CACHE) >= 512:
            _CONTROL_MESSAGE_CACHE.clear()
        _CONTROL_MESSAGE_CACHE[key] = message
    return message


def answer_memo(simulator):
    memo = _MEMOS.get(simulator)
    if memo is None:
        memo = _MEMOS[simulator] = AnswerMemo()
    return memo


def decode_complete_datastream(data):
    cache = _COMPLETE_STREAM_CACHE
    if len(cache) >= 512:
        cache.clear()
    cache[data] = result = _decode(data)
    return result


def shadowing(_DECODERS):
    _DECODERS[0x20] = None
"""
    assert module_table_writes(parent_memos, "moqt/messages.py") == [
        "moqt/messages.py:15: _CONTROL_MESSAGE_CACHE",
        "moqt/messages.py:16: _CONTROL_MESSAGE_CACHE",
        "moqt/messages.py:23: _MEMOS",
        "moqt/messages.py:30: _COMPLETE_STREAM_CACHE",
        "moqt/messages.py:31: _COMPLETE_STREAM_CACHE",
    ]


# ---------------------------------------------------------------- slotted values
#: The packages whose frozen dataclasses must be slotted.
SLOTTED_PACKAGES = ("dns", "moqt", "core")


def _frozen_without_slots(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        function = decorator.func
        name = function.id if isinstance(function, ast.Name) else getattr(function, "attr", "")
        if name != "dataclass":
            continue
        flags = {
            keyword.arg: keyword.value.value
            for keyword in decorator.keywords
            if isinstance(keyword.value, ast.Constant)
        }
        return flags.get("frozen") is True and flags.get("slots") is not True
    return False


def _names_cached_property(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "cached_property" for alias in node.names)
    return getattr(node, "id", None) == "cached_property" or getattr(node, "attr", None) == "cached_property"


def _names_a_dict(node: ast.expr, aliases: set[str]) -> bool:
    """``x.__dict__``, ``vars(x)`` or a local bound to one of them."""
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
        return True
    return isinstance(node, ast.Name) and node.id in aliases


def uncompact_values(source: str, path: str, package: str) -> list[str]:
    """Every ``path:line: what`` that gives a value an instance ``__dict__``.

    In ``SLOTTED_PACKAGES``: a frozen dataclass without ``slots=True`` and any
    mention of ``cached_property``.  Anywhere: a function that writes an
    instance ``__dict__`` — an item store or delete, or an in-place dict
    method, on ``x.__dict__``, on ``vars(x)`` or on a local bound to either.
    """
    tree = ast.parse(source)
    found = set()
    if package in SLOTTED_PACKAGES:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _frozen_without_slots(node):
                found.add((node.lineno, f"frozen dataclass {node.name} without slots=True"))
            if _names_cached_property(node):
                found.add((node.lineno, "cached_property"))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = list(ast.walk(function))
        aliases = {
            target.id
            for node in body
            if isinstance(node, ast.Assign) and _names_a_dict(node.value, set())
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in body:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in TABLE_WRITES:
                target = node.func.value
            else:
                continue
            if _names_a_dict(target, aliases):
                found.add((node.lineno, "writes an instance __dict__"))
    return [f"{path}:{line}: {what}" for line, what in sorted(found)]


def test_every_value_is_slotted(repository):
    modules, _, _ = repository
    found = [
        offence
        for path, source in modules.items()
        for offence in uncompact_values(source, f"src/repro/{path}", path.split("/")[0])
    ]
    assert not found, "\n".join(
        ["a value with an instance __dict__ (slot it, docs/state.md § The rule):"] + found
    )


def test_guard_catches_a_dict_backed_value():
    # Four values and two decoders as they stood before the values were
    # slotted, abridged, plus a ``vars`` write.
    parent_values = """
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class MoqtObject:
    group_id: int
    object_id: int

    @cached_property
    def location(self):
        return Location(self.group_id, self.object_id)


@dataclass(frozen=True, order=True)
class Question:
    qname: Name

    @classmethod
    def from_wire(cls, wire, offset, table=None):
        question = object.__new__(cls)
        fields = question.__dict__
        fields["qname"] = qname
        return question, end


@dataclass(frozen=True, slots=True)
class Flags:
    qr: bool = False


@dataclass(slots=True)
class TrackedSubscription:
    lookups: int = 1


def from_wire(cls, wire):
    rdata = object.__new__(cls)
    rdata.__dict__.update(address=text, _packed=packed, _text=text)
    vars(rdata)["address"] = text
    return rdata
"""
    assert uncompact_values(parent_values, "moqt/objectmodel.py", "moqt") == [
        "moqt/objectmodel.py:3: cached_property",
        "moqt/objectmodel.py:7: frozen dataclass MoqtObject without slots=True",
        "moqt/objectmodel.py:11: cached_property",
        "moqt/objectmodel.py:17: frozen dataclass Question without slots=True",
        "moqt/objectmodel.py:24: writes an instance __dict__",
        "moqt/objectmodel.py:40: writes an instance __dict__",
        "moqt/objectmodel.py:41: writes an instance __dict__",
    ]
    # Outside the value packages only the ``__dict__`` writes count.
    assert uncompact_values(parent_values, "relaynet/spec.py", "relaynet") == [
        "relaynet/spec.py:24: writes an instance __dict__",
        "relaynet/spec.py:40: writes an instance __dict__",
        "relaynet/spec.py:41: writes an instance __dict__",
    ]


#: Classes that are not dataclasses and must declare ``__slots__``:
#: ``path under src/repro -> class names``.
SLOTTED_CONTAINERS = {
    "dns/name.py": ("Name",),
    "dns/rr.py": ("RRset",),
    "dns/zone.py": ("Zone",),
}


def unslotted_containers(source: str, path: str, names: tuple[str, ...]) -> list[str]:
    """Every ``path:line: what`` where a class in ``names`` has no ``__slots__``
    of its own, and ``path: what`` for a class in ``names`` that is missing."""
    found = []
    classes = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}
    for name in names:
        node = classes.get(name)
        if node is None:
            found.append(f"{path}: class {name} not found")
            continue
        slotted = any(
            isinstance(statement, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in (statement.targets if isinstance(statement, ast.Assign) else [statement.target])
            )
            for statement in node.body
        )
        if not slotted:
            found.append(f"{path}:{node.lineno}: class {name} without __slots__")
    return found


def test_every_hierarchy_container_is_slotted(repository):
    modules, _, _ = repository
    found = [
        offence
        for path, names in SLOTTED_CONTAINERS.items()
        for offence in unslotted_containers(modules[path], f"src/repro/{path}", names)
    ]
    assert not found, "\n".join(
        ["a hierarchy container with an instance __dict__ (docs/state.md § The DNS hierarchy):"] + found
    )


def test_guard_catches_a_dict_backed_container():
    # RRset and Zone as they stood before they were slotted, abridged.
    parent_containers = """
class RRset:
    \"""All records sharing an owner name, type and class.\"""

    def __init__(self, name, rdtype, records=(), rdclass=DNSClass.IN):
        self.name = name
        self._records = []


class Zone:
    \"""An authoritative DNS zone.\"""

    slots = ("origin",)

    def __init__(self, origin, soa=None, default_ttl=300):
        self.origin = origin
        self._listeners = []
"""
    assert unslotted_containers(parent_containers, "dns/zone.py", ("RRset", "Zone", "Name")) == [
        "dns/zone.py:2: class RRset without __slots__",
        "dns/zone.py:10: class Zone without __slots__",
        "dns/zone.py: class Name not found",
    ]
    slotted = 'class Zone:\n    __slots__ = ("origin", "_rrsets")\n'
    assert unslotted_containers(slotted, "dns/zone.py", ("Zone",)) == []


# ------------------------------------------------------------ one failure path
#: Where a handler may not catch everything.
NARROW_EXCEPT_PACKAGES = ("moqt",)
BLANKET = {"Exception", "BaseException"}


def blanket_handlers(source: str, path: str) -> list[str]:
    """Every ``path:line: except ...`` that catches ``Exception`` or
    ``BaseException``, alone, in a tuple or as a bare ``except:``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is None or any(isinstance(name, ast.Name) and name.id in BLANKET for name in names):
            found.append(f"{path}:{node.lineno}: {ast.unparse(caught) if caught else 'bare except'}")
    return found


def test_no_blanket_except_under_moqt(repository):
    modules, _, _ = repository
    found = [
        handler
        for path, source in modules.items()
        if path.split("/")[0] in NARROW_EXCEPT_PACKAGES
        for handler in blanket_handlers(source, f"src/repro/{path}")
    ]
    assert not found, "\n".join(
        ["a blanket handler under moqt/ (catch ProtocolViolation, docs/quic-receive.md):"] + found
    )


def test_guard_catches_a_blanket_except():
    # ControlStreamParser.feed's re-buffer block as it stood before the
    # decoders raised ProtocolViolation only, abridged, plus two variants.
    parent_feed = """
def feed(self, data):
    try:
        while offset < length:
            try:
                message_type, payload, offset = read_control_frame(data, offset)
            except NeedMoreData:
                break
            messages.append(decode(message_type, payload))
    except BaseException:
        if not held:
            held += data
        raise


def datagram_frame_received(self, data):
    try:
        track_alias, obj = decode_object_datagram(data)
    except (MoqtError, Exception):
        return
    try:
        self._deliver(track_alias, obj)
    except:
        pass
"""
    assert blanket_handlers(parent_feed, "moqt/messages.py") == [
        "moqt/messages.py:10: BaseException",
        "moqt/messages.py:19: (MoqtError, Exception)",
        "moqt/messages.py:23: bare except",
    ]
    # A narrow handler, a name that merely contains the word, passes.
    narrow = "try:\n    f()\nexcept (ProtocolViolation, NeedMoreData):\n    pass\nexcept MyException:\n    pass\n"
    assert blanket_handlers(narrow, "moqt/session.py") == []
