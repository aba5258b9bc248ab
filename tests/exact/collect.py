"""Every exact cost the repository pins, measured once: the ledger's collector.

Run from the repository root::

    PYTHONPATH=src python tests/exact/collect.py > tests/exact/3.11.json

It builds each scenario once, in a fixed order, and prints one flat JSON
object of exact rows on stdout and the per-file tables on stderr.
``test_ledger.py`` runs it in a fresh process, because inside one process the
same star reads a few bytes differently build after build, and compares every
row with the committed ``<major>.<minor>.json``.  ``docs/state.md`` § How to
measure lists the scenarios and what each row prices.

One attribution rule serves the calls and the bytes (:func:`layer_of`): a
file under ``src/repro/<layer>/`` is ``<layer>``, a module directly under
``src/repro`` is its own row (``memo``), the standard-library modules the
program calls are named rows, code compiled from a string (``<string>``: a
dataclass's ``__init__``, a ``NamedTuple``'s ``__new__``) is ``generated``,
and anything else is a failure, not a row.  A generated method's calls count
as ``<layer>.generated`` of its class's package, which the profiler can see
and ``tracemalloc`` (one frame per allocation) cannot.  This file and
``tracemalloc`` are the instrument and count nowhere.

Source mutations tried when this file was written, each moving rows: the
SETUP queue emptied in place instead of handed back (``subscriber.census.list``
3 → 5, ``subscriber.blocks`` 78 → 80), ``RRset`` without ``__slots__``
(``domain.blocks`` 61.248 → 67.66).  The budgets these rows replaced caught
a link sink over a bound method of its own, the liveness hook as a bound
method or a slotted object of its own, ``Name.__init__`` copying labels and a
completed fetch left in ``MoqtSession._fetches``; each moved what is a row now.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import tracemalloc
import types
from collections import Counter

import repro
from repro.core.mapping import DnsQuestionKey, track_to_question
from repro.core.recursive import _ResolutionTask
from repro.core.subscribing import SubscribeFetch
from repro.dns.message import Message
from repro.dns.types import RecordType
from repro.dns.zone import Zone
from repro.experiments.topology import build_workload_topology
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.session import FetchRequest
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator, Timer
from repro.relaynet import RelayTreeBuilder, RelayTreeSpec
from repro.workload.change_model import ChangeModel, ChangeModelConfig
from repro.workload.toplist import SyntheticToplist, ToplistConfig
from repro.workload.zones import WorkloadZones, ZoneBuildConfig

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
STDLIB = os.path.dirname(os.path.abspath(random.__file__)) + os.sep
NAMED_STDLIB = {"random.py": "random", "ipaddress.py": "ipaddress", "enum.py": "enum"}
INSTRUMENT = {os.path.abspath(__file__), os.path.abspath(tracemalloc.__file__)}


class Unattributed(Exception):
    """A call or an allocation in a file the ledger has no row for."""


def layer_of(filename: str) -> str:
    """The row a source file counts in (the module docstring's rule)."""
    if filename == "<string>":
        return "generated"
    if filename.startswith(SRC):
        head, slash, _ = filename[len(SRC) :].partition(os.sep)
        return head if slash else head.removesuffix(".py")
    if filename.startswith(STDLIB) and filename[len(STDLIB) :] in NAMED_STDLIB:
        return NAMED_STDLIB[filename[len(STDLIB) :]]
    raise Unattributed(filename)


def _generated_layer(frame) -> str:
    """``<layer>.generated`` of the class a generated method belongs to: its
    first argument is an instance or, for ``__new__``, the class."""
    code = frame.f_code
    first = frame.f_locals.get(code.co_varnames[0]) if code.co_argcount else None
    owner = first if isinstance(first, type) else type(first)
    parts = owner.__module__.split(".")
    if len(parts) < 3 or parts[0] != "repro":
        raise Unattributed(f"<string> method of {owner.__module__}.{owner.__qualname__}")
    return parts[1] + ".generated"


class Calls:
    """Python-level calls per layer, events scheduled and datagrams sent in a
    window; ``named`` (``{code object: label}``) also counts those functions."""

    def __init__(self, simulator: Simulator, network: Network, named: dict | None = None) -> None:
        self.simulator, self.network = simulator, network
        self.named = named or {}
        self.calls: Counter = Counter()
        self.unattributed: set[str] = set()

    def _traffic(self) -> tuple[int, int]:
        sent = self.network.total_link_statistics()["datagrams_sent"]
        return self.simulator.events_scheduled, sent

    def _profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code in self.named:
            self.calls[self.named[code]] += 1
        if code.co_filename in INSTRUMENT:
            return
        try:
            if code.co_filename == "<string>":  # a generated method: by its class
                self.calls[_generated_layer(frame)] += 1
            else:
                self.calls[layer_of(code.co_filename)] += 1
        except Unattributed as error:
            self.unattributed.add(str(error))

    def __enter__(self) -> Calls:
        self._start = self._traffic()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)
        self.events, self.datagrams = map(int.__sub__, self._traffic(), self._start)
        if self.unattributed:
            raise Unattributed(", ".join(sorted(self.unattributed)))

    def rows(self, prefix: str, per: int) -> dict:
        rows = {f"{prefix}.calls.{layer}": count / per for layer, count in self.calls.items()}
        rows[f"{prefix}.events"] = self.events / per
        rows[f"{prefix}.datagrams"] = self.datagrams / per
        return rows


class Heap:
    """``tracemalloc`` over a window: the live bytes and blocks each file
    gained (two ``Counter``s by filename) and the peak above the start."""

    def __enter__(self) -> Heap:
        gc.collect()
        tracemalloc.start()
        self._before = tracemalloc.take_snapshot()
        self._start, _ = tracemalloc.get_traced_memory()
        return self

    def __exit__(self, *exc_info) -> None:
        self.peak = tracemalloc.get_traced_memory()[1] - self._start
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        self.bytes, self.blocks = Counter(), Counter()
        for stat in after.compare_to(self._before, "filename"):
            filename = stat.traceback[0].filename
            if filename not in INSTRUMENT and (stat.size_diff or stat.count_diff):
                layer_of(filename)
                self.bytes[filename] += stat.size_diff
                self.blocks[filename] += stat.count_diff
        del self._before, after


def heap_rows(prefix: str, sizes: Counter, counts: Counter, per: int, title: str, tables: list) -> dict:
    """``<prefix>.bytes`` / ``.blocks``, in all and per layer, per ``per``;
    the per-file table goes to ``tables``."""
    rows: Counter = Counter()
    lines = [title, f"{'file':36s} {'bytes':>10s} {'blocks':>8s}"]
    for filename in sorted(sizes.keys() | counts.keys(), key=lambda name: (-sizes[name], name)):
        size, count = sizes[filename], counts[filename]
        if not (size or count):
            continue
        layer = layer_of(filename)
        rows[f"{prefix}.bytes"] += size
        rows[f"{prefix}.blocks"] += count
        rows[f"{prefix}.bytes.{layer}"] += size
        rows[f"{prefix}.blocks.{layer}"] += count
        name = filename[len(SRC) :] if filename.startswith(SRC) else os.path.basename(filename)
        lines.append(f"{name:36s} {size / per:10.1f} {count / per:8.2f}")
    tables.append("\n".join(lines))
    return {row: value / per for row, value in rows.items() if value}


def _star():
    simulator = Simulator(seed=3)
    network = Network(simulator)
    publisher = build_origin(network)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
        RelayTreeSpec.star(1)
    )
    return simulator, network, publisher, tree


def _chain(domains: int, auth_hosts: int):
    """Forwarder -> recursive -> TLD and authoritative servers over a
    synthetic hierarchy, and the names of its A records."""
    toplist = SyntheticToplist(ToplistConfig(size=domains))
    zones = WorkloadZones(
        toplist,
        change_model=ChangeModel(ChangeModelConfig(seed=17)),
        config=ZoneBuildConfig(auth_server_count=auth_hosts),
    )
    names = [domain.name for domain in toplist.domains() if domain.has_type(RecordType.A)]
    return build_workload_topology(zones), names


def _active_share(subscriptions) -> float:
    return sum(subscription.is_active for subscription in subscriptions) / len(subscriptions)


# ------------------------------------------------------------------ scenarios
def deliver(rows: dict, tables: list) -> None:
    """Eight subscribers on the star, five 300-B objects: per delivered object."""
    simulator, network, publisher, tree = _star()
    tree.attach_subscribers(8)
    delivered = []
    subscriptions = tree.subscribe_all(
        TRACK, on_object=lambda subscriber, obj: delivered.append(obj.group_id)
    )
    simulator.run(until=simulator.now + 3.0)
    with Calls(simulator, network) as window:
        for group in range(2, 7):
            publisher.push(MoqtObject(group_id=group, object_id=0, payload=b"x" * 300))
            simulator.run(until=simulator.now + 0.25)
    assert len(delivered) == 8 * 5, delivered
    per, calls = len(delivered), window.calls
    rows.update(window.rows("deliver", per))
    rows["deliver.frames"] = (calls["quic"] + calls["netsim"]) / per
    rows["deliver.upward_calls"] = sum(
        calls[layer] + calls[layer + ".generated"] for layer in ("moqt", "relaynet")
    ) / per
    rows["deliver.active_share"] = _active_share(subscriptions)


def attach(rows: dict, tables: list) -> None:
    """Sixteen subscribers attached and SUBSCRIBE_OK'd: per subscriber."""
    simulator, network, _, tree = _star()
    with Calls(simulator, network) as window:
        tree.attach_subscribers(16)
        subscriptions = tree.subscribe_all(TRACK, on_object=lambda subscriber, obj: None)
        simulator.run(until=simulator.now + 3.0)
    calls = window.calls
    rows.update(window.rows("attach", 16))
    rows["attach.frames"] = (calls["quic"] + calls["moqt"] + calls["netsim"]) / 16
    rows["attach.active_share"] = _active_share(subscriptions)


def _settled_star(subscribers: int):
    """One star's attach + subscribe + settle: its heap window, the GC-tracked
    objects it added by type, its subscriptions."""
    simulator, _, _, tree = _star()
    gc.collect()
    before = Counter(type(obj).__name__ for obj in gc.get_objects())
    with Heap() as heap:
        tree.attach_subscribers(subscribers)
        subscriptions = tree.subscribe_all(TRACK, on_object=lambda subscriber, obj: None)
        simulator.run(until=simulator.now + 3.0)
    gc.collect()
    census = Counter(type(obj).__name__ for obj in gc.get_objects())
    census.subtract(before)
    return heap, census, subscriptions


def subscriber(rows: dict, tables: list) -> None:
    """One more attached, idle subscriber: (256-star - 128-star) / 128."""
    _settled_star(1)  # what the first star of a process builds once
    small, small_census, small_subscriptions = _settled_star(128)
    large, large_census, large_subscriptions = _settled_star(256)
    large.bytes.subtract(small.bytes)
    large.blocks.subtract(small.blocks)
    rows.update(heap_rows("subscriber", large.bytes, large.blocks, 128, "per attached subscriber", tables))
    rows["subscriber.wave_peak_bytes"] = large.peak / 256
    large_census.subtract(small_census)
    rows.update(
        {f"subscriber.census.{name}": count / 128 for name, count in large_census.items() if count}
    )
    rows["subscriber.active_share"] = _active_share([*small_subscriptions, *large_subscriptions])


#: The question scenarios: warm-up lookups, measured lookups, lookups per batch.
WARM_UP, QUESTIONS, STEP = 200, 1000, 250


def _asking_chain():
    """The question scenarios' chain, warmed up: the topology, the measured
    names, ``ask(batch)`` and the answers so far."""
    topology, names = _chain(2 * (WARM_UP + QUESTIONS), auth_hosts=8)
    answered = []

    def ask(batch) -> None:
        for name in batch:
            topology.forwarder.resolve(
                DnsQuestionKey(qname=name, qtype=RecordType.A),
                lambda message, version: answered.append(message is not None),
            )
        # Long enough for every attempt's (cancelled) timeout event to leave the heap.
        topology.simulator.run(until=topology.simulator.now + 30.0)

    ask(names[:WARM_UP])
    # The simulation's MoQT decode tables start the window empty; its DNS
    # tables carry the warm-up's answers over (``Simulator.memos``).
    for kind in ("moqt.control", "moqt.stream"):
        topology.simulator.memos[kind].clear()
    return topology, names[WARM_UP : WARM_UP + QUESTIONS], ask, answered


def question(rows: dict, tables: list) -> None:
    """1,000 A questions after 200 warm-ups, 8 authoritative hosts: per question."""
    topology, names, ask, answered = _asking_chain()
    sessions = topology.recursive.state_summary()["open_sessions"]
    with Heap() as heap:
        for start in range(0, QUESTIONS, STEP):
            ask(names[start : start + STEP])
    assert answered == [True] * (WARM_UP + QUESTIONS)
    assert topology.recursive.state_summary()["open_sessions"] == sessions, "warm-up too short"
    title = f"per subscribed question ({QUESTIONS} after {WARM_UP} warm-ups)"
    rows.update(heap_rows("question", heap.bytes, heap.blocks, QUESTIONS, title, tables))
    rows["question.inflight_lookups"] = sum(
        node.state_summary()["inflight_lookups"] for node in (topology.forwarder, topology.recursive)
    )


def question_census(rows: dict, tables: list) -> None:
    """What the question scenario's second batch leaves alive, by kind: per
    question.  A census collects, so it runs on a chain of its own, built
    the same way, outside any heap window."""
    kinds = (SubscribeFetch, Timer, FetchRequest, _ResolutionTask, types.FunctionType, types.CellType)
    _, names, ask, _ = _asking_chain()

    def census() -> dict:
        gc.collect()
        counts = dict.fromkeys(kinds, 0)
        for obj in gc.get_objects():
            if type(obj) in counts:
                counts[type(obj)] += 1
        return counts

    censuses = []
    for start in (0, STEP):
        ask(names[start : start + STEP])
        censuses.append(census())
    for kind in kinds:
        rows[f"question.retained.{kind.__name__}"] = (censuses[1][kind] - censuses[0][kind]) / STEP


def domain(rows: dict, tables: list) -> None:
    """One ``WorkloadZones`` build of 500 domains: per domain."""
    toplist = SyntheticToplist(ToplistConfig(size=500))
    model = ChangeModel(ChangeModelConfig(seed=7))
    with Heap() as heap:
        zones = WorkloadZones(toplist, model)
    assert len(zones.assignments) == 500
    rows.update(
        heap_rows("domain", heap.bytes, heap.blocks, 500, "per domain (500-domain WorkloadZones)", tables)
    )


def cold_lookup(rows: dict, tables: list) -> None:
    """Three cold lookups on a 40-domain chain whose sessions are open and
    whose TLD delegation is cached: the DNS work per lookup."""
    topology, names = _chain(40, auth_hosts=2)
    answers = []

    def lookup(name) -> None:
        key = DnsQuestionKey(qname=name, qtype=RecordType.A)
        topology.forwarder.resolve(key, lambda message, version: answers.append(message))
        topology.simulator.run(until=topology.simulator.now + 5.0)

    # Four names under one TLD: the first lookup caches its delegation.
    names = [name for name in names if name.parent() == names[0].parent()][:4]
    lookup(names[0])
    work = {
        Zone.lookup.__code__: "Zone.lookup",
        Message.to_wire.__code__: "Message.to_wire",
        Message.from_wire.__func__.__code__: "Message.from_wire",
        track_to_question.__code__: "track_to_question",
    }
    with Calls(topology.simulator, topology.network, work) as window:
        for name in names[1:]:
            lookup(name)
    assert len(answers) == 4 and all(answers)
    rows.update({f"cold_lookup.{label}": window.calls[label] / 3 for label in work.values()})


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A name or a question caches its hash, an int whose size in bytes
        # follows the hash seed: the DNS rows move by a fraction of a byte
        # from seed to seed.  The ledger is measured at seed 0.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    rows: dict = {}
    tables: list[str] = []
    for scenario in (deliver, attach, subscriber, question, domain, cold_lookup, question_census):
        scenario(rows, tables)
    print("\n\n".join(tables), file=sys.stderr)
    print(json.dumps(rows, indent=1, sort_keys=True))
