"""Structural guard: one downstream-subscription record, one fan-out loop.

An ``ast`` walk over ``src/repro`` (``docs/publishers.md``):

* ``MoqtSession.publish`` — the two-or-more-argument ``.publish(subscription,
  obj[, encoded])``, as opposed to ``TrackState.publish(obj)`` — is called from
  exactly one function, ``publish_to`` in ``moqt/session.py``;
* outside ``moqt/session.py`` no module of ``core/`` or ``moqt/`` keeps or
  consults a table keyed by ``(session, request_id)``: nothing is indexed or
  looked up by a request ID, and the pair itself is never written down — an
  accepted subscription is its record, which carries the session, and a
  deferred one (the relay's ``awaiting_upstream``) is its SUBSCRIBE message.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only place an object is sent to a subscription.
FAN_OUT = ("moqt/session.py", "publish_to")
LOOKUPS = {"get", "pop", "setdefault", "publisher_subscription"}


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


def violations(source: str, path: str) -> list[str]:
    """Every offending ``path:line: why`` in one module's source."""
    found: list[str] = []
    guarded_tables = path.startswith(("core/", "moqt/")) and path != "moqt/session.py"

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
