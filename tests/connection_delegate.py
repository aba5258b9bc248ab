"""A :class:`~repro.quic.connection.ConnectionDelegate` made of plain callables.

For tests that drive a ``QuicConnection`` with no MoQT session above it:
``delegate_to(connection, on_stream_data=..., on_closed=...)`` installs one (or
updates the one installed) and each given callable receives what the matching
delegate method receives; the methods given nothing do nothing.
"""

from __future__ import annotations

from typing import Callable

CALLBACKS = ("on_stream_data", "on_closed", "on_liveness")


class CallbackDelegate:
    """``stream_data_received`` -> ``on_stream_data(stream_id, data, fin)``,
    ``connection_closed`` -> ``on_closed(code, reason)``, ``liveness_changed``
    -> ``on_liveness(old, new)``."""

    def __init__(self) -> None:
        self.on_stream_data: Callable[[int, bytes, bool], None] | None = None
        self.on_closed: Callable[[int, str], None] | None = None
        self.on_liveness: Callable[[str, str], None] | None = None

    def stream_data_received(self, stream_id: int, data: bytes, fin: bool) -> None:
        if self.on_stream_data is not None:
            self.on_stream_data(stream_id, data, fin)

    def connection_closed(self, code: int, reason: str) -> None:
        if self.on_closed is not None:
            self.on_closed(code, reason)

    def liveness_changed(self, old: str, new: str) -> None:
        if self.on_liveness is not None:
            self.on_liveness(old, new)


def delegate_to(connection, **callbacks: Callable) -> CallbackDelegate:
    """Route ``connection``'s delegate calls to ``callbacks`` (named as in
    :data:`CALLBACKS`), keeping any installed earlier by this function."""
    unknown = set(callbacks) - set(CALLBACKS)
    if unknown:
        raise TypeError(f"not a delegate callback: {sorted(unknown)}")
    delegate = connection.delegate
    if not isinstance(delegate, CallbackDelegate):
        delegate = connection.delegate = CallbackDelegate()
    for name, callback in callbacks.items():
        setattr(delegate, name, callback)
    return delegate
