"""Datagrams and addresses exchanged through the simulated network.

The simulator models an idealised IP/UDP layer: endpoints are identified by a
host address (a string such as ``"10.0.0.1"`` or a symbolic name) and a
numeric port, and payloads are opaque byte strings.  Higher layers (classic
DNS, QUIC) build their own framing inside the payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Well-known port of the simulated MoQT servers.  It sits beside
#: :class:`Address` because the DNS and the MoQT packages both name it and
#: neither imports the other.
MOQT_PORT = 4443


@dataclass(frozen=True, order=True)
class Address:
    """A (host, port) endpoint address in the simulated network."""

    host: str
    port: int

    def __str__(self) -> str:
        # Rendered twice per datagram by the trace layer; cache on first use.
        try:
            return self._str  # type: ignore[attr-defined]
        except AttributeError:
            text = f"{self.host}:{self.port}"
            object.__setattr__(self, "_str", text)
            return text


@dataclass(slots=True)
class Datagram:
    """A single datagram in flight between two addresses.

    Attributes
    ----------
    source / destination:
        Endpoint addresses.
    payload:
        Opaque application bytes (``bytes`` or a ``memoryview`` over a pooled
        buffer for pool-managed datagrams).
    protocol:
        A label used only for tracing and statistics (e.g. ``"udp-dns"``,
        ``"quic"``).
    metadata:
        Free-form per-datagram annotations; ``None`` until a writer needs
        them, so the common (annotation-free) datagram carries no dict.

    Pool-managed datagrams (created by :meth:`DatagramPool.acquire`) are
    refcounted: the network holds one reference while the datagram is in
    flight and releases it after final delivery.  A consumer that keeps the
    datagram (or a view of its payload) beyond the delivery callback must
    :meth:`retain` it and :meth:`release` it later; datagrams built directly
    (no pool) ignore both calls.

    Releasing a shell that holds no reference — a second ``release()`` after
    the one that reclaimed it — is a no-op, not an error: the shell already
    sits in the pool's free list, and reclaiming it again would put it there
    twice, so two later ``acquire()`` calls would return one object.  (Once
    the pool has handed the shell out again it belongs to the new sender; a
    stale holder must not touch it at all.)
    """

    source: Address
    destination: Address
    payload: bytes
    protocol: str = "udp"
    metadata: dict[str, Any] | None = None
    _pool: "DatagramPool | None" = None
    _buffer: bytearray | None = None
    _refs: int = 0

    @property
    def size(self) -> int:
        """Size of the payload in bytes (headers are not modelled)."""
        return len(self.payload)

    def reply(self, payload: bytes, protocol: str | None = None) -> "Datagram":
        """Build a datagram going back from destination to source."""
        return Datagram(
            source=self.destination,
            destination=self.source,
            payload=payload,
            protocol=protocol if protocol is not None else self.protocol,
        )

    def retain(self) -> "Datagram":
        """Add a reference, keeping a pooled datagram (and payload) alive."""
        if self._pool is not None:
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; at zero a pooled datagram returns to its pool."""
        pool = self._pool
        references = self._refs
        if pool is None or references <= 0:
            return
        self._refs = references - 1
        if references == 1:
            pool._reclaim(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Datagram({self.source}->{self.destination}, "
            f"{self.size}B, proto={self.protocol})"
        )


#: Free lists larger than this stop growing; beyond the cap, released
#: datagrams and buffers are simply dropped for the garbage collector.  The
#: cap bounds pool memory after a burst (e.g. 100k simultaneous handshakes)
#: while still covering the steady-state in-flight population.
_POOL_FREE_LIST_CAP = 32768


class DatagramPool:
    """A slotted free-list pool of :class:`Datagram` shells and send buffers.

    The fan-out hot path sends one datagram per subscriber per object; without
    pooling, every one of them allocates a fresh :class:`Datagram` plus a
    fresh ``bytes`` payload.  The pool recycles both:

    * :meth:`acquire` returns a reset datagram shell from the free list (or a
      new one when the list is empty), refcounted so it returns automatically
      after final delivery;
    * :meth:`acquire_buffer` returns an empty ``bytearray`` senders serialise
      packets into; passing it back via ``acquire(..., buffer=...)`` makes the
      pool reclaim it together with the datagram.

    Safety: a reclaimed buffer is only reused once every exported
    ``memoryview`` over it has been released.  If a consumer still holds a
    view (it should have called :meth:`Datagram.retain`), the buffer is
    abandoned to the garbage collector instead of being recycled — a stale
    view can therefore never observe a later send's bytes.
    """

    __slots__ = (
        "_free",
        "_free_buffers",
        "datagrams_allocated",
        "datagrams_reused",
        "buffers_allocated",
        "buffers_reused",
        "buffers_abandoned",
    )

    def __init__(self) -> None:
        self._free: list[Datagram] = []
        self._free_buffers: list[bytearray] = []
        self.datagrams_allocated = 0
        self.datagrams_reused = 0
        self.buffers_allocated = 0
        self.buffers_reused = 0
        self.buffers_abandoned = 0

    def acquire(
        self,
        source: Address,
        destination: Address,
        payload: bytes,
        protocol: str = "udp",
        buffer: bytearray | None = None,
    ) -> Datagram:
        """Get a datagram shell, reset and holding one reference.

        ``buffer`` is the pooled ``bytearray`` backing ``payload`` (when the
        payload is a ``memoryview`` produced by :meth:`acquire_buffer`); the
        pool reclaims it when the datagram's refcount drops to zero.
        """
        free = self._free
        if free:
            datagram = free.pop()
            self.datagrams_reused += 1
            datagram.source = source
            datagram.destination = destination
            datagram.payload = payload
            datagram.protocol = protocol
            datagram.metadata = None
            datagram._buffer = buffer
            datagram._refs = 1
            return datagram
        self.datagrams_allocated += 1
        return Datagram(
            source, destination, payload, protocol, None, self, buffer, 1
        )

    def acquire_buffer(self) -> bytearray:
        """Get an empty send buffer (recycled when possible)."""
        free = self._free_buffers
        while free:
            buffer = free.pop()
            try:
                buffer.clear()
            except BufferError:
                # A consumer still exports a view over this buffer; abandon
                # it rather than ever mutating bytes someone can observe.
                self.buffers_abandoned += 1
                continue
            self.buffers_reused += 1
            return buffer
        self.buffers_allocated += 1
        return bytearray()

    def _reclaim(self, datagram: Datagram) -> None:
        buffer = datagram._buffer
        payload = datagram.payload
        datagram.payload = b""
        datagram.metadata = None
        datagram._buffer = None
        datagram._refs = 0
        if buffer is not None:
            if type(payload) is memoryview:
                try:
                    payload.release()
                except BufferError:
                    # Sub-views of the payload are still alive somewhere;
                    # leave the buffer to the garbage collector.
                    self.buffers_abandoned += 1
                    buffer = None
            if buffer is not None and len(self._free_buffers) < _POOL_FREE_LIST_CAP:
                self._free_buffers.append(buffer)
        if len(self._free) < _POOL_FREE_LIST_CAP:
            self._free.append(datagram)

    def counters(self) -> dict[str, int]:
        """Allocation/reuse counters for benchmark output."""
        return {
            "datagrams_allocated": self.datagrams_allocated,
            "datagrams_reused": self.datagrams_reused,
            "buffers_allocated": self.buffers_allocated,
            "buffers_reused": self.buffers_reused,
            "buffers_abandoned": self.buffers_abandoned,
        }
