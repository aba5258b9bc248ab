"""DatagramPool free-list cap boundaries.

The pool's free lists stop growing at ``_POOL_FREE_LIST_CAP``: a release
beyond the cap abandons the shell/buffer to the garbage collector instead of
recycling it, bounding pool memory after a burst.  These tests pin the
boundary semantics — fill *to* the cap recycles everything, fill *past* it
abandons exactly the overflow, the reuse counters stay consistent at the
cap, and a buffer retained past reclamation is never handed out again.
"""

from __future__ import annotations

import pytest

from repro.netsim import packet as packet_module
from repro.netsim.packet import Address, DatagramPool

SOURCE = Address("a", 1)
DESTINATION = Address("b", 2)


@pytest.fixture
def small_cap(monkeypatch):
    """Shrink the free-list cap so the boundary is reachable instantly."""
    monkeypatch.setattr(packet_module, "_POOL_FREE_LIST_CAP", 4)
    return 4


def _acquire_many(pool, count):
    return [
        pool.acquire(SOURCE, DESTINATION, b"payload-%d" % i) for i in range(count)
    ]


def test_release_past_cap_abandons_shells(small_cap):
    pool = DatagramPool()
    datagrams = _acquire_many(pool, small_cap + 3)
    assert pool.datagrams_allocated == small_cap + 3
    for datagram in datagrams:
        datagram.release()
    # The free list stopped at the cap; the overflow was dropped for GC.
    assert len(pool._free) == small_cap
    # Reacquiring the same population reuses exactly cap shells and
    # allocates fresh ones for the abandoned overflow.
    _acquire_many(pool, small_cap + 3)
    assert pool.datagrams_reused == small_cap
    assert pool.datagrams_allocated == (small_cap + 3) * 2 - small_cap


def test_release_past_cap_abandons_buffers(small_cap):
    pool = DatagramPool()
    buffers = [pool.acquire_buffer() for _ in range(small_cap + 2)]
    assert pool.buffers_allocated == small_cap + 2
    datagrams = []
    for index, buffer in enumerate(buffers):
        buffer += b"x" * (index + 1)
        datagrams.append(
            pool.acquire(
                SOURCE, DESTINATION, memoryview(buffer).toreadonly(), buffer=buffer
            )
        )
    for datagram in datagrams:
        datagram.release()
    assert len(pool._free_buffers) == small_cap
    reissued = [pool.acquire_buffer() for _ in range(small_cap + 2)]
    assert pool.buffers_reused == small_cap
    assert pool.buffers_allocated == (small_cap + 2) * 2 - small_cap
    # The recycled buffers come back empty, ready for serialisation.
    assert all(len(buffer) == 0 for buffer in reissued)


def test_reuse_counters_consistent_exactly_at_cap(small_cap):
    pool = DatagramPool()
    for round_index in range(3):
        datagrams = _acquire_many(pool, small_cap)
        for datagram in datagrams:
            datagram.release()
    # Round one allocated cap shells; every later round reused them all.
    assert pool.datagrams_allocated == small_cap
    assert pool.datagrams_reused == small_cap * 2
    assert len(pool._free) == small_cap


def test_retained_buffer_is_never_reissued(small_cap):
    """A buffer whose payload view is still exported must not be recycled.

    The consumer keeps a (retained) view beyond reclamation; when the pool
    later tries to reuse the buffer, clearing it raises ``BufferError`` and
    the buffer is abandoned — a stale view can never observe later sends.
    """
    pool = DatagramPool()
    buffer = pool.acquire_buffer()
    buffer += b"secret-bytes"
    payload = memoryview(buffer).toreadonly()
    datagram = pool.acquire(SOURCE, DESTINATION, payload, buffer=buffer)
    # A consumer keeps its own view of the payload without retaining the
    # datagram (the bug the abandon path defends against).
    leaked_view = memoryview(buffer)
    datagram.release()
    assert buffer in pool._free_buffers  # reclaimed: the pool's own view released
    reissued = pool.acquire_buffer()
    assert reissued is not buffer
    assert pool.buffers_abandoned == 1
    assert buffer not in pool._free_buffers
    # The stale view still sees the original bytes, untouched.
    assert bytes(leaked_view) == b"secret-bytes"
    # Later acquisitions never hand the abandoned buffer out again.
    later = [pool.acquire_buffer() for _ in range(small_cap)]
    assert all(candidate is not buffer for candidate in later)


def test_refcounted_retain_defers_reclaim(small_cap):
    pool = DatagramPool()
    datagram = pool.acquire(SOURCE, DESTINATION, b"payload")
    datagram.retain()
    datagram.release()
    assert len(pool._free) == 0  # still referenced
    datagram.release()
    assert len(pool._free) == 1


def test_double_release_does_not_alias_two_later_datagrams():
    """Releasing a shell that holds no reference is a no-op.

    It used to drive ``_refs`` to -1 and reclaim the shell a second time, so
    the free list held it twice and two later sends shared one object — the
    second overwrote the first's destination and payload while in flight.
    """
    pool = DatagramPool()
    datagram = pool.acquire(SOURCE, DESTINATION, b"payload")
    datagram.release()
    datagram.release()
    assert datagram._refs == 0
    assert len(pool._free) == 1
    first = pool.acquire(SOURCE, DESTINATION, b"one")
    second = pool.acquire(SOURCE, DESTINATION, b"two")
    assert first is not second
    assert (first.payload, second.payload) == (b"one", b"two")

