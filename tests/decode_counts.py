"""Count the decodes a run makes, by kind, whatever memo sits in front of them.

``count_decodes(monkeypatch)`` wraps every control message's
``decode_payload`` (``"control"``), both data-stream headers' ``decode``
(``"stream"``) and ``Message.from_wire`` (``"dns"``), and returns the
``Counter`` they fill in as they run.  These are the parsers themselves, so
the counts are the memos' misses wherever the memos live.
"""

from __future__ import annotations

from collections import Counter

from repro.dns.message import Message
from repro.moqt.datastream import FetchStreamHeader, SubgroupStreamHeader
from repro.moqt.messages import _DECODERS


def count_decodes(monkeypatch) -> Counter:
    counts: Counter = Counter()

    def wrap(owner: type, name: str, kind: str) -> None:
        decode = getattr(owner, name).__func__

        def counted(cls, *args):
            counts[kind] += 1
            return decode(cls, *args)

        monkeypatch.setattr(owner, name, classmethod(counted))

    for decoder in _DECODERS.values():
        wrap(decoder, "decode_payload", "control")
    for header in (SubgroupStreamHeader, FetchStreamHeader):
        wrap(header, "decode", "stream")
    wrap(Message, "from_wire", "dns")
    return counts
