"""A table that usually holds one entry: two slots, not a hash table.

Six tables an attached subscriber keeps hold one entry each for its whole
life: its host's one bound port, its endpoint's one connection, its ticket
store's one server, its session's one subscription (filed by request ID and
by track alias) and the relay-side session's one downstream subscription.  A
``dict`` with one entry is 224 B; :class:`SmallTable` keeps that entry in two
slots of a 56-B object.  Its second distinct key moves the entries into a
``dict`` held in a third slot, in insertion order, and :meth:`clear` returns it
to the two slots.  It offers the operations its readers use — ``get``, item
assignment, ``pop``, ``in``, ``len``, iteration, ``values`` and ``clear`` —
with ``dict``'s meaning, so no reader knows which form it holds
(``docs/state.md`` § A one-entry table is two slots).
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")

#: The key slot of a table that holds no inline entry (nothing compares
#: equal to it), and ``pop``'s "no default given".
_VACANT = object()


class SmallTable(Generic[K, V]):
    """A mapping whose one entry is two slots until a second key arrives."""

    __slots__ = ("_key", "_value", "_table")

    def __init__(self) -> None:
        self._key: object = _VACANT
        self._value: V | None = None
        #: The entries once a second distinct key arrived, else ``None``.
        self._table: dict[K, V] | None = None

    def get(self, key: K, default: V | None = None) -> V | None:
        table = self._table
        if table is not None:
            return table.get(key, default)
        if key == self._key:
            return self._value
        return default

    def __setitem__(self, key: K, value: V) -> None:
        table = self._table
        if table is not None:
            table[key] = value
        elif key == self._key:
            self._value = value
        elif self._key is _VACANT:
            self._key = key
            self._value = value
        else:
            self._table = {self._key: self._value, key: value}
            self._key = _VACANT
            self._value = None

    def pop(self, key: K, default: object = _VACANT) -> object:
        table = self._table
        if table is not None:
            return table.pop(key) if default is _VACANT else table.pop(key, default)
        if key == self._key:
            value = self._value
            self._key = _VACANT
            self._value = None
            return value
        if default is _VACANT:
            raise KeyError(key)
        return default

    def clear(self) -> None:
        self._key = _VACANT
        self._value = None
        self._table = None

    def __contains__(self, key: object) -> bool:
        table = self._table
        if table is not None:
            return key in table
        return key == self._key

    def __len__(self) -> int:
        table = self._table
        if table is not None:
            return len(table)
        return 0 if self._key is _VACANT else 1

    def __iter__(self) -> Iterator[K]:
        table = self._table
        if table is not None:
            return iter(table)
        return iter(() if self._key is _VACANT else (self._key,))

    def values(self) -> Iterable[V]:
        table = self._table
        if table is not None:
            return table.values()
        return () if self._key is _VACANT else (self._value,)
