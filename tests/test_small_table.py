"""A one-entry table is two slots: :class:`repro.netsim.table.SmallTable`.

The table stands in for a ``dict`` in six per-peer tables
(``docs/state.md`` § A one-entry table is two slots), so it is held to one:

* a property drives a table and a ``dict`` through the same operations over
  three keys — set and overwrite, ``get`` with and without a default,
  ``pop(key, None)``, ``pop(key)`` (``KeyError`` on a missing key), ``in``,
  ``len`` / ``bool``, iteration, ``values()`` and ``clear`` — and after every
  step requires the same answers, the same keys and values in the same
  order, and that the table references no value the ``dict`` has let go of:
  across the move to a ``dict`` at the second key, a re-insert after a pop,
  and the return to two slots on ``clear``;
* the exact ``tracemalloc`` bytes of a one-entry table and of a one-entry
  ``dict`` on the two CPython releases the ledger is measured on (CI prints
  them in ``footprint.txt``).

Source mutations, each tried when this file was written and each failing the
property: the move to a ``dict`` dropping the inline entry; the move filing
the second key before the first; ``pop`` of the inline entry leaving its
value in the value slot; ``get`` on an empty table matching the vacant-key
sentinel (returning the empty value slot instead of the caller's default).
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from repro.netsim.table import SmallTable

KEYS = (0, 1, 2)
MISSING = object()


class Value:
    """A value with identity only: the comparisons below are ``is``."""

    __slots__ = ("label",)

    def __init__(self, label: int) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"Value({self.label})"


def _apply(target, operation: str, key: int, value: Value):
    """One operation on ``target``; what it answered (or the exception type)."""
    if operation == "set":
        target[key] = value
        return None
    if operation == "get":
        return target.get(key)
    if operation == "get_default":
        return target.get(key, MISSING)
    if operation == "pop_default":
        return target.pop(key, None)
    if operation == "pop":
        try:
            return target.pop(key)
        except KeyError as error:
            return KeyError, error.args
    target.clear()
    return None


def _held_values(table: SmallTable) -> list[Value]:
    """Every ``Value`` the table references, through its slots and its dict."""
    held = []
    for referent in gc.get_referents(table):
        if isinstance(referent, dict):
            held += [item for item in referent.values() if isinstance(item, Value)]
        elif isinstance(referent, Value):
            held.append(referent)
    return held


def _assert_same(table: SmallTable, reference: dict) -> None:
    assert len(table) == len(reference)
    assert bool(table) == bool(reference)
    assert list(table) == list(reference)
    assert [id(value) for value in table.values()] == [id(value) for value in reference.values()]
    for key in KEYS:
        assert (key in table) == (key in reference)
        assert table.get(key) is reference.get(key)
        assert table.get(key, MISSING) is reference.get(key, MISSING)
    live = {id(value) for value in reference.values()}
    assert all(id(value) in live for value in _held_values(table))


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["set", "set", "set", "get", "get_default", "pop_default", "pop", "clear"]),
        st.sampled_from(KEYS),
    ),
    max_size=40,
)


@given(OPERATIONS)
@example([("get_default", 0), ("set", 0), ("set", 1), ("set", 0), ("set", 2)])
@example([("set", 1), ("pop", 1), ("get_default", 1), ("set", 2), ("set", 1), ("pop", 2)])
@example([("set", 0), ("set", 1), ("clear", 0), ("set", 2), ("pop_default", 2), ("pop", 2)])
def test_a_small_table_answers_what_a_dict_answers(operations):
    table, reference = SmallTable(), {}
    _assert_same(table, reference)
    for label, (operation, key) in enumerate(operations):
        value = Value(label)
        assert _apply(table, operation, key, value) == _apply(reference, operation, key, value)
        _assert_same(table, reference)


def _one_entry_bytes(make) -> int:
    """Live bytes of a table built by ``make()`` and given one entry whose
    key and value exist already: the container alone."""
    value = Value(0)
    tracemalloc.start()
    try:
        table = make()
        table[7] = value
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 1
    return size


#: ``(SmallTable, dict)`` bytes with one entry, per CPython release measured.
ONE_ENTRY_BYTES = {(3, 11): (56, 224), (3, 12): (56, 224)}


def test_a_one_entry_table_is_a_quarter_of_a_one_entry_dict():
    measured = (_one_entry_bytes(SmallTable), _one_entry_bytes(dict))
    print(f"\none entry, CPython {sys.version.split()[0]}: SmallTable {measured[0]} B, dict {measured[1]} B")
    assert measured == ONE_ENTRY_BYTES[sys.version_info[:2]]


def test_the_second_key_moves_the_entries_into_a_dict_and_clear_moves_them_back():
    table = SmallTable()
    table[5] = first = Value(5)
    assert table._table is None and table._key == 5 and table._value is first
    table[6] = Value(6)
    assert table._table is not None and list(table) == [5, 6]
    assert table._value is None  # nothing held twice
    table.pop(5)
    table.pop(6)
    assert table._table == {}  # popped empty, still a dict, like a dict
    table.clear()
    assert table._table is None and len(table) == 0
    with pytest.raises(KeyError):
        table.pop(5)
