"""The exact-cost ledger (``docs/state.md`` § How to measure).

Each row ``collect.py`` measures in a fresh process must equal the committed
``<major>.<minor>.json`` of the running interpreter: a cost that moves by one
call or one byte, either way, fails with its ``moved a → b`` / ``new`` /
``gone`` line and the per-file tables (``-s`` prints them always).  Pinned
as well: the comparison names each kind of difference (a doctored ledger),
and the one attribution rule the calls and the bytes share.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

import collect

HERE = Path(__file__).resolve().parent
LEDGER = HERE / f"{sys.version_info.major}.{sys.version_info.minor}.json"


def differences(ledger: dict, measured: dict) -> list[str]:
    """One line per row that differs, in row order."""
    lines = []
    for row in sorted(ledger.keys() | measured.keys()):
        if row not in measured:
            lines.append(f"{row} gone (ledger {ledger[row]})")
        elif row not in ledger:
            lines.append(f"{row} new (measured {measured[row]})")
        elif measured[row] != ledger[row]:
            lines.append(f"{row} moved {ledger[row]} → {measured[row]}")
    return lines


def test_every_exact_cost_equals_its_ledger_row(exact_costs):
    rows, tables = exact_costs
    print(f"\n{tables}")
    if not LEDGER.exists():
        pytest.skip(f"no ledger measured on CPython {LEDGER.stem}")
    moved = differences(json.loads(LEDGER.read_text()), rows)
    assert not moved, (
        "exact costs differ from " + LEDGER.name + ":\n" + "\n".join(moved) + f"\n\n{tables}\n\n"
        "An intended move regenerates the ledger "
        f"(PYTHONPATH=src python tests/exact/collect.py > tests/exact/{LEDGER.name}) "
        "and lists old → new in CHANGES.md."
    )


def test_the_comparison_names_each_kind_of_difference():
    measured = json.loads((HERE / "3.11.json").read_text())
    doctored = dict(measured)
    doctored["deliver.frames"] += 1
    del doctored["subscriber.census.SubscriberSink"]
    doctored["subscriber.census.partial"] = 4.0
    frames = measured["deliver.frames"]
    assert differences(doctored, measured) == [
        f"deliver.frames moved {frames + 1} → {frames}",
        "subscriber.census.SubscriberSink new (measured 1.0)",
        "subscriber.census.partial gone (ledger 4.0)",
    ]
    assert differences(measured, measured) == []


@pytest.mark.parametrize(
    ("path", "layer"),
    [
        (collect.SRC + os.path.join("quic", "connection.py"), "quic"),
        (collect.SRC + os.path.join("relaynet", "topology.py"), "relaynet"),
        (collect.SRC + "memo.py", "memo"),
        (collect.STDLIB + "random.py", "random"),
        (collect.STDLIB + "ipaddress.py", "ipaddress"),
        (collect.STDLIB + "enum.py", "enum"),
        ("<string>", "generated"),
        # Anything else is a failure, not a row.
        (collect.STDLIB + os.path.join("collections", "__init__.py"), None),
        (collect.STDLIB + os.path.join("site-packages", "hypothesis", "internal", "junkdrawer.py"), None),
        (str(HERE.parent / "test_hierarchy.py"), None),
        (os.path.join(os.sep, "elsewhere", "random.py"), None),
    ],
)
def test_one_attribution_rule_for_the_calls_and_the_bytes(path, layer):
    if layer is None:
        with pytest.raises(collect.Unattributed):
            collect.layer_of(path)
    else:
        assert collect.layer_of(path) == layer
