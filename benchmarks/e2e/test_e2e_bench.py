"""Self-tests of the end-to-end benchmark (collected by the tier-1 suite).

Everything runs in-process at ``--scale smoke``; nothing here asserts on
host time.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
SIM_METRICS = [name for name, _, _, _, kind in run.END_TO_END if kind == "sim"]


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    """No host number is asserted on: shrink the calibration ring and take
    one batch per unit-cost driver."""
    monkeypatch.setattr(workloads.Calibrator, "RING", 2000)
    monkeypatch.setattr(layers, "BATCHES", 1)


def measure(capsys, name: str, seed: int, trace: int = 0) -> tuple[dict, int]:
    """``run.py --workload`` in-process; returns (result line, exit code)."""
    code = run.main(
        ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "smoke"]
    )  # fmt: skip
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1]), code


def test_benchmark_json_matches_the_benchmark():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [why for _, why in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        spec[:4] for spec in run.END_TO_END if spec[0] != "failed_ops_ratio"
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert set(workloads.SCALES["smoke"]) == set(workloads.SCALES["full"]) == {
        "run", *workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_is_correct_and_deterministic(capsys, name):
    first, code = measure(capsys, name, run.DEFAULT_SEED)
    assert code == 0 and first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    assert list(first["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(first["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in first["metrics"].values())
    again, _ = measure(capsys, name, run.DEFAULT_SEED)
    for metric in SIM_METRICS:
        if metric in first["metrics"]:
            assert again["metrics"][metric] == first["metrics"][metric]  # bit-identical
    held_out, code = measure(capsys, name, 20250624)
    assert code == 0 and held_out["correct"] and held_out["failed"] == 0


def test_traced_run_reports_every_per_layer_metric(capsys):
    update, code = measure(capsys, "dns_update", run.DEFAULT_SEED, trace=1)
    assert code == 0 and update["correct"]
    assert list(update["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    shares = {layer: update["metrics"][f"{layer}.self_share"]["value"] for layer in layers.LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["relaynet"] == 0.0 and shares["core"] + shares["dns"] > 0.3
    fanout, code = measure(capsys, "tree_fanout", run.DEFAULT_SEED, trace=1)
    assert code == 0 and fanout["correct"]
    shares = {layer: fanout["metrics"][f"{layer}.self_share"]["value"] for layer in layers.LAYERS}
    assert shares["core"] + shares["dns"] == 0.0
    assert shares["netsim"] + shares["quic"] + shares["moqt"] + shares["relaynet"] > 0.8
    assert fanout["metrics"]["relaynet.origin_egress_bytes_per_update"]["value"] > 0


def test_broken_expectation_fails_the_run(capsys, monkeypatch):
    function, why = workloads.WORKLOADS["tree_fanout"]

    def one_delivery_short(trial, params, seed):
        result = function(trial, params, seed)
        result.attempted += 1  # expected deliveries + 1
        return result

    monkeypatch.setitem(workloads.WORKLOADS, "tree_fanout", (one_delivery_short, why))
    code = run.main(["--workload", "tree_fanout", "--seconds", "0", "--scale", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads([line for line in lines if line.startswith("detail: ")][-1][8:])
    assert code != 0
    assert json.loads(lines[-1])["failed"] == 1
    assert detail["metrics"]["failed_ops_ratio"] > 0


def test_compare_verdicts():
    assert run.verdict([10.0, 10.2, 10.1], [8.0, 8.1, 8.2], "lower", 0.1, "host") == "better"
    assert run.verdict([10.0, 10.2, 10.1], [12.0, 11.9, 12.3], "lower", 0.1, "host") == "worse"
    assert run.verdict([10.0, 10.2, 10.1], [10.1, 10.3, 10.0], "lower", 0.1, "host") == "same"
    assert run.verdict([10.0, 14.0, 12.0], [11.0, 15.0, 12.5], "lower", 0.1, "host") == "unresolved"
    assert run.verdict([35.0], [35.0], "lower", 0.05, "sim") == "same"
    assert run.verdict([35.0], [35.0001], "lower", 0.05, "sim") == "worse"


def test_benchmark_uses_only_public_names_of_repro():
    """The benchmark must survive rewrites of ``repro`` internals: no
    ``_private`` attribute access, no ``_private`` import from ``repro.*``,
    nothing from the perf harness."""
    offences = []
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                if private and not own:
                    offences.append(f"{where} private attribute .{node.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                names = [alias.name for alias in node.names]
                if "perf_fastpath" in module or any("perf_fastpath" in name for name in names):
                    offences.append(f"{where} imports the perf harness")
                if module.split(".")[0] == "repro" and any(
                    part.startswith("_") for name in names + [module] for part in name.split(".")
                ):
                    offences.append(f"{where} private import from {module}")
    assert not offences, offences
