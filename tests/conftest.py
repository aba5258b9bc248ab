"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from repro.moqt.session import _UNUSED
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator

# Derandomised profile for shared CI runners (``--hypothesis-profile ci``):
# a fixed example sequence and no per-example deadline, so the property and
# fuzz tests cannot flake on a slow or unlucky run.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(autouse=True)
def shared_empty_table_stays_empty():
    """Every ``MoqtSession`` shares one empty table for the roles it has not
    played (``docs/state.md``); whatever a test did, nothing leaked into it."""
    yield
    assert len(_UNUSED) == 0


@pytest.fixture(scope="session")
def exact_costs() -> tuple[dict, str]:
    """``(rows, per-file tables)`` of the exact-cost collector
    (``tests/exact/collect.py``), run once per session in a fresh process, so
    the rows are the same whatever ran before.  Coverage's subprocess hooks
    are not passed on: a traced collector would count coverage's frames."""
    repo = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if not key.startswith(("COV_", "COVERAGE_"))}
    collector = subprocess.run(
        [sys.executable, str(repo / "tests" / "exact" / "collect.py")],
        capture_output=True,
        text=True,
        cwd=repo,
        env={**env, "PYTHONPATH": str(repo / "src")},
    )
    if collector.returncode:
        pytest.fail(f"the exact-cost collector failed:\n{collector.stderr}")
    return json.loads(collector.stdout), collector.stderr


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def two_host_network(simulator: Simulator) -> Network:
    """Two hosts ('10.0.0.1', '10.0.0.2') joined by a 20 ms RTT link."""
    network = Network(simulator)
    network.add_host("10.0.0.1")
    network.add_host("10.0.0.2")
    network.connect("10.0.0.1", "10.0.0.2", LinkConfig(delay=0.010))
    return network


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end simulations")
