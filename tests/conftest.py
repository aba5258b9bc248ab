"""Shared fixtures for the test suite."""

from __future__ import annotations

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
