"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's figures or quantitative
claims.  The produced tables are attached to the benchmark's ``extra_info``
so ``pytest benchmarks/ --benchmark-only -rA`` shows both the timing and the
reproduced numbers; ``tests/golden/runner_fast.txt`` records the experiment
runner's fast-mode tables.
"""

from __future__ import annotations


def attach(benchmark, **extra) -> None:
    """Attach experiment outputs to the benchmark record."""
    for key, value in extra.items():
        benchmark.extra_info[key] = value
