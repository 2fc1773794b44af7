"""Test-support harnesses shipped with the package (not test code).

:mod:`repro.testing.chaos` is the deterministic fault-injection
harness: seeded :class:`~repro.testing.chaos.ChaosPlan` schedules plus
proxy wrappers for the store, client, and worker transport.
Shipped under ``src/`` rather than ``tests/`` because operators can
point it at a staging deployment, not just at the unit suites.
"""

from repro.testing.chaos import (
    CHAOS_SCENARIOS,
    ChaosClient,
    ChaosError,
    ChaosPlan,
    ChaosStore,
    ChaosWorkSource,
    FaultRule,
    TornWriteError,
    corrupt_file,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosClient",
    "ChaosError",
    "ChaosPlan",
    "ChaosStore",
    "ChaosWorkSource",
    "FaultRule",
    "TornWriteError",
    "corrupt_file",
]
