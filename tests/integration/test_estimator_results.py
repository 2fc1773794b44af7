"""End-to-end: every estimator hands back plain Python numbers.

The estimators run batched numpy kernels, but their results cross a
host boundary: the service stores them as JSON and compares them
across builds and workers. A numpy scalar leaking into a result would
break that (``json.dumps`` refuses ``np.int64``), so each public result
field must be a plain ``int``, ``float`` or ``bool``.
"""

import dataclasses
import json

import pytest

from repro.analysis.scrub import empirical_scrub_failure
from repro.core.blocks import BlockGrid
from repro.faults import DriftModel
from repro.reliability import (
    estimate_block_failure_rate,
    simulate_burst_survival,
    simulate_drift_survival,
)

_DRIFT = DriftModel(tau_hours=150.0, beta=2.0, abrupt_fit_per_bit=5e5)

#: Each estimator as a thunk returning its result's fields.
ESTIMATORS = {
    "montecarlo": lambda: dataclasses.asdict(estimate_block_failure_rate(
        BlockGrid(9, 3), 0.05, trials=10, seed=1)),
    "drift": lambda: dataclasses.asdict(simulate_drift_survival(
        BlockGrid(15, 5), _DRIFT, 24.0, 4.0, trials=20, seed=3,
        packing="u64")),
    "burst": lambda: dataclasses.asdict(simulate_burst_survival(
        BlockGrid(15, 5), 2, 30, seed=4, packing="u64")),
    "scrub": lambda: empirical_scrub_failure(
        BlockGrid(15, 5), 5e6, 24, 256, seed=3, tolerance=0.08),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimator_results_are_plain_python(name):
    fields = ESTIMATORS[name]()
    assert fields["trials"] > 0
    leaked = {key: type(value).__name__ for key, value in fields.items()
              if type(value) not in (int, float, bool)}
    assert not leaked
    assert json.loads(json.dumps(fields)) == fields
