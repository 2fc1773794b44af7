"""Monte-Carlo fault-injection campaign against the diagonal ECC.

Stress-tests the full inject -> check -> correct loop under three error
models from the paper's Sec. II-B (uniform SER upsets, abrupt ion-strike
bursts, check-bit-only faults) and reports corrected / detected / silent
rates, cross-validating the binomial failure model behind Figure 6.

Campaigns run on the batched engine behind :class:`CampaignRunner`; the
scalar ``FaultCampaign`` remains available as the (bit-identical)
reference implementation via ``engine="scalar"``.

Run:  python examples/fault_injection_campaign.py
"""

from repro.analysis.report import format_table
from repro.core.blocks import BlockGrid
from repro.faults import (
    BurstInjector,
    CampaignRunner,
    CheckBitInjector,
    UniformInjector,
)
from repro.reliability.montecarlo import validate_against_model


def main() -> None:
    grid = BlockGrid(45, 15)  # paper block size on a small crossbar
    trials = 60

    campaigns = {
        "uniform p=1e-3": UniformInjector(1e-3, seed=1),
        "uniform p=5e-3": UniformInjector(5e-3, seed=2),
        "uniform p=2e-2": UniformInjector(2e-2, seed=3),
        "burst (1 strike, r=1)": BurstInjector(strikes=1, radius=1,
                                               neighbor_probability=0.6,
                                               seed=4),
        "check-bits only p=1e-2": CheckBitInjector(1e-2, seed=5),
    }

    rows = []
    for label, injector in campaigns.items():
        result = CampaignRunner(grid, injector, seed=42).run(trials)
        rows.append([label, result.trials, result.injected_faults,
                     result.corrected, result.detected, result.silent,
                     f"{result.failure_rate:.3f}"])
    print(f"fault campaigns on a {grid.n}x{grid.n} crossbar, "
          f"m={grid.m} ({trials} trials each, batched engine)\n")
    print(format_table(
        ["model", "trials", "faults", "corrected", "detected", "silent",
         "fail rate"], rows))

    print("\nNote: 'detected' = multi-error blocks flagged uncorrectable "
          "(the SEC code's honest answer);")
    print("'silent' would be miscorrection — bursts can alias, uniform "
          "single-bit trials must never be silent.")

    # A larger sharded sweep: per-trial seeding keeps the tallies
    # identical for any worker count.
    sharded = CampaignRunner(grid, UniformInjector(5e-3, seed=0), seed=7,
                             workers=2).run(400)
    print(f"\nsharded sweep (400 trials, 2 workers): "
          f"failure rate {sharded.failure_rate:.3f}, "
          f"silent rate {sharded.silent_rate:.3f}")

    # Adaptive sampling: stop as soon as the failure-rate CI is tight
    # enough instead of guessing a trial count up front. The round
    # schedule is deterministic, so the run is seed-reproducible.
    adaptive = CampaignRunner(grid, UniformInjector(5e-3, seed=0), seed=7,
                              seeding="per-trial").run_adaptive(
        tolerance=0.05, max_trials=4096)
    print(f"\nadaptive sweep: stopped after {adaptive.trials} trials "
          f"({adaptive.rounds} rounds), failure rate "
          f"{adaptive.failure_rate:.3f} in "
          f"[{adaptive.ci_low:.3f}, {adaptive.ci_high:.3f}] "
          f"(95% Wilson, half-width <= {adaptive.tolerance})")

    # The drift and burst simulators ride the same engine.
    from repro.faults import DriftModel
    from repro.reliability import simulate_burst_survival, \
        simulate_drift_survival
    drift = simulate_drift_survival(
        grid, DriftModel(tau_hours=2e5, beta=2.0, abrupt_fit_per_bit=1e4),
        window_hours=24.0, refresh_period_hours=6.0, trials=200, seed=11)
    burst = simulate_burst_survival(grid, 2, trials=200, seed=12)
    print(f"drift window (24h, refresh 6h): failure rate "
          f"{drift.failure_rate:.3f} over {drift.trials} trials")
    print(f"burst survival (L=2): {burst.survival_rate:.3f} "
          f"(closed form 1/m = {1 / grid.m:.3f})")

    # Cross-validate the binomial model at an observable rate.
    report = validate_against_model(grid, p=0.01, trials=150, seed=7)
    print("\nbinomial-model validation (p=0.01, 150 trials):")
    print(f"  analytic block-failure rate : {report['analytic']:.5f}")
    print(f"  empirical block-failure rate: {report['empirical']:.5f}")
    print(f"  consistent within 4 sigma   : {report['consistent']}")
    print(f"  miscorrections of <=1-error blocks: "
          f"{report['miscorrections']} (must be 0)")


if __name__ == "__main__":
    main()
