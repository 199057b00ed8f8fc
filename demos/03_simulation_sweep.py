"""Sweep estimators over sample size and over propensity corruption.

Runs the synthetic benchmark twice.  The first block grows the sample
and tracks median relative error of the first-order estimator against
the order-(2, 2) one.  The second block keeps the sample fixed and
injects log-space noise into the fitted propensities, which hits the
inverse-weighted estimator much harder than the resampling one.

Run from the repository root (takes a few seconds):

    python3 demos/03_simulation_sweep.py
"""

from dataclasses import replace

import numpy as np

from orthoate import EstimatorSpec, LearnerSpec, SimConfig, run_sweep

SPECS = (
    EstimatorSpec("dml"),
    EstimatorSpec("higher_order", r=2, k=2, R=50),
)
LEARNERS = (LearnerSpec(regressor="lasso", propensity="logistic"),)

# Informative confounding; the default draw is too mild to separate the
# estimators at these sample sizes.
BETA = 0.8 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
COEFFS = np.array([[0.15, 0.20], [0.18, 0.14], [0.25, 0.18]])

cfg = SimConfig(
    Q=4000,
    p=2,
    r_c=1.0,
    n_treatments=3,
    M=20,
    master_seed=3,
    beta=BETA,
    outcome_coeffs=COEFFS,
)


def print_table(report, title):
    print(title)
    print(f"  {'grid':>6}  {'estimator':<9}  {'median rel err':>14}  {'mean':>8}")
    for row in report.aggregate():
        print(
            f"  {row['grid_value']:>6}  {row['estimator']:<9}"
            f"  {row['median']:>14.4f}  {row['eps_ate']:>8.4f}"
        )
    print()


# ---- block 1: sample size --------------------------------------------
report = run_sweep(cfg, "samplesize", [500, 1000, 2000, 4000], SPECS, LEARNERS)
print_table(report, "clean propensities, 20 replications per grid point:")

# ---- block 2: corrupted propensities ---------------------------------
# Multiplicative log-normal noise on the fitted propensities, then
# renormalization.  Units with small fitted pi can see their inverse
# weight change by a large factor; the resampling estimator never forms
# an inverse weight.
noisy_cfg = replace(cfg, propensity_noise_sd=0.5)
report_noisy = run_sweep(noisy_cfg, "samplesize", [4000], SPECS, LEARNERS)
print_table(report_noisy, "propensity noise sd 0.5 at the largest sample:")

clean = {r["estimator"]: r["median"] for r in report.aggregate() if r["grid_value"] == 4000}
noisy = {r["estimator"]: r["median"] for r in report_noisy.aggregate()}
for est in ("dml", "ho(2,2)"):
    ratio = noisy[est] / clean[est]
    print(f"{est}: noise multiplies the median error by {ratio:.1f}")
