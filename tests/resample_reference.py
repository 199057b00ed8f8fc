"""Reference resampling loop that the higher-order tests compare against.

This is the counterfactual term as the package computed it before the
draws were produced in chunks: one ``SeedSequence(seed, spawn_key=(i,
u))``, one ``Generator`` and one ``integers`` call per repetition u,
added into the accumulator one repetition at a time.  It is slow and
kept only as the oracle: ``estimate_higher_order`` must reproduce its
theta bit for bit.
"""

from __future__ import annotations

import numpy as np

from orthoate.estimators import estimate_moments
from orthoate.score import compute_coefficients, correction_values


def counterfactual_term(pool, A_c, N: int, R: int, seed: int, i: int) -> float:
    """Mean over R repetitions of one uniform resampling pass of ``pool``."""
    acc = 0.0
    for u in range(R):
        rng_u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, u)))
        draws = pool[rng_u.integers(0, pool.size, size=A_c.size)]
        acc += float((draws * A_c).sum() / N)
    return acc / R


def reference_theta(y, d, G, P, r: int, k: int, R: int = 100, seed: int = 0, moments=None):
    """The ``theta`` of ``estimate_higher_order`` with the same arguments."""
    N = y.size
    theta = np.zeros(G.shape[1])
    for i in range(G.shape[1]):
        mom = moments[i] if moments is not None else estimate_moments(d, P[:, i], i, r)
        coeffs = compute_coefficients(r, k, mom)
        A = correction_values((d == i).astype(float), P[:, i], coeffs, mom)
        factual = d == i
        pool = y[factual] - G[factual, i]
        term_a = float(G[:, i].mean())
        term_b = float((pool * A[factual]).sum() / N)
        counter = ~factual
        term_c = counterfactual_term(pool, A[counter], N, R, seed, i) if counter.any() else 0.0
        theta[i] = term_a + term_b + term_c
    return theta
