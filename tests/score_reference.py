"""Analytic derivatives of the correction factor that the score tests compare against.

The package evaluates the correction A(t, a) but never its derivatives
in the propensity; the score tests check finite differences of
``correction_values`` against these closed forms.
"""

from __future__ import annotations

import numpy as np

from orthoate.exceptions import InvalidOrder
from orthoate.score import Moments, OrthoCoefficients


def correction_derivative_values(
    t, a, coeffs: OrthoCoefficients, moments: Moments, order: int = 1
) -> np.ndarray:
    """Analytic d^n A / d a^n, for cross-checking finite differences.

    The correction is a polynomial in resid = t - a, so each derivative
    in a picks up a factor (-1) and a falling factorial on the powers.
    """
    if order < 1:
        raise InvalidOrder("derivative order must be >= 1")
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    resid = t - a
    out = np.zeros(np.broadcast(t, a).shape)
    if coeffs.r >= order:
        fall = 1.0
        for j in range(order):
            fall *= coeffs.r - j
        out = out + coeffs.bar_b_r * fall * resid ** (coeffs.r - order)
    for q in range(order, coeffs.k):
        fall = 1.0
        for j in range(order):
            fall *= q - j
        out = out + coeffs.b[q - 1] * fall * resid ** (q - order)
    return (-1.0) ** order * out
