"""Construction and evaluation of higher-order orthogonal score functions.

A score of order (r, k) for the mean potential outcome under one treatment
arm has the form

    psi = theta - g(Z) - (Y - g(Z)) * A(D, Z)

with the correction factor

    A = bar_b_r * (t - a(Z))**r
        + sum_{q=1}^{k-1} b_q * ((t - a(Z))**q - m_q),

where t is the treated indicator for the arm, a(Z) its propensity, and
m_q the q-th moment of the propensity residual nu = t - a(Z).  The
coefficients (bar_b_r, b_1..b_{k-1}) are pinned down by the moment
condition E[A] = 1 together with k-1 vanishing mixed-derivative
conditions.  This module computes them two independent ways: a
closed-form descending recursion and a dense linear-system solve kept
as a cross-check oracle.

The plain inverse-propensity-weighted score theta - g - t*(Y - g)/a is
kept alongside as a named special case; it is first-order orthogonal
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateMoment,
    InvalidArgument,
    InvalidOrder,
    NonFinite,
    ShapeMismatch,
    SingularSystem,
)

# Guard threshold before inverting m_r; estimated moments below this are
# treated as degenerate rather than inverted into huge coefficients.
EPSILON_MOMENT = 1e-8

# Binomial coefficients come from a precomputed integer Pascal triangle.
# Orders above MAX_ORDER are rejected instead of recomputed in floats.
MAX_ORDER = 16

_PASCAL = [[1]]
for _n in range(1, MAX_ORDER + 1):
    _prev = _PASCAL[-1]
    _PASCAL.append(
        [1] + [_prev[_j - 1] + _prev[_j] for _j in range(1, _n)] + [1]
    )


def binomial(n: int, q: int) -> int:
    """Exact C(n, q) from the precomputed table, valid for 0 <= q <= n <= 16."""
    if not (0 <= n <= MAX_ORDER):
        raise InvalidOrder(f"binomial table covers n <= {MAX_ORDER}, got n={n}")
    if not (0 <= q <= n):
        raise InvalidOrder(f"need 0 <= q <= n, got q={q}, n={n}")
    return _PASCAL[n][q]


@dataclass(frozen=True)
class Moments:
    """Residual moments m_q = E[(t - a(Z))**q] for q = 1..max_order.

    ``values[q - 1]`` holds m_q.  Residuals live in (-1, 1), so every
    moment is bounded by 1 in absolute value; construction enforces
    finiteness and that bound.  All-zero vectors are representable (a
    perfectly predicted treatment produces them) and only fail once a
    coefficient construction needs to invert m_r.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ShapeMismatch("moments must be a non-empty 1-d vector")
        if not np.all(np.isfinite(vals)):
            raise NonFinite("moments must be finite")
        if np.any(np.abs(vals) > 1.0 + 1e-9):
            raise InvalidArgument("residual moments cannot exceed 1 in magnitude")
        object.__setattr__(self, "values", vals)

    @property
    def max_order(self) -> int:
        return int(self.values.size)

    def m(self, q: int) -> float:
        """Return m_q (1-based); m_0 = 1 by convention."""
        if q == 0:
            return 1.0
        if not (1 <= q <= self.max_order):
            raise InvalidOrder(f"moment order {q} outside 1..{self.max_order}")
        return float(self.values[q - 1])

    @classmethod
    def from_bernoulli(cls, pi: float, max_order: int) -> "Moments":
        """Exact moments of nu = 1{D=d} - pi when P(D=d) = pi."""
        if not (0.0 < pi < 1.0):
            raise InvalidArgument("pi must lie strictly inside (0, 1)")
        q = np.arange(1, max_order + 1)
        vals = pi * (1.0 - pi) ** q + (1.0 - pi) * (-pi) ** q
        return cls(vals)

    @classmethod
    def from_bernoulli_mixture(cls, weights, pis, max_order: int) -> "Moments":
        """Exact moments when pi is drawn from a finite mixture.

        Mixtures of Bernoulli residual laws are the natural family of
        realizable moment sequences: any propensity that varies over
        covariate strata produces one.
        """
        w = np.asarray(weights, dtype=float)
        p = np.asarray(pis, dtype=float)
        if w.shape != p.shape or w.ndim != 1:
            raise ShapeMismatch("weights and pis must be matching 1-d arrays")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise InvalidArgument("weights must be a probability vector")
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise InvalidArgument("mixture propensities must lie in (0, 1)")
        q = np.arange(1, max_order + 1)[:, None]
        vals = (w * (p * (1.0 - p) ** q + (1.0 - p) * (-p) ** q)).sum(axis=1)
        return cls(vals)


def random_realizable_moments(rng: np.random.Generator, max_order: int) -> Moments:
    """Draw a random realizable residual moment sequence.

    Uses a Bernoulli mixture with one to three components.  Components
    are kept below 1/2 so every moment up to ``max_order`` stays bounded
    away from zero and no draw is accidentally degenerate.
    """
    n_comp = int(rng.integers(1, 4))
    pis = rng.uniform(0.05, 0.45, size=n_comp)
    weights = rng.dirichlet(np.ones(n_comp))
    return Moments.from_bernoulli_mixture(weights, pis, max_order)


@dataclass(frozen=True)
class OrthoCoefficients:
    """Correction-factor coefficients for one (r, k) score.

    ``b[q - 1]`` holds b_q for q = 1..k-1.  Instances may be built by
    hand (e.g. all zeros) for diagnostics; instances produced by
    :func:`compute_coefficients` additionally satisfy bar_b_r = 1/m_r.
    """

    r: int
    k: int
    bar_b_r: float
    b: np.ndarray

    def __post_init__(self) -> None:
        _validate_orders(self.r, self.k)
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.k - 1,):
            raise ShapeMismatch(f"b must have length k-1={self.k - 1}, got {b.shape}")
        if not (np.isfinite(self.bar_b_r) and np.all(np.isfinite(b))):
            raise NonFinite("coefficients must be finite")
        object.__setattr__(self, "b", b)


def _validate_orders(r: int, k: int) -> None:
    if not (isinstance(r, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise InvalidOrder("r and k must be integers")
    if not 2 <= k <= r:
        raise InvalidOrder(f"k must satisfy 2 <= k <= r, got (r, k) = ({r}, {k})")
    if r > MAX_ORDER:
        raise InvalidOrder(f"r must not exceed {MAX_ORDER}, got {r}")


def compute_coefficients(r: int, k: int, moments: Moments) -> OrthoCoefficients:
    """Closed-form coefficients of the order-(r, k) correction factor.

    Starts from bar_b_r = 1/m_r and fills b_{k-1} down to b_1 with the
    descending recursion

        b_q = - sum_{u=1}^{k-1-q} b_{q+u} C(q+u, q) m_u
              - bar_b_r C(r, q) m_{r-q}.

    Parameters
    ----------
    r, k : int
        Residual power and orthogonality order, 2 <= k <= r <= 16.
    moments : Moments
        Residual moments with max_order >= r.

    Raises
    ------
    InvalidOrder
        If the orders are out of range or too few moments are supplied.
    DegenerateMoment
        If |m_r| < EPSILON_MOMENT, so 1/m_r must not be formed.
    """
    _validate_orders(r, k)
    if moments.max_order < r:
        raise InvalidOrder(
            f"need moments up to order r={r}, got max_order={moments.max_order}"
        )
    m_r = moments.m(r)
    if abs(m_r) < EPSILON_MOMENT:
        raise DegenerateMoment(
            f"|m_{r}| = {abs(m_r):.3e} below guard {EPSILON_MOMENT:.0e}"
        )
    bar = 1.0 / m_r
    b = np.zeros(k - 1)
    for q in range(k - 1, 0, -1):
        acc = 0.0
        for u in range(1, k - q):
            acc += b[q + u - 1] * binomial(q + u, q) * moments.m(u)
        b[q - 1] = -acc - bar * binomial(r, q) * moments.m(r - q)
    return OrthoCoefficients(r=r, k=k, bar_b_r=bar, b=b)


def solve_coefficients_oracle(r: int, k: int, moments: Moments) -> OrthoCoefficients:
    """Coefficients via the defining linear system, solved densely.

    Deliberately shares no code with :func:`compute_coefficients`: the
    k unknowns x = (bar_b_r, b_1..b_{k-1}) are assembled from the raw
    conditions and handed to a dense solver.  Row 0 encodes E[A] = 1
    (the centred b_q terms integrate away, leaving m_r bar_b_r = 1) and
    row q = 1..k-1 encodes the vanishing q-th mixed derivative

        bar_b_r C(r, q) m_{r-q} + sum_{u=q}^{k-1} b_u C(u, q) m_{u-q} = 0.

    Raises
    ------
    SingularSystem
        If the assembled moment matrix is rank-deficient (e.g. m_r = 0
        turns row 0 into 0 = 1).
    """
    _validate_orders(r, k)
    if moments.max_order < r:
        raise InvalidOrder(
            f"need moments up to order r={r}, got max_order={moments.max_order}"
        )
    mat = np.zeros((k, k))
    rhs = np.zeros(k)
    mat[0, 0] = moments.m(r)
    rhs[0] = 1.0
    for q in range(1, k):
        mat[q, 0] = binomial(r, q) * moments.m(r - q)
        for u in range(q, k):
            mat[q, u] = binomial(u, q) * moments.m(u - q)
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystem(
            f"moment matrix is numerically singular for (r, k)=({r}, {k}); condition number {cond:.2e}"
        )
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"moment matrix is singular for (r, k)=({r}, {k})") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem(f"moment matrix is numerically singular for (r, k)=({r}, {k})")
    return OrthoCoefficients(r=r, k=k, bar_b_r=float(sol[0]), b=sol[1:].copy())


def correction_values(t, a, coeffs: OrthoCoefficients, moments: Moments) -> np.ndarray:
    """Vectorised correction factor A(t, a) as a polynomial in t - a.

    ``t`` is the treated-indicator realisation and ``a`` the propensity;
    both broadcast.  Centring uses m_1..m_{k-1} from ``moments``, which
    must be the moments the coefficients were built from.
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    if moments.max_order < coeffs.k - 1:
        raise InvalidOrder(
            f"correction of order k={coeffs.k} needs moments up to {coeffs.k - 1}"
        )
    resid = t - a
    out = coeffs.bar_b_r * resid**coeffs.r
    for q in range(1, coeffs.k):
        out = out + coeffs.b[q - 1] * (resid**q - moments.m(q))
    return out


def score_values(t, a, y, g, theta, coeffs: OrthoCoefficients, moments: Moments) -> np.ndarray:
    """Vectorised score theta - g - (y - g) * A(t, a)."""
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    return theta - g - (y - g) * correction_values(t, a, coeffs, moments)


def dml_correction_values(t, a) -> np.ndarray:
    """Correction factor t / a of the first-order (plain IPW) score."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    return t / a


def dml_score_values(t, a, y, g, theta) -> np.ndarray:
    """First-order score theta - g - t * (y - g) / a."""
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    return theta - g - (y - g) * dml_correction_values(t, a)

