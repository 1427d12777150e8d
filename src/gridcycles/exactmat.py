"""Dominant-eigenvalue and amplitude estimation.

Counts explode past 10^40 well inside the verified ranges, so every counting
path works on Python integers; floats appear only in these spectral
helpers, and ratios of counts to powers of theta are formed exactly before
they are rounded.  All public functions are pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass
class Spectrum:
    """Result of a power-iteration run."""

    theta: float
    residual: float
    iterations: int


def dominant_eigenvalue(
    a: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 10**6,
    residual_log: list[float] | None = None,
) -> Spectrum:
    """Spectral radius of a nonnegative matrix that is irreducible (one
    strongly connected component), by power iteration.

    Iterates on A + I so that periodic (bipartite) components converge too;
    the shift moves every eigenvalue by exactly 1 and keeps the dominant
    eigenvector.  Seeded with the all-ones vector, which cannot be
    orthogonal to the nonnegative dominant eigenvector.  Pass a list as
    ``residual_log`` to record the residual after every step.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return Spectrum(float(a[0, 0]), 0.0, 0)
    shifted = a + np.eye(n)
    x = np.ones(n) / np.sqrt(n)
    theta = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = shifted @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            raise ArithmeticError("matrix annihilated a positive vector")
        x = y / norm
        theta = float(x @ (a @ x))
        residual = float(
            np.max(np.abs(a @ x - theta * x)) / np.max(np.abs(x))
        )
        if residual_log is not None:
            residual_log.append(residual)
        if residual <= tol:
            return Spectrum(theta, residual, it)
    raise ArithmeticError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {residual:.3e})"
    )


def amplitude_estimate(m: int, n_max: int = 80, window: int = 5) -> float:
    """Leading asymptotic coefficient of the thin-cylinder count: the limit
    of count(n) / theta^n.

    Estimated at the largest feasible n with a sliding mean over ``window``
    consecutive terms to damp the alternating subdominant contributions.
    Each ratio is formed as an exact fraction, since the count alone leaves
    the float range past about 1e308.  The window must hold at least one
    term and fit in n = 1 .. n_max.
    """
    if window < 1 or n_max < window:
        raise ValueError(f"need 1 <= window <= n_max, got window={window}, n_max={n_max}")
    from . import counting  # local import; counting depends on this module

    theta = counting.zero_component_spectrum(m).theta
    values = counting.series(counting.GridSpec("tnc", m), n_max).values
    ratios = [
        float(Fraction(v) / Fraction(theta) ** n)
        for n, v in enumerate(values[-window:], start=n_max - window + 1)
    ]
    return sum(ratios) / len(ratios)
