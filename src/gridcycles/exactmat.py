"""The amplitude estimate of the thin-cylinder counts.

Every Perron root comes from :mod:`gridcycles.counting`, as the greatest
eigenvalue of a symmetrised glued quotient (``numpy.linalg.eigvalsh``).
Counts explode past 10^40 well inside the verified ranges, so every count
is a Python integer.  The counting engine steps in float64, but only on
residues modulo primes p with rowmax·p <= 2^53, where every product is an
exact integer, and it lifts each count by the Chinese remainder theorem.
Otherwise floats appear only in the spectral helpers, and ratios of counts
to powers of theta are formed exactly before they are rounded.  All public
functions are pure and reentrant.
"""

from __future__ import annotations

from fractions import Fraction

from . import counting


def amplitude_estimate(m: int, n_max: int = 80) -> float:
    """Leading asymptotic coefficient of the thin-cylinder count: the limit
    of count(n) / theta^n, estimated by the single ratio at n = n_max.

    The subdominant eigenvalues contribute a relative error that decays
    geometrically in n_max.  The ratio is formed as an exact fraction,
    since the count alone leaves the float range past about 1e308.
    """
    theta = counting.zero_component_spectrum(m).theta
    return float(Fraction(counting.count_tnc(m, n_max)) / Fraction(theta) ** n_max)
