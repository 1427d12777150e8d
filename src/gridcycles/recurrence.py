"""Minimal linear recurrences and rational generating functions, exactly.

An integer series with a rational generating function has, by Fatou's
lemma, a minimal denominator with integer coefficients and constant term 1:
its minimal recurrence f(n) = c_1 f(n-1) + ... + c_d f(n-d) has integer
c_k.  Berlekamp–Massey runs over exact rationals (Fraction), so a fit with a
non-integral coefficient cannot be the series' minimal recurrence: more
terms are needed.  Everything after the fit is integer arithmetic.

A fit is accepted on at least 2·order + EXTRA_TERMS terms; ``order_report``
computes the series at each length of REPORT_TERMS until a fit is accepted.

Series are indexed from n = 1 (value lists as produced by
:mod:`gridcycles.counting`); generating functions have no constant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import FAMILIES, GridSpec, series

EXTRA_TERMS = 4  # a recurrence of order d is accepted on 2·d + EXTRA_TERMS terms
REPORT_TERMS = (16, 32, 64, 128, 220)  # series lengths order_report tries in turn


class SeriesTooShort(ValueError):
    """Not enough terms to pin the minimal recurrence down."""


@dataclass
class Recurrence:
    """f(n) = sum_k coeffs[k-1] * f(n-k) for all n > order."""

    order: int
    coeffs: list[int]

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


@dataclass
class RationalGF:
    """numerator(x) / denominator(x), integer coefficients by ascending
    degree; denominator constant term +1."""

    numerator: list[int]
    denominator: list[int]

    def to_json_dict(self) -> dict:
        return {
            "numerator": [str(c) for c in self.numerator],
            "denominator": [str(c) for c in self.denominator],
        }


def _berlekamp_massey(seq: list[Fraction]) -> list[Fraction]:
    """Connection coefficients c_1..c_L of the shortest LFSR generating the
    whole sequence: seq[i] = sum_k c_k * seq[i-k] for i >= L."""
    cur: list[Fraction] = []  # c_1..c_L
    last: list[Fraction] = []  # cur as of the last length change
    fail_idx = 0
    fail_delta = Fraction(0)
    for i, s in enumerate(seq):
        delta = s - sum(c * seq[i - 1 - k] for k, c in enumerate(cur))
        if delta == 0:
            continue
        if not cur:
            cur = [Fraction(0)] * (i + 1)
            fail_idx, fail_delta = i, delta
            continue
        factor = delta / fail_delta
        fix = [Fraction(0)] * (i - fail_idx - 1) + [factor] + [-factor * c for c in last]
        if len(fix) < len(cur):
            fix += [Fraction(0)] * (len(cur) - len(fix))
        grows = i - fail_idx + len(last) >= len(cur)
        if grows:
            last, fail_idx, fail_delta = list(cur), i, delta
        cur = [a + b for a, b in zip(fix, cur + [Fraction(0)] * (len(fix) - len(cur)))]
    return cur


def minimal_recurrence(values: list[int]) -> Recurrence:
    """Shortest linear recurrence consistent with every provided term.

    Raises SeriesTooShort when the fit has a non-integral coefficient or
    fewer than 2*order + EXTRA_TERMS terms are available: either way the
    fit is not evidence of the true minimal recurrence.
    """
    if not values:
        raise SeriesTooShort("empty series")
    fit = _berlekamp_massey([Fraction(v) for v in values])
    order = len(fit)
    if any(c.denominator != 1 for c in fit):
        raise SeriesTooShort(
            f"{len(values)} terms fit only a non-integral recurrence of order {order}"
        )
    if len(values) < 2 * order + EXTRA_TERMS:
        raise SeriesTooShort(
            f"{len(values)} terms cannot confirm a recurrence of order {order}; "
            f"need {2 * order + EXTRA_TERMS}"
        )
    coeffs = [c.numerator for c in fit]
    if any(
        values[i] != sum(c * values[i - 1 - k] for k, c in enumerate(coeffs))
        for i in range(order, len(values))
    ):
        raise AssertionError("recurrence fit failed to re-generate its input")
    return Recurrence(order, coeffs)


def to_generating_function(values: list[int], rec: Recurrence) -> RationalGF:
    """Rational function whose expansion from x^1 equals the series:
    denominator 1 - c_1 x - ... - c_d x^d, numerator the first d + 1
    coefficients of the denominator times the series."""
    den = [1] + [-c for c in rec.coeffs]
    f = [0] + list(values)  # power series from x^0
    num = [
        sum(den[k] * f[j - k] for k in range(min(j, rec.order) + 1)) for j in range(len(f))
    ]
    if any(num[rec.order + 1 :]):
        raise ValueError("recurrence is inconsistent with the series")
    num = num[: rec.order + 1]
    while num and num[-1] == 0:
        num.pop()
    return RationalGF(num, den)


def expand(gf: RationalGF, terms: int) -> list[int]:
    """First ``terms`` coefficients (from x^1) of the Taylor expansion."""
    num, den = gf.numerator, gf.denominator
    if not den or den[0] != 1:
        raise ValueError("denominator constant term must be 1")
    if num and num[0] != 0:
        raise ValueError("series expansions here start at x^1; constant term present")
    out = [0]
    for n in range(1, terms + 1):
        acc = num[n] if n < len(num) else 0
        out.append(acc - sum(den[k] * out[n - k] for k in range(1, min(n, len(den) - 1) + 1)))
    return out[1:]


def order_report(family: str, m: int, p: int = 0) -> int:
    """Minimal recurrence order of the count series, from freshly computed
    terms (grows the series until the fit is accepted)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    for terms in REPORT_TERMS:
        values = series(GridSpec(family, m, p), terms).values
        try:
            return minimal_recurrence(values).order
        except SeriesTooShort:
            if terms == REPORT_TERMS[-1]:
                raise
