"""Minimal linear recurrences and rational generating functions, exactly.

An integer series with a rational generating function has, by Fatou's
lemma, a minimal denominator with integer coefficients and constant term 1:
its minimal recurrence f(n) = c_1 f(n-1) + ... + c_d f(n-d) has integer
c_k.  Everything after a fit is integer arithmetic.

Two fits:

* ``certify(values, bound)`` is the certificate for the engine series.
  Each of them is a linear read of M^n on a set U of rows closed under M,
  so by Cayley–Hamilton it satisfies a recurrence of order at most
  bound = |U|.  Berlekamp–Massey (BM) runs over GF(p) for 62-bit primes,
  and the coefficients are lifted by the Chinese remainder theorem with
  symmetric residues until the lift stops changing and regenerates every
  given term over the integers.  Two recurrences of orders L and L' that
  agree on L + L' terms agree everywhere, so an integer recurrence of
  order <= bound that regenerates 2·bound terms holds for every n; and as
  BM mod p never returns more than the minimal order, it is the minimal
  one.  :func:`certified_recurrence` hands out the engine's certificate.
* ``minimal_recurrence(values)`` fits a caller-supplied list by BM over
  exact rationals (Fraction), so a fit with a non-integral coefficient
  cannot be the series' minimal recurrence: more terms are needed.  With
  no bound to lean on, a fit is accepted on at least 2·order + EXTRA_TERMS
  terms.

A recurrence extends its series one term at a time (``Recurrence.next``),
or reads a single far term in O(order² log n) big-int products
(``Recurrence.term``: x^(n-1) modulo the characteristic polynomial).

Series are indexed from n = 1 (value lists as produced by
:mod:`gridcycles.counting`); generating functions have no constant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import counting

EXTRA_TERMS = 4  # minimal_recurrence accepts order d on 2·d + EXTRA_TERMS terms
# the primes of the modular fits, 2^62 - d for each d; a fit takes one more
# than its coefficients need, to see the lift settle
PRIMES = tuple(
    (1 << 62) - d
    for d in (57, 87, 117, 143, 153, 167, 171, 195, 203, 273, 287, 317, 443, 483, 495, 575,
              581, 603, 633, 663, 765, 773, 777, 791, 813, 831, 923, 981, 993, 1001, 1007, 1017)
)


class SeriesTooShort(ValueError):
    """Not enough terms to pin the minimal recurrence down."""


class CertificateError(ArithmeticError):
    """No integer recurrence within the order bound regenerates the terms,
    so the bound does not hold for the series."""


@dataclass
class Recurrence:
    """f(n) = sum_k coeffs[k-1] * f(n-k) for all n > order."""

    order: int
    coeffs: list[int]

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    def next(self, values: list[int]) -> int:
        """The term after ``values``, which hold at least ``order`` terms."""
        return sum(map(mul, self.coeffs, reversed(values[len(values) - self.order :])))

    def term(self, initial: list[int], n: int) -> int:
        """f(n) of the series whose first terms f(1), f(2), ... start
        ``initial`` (at least ``order`` of them): f(n) = sum_i r_i f(1+i)
        for sum_i r_i x^i = x^(n-1) mod x^d - c_1 x^(d-1) - ... - c_d
        (Fiduccia), by square-and-multiply from the top bit of n - 1."""
        d = self.order
        if n <= d:
            return initial[n - 1]
        if d == 0:
            return 0
        coeffs = self.coeffs
        rem = [1] + [0] * (d - 1)  # x^0
        for bit in bin(n - 1)[2:]:
            square = [0] * (2 * d - 1)
            for i, a in enumerate(rem):
                if a:
                    square[2 * i] += a * a
                    twice = 2 * a
                    for j in range(i + 1, d):
                        square[i + j] += twice * rem[j]
            if bit == "1":
                square.insert(0, 0)  # times x
            # fold x^e for e >= d back with x^d = c_1 x^(d-1) + ... + c_d
            for e in range(len(square) - 1, d - 1, -1):
                top = square[e]
                if top:
                    for k, c in enumerate(coeffs, start=1):
                        square[e - k] += top * c
            rem = square[:d]
        return sum(map(mul, rem, initial))


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


def _berlekamp_massey_mod(seq: list[int], p: int) -> list[int]:
    """Connection coefficients c_1..c_L, reduced mod the prime p, of the
    shortest LFSR generating seq mod p."""
    s = [v % p for v in seq]
    cur = [1]  # 1 - c_1 x - ... - c_L x^L
    last = [1]  # cur as of the last length change
    order, shift, last_delta = 0, 1, 1
    for i in range(len(s)):
        delta = sum(map(mul, cur[1 : order + 1], reversed(s[i - order : i]))) + s[i]
        delta %= p
        if delta == 0:
            shift += 1
            continue
        factor = delta * pow(last_delta, -1, p) % p
        new = cur + [0] * (len(last) + shift - len(cur))
        for k, c in enumerate(last, start=shift):
            new[k] = (new[k] - factor * c) % p
        if 2 * order <= i:
            last, order, last_delta, shift = cur, i + 1 - order, delta, 1
        else:
            shift += 1
        cur = new + [0] * (order + 1 - len(new))
    return [-c % p for c in cur[1 : order + 1]]


def _regenerates(values: list[int], coeffs: list[int]) -> bool:
    order = len(coeffs)
    return all(
        values[i] == sum(map(mul, coeffs, reversed(values[i - order : i])))
        for i in range(order, len(values))
    )


def certify(values: list[int], bound: int) -> Recurrence:
    """The minimal recurrence of an integer series that satisfies some
    recurrence of order at most ``bound``, from at least 2·bound of its
    terms (see the module docstring for the argument).

    BM runs mod each prime of PRIMES in turn.  A prime under which the
    order falls below the largest seen reduces the series degenerately and
    is dropped; an order above ``bound`` refutes the bound at once.  Raises
    CertificateError when the primes run out before the lift regenerates
    every term, which also refutes the bound.
    """
    if len(values) < 2 * bound:
        raise ValueError(f"certifying order <= {bound} needs {2 * bound} terms, got {len(values)}")
    order, lift, modulus, previous = -1, [], 1, None
    for p in PRIMES:
        fit = _berlekamp_massey_mod(values, p)
        if len(fit) > bound:
            raise CertificateError(f"order {len(fit)} mod {p} exceeds the bound {bound}")
        if len(fit) < order:
            continue
        if len(fit) > order:
            order, lift, modulus, previous = len(fit), fit, p, None
        else:
            # Garner: the residue mod modulus·p that is lift mod modulus, fit mod p
            inverse = pow(modulus, -1, p)
            lift = [x + modulus * ((r - x) * inverse % p) for x, r in zip(lift, fit)]
            modulus *= p
        coeffs = [x - modulus if 2 * x > modulus else x for x in lift]
        if coeffs == previous and _regenerates(values, coeffs):
            return Recurrence(order, coeffs)
        previous = coeffs
    raise CertificateError(
        f"no integer recurrence of order <= {bound} regenerates the {len(values)} terms "
        f"within {len(PRIMES)} primes"
    )


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
    if not _regenerates(values, coeffs):
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


def certified_recurrence(family: str, m: int, p: int) -> Recurrence:
    """The certified minimal recurrence of a production count series: its
    engine steps to 2·|U| terms, certifies every series it holds and
    continues from their recurrences."""
    spec = counting.GridSpec(family, m, p)
    return counting._route(spec.family, m, "reduced").recurrence(spec.family, spec.p)


def order_report(family: str, m: int, p: int = 0) -> int:
    """Minimal recurrence order of the count series, certified."""
    return certified_recurrence(family, m, p).order
