"""Minimal linear recurrences and rational generating functions, exactly.

An integer series with a rational generating function has, by Fatou's
lemma, a minimal denominator with integer coefficients and constant term 1:
its minimal recurrence f(n) = c_1 f(n-1) + ... + c_d f(n-d) has integer
c_k.  Everything after a fit is integer arithmetic.

One fit, Berlekamp–Massey (BM) over GF(p) for 62-bit primes p, fed one
term at a time (:class:`ModularBM`); the coefficients are lifted by the
Chinese remainder theorem with symmetric residues, one prime at a time,
until the lift regenerates every given term over the integers.  That
regeneration is the whole test, and the first lift that passes it is the
answer: BM mod p never returns more than the minimal order over the
rationals, and an integer recurrence of order L that regenerates N terms
is a rational one, so L is that minimal order, and for N >= 2L the
recurrence is the only one of its order.  Two uses:

* ``certify(values, bound, fit)`` certifies the engine series, each known
  to satisfy some recurrence of order at most ``bound``.  Two recurrences
  of orders L and L' that agree on L + L' terms agree everywhere, so an
  integer recurrence of order <= bound that regenerates 2·bound terms
  holds for every n, and it is the minimal one.  A caller whose running
  fit modulo ``PRIMES[0]`` has seen exactly ``values`` passes it as
  ``fit``, so the first prime costs no second BM pass.  The engine
  (:mod:`gridcycles.counting`) knows a bound in two ways.  |U|, for the
  rows U it steps, always holds (Cayley–Hamilton).  A Gram certificate
  gives one earlier.  The engine's Gram series has g(i + j) = <K_i, K_j>
  for K_j = S^j·x and a symmetric S: the thin cylinder's
  g(n) = e_0ᵀ S^n e_0 with x = e_0, and the torus' g(n) = tr(A^n) with
  K_j = A^j under <X, Y> = tr(XᵀY).  So H = [g(i+j)], i, j = 1..L+1, is
  the Gram matrix of K_1..K_{L+1}.  If an integer recurrence c of order L
  regenerates g(1..2L+2), then c~ = (-c_L, ..., -c_1, 1) has H·c~ = 0, so
  |sum_j c~_j K_j|^2 = c~ᵀ H c~ = 0 and q(S)·S·x = 0 for
  q(t) = t^L - c_1 t^(L-1) - ... - c_L.  Every series read off S^n·x
  then obeys c, so L bounds each of their orders.
* ``minimal_recurrence(values)`` fits a caller-supplied list with no
  bound to lean on.  A lift that never regenerates means the fit over the
  rationals has a non-integral coefficient, so it cannot be the series'
  minimal recurrence (Fatou) and more terms are needed; an integral fit
  is accepted on at least 2·order + EXTRA_TERMS terms.

A recurrence extends its series one term at a time (``Recurrence.next``),
or reads a single far term in O(order² log n) big-int products
(``Recurrence.term``: x^(n-1) modulo the characteristic polynomial).

Series are indexed from n = 1 (value lists as produced by
:mod:`gridcycles.counting`); generating functions have no constant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

EXTRA_TERMS = 4  # minimal_recurrence accepts order d on 2·d + EXTRA_TERMS terms
# the primes of the modular fits, 2^62 - d for each d; a lift takes as many
# as its coefficients need
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


class ModularBM:
    """Berlekamp–Massey over GF(p), fed one term at a time at O(order)
    operations per term: after each term, ``order`` and :meth:`coeffs`
    describe the shortest LFSR of the terms so far, reduced mod p."""

    def __init__(self, p: int):
        self.p = p
        self.terms: list[int] = []  # the terms mod p
        self.cur = [1]  # 1 - c_1 x - ... - c_L x^L
        self.last = [1]  # cur as of the last length change
        # the discrepancy at the last length change enters only by its
        # inverse, so that is kept and inverted once per length change
        self.order, self.shift, self.last_inverse = 0, 1, 1

    def add(self, value: int) -> None:
        p, s, cur, order = self.p, self.terms, self.cur, self.order
        s.append(value % p)
        i = len(s) - 1
        delta = (s[i] + sum(map(mul, cur[1 : order + 1], reversed(s[i - order : i])))) % p
        if delta == 0:
            self.shift += 1
            return
        factor = delta * self.last_inverse % p
        new = cur + [0] * (len(self.last) + self.shift - len(cur))
        for k, c in enumerate(self.last, start=self.shift):
            new[k] = (new[k] - factor * c) % p
        if 2 * order <= i:
            self.last, self.order, self.shift = cur, i + 1 - order, 1
            self.last_inverse = pow(delta, -1, p)
        else:
            self.shift += 1
        self.cur = new + [0] * (self.order + 1 - len(new))

    def coeffs(self) -> list[int]:
        """Connection coefficients c_1..c_L mod p."""
        return [-c % self.p for c in self.cur[1 : self.order + 1]]


def _regenerates(values: list[int], coeffs: list[int]) -> bool:
    order = len(coeffs)
    return all(
        values[i] == sum(map(mul, coeffs, reversed(values[i - order : i])))
        for i in range(order, len(values))
    )


def _lift(values: list[int], bound: int, fit: ModularBM | None = None) -> Recurrence | None:
    """The integer recurrence that BM finds modulo the primes of PRIMES, or
    None when the primes run out before its lift regenerates every term.
    ``fit``, if given, is the BM modulo PRIMES[0] already fed ``values``.

    A prime under which the order falls below the largest seen reduces the
    series degenerately and is dropped; an order above ``bound`` raises
    CertificateError at once.
    """
    order, lift, modulus = -1, [], 1
    for p in PRIMES:
        if fit is None or fit.p != p:  # the caller's fit serves PRIMES[0] alone
            fit = ModularBM(p)
            for v in values:
                fit.add(v)
        residues = fit.coeffs()
        if len(residues) > bound:
            raise CertificateError(f"order {len(residues)} mod {p} exceeds the bound {bound}")
        if len(residues) < order:
            continue
        if len(residues) > order:
            order, lift, modulus = len(residues), residues, p
        else:
            # Garner: the residue mod modulus·p that is lift mod modulus, residues mod p
            inverse = pow(modulus, -1, p)
            lift = [x + modulus * ((r - x) * inverse % p) for x, r in zip(lift, residues)]
            modulus *= p
        coeffs = [x - modulus if 2 * x > modulus else x for x in lift]
        if _regenerates(values, coeffs):
            return Recurrence(order, coeffs)
    return None


def certify(values: list[int], bound: int, fit: ModularBM | None = None) -> Recurrence:
    """The minimal recurrence of an integer series that satisfies some
    recurrence of order at most ``bound``, from at least 2·bound of its
    terms (see the module docstring for the argument).  ``fit`` is an
    optional BM modulo ``PRIMES[0]`` that has been fed exactly ``values``;
    it replaces the fit of the first prime.

    Raises CertificateError when an order mod some prime exceeds ``bound``
    or the primes run out before the lift regenerates every term: either
    refutes the bound.
    """
    if len(values) < 2 * bound:
        raise ValueError(f"certifying order <= {bound} needs {2 * bound} terms, got {len(values)}")
    if fit is not None and (fit.p != PRIMES[0] or len(fit.terms) != len(values)):
        raise ValueError(
            f"a fit mod {fit.p} of {len(fit.terms)} terms cannot stand for the fit mod "
            f"{PRIMES[0]} of {len(values)} terms"
        )
    rec = _lift(values, bound, fit)
    if rec is None:
        raise CertificateError(
            f"no integer recurrence of order <= {bound} regenerates the {len(values)} terms "
            f"within {len(PRIMES)} primes"
        )
    return rec


def minimal_recurrence(values: list[int]) -> Recurrence:
    """Shortest linear recurrence consistent with every provided term.

    Raises SeriesTooShort when no integral fit regenerates the terms or
    fewer than 2*order + EXTRA_TERMS terms are available: either way the
    fit is not evidence of the true minimal recurrence.
    """
    if not values:
        raise SeriesTooShort("empty series")
    rec = _lift(values, len(values))
    if rec is None:
        raise SeriesTooShort(
            f"{len(values)} terms fit only a non-integral recurrence: no integer lift "
            f"regenerates them within {len(PRIMES)} primes"
        )
    if len(values) < 2 * rec.order + EXTRA_TERMS:
        raise SeriesTooShort(
            f"{len(values)} terms cannot confirm a recurrence of order {rec.order}; "
            f"need {2 * rec.order + EXTRA_TERMS}"
        )
    return rec


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
    engine steps until its Gram certificate holds (at most 2·|U| terms),
    certifies every series it holds and continues from their recurrences."""
    from . import counting  # counting's engines certify through this module

    spec = counting.GridSpec(family, m, p)
    return counting._route(spec.family, m, "reduced").recurrence(spec.family, spec.p)


def order_report(family: str, m: int, p: int = 0) -> int:
    """Minimal recurrence order of the count series, certified."""
    return certified_recurrence(family, m, p).order
