"""Exact 2-factor counts for the three grid families.

Families (CLI vocabulary in parentheses):

* thin cylinder (``tnc``): cycle C_m times path P_n;
* torus (``tg``): cylinder of length n+1 with first and last columns glued
  under a cyclic shift by p;
* Klein bottle (``kb``): same gluing with the column order reversed.

Each count has two routes that must agree:

* production — one engine walks a transfer digraph M from a few start
  columns e_s: it keeps M^n e_s modulo word-size primes as float64
  columns, steps them by one BLAS product a term, and lifts each count by
  the Chinese remainder theorem.  The thin cylinder walks the glued
  quotient G (the all-zero component of the reduced digraph folded by
  rotation and reversal) from 0^m and reads G^n[0, 0].  The torus and
  Klein bottle walk the reduced digraph A, one block per component, from
  each rotation orbit, pairing each vertex with its rotation (resp.
  reversed rotation) image.  The methods ``reduced`` and ``glued`` both
  name the production route for the thin cylinder; ``glued`` applies to
  it alone.
* ``full`` — walk counts on the full digraph of column words, the
  independent cross-check.  A walk's count depends on its ends only
  through their outlet and inlet classes, so it steps the 2^m × 2^m class
  matrix of the letter words by the same residue arithmetic and reads
  each term over the 2^m outlet classes of the last word; it never reads
  the reduced digraph and never reads a recurrence.

Series values are Python integers (exact).  Engines cache their series per
width, so asking for more terms or another twist extends earlier work
instead of recomputing powers.  The production engine steps until a
certificate on its Gram series (the thin-cylinder count e_0ᵀ S^n e_0 for
the symmetric S = D^½·G·D^-½, the torus count tg(n, 0) = tr(A^n) for the
symmetric A; see :mod:`gridcycles.recurrence`) proves the recurrence of
every series, then drops what it steps and extends the series by their
recurrences.  2·|U| terms, U the rows it steps, always certify
(Cayley–Hamilton), so that is the cap.  A single count past the cached
terms is read off the recurrence in O(order² log n) big-int products,
without caching the terms in between.  Each engine is built under its own
lock and carries another for its steps, so distinct widths can be built
and driven from different threads at once.  The widths of each engine kind
(``full``, ``glued``, ``trace``) are its row of :data:`transfer.LIMITS`,
and the residue primes follow the widest of them.

Every Perron root (the growth rate θ of the thin cylinder, and the
dominant eigenvalue of each reduced-digraph component) is read off one
glued quotient G: it is the greatest eigenvalue of the symmetric
S = D^½·G·D^-½, from ``numpy.linalg.eigvalsh``.  There is no iteration,
tolerance or convergence failure.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import recurrence, transfer
from .alphabet import column_word_codes, horizontal_convert_codes
from .transfer import ResourceLimitError

FAMILIES = ("tnc", "tg", "kb")

@dataclass(frozen=True)
class GridSpec:
    """Which grid graph: family, width m, twist p (torus/Klein only)."""

    family: str
    m: int
    p: int = 0
    n: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.m < 2:
            raise ValueError(f"width must be >= 2, got {self.m}")
        if self.family == "tnc":
            if self.p % self.m != 0:
                raise ValueError("the thin cylinder has no twist; p must be 0")
            object.__setattr__(self, "p", 0)
        else:
            object.__setattr__(self, "p", self.p % self.m)
        if self.n is not None and self.n < 1:
            raise ValueError(f"length must be >= 1, got {self.n}")


@dataclass
class Spectrum:
    """The Perron root of a transfer digraph component."""

    theta: float


def decimal_str(v: int) -> str:
    """The decimal digits of v, of any length: int -> str conversion stops
    at the interpreter's digit limit, Decimal's does not."""
    return str(Decimal(v))


@dataclass
class Series:
    """Exact counts for n = 1 .. len(values)."""

    family: str
    m: int
    p: int
    values: list[int]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "p": self.p,
            "values": [decimal_str(v) for v in self.values],
        }

    def to_bfile_text(self) -> str:
        return "".join(f"{n} {decimal_str(v)}\n" for n, v in enumerate(self.values, start=1))


# a residue engine's first horizon, in terms, is its first request but at
# most this; later growths add a quarter, or reach a request within this
_FIRST_HORIZON = 64
# a growth extends the residues of about this many (entry, old prime) pairs
# at a time, which bounds its working arrays
_CHUNK = 1 << 14
# The residue primes are the greatest primes <= _PRIME_LIMIT, set with the
# engine kinds below; each engine checks that its products stay below 2^53.
# They are found once per process.
_PRIMES: list[int] = []  # the primes <= _PRIME_LIMIT found so far, descending
_PRIMES_LOCK = threading.Lock()
# Miller–Rabin with these bases decides every n < 3.3·10^24, and with the
# first six every n < ψ6 = 3,474,749,660,383 (Jaeschke 1993), which holds
# the residue primes
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI6 = 3474749660383


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES[:6] if n < _PSI6 else _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The (i + 1)-th greatest prime <= _PRIME_LIMIT."""
    with _PRIMES_LOCK:
        # every candidate is odd: the greatest odd number <= _PRIME_LIMIT first
        q = _PRIMES[-1] - 2 if _PRIMES else (_PRIME_LIMIT - 1) | 1
        while len(_PRIMES) <= i:
            if _is_prime(q):
                _PRIMES.append(q)
            q -= 2
        return _PRIMES[i]


def _reduce(w: np.ndarray, moduli: np.ndarray, reciprocals: np.ndarray) -> np.ndarray:
    """A signed residue of w mod p column by column, in place: the float64
    integers w with |w| < rowmax·p <= 2^53 become w - q·p for
    q = rint(w·(1/p)), ``reciprocals`` the float64 1/p: four passes and no
    mask.

    Exact: |w/p| < rowmax, at most Lucas at the widest engine row (see
    ``_PRIME_LIMIT``), so |q| <= rowmax and q·p, an integer of at most
    rowmax·p <= 2^53, is exact, and so is the integer w - q·p.  The two
    roundings of w·(1/p) put it within rowmax·(2^-52 + 2^-106) of w/p, so
    |w/p - q| <= 1/2 + rowmax·(2^-52 + 2^-106) and
    |w - q·p| <= p/2 + 2 + 2^-53 < p/2·(1 + 2^-38), every residue prime
    being above 1.5·10^12.  So the residues stay below p in absolute
    value: every partial sum of the next product, at most rowmax terms,
    stays below rowmax·p <= 2^53, and a gather of ``pairs`` of them below
    pairs·p < 2^63 (both checked when the walk is built).  They stay signed
    from here on: a growth extends them and a read lifts them as they are."""
    q = w * reciprocals
    np.rint(q, out=q)
    q *= moduli
    w -= q
    return w


def _mulmod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a·b mod q in [0, q) elementwise, for int64 arrays with |a| < q,
    0 <= b < q < 2^50: a may be any residue, of either sign.

    y = a·b·(1/q) in float64 takes three roundings, so it is within
    3·2^-53·|a·b|/q < q·2^-51 < 1/2 of a·b/q, and |a·b/q| < q: floor(y)
    misses floor(a·b/q) by at most one either way, and not upward when q
    divides a·b.  So a·b - floor(y)·q lies in (-q, 2q).  int64 products
    wrap modulo 2^64 and (-q, 2q) lies within the int64 range, so the
    wrapped difference is that value exactly; one correction each way
    lands in [0, q)."""
    quot = np.floor(a.astype(np.float64) * b * (1 / q)).astype(np.int64)
    r = a * b - quot * q
    np.add(r, q, out=r, where=r < 0)
    np.subtract(r, q, out=r, where=r >= q)
    return r


_LIMB = 21  # bits of the limbs whose float64 products extend a residue base


def _base_extension(old: list[int], new: list[int]):
    """The function from residues modulo the ``old`` primes to residues
    modulo the ``new`` ones, in int64 and float64 alone, of integers
    0 <= x < M/2, M the product of the old primes (a base extension in
    the residue number system; Shenoy and Kumaresan 1989).  It maps an
    (entries, k) int64 array r, r[e, i] ≡ x_e mod p_i with |r[e, i]| < p_i
    (any residue, of either sign) for the k old primes p_i, to the
    (entries, len(new)) int64 array of x_e mod q in [0, q).

    With M_i = M/p_i and z_i = r_i·(M_i^-1 mod p_i) mod p_i in [0, p_i)
    (one :func:`_mulmod`), sum_i z_i·M_i = x + α·M for an integer α, so
    sum_i z_i/p_i = α + x/M and
    x mod q = (sum_i z_i·(M_i mod q) + α·(-M mod q)) mod q.  x < M/2 puts
    α + x/M in [α, α + 1/2), and the float64 sum of the z_i·(1/p_i), each
    term below 1, is within k²·2^-52 < 1/4 of it, so α = floor(sum + 1/4)
    exactly.  A plain floor is wrong: x/M is often below 2^-100, and the
    float sum can land just below α.

    The sum over i runs as one float64 matrix product of 21-bit limbs.
    Every prime is below 2^41, so z_i = zh·2^21 + zl and each constant
    c = ch·2^21 + cl have zh, ch < 2^20 and zl, cl < 2^21; α is a low limb
    of its own.  The columns of [zh | zl] @ [[ch, cl, 0], [0, ch, cl]] sum
    the zh·ch, the zh·cl and zl·ch, and the zl·cl over the k + 1 terms,
    each an integer below (k + 1)·2^42 <= 2^53, exact in float64 in any
    order.  Horner's rule in 2^21 modulo q joins the three in int64, where
    (q - 1)·2^21 + 2^53 < 2^63.  Both bounds are checked here.
    """
    k, n = len(old), len(new)
    if (k + 1) << 2 * _LIMB > 1 << 53 or max(old + new) >= 1 << 2 * _LIMB - 1:
        raise AssertionError(
            f"residue base extension is not exact from {k} primes, "
            f"greatest prime {max(old + new)}"
        )
    product = math.prod(old)
    cofactors = [product // p for p in old]
    moduli = np.array(old, dtype=np.int64)
    weights = np.array([pow(c, -1, p) for c, p in zip(cofactors, old)], dtype=np.int64)
    reciprocals = 1 / moduli.astype(np.float64)
    targets = np.array(new, dtype=np.int64)
    constants = np.array(
        [[c % q for q in new] for c in cofactors] + [[-product % q for q in new]], dtype=np.int64
    )
    high, low = constants >> _LIMB, constants & ((1 << _LIMB) - 1)
    right = np.zeros((2 * (k + 1), 3 * n))
    right[: k + 1, :n], right[: k + 1, n : 2 * n] = high, low
    right[k + 1 :, n : 2 * n], right[k + 1 :, 2 * n :] = high, low

    def extend(r: np.ndarray) -> np.ndarray:
        z = _mulmod(r, weights, moduli)
        left = np.zeros((len(z), 2 * (k + 1)))
        left[:, :k], left[:, k + 1 : -1] = z >> _LIMB, z & ((1 << _LIMB) - 1)
        left[:, -1] = np.floor(z.astype(np.float64) @ reciprocals + 0.25)  # α
        parts = (left @ right).astype(np.int64)
        x = parts[:, :n] % targets
        for part in (parts[:, n : 2 * n], parts[:, 2 * n :]):
            x <<= _LIMB
            x += part
            x %= targets
        return x

    return extend


class _ResidueWalk:
    """Walk counts read off residues of M^n e_s modulo word-size primes;
    ``series[family, p]`` holds the counts for n = 1, 2, ..., and each
    step appends one term to every series.

    M comes as ``blocks`` (M_b, starts): M_b, as float64, is M restricted
    to rows closed under M, and ``starts`` are the rows s of the block whose
    columns M_b^n e_s are walked.  A block's residue cube has
    ``residues[b][x, i, j]`` ≡ (M_b^n e_(starts[j]))[x] mod ``primes[i]``,
    a signed residue in (-p, p), so a term is one product M_b @ V per
    block, V the cube with its last two axes flattened, reduced by
    :func:`_reduce`.  Every prime has rowmax·p <= 2^53, rowmax the greatest
    row sum of any block, so each partial sum is an integer below 2^53 in
    absolute value, exact in float64.

    A series reads ``reads[family, p]``, triples (b, rows, columns): the
    count sums M_b^n[rows[i], starts[columns[i]]] over i.  At build the
    reads become one gather per block, ``gathers[b]`` = (rows, columns,
    bounds), the pairs of every series in ``series`` order with series t's
    at ``bounds[t]:bounds[t + 1]``.  A term takes one gather per block, a
    running int64 sum down it and its differences at the bounds (0 for a
    series with no pairs in the block), so every series is summed modulo
    each prime at once, then its signed sums are lifted as they are
    by Garner's CRT over the shortest prefix of the primes whose product
    exceeds weight·rowmax^n, weight the most pairs any read sums, since
    rowmax^n bounds every entry of M^n e_s.
    The running sums stay below 2^63: each block's pair count times the
    greatest prime is checked at build, like weight (about 2^55 at the
    widest, trace m = 11 with 22528 pairs in one block).

    The cubes cover the terms up to ``horizon``: first the first request,
    at most ``_FIRST_HORIZON``, then a quarter more each time, or a
    request within ``_FIRST_HORIZON``.  The primes of a horizon have a
    product above 2·weight·rowmax^horizon, so when a growth adds primes,
    every entry of every M^n e_s is below half the product of the old ones,
    and :func:`_base_extension` takes its signed residues to the new primes
    in int64 and float64 arithmetic, block by block in chunks of rows, with
    no big-integer lift; no column is stepped twice.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, list[int]]], reads: dict):
        self.lock = threading.RLock()
        self.blocks = blocks
        self.size = sum(len(matrix) for matrix, _ in blocks)
        self.rowmax = max(int(matrix.sum(axis=1).max()) for matrix, _ in blocks)
        # one pass over the reads: each block's (rows, columns) parts in
        # series order, and counts[b, t + 1] the pairs of series t in block
        # b, so that the running sums of row b are the bounds of block b
        empty = np.zeros(0, dtype=np.int64)
        parts = [([empty], [empty]) for _ in blocks]
        counts = np.zeros((len(blocks), len(reads) + 1), dtype=np.int64)
        for t, read in enumerate(reads.values(), start=1):
            for b, rows, columns in read:
                parts[b][0].append(rows)
                parts[b][1].append(columns)
                counts[b, t] += len(rows)
        self.gathers = [
            (np.concatenate(rows, dtype=np.int64), np.concatenate(columns, dtype=np.int64), bounds)
            for (rows, columns), bounds in zip(parts, np.cumsum(counts, axis=1))
        ]
        self.weight = int(counts.sum(axis=0).max())
        pairs = int(counts.sum(axis=1).max())
        if self.rowmax * _prime(0) > 1 << 53 or max(self.weight, pairs) * _prime(0) >= 1 << 63:
            raise AssertionError(
                f"residue arithmetic is not exact at rowmax {self.rowmax}, "
                f"weight {self.weight}, block pairs {pairs}"
            )
        self.residues = [np.zeros((len(matrix), 0, len(starts))) for matrix, starts in blocks]
        # the primes as one column, for every block, and their float64 inverses
        self.moduli = self.reciprocals = np.zeros((0, 1))
        self.primes: list[int] = []
        self.products = [1]  # products[i] = primes[0] ⋯ primes[i - 1]
        self.inverses: list[int] = []  # inverses[i] = 1 / products[i] mod primes[i]
        self.n = self.horizon = 0
        self.series: dict[tuple[str, int], list[int]] = {key: [] for key in reads}

    def values(self, family: str, p: int, terms: int) -> list[int]:
        with self.lock:
            return self._extend(family, p, terms)[:terms]

    def term(self, family: str, p: int, n: int) -> int:
        with self.lock:
            return self._extend(family, p, n)[n - 1]

    def _extend(self, family: str, p: int, terms: int) -> list[int]:
        store = self.series[family, p]
        while len(store) < terms:
            self._walk(terms)
            self._record()
        return store

    def _grow(self, horizon: int) -> None:
        """Add the primes and residues that terms up to ``horizon`` need,
        at the current n."""
        old, bound = len(self.primes), 2 * self.weight * self.rowmax**horizon
        while self.products[-1] <= bound:
            p = _prime(len(self.primes))
            self.primes.append(p)
            self.inverses.append(pow(self.products[-1], -1, p))
            self.products.append(self.products[-1] * p)
        self.horizon = horizon
        if len(self.primes) == old:
            return
        if old:
            extend = _base_extension(self.primes[:old], self.primes[old:])
        for b, (matrix, starts) in enumerate(self.blocks):
            cube = np.zeros((len(matrix), len(self.primes), len(starts)))
            if old:
                # every entry of M^n e_s is at most rowmax^n < products[old]/2,
                # so its signed residues extend from the old primes to the
                # new ones, in chunks of rows of about _CHUNK residues
                cube[:, :old] = self.residues[b]
                step = max(1, _CHUNK // (old * len(starts)))
                for top in range(0, len(cube), step):
                    piece = cube[top : top + step]
                    x = extend(piece[:, :old].transpose(0, 2, 1).reshape(-1, old).astype(np.int64))
                    piece[:, old:] = x.reshape(len(piece), len(starts), -1).transpose(0, 2, 1)
            else:  # e_s at n = 0
                cube[starts, :, np.arange(len(starts))] = 1
            self.residues[b] = cube
        self.moduli = np.array(self.primes, dtype=np.float64)[:, None]
        self.reciprocals = 1 / self.moduli

    def _walk(self, terms: float) -> None:
        """Step every block by one term; ``terms`` is the request."""
        if self.n == self.horizon:
            self._grow(max(self.horizon + self.horizon // 4, min(terms, _FIRST_HORIZON)))
        for b, (matrix, _) in enumerate(self.blocks):
            v = self.residues[b]
            step = (matrix @ v.reshape(len(v), -1)).reshape(v.shape)
            self.residues[b] = _reduce(step, self.moduli, self.reciprocals)
        self.n += 1

    def _lift(self, residues):
        """The least non-negative integers (or integer arrays) with the
        given residues, of either sign, modulo primes[0], primes[1], ...
        (Garner; Python's ``%`` takes a negative sum as it is)."""
        x = 0
        for r, q, product, inverse in zip(residues, self.primes, self.products, self.inverses):
            x += product * ((r - x % q) * inverse % q)
        return x

    def _record(self) -> None:
        """Append the current term of every series."""
        k = bisect.bisect_right(self.products, self.weight * self.rowmax**self.n)
        total = np.zeros((len(self.series), k), dtype=np.int64)
        for v, (rows, columns, bounds) in zip(self.residues, self.gathers):
            running = np.zeros((len(rows) + 1, k), dtype=np.int64)
            np.add.accumulate(v[rows, :k, columns], axis=0, dtype=np.int64, out=running[1:])
            # differences of the running sum give 0 for an empty segment,
            # where np.add.reduceat would return the next element
            ends = running.take(bounds, axis=0)
            total += ends[1:] - ends[:-1]
        for store, residues in zip(self.series.values(), total.tolist()):
            store.append(self._lift(residues))


class _ResidueEngine(_ResidueWalk):
    """The production engine: a residue walk stepped until its series are
    certified, then extended by their recurrences.

    ``gram`` keys the Gram series (see :mod:`gridcycles.recurrence`).  A BM
    modulo ``PRIMES[0]`` follows its order L, and once 2L + 2 terms are in,
    each L is tried once as the certificate's bound: L then bounds every
    series, and a refuted L means stepping on.  The cap is ``size``
    = |U|, U the rows of the blocks: each series satisfies the
    characteristic polynomial of M on U, so 2·|U| terms always certify.
    Both certificates of the Gram series take the running BM as their fit
    modulo ``PRIMES[0]``, so no prime's fit runs twice.
    Once certified, ``recurrences[family, p]`` extends each series as far
    as it is asked for, and the blocks, residues and gathers are dropped.
    """

    def __init__(
        self, blocks: list[tuple[np.ndarray, list[int]]], reads: dict, gram: tuple[str, int]
    ):
        super().__init__(blocks, reads)
        self.recurrences: dict | None = None
        self.gram = self.series[gram]
        self.fit: recurrence.ModularBM | None = recurrence.ModularBM(recurrence.PRIMES[0])
        self.tried = -1  # the last Gram order tried

    def _record(self) -> None:
        super()._record()
        self.fit.add(self.gram[-1])

    def _advance(self, terms: float) -> None:
        """Step the series to ``terms`` terms or until they are certified,
        whichever comes first."""
        while self.recurrences is None and len(self.gram) < terms:
            self._walk(terms)
            self._record()
            n, order = len(self.gram), self.fit.order
            if n >= 2 * self.size:
                self._adopt(self.size, recurrence.certify(self.gram, self.size, self.fit))
            elif n >= 2 * order + 2 and order != self.tried:
                self.tried = order
                try:
                    gram = recurrence.certify(self.gram, order, self.fit)
                except recurrence.CertificateError:
                    continue
                self._adopt(order, gram)

    def _adopt(self, bound: int, gram: recurrence.Recurrence) -> None:
        """Certify every series with ``bound``, given the Gram series' fit
        ``gram``, then extend them by their recurrences; equal series share
        one fit."""
        fits, recurrences = {tuple(self.gram): gram}, {}
        for key, store in self.series.items():
            values = tuple(store)
            if values not in fits:
                fits[values] = recurrence.certify(store, bound)
            recurrences[key] = fits[values]
        self.recurrences = recurrences
        self.fit = None
        self.blocks = self.residues = self.moduli = self.reciprocals = self.gathers = None

    def _extend(self, family: str, p: int, terms: int) -> list[int]:
        self._advance(terms)
        store = self.series[family, p]
        while len(store) < terms:  # past certification only
            store.append(self.recurrences[family, p].next(store))
        return store

    def term(self, family: str, p: int, n: int) -> int:
        with self.lock:
            self._advance(n)
            store = self.series[family, p]
            if n <= len(store):
                return store[n - 1]
            return self.recurrences[family, p].term(store, n)

    def recurrence(self, family: str, p: int):
        """The certified minimal recurrence of one series."""
        with self.lock:
            self._advance(math.inf)
            return self.recurrences[family, p]


def _trace_engine(m: int) -> _ResidueEngine:
    """Torus/Klein counts on the reduced digraph A, one block per component,
    built from :func:`transfer.reduced_arcs` without the dense 2^m × 2^m
    matrix.

    The components are the classes of :func:`transfer.charge`, numbered by
    charge, which orders them by their least words too; an arc that changes
    the charge is refused.  One start per rotation orbit, its least word r.
    Every class is closed under rotation, so its least word is a start; a
    block that holds none is refused, since the growth divides by the
    starts of each block.  A is symmetric and commutes with the rotation
    R, so with k over the |orbit(r)| members, tg(n, p) = sum_r sum_k
    (A^n e_r)[R^p r] and kb(n, p) = sum_r sum_k (A^n e_r)[R^(-p-2k) rev(r)];
    rows outside the component of r read 0.
    """
    n_words = 1 << m
    src, outlets = transfer.reduced_arcs(np.arange(n_words), m)
    # the Gram series tr(A^n) needs A = Aᵀ, the reads A·R = R·A: check every law
    if faults := transfer.symmetry_faults(src, outlets, m):
        raise AssertionError(f"reduced digraph m={m} breaks {', '.join(faults)}")
    words = np.arange(n_words)
    rotations = np.stack([transfer.rotate_words(words, k, m) for k in range(m)])
    reps = np.flatnonzero(rotations.min(axis=0) == words)
    # label[x] is the block of word x, its charge, local[x] its index in the
    # block, column[r] the column of start r in the block
    label = transfer.charge(words, m)
    if not np.array_equal(label[src], label[outlets]):
        raise AssertionError(f"an arc of the reduced digraph m={m} changes the charge")
    local, column = np.zeros((2, n_words), dtype=np.int64)
    blocks = []
    for b in range(label.max() + 1):
        members, block_starts = np.flatnonzero(label == b), reps[label[reps] == b]
        if not len(block_starts):
            raise AssertionError(f"a component of the reduced digraph m={m} holds no start")
        local[members] = np.arange(len(members))
        column[block_starts] = np.arange(len(block_starts))
        matrix, arcs = np.zeros((len(members), len(members))), label[src] == b
        np.add.at(matrix, (local[src[arcs]], local[outlets[arcs]]), 1)
        blocks.append((matrix, local[block_starts].tolist()))
    sizes = m // (rotations[:, reps] == reps).sum(axis=0)  # |orbit(r)|
    starts = np.repeat(reps, sizes)  # each start once per member of its orbit
    first = np.arange(m) < sizes[:, None]  # (start, k) for k < |orbit|

    def read(pairs: np.ndarray) -> list:
        # the count sums (A^n e_start)[pairs[i]] over i, within each block
        parts = []
        for b in range(len(blocks)):
            keep = (label[pairs] == b) & (label[starts] == b)
            parts.append((b, local[pairs[keep]], column[starts[keep]]))
        return parts

    flipped = transfer.reverse_words(reps, m)
    reads = {}
    for p in range(m):
        kb = np.stack([transfer.rotate_words(flipped, -p - 2 * k, m) for k in range(m)]).T
        reads["tg", p] = read(np.repeat(rotations[p, reps], sizes))
        reads["kb", p] = read(kb[first])
    return _ResidueEngine(blocks, reads, ("tg", 0))


def _tnc_engine(m: int) -> _ResidueEngine:
    """Thin-cylinder counts G^n[0, 0] on the glued quotient G of width m
    (0^m at index 0), its own Gram series: with D the orbit sizes,
    D·G = Gᵀ·D (checked by :func:`transfer.build_glued`) makes
    S = D^½·G·D^-½ symmetric, and G^n[0, 0] = <S^i e_0, S^j e_0> for
    i + j = n.  G is strongly connected, so U is all of G."""
    zero = np.zeros(1, dtype=np.int64)
    glued = transfer.build_glued(m).adj.astype(np.float64)
    return _ResidueEngine([(glued, [0])], {("tnc", 0): [(0, zero, zero)]}, ("tnc", 0))


def _full_engine(m: int) -> _ResidueWalk:
    """Every full-route count, from the letter-word codes and their
    :func:`transfer.word_classes` alone: a residue walk that never certifies.

    A walk of n arcs on the word digraph, u → v when outlet(u) = inlet(v),
    depends on its ends only through outlet(u) and inlet(y), so its count
    is K_n[outlet(u), inlet(y)] for the 2^m × 2^m class matrix
    K_n = N^(n-1), N[i, o] the number of words with inlet i and outlet o.
    One block, Nᵀ, with every class as a start, is walked from K_1 = I,
    and term n is read off K_(n+1) = K_n·N, which sums over the last word
    y by its outlet class o.  The outlet class of a word's image under the
    twist, σ_p(o), depends on the word only through o (checked), so
    tg(n, p) = sum_o K_(n+1)[σ_p(o), o] with σ_p from rotation, kb the same
    with horizontally converted images, and the cylinder count tnc(n), the
    walks b^m → b^m of n + 1 arcs, = K_(n+1)[0, 0]: the words with outlet
    0^m are exactly the last column words.  A rotation by p letters is a
    cyclic shift by 3p of the 3m code bits.
    """
    words = column_word_codes(m)
    inlets, outlets = transfer.word_classes(words, m)
    counts = np.zeros((1 << m, 1 << m))
    np.add.at(counts, (outlets, inlets), 1)
    classes = np.arange(1 << m)

    def read(images: np.ndarray) -> list:
        # sum_o K_(n+1)[σ(o), o], σ(outlet(y)) = outlet(image of y)
        sigma = np.zeros(1 << m, dtype=np.int64)
        sigma[outlets] = image = transfer.word_classes(images, m)[1]
        if not np.array_equal(sigma[outlets], image):
            raise AssertionError(f"the image outlets are not a function of the outlet, m={m}")
        return [(0, classes, sigma)]

    zero = np.zeros(1, dtype=np.int64)
    reads = {("tnc", 0): [(0, zero, zero)]}
    for p in range(m):
        rotated = transfer.rotate_words(words, 3 * p, 3 * m)
        reads["tg", p] = read(rotated)
        reads["kb", p] = read(horizontal_convert_codes(rotated, m))
    return _ResidueWalk([(counts, list(range(1 << m)))], reads)


# engine kind -> builder; each kind is the transfer.LIMITS row of its widths
_KINDS = {"trace": _trace_engine, "glued": _tnc_engine, "full": _full_engine}


def _lucas(m: int) -> int:
    """Lucas(m) = 1, 3, 4, 7, 11, ... for m = 1, 2, ...: the number of
    first-column words of width m."""
    a, b = 2, 1  # Lucas(0), Lucas(1)
    for _ in range(m):
        a, b = b, a + b
    return a


# Every engine's rowmax is the number of column words with inlet (or
# outlet) 0^m, Lucas(m), so Lucas at the widest engine row bounds them all
# and rowmax·p <= 2^53 for every prime p <= _PRIME_LIMIT.
_PRIME_LIMIT = (1 << 53) // _lucas(max(transfer.LIMITS[kind][0] for kind in _KINDS))
# (kind, m) -> [build lock, engine or None].  A slot is made only for a
# width within its kind's row of transfer.LIMITS (and m >= 2, checked by
# GridSpec), so there are at most Σ (limit - 1) over the engine rows.  Each
# engine's series still grow with the terms asked of it.
_ENGINES: dict[tuple[str, int], list] = {}
_ENGINE_LOCK = threading.Lock()  # guards _ENGINES, never a build


def _engine(kind: str, m: int) -> _ResidueWalk:
    transfer.check_width(kind, m)
    with _ENGINE_LOCK:
        slot = _ENGINES.setdefault((kind, m), [threading.Lock(), None])
    with slot[0]:
        if slot[1] is None:
            slot[1] = _KINDS[kind](m)
    return slot[1]


def _route(family: str, m: int, method: str) -> _ResidueWalk:
    if method not in ("full", "reduced", "glued"):
        raise ValueError(f"unknown method {method!r}")
    if method == "glued" and family != "tnc":
        raise ValueError("the glued route applies to the thin cylinder only")
    kind = "full" if method == "full" else ("glued" if family == "tnc" else "trace")
    return _engine(kind, m)


def _series_values(family: str, m: int, p: int, terms: int, method: str) -> list[int]:
    return _route(family, m, method).values(family, 0 if family == "tnc" else p, terms)


def series(spec: GridSpec, terms: int, method: str = "reduced") -> Series:
    """Exact counts for n = 1..terms, computed incrementally (one engine
    step or, past the certified prefix, one recurrence step per term)."""
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    if terms == 0:
        return Series(spec.family, spec.m, spec.p, [])
    values = _series_values(spec.family, spec.m, spec.p, terms, method)
    return Series(spec.family, spec.m, spec.p, list(values))


def count(spec: GridSpec, method: str = "reduced") -> int:
    """Exact 2-factor count for a fully specified grid.  Past the cached
    terms and the certified prefix it costs O(log n) polynomial products."""
    if spec.n is None:
        raise ValueError("spec.n is required for a single count")
    return _route(spec.family, spec.m, method).term(spec.family, spec.p, spec.n)


def count_tnc(m: int, n: int, method: str = "reduced") -> int:
    """Thin-cylinder count; ``reduced`` and ``glued`` name the same route and
    ``full`` cross-checks it."""
    return count(GridSpec("tnc", m, 0, n), method)


def count_tg(m: int, p: int, n: int, method: str = "reduced") -> int:
    """Torus count for twist p."""
    return count(GridSpec("tg", m, p, n), method)


def count_kb(m: int, p: int, n: int, method: str = "reduced") -> int:
    """Klein-bottle count for twist p."""
    return count(GridSpec("kb", m, p, n), method)


def verify_route_agreement(m: int, p: int, n: int) -> bool:
    """Does the full-digraph route agree with the production route for all
    three families up to length n?"""
    spec = GridSpec("tg", m, p)  # checks the width and reduces the twist
    return all(
        _series_values(family, m, spec.p, n, "reduced")
        == _series_values(family, m, spec.p, n, "full")
        for family in FAMILIES
    )


def _perron_root(glued: transfer.TransferDigraph) -> Spectrum:
    """The Perron root of a glued quotient G: the greatest eigenvalue of
    the symmetric S = D^½·G·D^-½, whose entries are sqrt(G_ij·G_ji) (D·G =
    Gᵀ·D is checked when G is built).  S is similar to G, and for a
    nonnegative symmetric matrix the greatest eigenvalue is the spectral
    radius, periodic components included."""
    g = glued.adj.astype(float)
    return Spectrum(float(np.linalg.eigvalsh(np.sqrt(g * g.T))[-1]))


def zero_component_spectrum(m: int) -> Spectrum:
    """Dominant eigenvalue of the reduced-digraph component containing 0^m
    (the growth rate of the thin-cylinder counts), computed on its glued
    quotient, which keeps the Perron root."""
    return _perron_root(transfer.build_glued(m))


def component_spectra(
    d: transfer.TransferDigraph, census: transfer.ComponentCensus
) -> list[Spectrum]:
    """Dominant eigenvalue of every component of a reduced digraph, in the
    order of its census, each computed on the glued quotient of the
    component, a charge class, rooted at its least member.  Exposed so the
    (observed, unproven) agreement between the whole digraph's spectral
    radius and its 1^m component can be inspected rather than assumed."""
    return [
        _perron_root(transfer.build_glued(d.m, int(d.words[census.members(comp)[0]])))
        for comp in range(census.n_components)
    ]
