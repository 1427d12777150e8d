"""Exact 2-factor counts for the three grid families.

Families (CLI vocabulary in parentheses):

* thin cylinder (``tnc``): cycle C_m times path P_n;
* torus (``tg``): cylinder of length n+1 with first and last columns glued
  under a cyclic shift by p;
* Klein bottle (``kb``): same gluing with the column order reversed.

Each count has two routes that must agree:

* production — the thin cylinder walks the glued quotient G (the all-zero
  component of the reduced digraph folded by rotation and reversal) from
  0^m: its engine keeps G^n e_0 modulo word-size primes as float64
  columns, steps them by one BLAS product a term, and lifts the count
  G^n[0, 0] by the Chinese remainder theorem.  The torus and Klein bottle
  walk the reduced digraph A from each rotation orbit with one big-int
  vector A^n e_s per start s, pairing each vertex with its rotation (resp.
  reversed rotation) image.  The methods ``reduced`` and ``glued`` both
  name the production route for the thin cylinder; ``glued`` applies to
  it alone.
* ``full`` — walk counts on the full digraph of column words, the
  independent cross-check.  It always steps and never reads a recurrence.

Series values are Python integers (exact).  Engines cache their series per
width, so asking for more terms or another twist extends earlier work
instead of recomputing powers.  Both production engines step one term at
a time until their series are certified
(:func:`gridcycles.recurrence.certify`), then drop what they step and
extend the series by their recurrences.  Each engine names a Gram series:
the thin-cylinder count e_0ᵀ S^n e_0, S = D^½·G·D^-½ the symmetric form
of the glued quotient G, and the torus count tg(n, 0) = tr(A^n) for the
symmetric reduced matrix A.  Its Hankel matrices are Gram matrices of
the powers, so an integer recurrence of order L that regenerates its
first 2L + 2 terms annihilates S·e_0 (resp. A), and every series read off
the same powers obeys it.  The engine follows the Gram series' order L by
Berlekamp–Massey modulo one prime and tries that certificate once 2L + 2
terms are in; a refuted L means stepping on.  2·|U| terms, U the rows it steps, always certify
(Cayley–Hamilton), so that is the cap.  A single count past the cached
terms is read off the recurrence in O(order² log n) big-int products,
without caching the terms in between.  Each engine is built under its own
lock and carries another for its steps, so distinct widths can be built
and driven from different threads at once.

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
from .alphabet import (
    enumerate_column_words,
    horizontal_convert,
    inlet,
    outlet,
    rotate,
)
from .exactmat import Spectrum
from .transfer import ResourceLimitError

FAMILIES = ("tnc", "tg", "kb")

# Documented torus/Klein limit (see README; the full and thin-cylinder
# routes are capped by transfer.FULL_MATRIX_LIMIT and transfer.GLUED_LIMIT).
# The trace engine steps one big-int vector of length 2^m per rotation
# orbit; at m = 11 terms 3..20 cost about 0.8 s each on a 2-core Xeon.
TG_KB_REDUCED_LIMIT = 11


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


class _Engine:
    """A per-width series cache: ``series[family][p]`` holds the counts for
    n = 1, 2, ..., and each ``_step`` appends one term to every series."""

    def __init__(self) -> None:
        self.lock = threading.RLock()

    def values(self, family: str, p: int, terms: int) -> list[int]:
        with self.lock:
            return self._extend(family, p, terms)[:terms]

    def term(self, family: str, p: int, n: int) -> int:
        with self.lock:
            return self._extend(family, p, n)[n - 1]

    def _extend(self, family: str, p: int, terms: int) -> list[int]:
        store = self.series[family][p]
        while len(store) < terms:
            self._step()
        return store


class _CertifiedEngine(_Engine):
    """An engine that steps its series until they are certified, then
    extends them by their recurrences.

    A subclass keeps the stepping state: ``_walk`` advances it by one
    term, ``_read(family, p)`` reads the current term of one series and
    ``_drop`` frees the state once the series are certified.

    ``gram`` names the Gram series (see :mod:`gridcycles.recurrence`).
    Its terms go to a BM modulo ``PRIMES[0]`` as they come; when 2L + 2
    terms are in, L the BM order, the Gram series is certified with bound
    L, and L then bounds every series.  A refuted L means stepping on, and
    each L is tried once.  The cap is ``size`` = |U|, U a set of rows
    closed under the stepped matrix that holds every start, so each series
    satisfies the characteristic polynomial of the matrix on U and 2·|U|
    terms always certify.  Once certified, ``recurrences[family][p]``
    extends each series.
    """

    def __init__(self, counts: dict[str, int], gram: tuple[str, int], size: int):
        super().__init__()
        self.size = size
        self.recurrences: dict | None = None
        self.series = {family: [[] for _ in range(k)] for family, k in counts.items()}
        self.gram = self.series[gram[0]][gram[1]]
        self.fit: recurrence.ModularBM | None = recurrence.ModularBM(recurrence.PRIMES[0])
        self.tried = -1  # the last Gram order tried

    def _record(self) -> None:
        for family, stores in self.series.items():
            for p, store in enumerate(stores):
                store.append(self._read(family, p))
        self.fit.add(self.gram[-1])

    def _step(self) -> None:
        if self.recurrences is not None:
            for family, stores in self.series.items():
                for store, rec in zip(stores, self.recurrences[family]):
                    store.append(rec.next(store))
            return
        self._walk()
        self._record()

    def _advance(self, terms: float) -> None:
        """Step the series to ``terms`` terms or until they are certified,
        whichever comes first."""
        while self.recurrences is None and len(self.gram) < terms:
            self._step()
            n, order = len(self.gram), self.fit.order
            if n >= 2 * self.size:
                self._adopt(self.size, {})
            elif n >= 2 * order + 2 and order != self.tried:
                self.tried = order
                try:
                    fit = recurrence.certify(self.gram, order)
                except recurrence.CertificateError:
                    continue
                self._adopt(order, {tuple(self.gram): fit})

    def _adopt(self, bound: int, fits: dict) -> None:
        """Certify every series with ``bound``, then extend them by their
        recurrences.  ``fits`` maps series already certified to their fits;
        equal series share one fit."""
        recurrences = {}
        for family, stores in self.series.items():
            recurrences[family] = []
            for store in stores:
                key = tuple(store)
                if key not in fits:
                    fits[key] = recurrence.certify(store, bound)
                recurrences[family].append(fits[key])
        self.recurrences = recurrences
        self.fit = None
        self._drop()

    def _extend(self, family: str, p: int, terms: int) -> list[int]:
        self._advance(terms)
        return super()._extend(family, p, terms)

    def term(self, family: str, p: int, n: int) -> int:
        with self.lock:
            self._advance(n)
            store = self.series[family][p]
            if n <= len(store):
                return store[n - 1]
            return self.recurrences[family][p].term(store, n)

    def recurrence(self, family: str, p: int):
        """The certified minimal recurrence of one series."""
        with self.lock:
            self._advance(math.inf)
            return self.recurrences[family][p]


class _VectorEngine(_CertifiedEngine):
    """Walk counts as big-int vectors v_j = M^n e_s, one per start s_j.

    M is given as successor rows, each successor repeated by its
    multiplicity, so a step w[x] = sum of v[y] over row x gives w = M v.
    Each start's component is strongly connected, so outside it v_j stays
    zero and a step computes only the component's rows.  ``first[j]`` is
    M e_s (n = 1).  Every series is a linear read: the count for (family,
    p) is the sum over j of v_j[x] for x in ``reads[family][p][j]``.  U is
    the union of the components.  Certification drops the vectors and
    rows.
    """

    def __init__(
        self,
        rows: list[list[int]],
        starts: list[int],
        first: list[list[int]],
        reads: dict,
        gram: tuple[str, int],
    ):
        self.starts, self.vectors, self.reads = starts, first, reads
        # (members, their rows) of each component, shared by its starts
        block_of: dict[int, tuple[list[int], list[list[int]]]] = {}
        self.blocks: list[tuple[list[int], list[list[int]]]] | None = []
        for s in starts:
            if s not in block_of:
                members = sorted(transfer._reach(s, rows))
                block = (members, [rows[x] for x in members])
                block_of.update(dict.fromkeys(members, block))
            self.blocks.append(block_of[s])
        super().__init__({family: len(by_p) for family, by_p in reads.items()}, gram, len(block_of))
        self._record()

    def _read(self, family: str, p: int) -> int:
        return sum(v[x] for v, xs in zip(self.vectors, self.reads[family][p]) for x in xs)

    def _walk(self) -> None:
        for j, (members, rows) in enumerate(self.blocks):
            v = self.vectors[j]
            self.vectors[j] = w = [0] * len(v)
            for x, row in zip(members, rows):
                w[x] = sum(map(v.__getitem__, row))

    def _drop(self) -> None:
        self.vectors = self.blocks = None


# the first horizon of a residue engine, in terms; each growth adds a quarter
_FIRST_HORIZON = 64
# The residue primes are the greatest primes <= 2^53 / Lucas(18), Lucas(18)
# = 5778 being rowmax(G) at transfer.GLUED_LIMIT; each engine checks that
# its products stay below 2^53.  They are found once per process.
_PRIME_LIMIT = (1 << 53) // 5778
_PRIMES: list[int] = []  # the primes <= _PRIME_LIMIT found so far, descending
_PRIMES_LOCK = threading.Lock()
# Miller–Rabin with these bases decides every n < 3.3·10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
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
        q = _PRIMES[-1] - 1 if _PRIMES else _PRIME_LIMIT
        while len(_PRIMES) <= i:
            if _is_prime(q):
                _PRIMES.append(q)
            q -= 1
        return _PRIMES[i]


def _reduce(w: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """w mod p column by column, in place, for float64 integers 0 <= w and
    primes p with w < rowmax·p <= 2^53 (about three times faster than
    ``np.fmod``).  The quotient w/p is below rowmax <= 5778, so
    q = floor(w·(1/p)) is off by at most one, q·p <= rowmax·p is exact,
    and so is w - q·p in [-p, 2p); one correction each way lands in
    [0, p)."""
    q = w * (1 / moduli)
    np.floor(q, out=q)
    q *= moduli
    w -= q
    np.add(w, moduli, out=w, where=w < 0)
    np.subtract(w, moduli, out=w, where=w >= moduli)
    return w


class _ResidueEngine(_CertifiedEngine):
    """The thin-cylinder count G^n[0, 0] from residues of G^n e_0 modulo
    word-size primes, G the glued quotient (0^m at index 0).

    G is kept as float64, and column i of ``residues`` holds G^n e_0 mod
    ``primes[i]``, so each term is one product G @ V reduced mod p.  Every
    prime p has rowmax·p <= 2^53, rowmax = rowmax(G) the greatest row sum,
    so each partial sum of the product is an integer below 2^53 and the
    float arithmetic is exact.  Every entry of G^n e_0 is at most
    rowmax^n, so the count is lifted from row 0 by Garner's CRT over the
    shortest prefix of the primes whose product exceeds rowmax^n.

    The columns cover the terms up to ``horizon``.  A term past it grows
    the horizon by a quarter.  The old columns then still determine G^n e_0
    exactly, so it is lifted by the same CRT and reduced modulo the new
    primes; no column is stepped twice.

    The count is its own Gram series: with D the orbit size of each
    representative, D·G = Gᵀ·D (checked by :func:`transfer.build_glued`)
    makes S = D^½·G·D^-½ symmetric, and G^n[0, 0] = e_0ᵀ S^n e_0 =
    <S^i e_0, S^j e_0> for i + j = n.  G is one strongly connected
    component, so U is all of G.  Certification drops G and the residues.
    """

    def __init__(self, adj: np.ndarray):
        super().__init__({"tnc": 1}, ("tnc", 0), len(adj))
        self.rowmax = int(adj.sum(axis=1).max())
        if self.rowmax * _prime(0) > 1 << 53:
            raise AssertionError(f"float64 products of G are not exact at rowmax {self.rowmax}")
        self.glued: np.ndarray | None = adj.astype(np.float64)
        self.residues: np.ndarray | None = np.zeros((len(adj), 0))
        self.primes: list[int] = []
        self.products = [1]  # products[i] = primes[0] ⋯ primes[i - 1]
        self.inverses: list[int] = []  # inverses[i] = 1 / products[i] mod primes[i]
        self.n = self.horizon = 0
        self._step()

    def _grow(self, horizon: int) -> None:
        """Add the primes and columns that terms up to ``horizon`` need,
        at the current n."""
        old, bound = len(self.primes), self.rowmax**horizon
        while self.products[-1] <= bound:
            p = _prime(len(self.primes))
            self.primes.append(p)
            self.inverses.append(pow(self.products[-1], -1, p))
            self.products.append(self.products[-1] * p)
        self.horizon = horizon
        if len(self.primes) == old:
            return
        if old:  # G^n e_0 from the old columns: its entries are at most rowmax^n < products[old]
            vector = self._lift(self.residues.T.astype(np.int64).astype(object))
        else:  # e_0 at n = 0
            vector = np.zeros(len(self.glued), dtype=object)
            vector[0] = 1
        new = np.array([vector % q for q in self.primes[old:]], dtype=np.float64)
        self.residues = np.hstack([self.residues, new.T])
        self.moduli = np.array(self.primes, dtype=np.float64)

    def _walk(self) -> None:
        if self.n == self.horizon:
            self._grow(max(_FIRST_HORIZON, self.horizon + self.horizon // 4))
        self.residues = _reduce(self.glued @ self.residues, self.moduli)
        self.n += 1

    def _lift(self, residues):
        """The least non-negative integers (or integer arrays) with the
        given residues modulo primes[0], primes[1], ... (Garner)."""
        x = 0
        for r, q, product, inverse in zip(residues, self.primes, self.products, self.inverses):
            x += product * ((r - x % q) * inverse % q)
        return x

    def _read(self, family: str, p: int) -> int:
        k = bisect.bisect_right(self.products, self.rowmax**self.n)  # products[k] > rowmax^n
        return self._lift(self.residues[0, :k].astype(np.int64).tolist())

    def _drop(self) -> None:
        self.glued = self.residues = self.moduli = None


def _trace_engine(m: int) -> _VectorEngine:
    """Torus/Klein counts on the reduced digraph A, whose rows come straight
    from :func:`transfer.reduced_arcs`, so the dense matrix is never built.

    One start per rotation orbit, its least word r.  A is symmetric and
    commutes with the rotation R, so with k over the |orbit(r)| members,
    tg(n, p) = sum_r sum_k v_r[R^p r] and kb(n, p) = sum_r sum_k
    v_r[R^(-p-2k) rev(r)].  v_r starts as row r of A.
    """
    n_words = 1 << m
    src, outlets = transfer.reduced_arcs(np.arange(n_words), m)
    # tr(A^n), the Gram series, needs A = Aᵀ: the arcs reversed are the arcs
    forward = np.sort((src.astype(np.int64) << m) | outlets)
    if not np.array_equal(forward, np.sort((outlets.astype(np.int64) << m) | src)):
        raise AssertionError(f"reduced digraph m={m} is not symmetric")
    # the arcs come grouped by inlet, so they split into successor rows
    bounds = np.cumsum(np.bincount(src, minlength=n_words))[:-1]
    rows = [row.tolist() for row in np.split(outlets, bounds)]
    words = np.arange(n_words)
    rotations = np.stack([transfer.rotate_words(words, k, m) for k in range(m)])
    reps = np.flatnonzero(rotations.min(axis=0) == words)
    sizes = [len(set(rotations[:, r].tolist())) for r in reps]
    flipped = transfer.reverse_words(reps, m)
    reads: dict[str, list[list[list[int]]]] = {"tg": [], "kb": []}
    for p in range(m):
        kb = np.stack([transfer.rotate_words(flipped, -p - 2 * k, m) for k in range(m)]).T
        reads["tg"].append([[x] * size for x, size in zip(rotations[p, reps].tolist(), sizes)])
        reads["kb"].append([row[:size] for row, size in zip(kb.tolist(), sizes)])
    reps = reps.tolist()
    first = [np.bincount(rows[r], minlength=n_words).tolist() for r in reps]
    return _VectorEngine(rows, reps, first, reads, ("tg", 0))


def _tnc_engine(m: int) -> _ResidueEngine:
    """Thin-cylinder counts on the glued quotient of width m."""
    return _ResidueEngine(transfer.build_glued(m).adj)


class _FullWalkEngine(_Engine):
    """Per-width engine for all full-route counts.

    Walk counts on the full word digraph are grouped by outlet class: two
    vertices with equal outlet words have identical walk-count rows, so one
    row per binary class suffices.  The torus/Klein selected sums then pair
    every vertex y with the class of its rotated (and for the Klein bottle,
    horizontally converted) image.
    """

    def __init__(self, m: int):
        super().__init__()
        words = enumerate_column_words(m)
        self.nv = len(words)
        self.o_class = [int(outlet(w), 2) for w in words]
        self.i_class = [int(inlet(w), 2) for w in words]
        self.b_index = words.index("b" * m)
        self.sources = {
            "tg": [[int(outlet(rotate(w, p)), 2) for w in words] for p in range(m)],
            "kb": [[int(outlet(horizontal_convert(rotate(w, p))), 2) for w in words] for p in range(m)],
        }
        nclasses = 1 << m
        # rows of the n-th power of the word adjacency matrix, one per
        # outlet class (valid for n >= 1); start at n = 1
        self.rows = [
            [1 if self.i_class[y] == c else 0 for y in range(self.nv)]
            for c in range(nclasses)
        ]
        self.n = 1
        # the tnc value f(k) is appended once rows reach k+1
        self.series = {"tnc": [[]], "tg": [[] for _ in range(m)], "kb": [[] for _ in range(m)]}
        self._record()

    def _record(self) -> None:
        rows = self.rows
        for family, sources in self.sources.items():
            for src, store in zip(sources, self.series[family]):
                store.append(sum(rows[src[y]][y] for y in range(self.nv)))
        if self.n >= 2:
            # walks b^m -> b^m of length n give the cylinder count at n - 1
            self.series["tnc"][0].append(rows[self.o_class[self.b_index]][self.b_index])

    def _step(self) -> None:
        nclasses = len(self.rows)
        o_class, i_class = self.o_class, self.i_class
        new_rows = []
        for row in self.rows:
            sums = [0] * nclasses
            for y, val in enumerate(row):
                if val:
                    sums[o_class[y]] += val
            new_rows.append([sums[c] for c in i_class])
        self.rows = new_rows
        self.n += 1
        self._record()


# engine kind -> (width limit, route name for the limit error)
_LIMITS = {
    "trace": (TG_KB_REDUCED_LIMIT, "torus/Klein reduced route"),
    "tnc": (transfer.GLUED_LIMIT, "glued route"),
    "full": (transfer.FULL_MATRIX_LIMIT, "full route"),
}
_ENGINES: dict[tuple[str, int], _Engine] = {}
_BUILD_LOCKS: dict[tuple[str, int], threading.Lock] = {}
_ENGINE_LOCK = threading.Lock()  # guards the two dictionaries, never a build


def _engine(kind: str, m: int) -> _Engine:
    limit, route = _LIMITS[kind]
    if m > limit:
        raise ResourceLimitError(f"{route} limited to m <= {limit}, got {m}")
    key = (kind, m)
    with _ENGINE_LOCK:
        engine = _ENGINES.get(key)
        if engine is not None:
            return engine
        build_lock = _BUILD_LOCKS.setdefault(key, threading.Lock())
    with build_lock:
        with _ENGINE_LOCK:
            engine = _ENGINES.get(key)
        if engine is None:
            build = {"trace": _trace_engine, "tnc": _tnc_engine, "full": _FullWalkEngine}[kind]
            engine = build(m)
            with _ENGINE_LOCK:
                _ENGINES[key] = engine
                # later requests find the engine, so its build lock can go
                del _BUILD_LOCKS[key]
    return engine


def _route(family: str, m: int, method: str) -> _Engine:
    if method not in ("full", "reduced", "glued"):
        raise ValueError(f"unknown method {method!r}")
    if method == "glued" and family != "tnc":
        raise ValueError("the glued route applies to the thin cylinder only")
    kind = "full" if method == "full" else ("tnc" if family == "tnc" else "trace")
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
    transfer._check_width(m)
    p %= m
    return all(
        _series_values(family, m, p, n, "reduced")
        == _series_values(family, m, p, n, "full")
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
    order of its census, each computed on the glued quotient walked from
    the component's least member.  That walk covers the component alone
    only if rotation and reversal map the component to itself, so the
    orbit sizes of each quotient must sum to the component's size; a
    mismatch raises.  Exposed so the (observed, unproven) agreement between the whole
    digraph's spectral radius and its 1^m component can be inspected rather
    than assumed."""
    orbit_sizes = np.bincount(transfer.dihedral_least(d.m))
    spectra = []
    for comp in range(census.n_components):
        glued = transfer.build_glued(d.m, int(d.vertices[census.members(comp)[0]], 2))
        covered = int(orbit_sizes[[int(w, 2) for w in glued.vertices]].sum())
        if covered != census.sizes[comp]:
            raise AssertionError(
                f"the orbits of component {comp} (m={d.m}) hold {covered} words, "
                f"not its {census.sizes[comp]}"
            )
        spectra.append(_perron_root(glued))
    return spectra
