"""Exact 2-factor counts for the three grid families.

Families (CLI vocabulary in parentheses):

* thin cylinder (``tnc``): cycle C_m times path P_n;
* torus (``tg``): cylinder of length n+1 with first and last columns glued
  under a cyclic shift by p;
* Klein bottle (``kb``): same gluing with the column order reversed.

Each count has two routes that must agree:

* production — the thin-cylinder count is the (0^m, 0^m) walk count on the
  glued quotient (the all-zero component of the reduced digraph folded by
  rotation and reversal).  Torus and Klein-bottle counts are selected
  traces of powers of the reduced digraph, pairing each vertex with its
  rotation (resp. reversed rotation) image, read off one column of the
  power per rotation orbit.  The methods ``reduced`` and ``glued`` both
  name this route for the thin cylinder; ``glued`` applies to it alone.
* ``full`` — walk counts on the full digraph of column words, the
  independent cross-check.

Series values are Python integers (exact).  Engines advance one
matrix/vector step per term and cache their progress per width, so asking
for more terms or another twist extends earlier work instead of
recomputing powers.  Each engine is built under its own lock and carries
another for its steps, so distinct widths can be built and driven from
different threads at once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import transfer
from .alphabet import (
    enumerate_column_words,
    horizontal_convert,
    inlet,
    outlet,
    rotate,
)
from .exactmat import Spectrum, dominant_eigenvalue
from .transfer import ResourceLimitError

FAMILIES = ("tnc", "tg", "kb")

# Documented route limit (see README; the full and thin-cylinder routes are
# capped by transfer.FULL_MATRIX_LIMIT and transfer.GLUED_LIMIT).  Torus/Klein
# traces step one big-int vector per rotation orbit, about 0.5 s a term at
# m = 11.
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
            "values": [str(v) for v in self.values],
        }

    def to_bfile_text(self) -> str:
        return "".join(f"{n} {v}\n" for n, v in enumerate(self.values, start=1))


def _matvec(rows: list[list[int]], v: list[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in rows]


class _OrbitTraceEngine:
    """Per-width engine for torus/Klein counts.

    Keeps v_r = A^n e_r, A the reduced transfer matrix, as one full-length
    big-int list per rotation-orbit representative r (its least word).  A
    is symmetric and commutes with the rotation R, so with k over the
    |orbit(r)| members, tg(n, p) = sum_r sum_k v_r[R^p r] and
    kb(n, p) = sum_r sum_k v_r[R^(-p-2k) rev(r)]; ``reads[family][p][j]``
    lists those positions for representative j.  A step computes only the
    rows of r's component, outside which v_r is zero; each row lists its
    successors repeated by multiplicity, straight from
    :func:`transfer.reduced_arcs`, so the dense matrix is never built.
    """

    def __init__(self, m: int):
        self.lock = threading.RLock()
        n_words = 1 << m
        src, outlets = transfer.reduced_arcs(np.arange(n_words), m)
        # the arcs come grouped by inlet, so they split into successor rows
        bounds = np.cumsum(np.bincount(src, minlength=n_words))[:-1]
        rows = [row.tolist() for row in np.split(outlets, bounds)]
        words = [format(x, f"0{m}b") for x in range(n_words)]
        orbits = [{rotate(w, k) for k in range(m)} for w in words]
        self.reps = [i for i, w in enumerate(words) if w == min(orbits[i])]
        self.reads: dict[str, list[list[list[int]]]] = {"tg": [], "kb": []}
        for p in range(m):
            tg, kb = [], []
            for r in self.reps:
                w, size = words[r], len(orbits[r])
                tg.append([int(rotate(w, p), 2)] * size)
                kb.append([int(rotate(w[::-1], -p - 2 * k), 2) for k in range(size)])
            self.reads["tg"].append(tg)
            self.reads["kb"].append(kb)
        # (members, their rows) of each component, shared by its representatives
        block_of: dict[int, tuple[list[int], list[list[int]]]] = {}
        self.blocks: list[tuple[list[int], list[list[int]]]] = []
        for r in self.reps:
            if r not in block_of:
                members = sorted(transfer._reach([r], rows, range(n_words)))
                block = (members, [rows[x] for x in members])
                block_of.update(dict.fromkeys(members, block))
            self.blocks.append(block_of[r])
        # A is symmetric, so v_r starts as row r of A
        self.vectors = [np.bincount(rows[r], minlength=n_words).tolist() for r in self.reps]
        self.series = {family: [[] for _ in range(m)] for family in self.reads}
        self._record()

    def _record(self) -> None:
        for family, reads in self.reads.items():
            for p, store in enumerate(self.series[family]):
                store.append(sum(v[x] for v, xs in zip(self.vectors, reads[p]) for x in xs))

    def extend(self, terms: int) -> None:
        with self.lock:
            while len(self.series["tg"][0]) < terms:
                for j, (members, rows) in enumerate(self.blocks):
                    v = self.vectors[j]
                    self.vectors[j] = w = [0] * len(v)
                    for x, row in zip(members, rows):
                        w[x] = sum(map(v.__getitem__, row))
                self._record()

    def values(self, family: str, p: int, terms: int) -> list[int]:
        self.extend(terms)
        return self.series[family][p][:terms]


class _TncVectorEngine:
    """Per-width engine for thin-cylinder counts on the glued quotient.

    Tracks the first basis row of the quotient's powers (its matrix is not
    symmetric); the count is the leading diagonal entry.
    """

    def __init__(self, m: int):
        self.lock = threading.RLock()
        d = transfer.build_glued(m)
        assert d.vertices[0] == "0" * m
        rows = [[int(x) for x in row] for row in d.adj]
        self.step_rows = [list(col) for col in zip(*rows)]  # left action
        self.vec = [1] + [0] * (len(rows) - 1)
        self.values: list[int] = []

    def extend(self, terms: int) -> list[int]:
        with self.lock:
            while len(self.values) < terms:
                self.vec = _matvec(self.step_rows, self.vec)
                self.values.append(self.vec[0])
            return self.values[:terms]


class _FullWalkEngine:
    """Per-width engine for all full-route counts.

    Walk counts on the full word digraph are grouped by outlet class: two
    vertices with equal outlet words have identical walk-count rows, so one
    row per binary class suffices.  The torus/Klein selected sums then pair
    every vertex y with the class of its rotated (and for the Klein bottle,
    horizontally converted) image.
    """

    def __init__(self, m: int):
        self.m = m
        self.lock = threading.RLock()
        words = enumerate_column_words(m)
        self.nv = len(words)
        self.o_class = [int(outlet(w), 2) for w in words]
        self.i_class = [int(inlet(w), 2) for w in words]
        self.b_index = words.index("b" * m)
        self.src_tg = [
            [int(outlet(rotate(w, p)), 2) for w in words] for p in range(m)
        ]
        self.src_kb = [
            [int(outlet(horizontal_convert(rotate(w, p))), 2) for w in words]
            for p in range(m)
        ]
        nclasses = 1 << m
        # rows of the n-th power of the word adjacency matrix, one per
        # outlet class (valid for n >= 1); start at n = 1
        self.rows = [
            [1 if self.i_class[y] == c else 0 for y in range(self.nv)]
            for c in range(nclasses)
        ]
        self.n = 1
        self.tnc: list[int] = []  # tnc value f(k) appended once rows reach k+1
        self.tg: list[list[int]] = [[] for _ in range(m)]
        self.kb: list[list[int]] = [[] for _ in range(m)]
        self._record()

    def _record(self) -> None:
        rows = self.rows
        for p in range(self.m):
            src = self.src_tg[p]
            self.tg[p].append(sum(rows[src[y]][y] for y in range(self.nv)))
            src = self.src_kb[p]
            self.kb[p].append(sum(rows[src[y]][y] for y in range(self.nv)))
        if self.n >= 2:
            # walks b^m -> b^m of length n give the cylinder count at n - 1
            self.tnc.append(rows[self.o_class[self.b_index]][self.b_index])

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

    def extend_tnc(self, terms: int) -> list[int]:
        with self.lock:
            while len(self.tnc) < terms:
                self._step()
            return self.tnc[:terms]

    def extend_trace(self, family: str, p: int, terms: int) -> list[int]:
        with self.lock:
            store = self.tg if family == "tg" else self.kb
            while len(store[p]) < terms:
                self._step()
            return store[p][:terms]


# engine kind -> (width limit, route name for the limit error)
_LIMITS = {
    "trace": (TG_KB_REDUCED_LIMIT, "torus/Klein reduced route"),
    "tnc": (transfer.GLUED_LIMIT, "glued route"),
    "full": (transfer.FULL_MATRIX_LIMIT, "full route"),
}
_ENGINES: dict[tuple[str, int], object] = {}
_BUILD_LOCKS: dict[tuple[str, int], threading.Lock] = {}
_ENGINE_LOCK = threading.Lock()  # guards the two dictionaries, never a build


def _engine(kind: str, m: int):
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
            if kind == "trace":
                engine = _OrbitTraceEngine(m)
            elif kind == "tnc":
                engine = _TncVectorEngine(m)
            else:
                engine = _FullWalkEngine(m)
            with _ENGINE_LOCK:
                _ENGINES[key] = engine
    return engine


def _series_values(family: str, m: int, p: int, terms: int, method: str) -> list[int]:
    if method not in ("full", "reduced", "glued"):
        raise ValueError(f"unknown method {method!r}")
    if family == "tnc":
        if method == "full":
            return _engine("full", m).extend_tnc(terms)
        return _engine("tnc", m).extend(terms)
    if method == "glued":
        raise ValueError("the glued route applies to the thin cylinder only")
    if method == "reduced":
        return _engine("trace", m).values(family, p, terms)
    return _engine("full", m).extend_trace(family, p, terms)


def series(spec: GridSpec, terms: int, method: str = "reduced") -> Series:
    """Exact counts for n = 1..terms, computed incrementally (one
    matrix or vector step per term)."""
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    if terms == 0:
        return Series(spec.family, spec.m, spec.p, [])
    values = _series_values(spec.family, spec.m, spec.p, terms, method)
    return Series(spec.family, spec.m, spec.p, list(values))


def count(spec: GridSpec, method: str = "reduced") -> int:
    """Exact 2-factor count for a fully specified grid."""
    if spec.n is None:
        raise ValueError("spec.n is required for a single count")
    return _series_values(spec.family, spec.m, spec.p, spec.n, method)[spec.n - 1]


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
    return all(
        _series_values(family, m, p, n, "reduced")
        == _series_values(family, m, p, n, "full")
        for family in FAMILIES
    )


def zero_component_spectrum(m: int, tol: float = 1e-12) -> Spectrum:
    """Dominant eigenvalue of the reduced-digraph component containing 0^m
    (the growth rate of the thin-cylinder counts), computed on its glued
    quotient G, which keeps the Perron root.  D·G = Gᵀ·D for D the orbit
    sizes, so the power iteration runs on the symmetric D^½·G·D^-½, whose
    entries are sqrt(G_ij·G_ji)."""
    g = transfer.build_glued(m).adj.astype(float)
    return dominant_eigenvalue(np.sqrt(g * g.T), tol=tol)


def component_spectra(
    d: transfer.TransferDigraph, census: transfer.ComponentCensus, tol: float = 1e-12
) -> list[Spectrum]:
    """Dominant eigenvalue of every component of a reduced digraph, in the
    order of its census.  Exposed so the (observed, unproven) agreement
    between the whole digraph's spectral radius and its 1^m component can be
    inspected rather than assumed."""
    return [
        dominant_eigenvalue(
            transfer.component_subdigraph(d, census, comp).adj.astype(float), tol=tol
        )
        for comp in range(census.n_components)
    ]
