"""Exact 2-factor counts for the three grid families.

Families (CLI vocabulary in parentheses):

* thin cylinder (``tnc``): cycle C_m times path P_n;
* torus (``tg``): cylinder of length n+1 with first and last columns glued
  under a cyclic shift by p;
* Klein bottle (``kb``): same gluing with the column order reversed.

Each count has two routes that must agree:

* production — one big-int vector engine keeps v = M^n e_s for each start
  vertex s of a transfer digraph M and reads every series linearly off
  these vectors.  The thin cylinder walks the glued quotient (the all-zero
  component of the reduced digraph folded by rotation and reversal) from
  0^m; the torus and Klein bottle walk the reduced digraph from each
  rotation orbit, pairing each vertex with its rotation (resp. reversed
  rotation) image.  The methods ``reduced`` and ``glued`` both name this
  route for the thin cylinder; ``glued`` applies to it alone.
* ``full`` — walk counts on the full digraph of column words, the
  independent cross-check.

Series values are Python integers (exact).  Engines advance one step per
term and cache their progress per width, so asking for more terms or
another twist extends earlier work instead of recomputing powers.  Each
engine is built under its own lock and carries another for its steps, so
distinct widths can be built and driven from different threads at once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

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


class _Engine:
    """A per-width series cache: ``series[family][p]`` holds the counts for
    n = 1, 2, ..., and each ``_step`` appends one term to every series."""

    def __init__(self) -> None:
        self.lock = threading.RLock()

    def values(self, family: str, p: int, terms: int) -> list[int]:
        with self.lock:
            store = self.series[family][p]
            while len(store) < terms:
                self._step()
            return store[:terms]


class _VectorEngine(_Engine):
    """Walk counts as big-int vectors v_j = M^n e_s, one per start s_j.

    M is given as successor rows, each successor repeated by its
    multiplicity, so a step w[x] = sum of v[y] over row x gives w = M v.
    Each start's component is strongly connected, so outside it v_j stays
    zero and a step computes only the component's rows.  ``first[j]`` is
    M e_s (n = 1).  Every series is a linear read: the count for (family,
    p) is the sum over j of v_j[x] for x in ``reads[family][p][j]``.
    """

    def __init__(
        self, rows: list[list[int]], starts: list[int], first: list[list[int]], reads: dict
    ):
        super().__init__()
        self.starts, self.vectors, self.reads = starts, first, reads
        # (members, their rows) of each component, shared by its starts
        block_of: dict[int, tuple[list[int], list[list[int]]]] = {}
        self.blocks: list[tuple[list[int], list[list[int]]]] = []
        for s in starts:
            if s not in block_of:
                members = sorted(transfer._reach([s], rows, range(len(rows))))
                block = (members, [rows[x] for x in members])
                block_of.update(dict.fromkeys(members, block))
            self.blocks.append(block_of[s])
        self.series = {family: [[] for _ in by_p] for family, by_p in reads.items()}
        self._record()

    def _record(self) -> None:
        for family, reads in self.reads.items():
            for p, store in enumerate(self.series[family]):
                store.append(sum(v[x] for v, xs in zip(self.vectors, reads[p]) for x in xs))

    def _step(self) -> None:
        for j, (members, rows) in enumerate(self.blocks):
            v = self.vectors[j]
            self.vectors[j] = w = [0] * len(v)
            for x, row in zip(members, rows):
                w[x] = sum(map(v.__getitem__, row))
        self._record()


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
    return _VectorEngine(rows, reps, first, reads)


def _tnc_engine(m: int) -> _VectorEngine:
    """Thin-cylinder counts on the glued quotient G: the count is
    G^n[0, 0] = (G^n e_0)[0], with 0^m at index 0, so G's own rows serve
    although G is not symmetric; the vector starts as column 0 of G."""
    adj = transfer.build_glued(m).adj
    index = np.arange(len(adj))
    rows = [np.repeat(index, row).tolist() for row in adj]
    return _VectorEngine(rows, [0], [adj[:, 0].tolist()], {"tnc": [[[0]]]})


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


def _series_values(family: str, m: int, p: int, terms: int, method: str) -> list[int]:
    if method not in ("full", "reduced", "glued"):
        raise ValueError(f"unknown method {method!r}")
    if method == "glued" and family != "tnc":
        raise ValueError("the glued route applies to the thin cylinder only")
    kind = "full" if method == "full" else ("tnc" if family == "tnc" else "trace")
    return _engine(kind, m).values(family, 0 if family == "tnc" else p, terms)


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
