"""Transfer digraphs for column codes: full, reduced, and glued forms.

Three digraph granularities drive the counting routes:

* ``full``    — vertices are the valid column words over ``a..f``; there is
  an arc v -> u exactly when outlet(v) = inlet(u).  Arcs are 0/1.
* ``reduced`` — vertices are all 2^m binary words; the arc u -> w carries
  the number of column words with inlet u and outlet w (0, 1 or 2).  The
  matrix is symmetric and its entries sum to 3^m + (-1)^m.
* ``glued``   — vertices are the orbits of the all-zero component of the
  reduced digraph under rotation and reversal, reached by one walk over
  orbit representatives without the dense matrix; sufficient for the
  thin-cylinder count and its growth rate.

Digraphs are immutable once built and may be shared across threads.
Construction is single-threaded; the reduced matrix is built by
:mod:`gridcycles._kernels`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Container, Iterable

import numpy as np

from . import _kernels
from .alphabet import (
    enumerate_column_words,
    first_column_words,
    inlet,
    last_column_words,
    outlet,
    words_with_inlet,
)

# Documented practical limits (see README): the dense reduced matrix is
# 2^m square, the dense full matrix (3^m + (-1)^m) square.  The glued
# quotient (construction, thin-cylinder counts and their spectrum)
# enumerates the column words out of each orbit representative once; at
# m = 18 that takes about 25 s.
FULL_MATRIX_LIMIT = 8
REDUCED_DENSE_LIMIT = 14
GLUED_LIMIT = 18


class ResourceLimitError(ValueError):
    """Requested width exceeds the documented practical limit of a method."""


@dataclass(eq=False)
class TransferDigraph:
    """A vertex list plus arc multiplicities.

    ``adj`` is a dense numpy matrix for reduced/glued digraphs; for full
    digraphs it is materialised only up to FULL_MATRIX_LIMIT (otherwise
    ``None``) and arcs are derived from outlet/inlet words on demand.
    """

    kind: str  # "full" | "reduced" | "glued"
    m: int
    vertices: tuple[str, ...]
    adj: np.ndarray | None
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {w: i for i, w in enumerate(self.vertices)}

    def __len__(self) -> int:
        return len(self.vertices)

    def index(self, word: str) -> int:
        return self._index[word]

    def successor_lists(self) -> list[list[int]]:
        """Adjacency lists (multiplicity ignored)."""
        if self.adj is not None:
            return [list(np.nonzero(row)[0]) for row in self.adj]
        # full digraph without matrix: group vertices by inlet word
        by_inlet: dict[str, list[int]] = defaultdict(list)
        for i, w in enumerate(self.vertices):
            by_inlet[inlet(w)].append(i)
        return [by_inlet.get(outlet(w), []) for w in self.vertices]

    def predecessor_lists(self) -> list[list[int]]:
        if self.adj is not None:
            return [list(np.nonzero(col)[0]) for col in self.adj.T]
        by_outlet: dict[str, list[int]] = defaultdict(list)
        for i, w in enumerate(self.vertices):
            by_outlet[outlet(w)].append(i)
        return [by_outlet.get(inlet(w), []) for w in self.vertices]

    def to_json_dict(self) -> dict:
        if self.adj is None:
            raise ResourceLimitError(
                f"adjacency matrix not materialised for kind={self.kind}, m={self.m}"
            )
        return {
            "kind": self.kind,
            "m": self.m,
            "vertices": list(self.vertices),
            "adj": [int(x) for x in self.adj.reshape(-1)],
        }


@dataclass
class ComponentCensus:
    """Connected components of a transfer digraph, each verified strongly
    connected, with the named components identified."""

    labels: list[int]
    sizes: list[int]
    zero_id: int | None  # component of b^m (full) / 0^m (reduced)
    ones_id: int | None  # component of e^m (full) / 1^m (reduced)
    rest_ids: list[int]  # remaining components, largest first

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    def rest_sizes(self) -> list[int]:
        return [self.sizes[c] for c in self.rest_ids]

    def members(self, comp_id: int) -> list[int]:
        return [i for i, c in enumerate(self.labels) if c == comp_id]


def build_full(m: int, with_matrix: bool | None = None) -> TransferDigraph:
    """Full transfer digraph on the 3^m + (-1)^m valid column words.

    Vertex order: b^m first, then the remaining words lexicographically.
    The dense arc matrix is built only up to m = FULL_MATRIX_LIMIT (43 MB at
    m = 8); censuses and walk counts never need it.
    """
    words = enumerate_column_words(m)
    bword = "b" * m
    vertices = tuple([bword] + [w for w in words if w != bword])
    if with_matrix is None:
        with_matrix = m <= FULL_MATRIX_LIMIT
    adj = None
    if with_matrix:
        if m > FULL_MATRIX_LIMIT:
            raise ResourceLimitError(
                f"dense full matrix limited to m <= {FULL_MATRIX_LIMIT}, got {m}"
            )
        outs = np.array([int(outlet(w), 2) for w in vertices])
        ins = np.array([int(inlet(w), 2) for w in vertices])
        adj = (outs[:, None] == ins[None, :]).astype(np.uint8)
    return TransferDigraph("full", m, vertices, adj)


def build_reduced(m: int) -> TransferDigraph:
    """Reduced transfer digraph on all 2^m binary words, dense multiplicity
    matrix.  Vertex order: 0^m first, then lexicographic (= numeric)."""
    if m > REDUCED_DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense reduced matrix limited to m <= {REDUCED_DENSE_LIMIT}, got {m}"
        )
    adj = _kernels.reduced_adjacency(m)
    vertices = tuple(format(i, f"0{m}b") for i in range(1 << m))
    return TransferDigraph("reduced", m, vertices, adj)


def _dihedral_rep(word: str) -> str:
    """Least word among the rotations of ``word`` and of its reversal."""
    return min(w[k:] + w[:k] for w in (word, word[::-1]) for k in range(len(word)))


def build_glued(m: int) -> TransferDigraph:
    """The 0^m component of the reduced digraph folded along rotation and
    reversal orbits, each orbit named by its least word.

    One walk from 0^m over orbit representatives: the arcs out of a
    representative are enumerated once and summed per target orbit.  A
    commutes with rotation and reversal, so the walk reaches exactly the
    orbits of the component, and the orbit partition is equitable: the
    quotient keeps the component's Perron root.

    Vertex order: orbit of 0^m, then orbit of 1^m when present, then the
    remaining orbits by their least member.
    """
    if m < 1:
        raise ValueError(f"width must be >= 1, got {m}")
    if m > GLUED_LIMIT:
        raise ResourceLimitError(f"glued quotient limited to m <= {GLUED_LIMIT}, got {m}")
    start = "0" * m
    rows: dict[str, dict[str, int]] = {start: defaultdict(int)}
    queue = [start]
    rep_of: dict[str, str] = {}  # outlet word -> its orbit's representative
    for rep in queue:  # grows while it is walked
        row = rows[rep]
        for word in words_with_inlet(rep):
            out = outlet(word)
            target = rep_of.get(out)
            if target is None:
                target = rep_of[out] = _dihedral_rep(out)
            row[target] += 1
            if target not in rows:
                rows[target] = defaultdict(int)
                queue.append(target)
    reps = sorted(rows, key=lambda rep: (rep != start, rep != "1" * m, rep))
    index = {rep: i for i, rep in enumerate(reps)}
    adj = np.zeros((len(reps), len(reps)), dtype=np.int64)
    for rep, row in rows.items():
        for target, mult in row.items():
            adj[index[rep], index[target]] = mult
    return TransferDigraph("glued", m, tuple(reps), adj)


def _reach(start: Iterable[int], lists: list[list[int]], allowed: Container[int]) -> set[int]:
    seen = set(start)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in lists[v]:
            if u in allowed and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def components(d: TransferDigraph) -> ComponentCensus:
    """Weakly connected components, each verified strongly connected.

    A violation of strong connectivity aborts: every component of these
    digraphs is strongly connected by construction, so a mismatch would mean
    a construction bug.
    """
    n = len(d.vertices)
    succ = d.successor_lists()
    pred = d.predecessor_lists()
    labels = [-1] * n
    sizes: list[int] = []
    for root in range(n):
        if labels[root] != -1:
            continue
        comp = len(sizes)
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for u in succ[v] + pred[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        for v in seen:
            labels[v] = comp
        sizes.append(len(seen))
        forward = _reach([root], succ, seen)
        backward = _reach([root], pred, seen)
        if len(forward) != len(seen) or len(backward) != len(seen):
            raise AssertionError(
                f"component {comp} of {d.kind} digraph m={d.m} is not strongly connected"
            )

    def comp_of(word: str) -> int | None:
        i = d._index.get(word)
        return None if i is None else labels[i]

    if d.kind == "full":
        zero_id = comp_of("b" * d.m)
        ones_id = comp_of("e" * d.m)
    else:
        zero_id = comp_of("0" * d.m)
        ones_id = comp_of("1" * d.m)
    named = {zero_id, ones_id}
    least_member = {}
    for i, c in enumerate(labels):
        if c not in least_member or d.vertices[i] < least_member[c]:
            least_member[c] = d.vertices[i]
    rest = [c for c in range(len(sizes)) if c not in named]
    # largest first; ties broken by the smallest member word
    rest.sort(key=lambda c: (-sizes[c], least_member[c]))
    return ComponentCensus(labels, sizes, zero_id, ones_id, rest)


def component_subdigraph(d: TransferDigraph, census: ComponentCensus, comp_id: int) -> TransferDigraph:
    """Restriction of a digraph (with matrix) to one component.

    The component's anchor word (0^m / 1^m on reduced digraphs, b^m / e^m on
    full ones) is moved to index 0 when present; other vertices keep their
    relative order.
    """
    if d.adj is None:
        raise ResourceLimitError("component restriction needs a materialised matrix")
    idx = census.members(comp_id)
    anchors = ("0" * d.m, "1" * d.m) if d.kind != "full" else ("b" * d.m, "e" * d.m)
    for anchor in anchors:
        j = d._index.get(anchor)
        if j in idx:
            idx.remove(j)
            idx.insert(0, j)
            break
    sub = d.adj[np.ix_(idx, idx)]
    return TransferDigraph(d.kind, d.m, tuple(d.vertices[i] for i in idx), sub)


def column_sets(m: int) -> tuple[list[str], list[str]]:
    """Admissible first-column and last-column words, lexicographic.

    Both lists have Lucas(m) elements (1, 3, 4, 7, 11, ...).
    """
    return first_column_words(m), last_column_words(m)


def lucas(m: int) -> int:
    a, b = 2, 1  # L_0, L_1
    for _ in range(m):
        a, b = b, a + b
    return a


def reduced_edge_total(d: TransferDigraph) -> int:
    """Sum of all multiplicities of a reduced digraph (= 3^m + (-1)^m)."""
    if d.adj is None:
        raise ValueError("matrix required")
    return int(d.adj.astype(np.int64).sum())
