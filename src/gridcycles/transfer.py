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

Every reduced arc comes from :func:`reduced_arcs`; the full digraph and
:func:`gridcycles.alphabet.count_io_words` are the independent references.

Digraphs are immutable once built and may be shared across threads.
Construction is single-threaded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Container, Iterable

import numpy as np

from .alphabet import (
    enumerate_column_words,
    first_column_words,
    inlet,
    last_column_words,
    outlet,
)

# Documented practical limits (see README): the dense reduced matrix is
# 2^m square, the dense full matrix (3^m + (-1)^m) square.  The glued
# quotient (construction, thin-cylinder counts and their spectrum)
# generates the arcs out of each orbit representative once; at m = 17 and
# 18 that takes under a second.
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


def _check_width(m: int) -> None:
    if m < 1:
        raise ValueError(f"width must be >= 1, got {m}")


def build_full(m: int, with_matrix: bool | None = None) -> TransferDigraph:
    """Full transfer digraph on the 3^m + (-1)^m valid column words.

    Vertex order: b^m first, then the remaining words lexicographically.
    The dense arc matrix is built only up to m = FULL_MATRIX_LIMIT (43 MB at
    m = 8); censuses and walk counts never need it.
    """
    _check_width(m)
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


def reduced_arcs(inlets: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every reduced-digraph arc out of the given inlet words, one per
    column word.

    Row j of a column word has inlet bit u_j and up bit s_j; its down bit is
    the next row's up bit s_{j+1}, circularly.  The word is valid iff no row
    has u_j = s_j = s_{j+1}, and its outlet bit is w_j = u_j ^ s_j ^ s_{j+1}.
    The chain starts from s_0 in {0, 1}; s_{j+1} is forced to 1 - u_j where
    s_j = u_j and free otherwise, and s_m = s_0 closes the circle.

    Returns int64 arrays ``(src, outlets)``, one entry per arc, grouped by
    inlet in the order given.  Words carry row j in bit m-1-j.
    """
    u = np.repeat(np.asarray(inlets, dtype=np.int64), 2)
    s = s0 = np.tile(np.array([0, 1], dtype=np.int8), len(u) // 2)
    w = np.zeros_like(u)
    for j in range(m - 1):
        free = s != ((u >> (m - 1 - j)) & 1)
        reps = 1 + free
        nxt = np.repeat(1 - s, reps)  # forced: s_j = u_j, so s_{j+1} = 1 - s_j
        nxt[np.cumsum(reps)[free] - 1] ^= 1  # a free state's copies take both bits
        w = np.repeat((w << 1) | free, reps) ^ nxt
        u, s0, s = np.repeat(u, reps), np.repeat(s0, reps), nxt
    last = u & 1
    ok = (last != s) | (s != s0)
    return u[ok], ((w << 1) | (last ^ s ^ s0))[ok]


def rotate_words(words: np.ndarray, k: int, m: int) -> np.ndarray:
    """Cyclic left shift by ``k`` of int words of width m (row j in bit
    m-1-j), the int form of :func:`gridcycles.alphabet.rotate`."""
    k %= m
    return ((words << k) | (words >> (m - k))) & ((1 << m) - 1)


def reverse_words(words: np.ndarray, m: int) -> np.ndarray:
    """Row order reversed in int words of width m (row j in bit m-1-j)."""
    out = np.zeros_like(words)
    for j in range(m):
        out |= ((words >> j) & 1) << (m - 1 - j)
    return out


def build_reduced(m: int) -> TransferDigraph:
    """Reduced transfer digraph on all 2^m binary words, dense multiplicity
    matrix.  Vertex order: 0^m first, then lexicographic (= numeric)."""
    _check_width(m)
    if m > REDUCED_DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense reduced matrix limited to m <= {REDUCED_DENSE_LIMIT}, got {m}"
        )
    size = 1 << m
    adj = np.zeros((size, size), dtype=np.uint8)
    np.add.at(adj, reduced_arcs(np.arange(size), m), 1)
    vertices = tuple(format(i, f"0{m}b") for i in range(size))
    return TransferDigraph("reduced", m, vertices, adj)


def build_glued(m: int) -> TransferDigraph:
    """The 0^m component of the reduced digraph folded along rotation and
    reversal orbits, each orbit named by its least word.

    A breadth-first walk from 0^m over orbit representatives: the arcs out
    of each frontier are generated once, their outlets mapped to the least
    word of their orbit, and the (source, target) pairs counted.  A
    commutes with rotation and reversal, so the walk reaches exactly the
    orbits of the component, and the orbit partition is equitable: the
    quotient keeps the component's Perron root.

    Vertex order: orbit of 0^m, then orbit of 1^m when present, then the
    remaining orbits by their least member.
    """
    _check_width(m)
    if m > GLUED_LIMIT:
        raise ResourceLimitError(f"glued quotient limited to m <= {GLUED_LIMIT}, got {m}")
    size, mask = 1 << m, (1 << m) - 1
    words = np.arange(size, dtype=np.int64)
    least = words.copy()  # least word of each word's dihedral orbit
    for x in (words, reverse_words(words, m)):
        for k in range(m):
            np.minimum(least, rotate_words(x, k, m), out=least)
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    frontier = words[:1]
    pairs, mults = [], []
    while len(frontier):
        src, outlets = reduced_arcs(frontier, m)
        target = least[outlets]
        pair, mult = np.unique((src << m) | target, return_counts=True)
        pairs.append(pair)
        mults.append(mult)
        frontier = np.unique(target[~seen[target]])
        seen[frontier] = True
    reps = sorted(np.flatnonzero(seen).tolist(), key=lambda r: (r != 0, r != mask, r))
    index = np.zeros(size, dtype=np.int64)
    index[reps] = np.arange(len(reps))
    pair = np.concatenate(pairs)
    adj = np.zeros((len(reps), len(reps)), dtype=np.int64)
    adj[index[pair >> m], index[pair & mask]] = np.concatenate(mults)
    return TransferDigraph("glued", m, tuple(format(r, f"0{m}b") for r in reps), adj)


def _reach(start: Iterable[int], lists: list[list[int]], allowed: Container[int]) -> set[int]:
    # breadth-first by whole frontiers: set unions skip repeated successors
    seen = set(start)
    frontier = seen
    while frontier:
        step = set().union(*(lists[v] for v in frontier))
        frontier = {u for u in step if u in allowed} - seen
        seen |= frontier
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
