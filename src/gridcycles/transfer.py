"""Transfer digraphs for column codes: full, reduced, and glued forms.

Three digraph granularities drive the counting routes:

* ``full``    — vertices are the valid column words over ``a..f``; there is
  an arc v -> u exactly when outlet(v) = inlet(u).  Arcs are 0/1.
* ``reduced`` — vertices are all 2^m binary words; the arc u -> w carries
  the number of column words with inlet u and outlet w (0, 1 or 2).  Its
  entries sum to 3^m + (-1)^m, and its arcs keep :func:`symmetry_faults`.
* ``glued``   — vertices are the orbits of one component of the reduced
  digraph (the all-zero one by default) under rotation and reversal: the
  dihedral orbits of the root's :func:`charge` class, folded without the
  dense matrix; sufficient for the thin-cylinder count and for every
  Perron root.

Every reduced arc comes from :func:`reduced_arcs`, which joins two cached
tables of open chains, each about half the width; the full digraph and
:func:`gridcycles.alphabet.count_io_words` are the independent references.
Every digraph holds its vertices as int64 codes: letter-word codes of
:func:`gridcycles.alphabet.column_word_codes` on full digraphs, binary
words on reduced and glued ones; the ``str`` words are decoded only when
asked for.  Letter-word codes become inlet and outlet classes in
:func:`word_classes` alone, through per-letter bit tables.  The
components of the reduced digraph are the classes of :func:`charge`, a
closed form that every arc keeps; the census :func:`components`, the
glued quotient and the torus/Klein engine all take them from it, and the
full digraph, the line digraph of the reduced multigraph, has the same
components.  The label search :func:`arc_components` over the reduced
arcs is the one independent check that each class is one component.

Every width limit, of these builders and of the counting engines, is one
row of :data:`LIMITS`, and :func:`check_width` is its one refusal; the
residue primes of :mod:`gridcycles.counting` follow the widest engine row.

Digraphs are immutable once built and may be shared across threads.
Construction is single-threaded.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .alphabet import LETTER_IDS, LETTERS, column_word_codes, decode_words, encode_word

# route -> (greatest width m, the route's name in the README's limits
# table and in refusals)
LIMITS = {
    # the dense (3^m + (-1)^m)-square 0/1 matrix, 43 MB at m = 8, and the
    # full route's engine over 2^m outlet classes
    "full": (8, "full digraph walks"),
    # build_full without a matrix, its census and the digraph command's
    # stats: the 3^m + (-1)^m words, each width about 3x the time and
    # memory of the one before
    "census": (12, "full digraph census"),
    # the dense 2^m-square multiplicity matrix
    "reduced": (14, "reduced dense matrix"),
    # the glued quotient generates the arcs out of each orbit representative
    # once from the joined chain tables of reduced_arcs, 0.15–0.21 s and
    # 70–76 MB peak RSS at m = 17 and 18; its engine steps one dense block
    "glued": (18, "glued quotient and thin-cylinder counts"),
    # the trace engine steps float64 residues of A^n e_s, one column per
    # rotation orbit and prime, in two 1024-row blocks at m = 11: there
    # terms 3..20 cost about 0.07 s each, terms 21..100 0.2 s and terms
    # 101..200 0.56 s on one core of a Xeon, as each further prime widens
    # the product.  It checks symmetry_faults at build, so at most m = 15.
    "trace": (11, "torus/Klein counts (trace route)"),
}


class ResourceLimitError(ValueError):
    """Requested width exceeds the documented practical limit of a method."""


def check_width(route: str, m: int) -> None:
    """Refuse a width below 1 or past the route's row of :data:`LIMITS`."""
    if m < 1:
        raise ValueError(f"width must be >= 1, got {m}")
    limit, name = LIMITS[route]
    if m > limit:
        raise ResourceLimitError(f"{name} limited to m <= {limit}, got {m}")


# letter code -> its inlet (left edge) and outlet (right edge) bit
_INLET_BITS = np.array([LETTERS[x].left for x in LETTER_IDS], dtype=np.int64)
_OUTLET_BITS = np.array([LETTERS[x].right for x in LETTER_IDS], dtype=np.int64)


def word_classes(codes: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The inlet and outlet classes ``(inlets, outlets)`` of the letter
    words of length m with the given codes, as int64 arrays with row j in
    bit m-1-j: one pass per row, through the per-letter bit tables."""
    inlets, outlets = np.zeros((2, len(codes)), dtype=np.int64)
    for i in range(m):  # row m-1-i, in code bits 3i .. 3i+2
        letters = (codes >> 3 * i) & 7
        inlets |= _INLET_BITS[letters] << i
        outlets |= _OUTLET_BITS[letters] << i
    return inlets, outlets


@dataclass(eq=False)
class TransferDigraph:
    """Vertex codes plus arc multiplicities.

    ``words`` holds one int64 code per vertex: a letter-word code (see
    :func:`gridcycles.alphabet.column_word_codes`) on a full digraph, a
    binary word (row j in bit m-1-j) on reduced and glued ones.
    ``adj`` is a dense numpy matrix for reduced/glued digraphs; a full
    digraph holds one only when built with ``with_matrix`` (otherwise
    ``None``).
    """

    kind: str  # "full" | "reduced" | "glued"
    m: int
    words: np.ndarray
    adj: np.ndarray | None

    def __len__(self) -> int:
        return len(self.words)

    @functools.cached_property
    def vertices(self) -> tuple[str, ...]:
        """The vertices as ``str`` words, decoded from :attr:`words` on
        first use."""
        if self.kind == "full":
            return tuple(decode_words(self.words, self.m))
        return tuple(format(w, f"0{self.m}b") for w in self.words.tolist())

    @functools.cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The :func:`word_classes` of a full digraph's vertices, computed
        once and kept as int32, half the memory, since they stay with the
        digraph."""
        return tuple(c.astype(np.int32) for c in word_classes(self.words, self.m))

    def anchors(self) -> tuple[int, int]:
        """The codes of the anchor words: b^m and e^m on a full digraph,
        0^m and 1^m otherwise."""
        if self.kind == "full":
            return encode_word("b" * self.m), encode_word("e" * self.m)
        return 0, (1 << self.m) - 1

    def index(self, code: int) -> int | None:
        """The vertex index of a word code, or None if it is no vertex."""
        hits = np.flatnonzero(self.words == code)
        return int(hits[0]) if len(hits) else None

    def write_json(self, out: TextIO) -> None:
        """Write the digraph as the JSON object {kind, m, vertices, adj},
        ``adj`` the row-major matrix entries, one matrix row at a time."""
        if self.adj is None:
            raise ResourceLimitError(
                f"adjacency matrix not materialised for kind={self.kind}, m={self.m}"
            )
        head = {"kind": self.kind, "m": self.m, "vertices": list(self.vertices)}
        out.write(json.dumps(head)[:-1] + ', "adj": [')
        for i, row in enumerate(self.adj):
            out.write((", " if i else "") + json.dumps(row.tolist())[1:-1])
        out.write("]}")


@dataclass
class ComponentCensus:
    """The strongly connected components of a transfer digraph, numbered by
    charge, with the named components identified."""

    labels: list[int]
    sizes: list[int]
    zero_id: int  # component of b^m (full) / 0^m (reduced)
    ones_id: int  # component of e^m (full) / 1^m (reduced)
    rest_ids: list[int]  # remaining components, largest first

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    def rest_sizes(self) -> list[int]:
        return [self.sizes[c] for c in self.rest_ids]

    def members(self, comp_id: int) -> list[int]:
        return [i for i, c in enumerate(self.labels) if c == comp_id]


def build_full(m: int, with_matrix: bool = False) -> TransferDigraph:
    """Full transfer digraph on the 3^m + (-1)^m valid column words.

    Vertex order: b^m first, then the remaining words lexicographically.
    The dense 0/1 arc matrix (43 MB at m = 8) is built only on request and
    only up to the ``full`` row of :data:`LIMITS`; censuses, walk counts and
    the ``digraph`` command's stats never read it, only its dump does.
    Without it the words alone are bounded by the ``census`` row.
    """
    check_width("full" if with_matrix else "census", m)
    words = column_word_codes(m)
    bword = encode_word("b" * m)
    d = TransferDigraph("full", m, np.concatenate([[bword], words[words != bword]]), None)
    if with_matrix:
        ins, outs = d.classes
        # the bool matrix viewed as 0/1 bytes, with no second copy
        d.adj = np.equal(outs[:, None], ins[None, :]).view(np.uint8)
    return d


def reduced_arcs(inlets: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every reduced-digraph arc out of the given inlet words, one per
    column word.

    Row j of a column word has inlet bit u_j and up bit s_j; its down bit is
    the next row's up bit s_{j+1}, circularly.  The word is valid iff no row
    has u_j = s_j = s_{j+1}, and its outlet bit is w_j = u_j ^ s_j ^ s_{j+1}.
    Cut after row ⌈m/2⌉ - 1, a word is an open chain of its first ⌈m/2⌉
    rows (no condition closes it) with end bits (a, b) = (s_0, s_⌈m/2⌉),
    joined to an open chain of its last ⌊m/2⌋ rows with end bits (b, a):
    the circle closes on a.  So the arcs out of inlet u join, for each
    (a, b), every chain of :func:`_chains` on u's high bits with every
    chain on its low bits, and the outlet is the top chain's outlet bits
    over the bottom chain's.

    Returns int32 arrays ``(src, outlets)``, one entry per arc, grouped by
    inlet in the order given (the order within an inlet is the tables'):
    the words are below 2^m, and int32 keeps the temporaries at half the
    size.  Words carry row j in bit m-1-j; widen before shifting a word by
    m or more bits.
    """
    inlets = np.asarray(inlets, dtype=np.int32)
    # 256 inlets at a time: a slice's temporaries peak at 0.8 MB at m = 12 and
    # 9.6 MB at m = 18, well below the arcs returned
    parts = [_joined_arcs(inlets[i : i + 256], m) for i in range(0, max(len(inlets), 1), 256)]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


@functools.cache
def _chains(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every open chain of h rows, the read-only int32 table
    ``(codes, outs, first)``.  Chain i has end bits (a, b) = (up bit of its
    first row, down bit of its last), inlet bits ins and outlet bits
    outs[i], row j in bit h-1-j, and code (2a + b) << h | ins; codes are
    sorted, and the chains of code c are first[c] to first[c + 1] - 1.

    With no row there is one empty chain for each a = b.  One row is one
    of the six letters (u, a, b) other than (0, 0, 0) and (1, 1, 1), with
    outlet bit u ^ a ^ b.  A chain of h rows is a chain of ⌈h/2⌉ rows over
    a chain of ⌊h/2⌋ rows whose up bit is the first one's down bit."""
    if h == 0:
        codes, outs = np.array([[0, 3], [0, 0]], dtype=np.int32)
    elif h == 1:
        letters = [r for r in itertools.product((0, 1), repeat=3) if len(set(r)) > 1]
        codes, outs = np.array([((2 * a + b) << 1 | u, u ^ a ^ b) for u, a, b in letters]).T
    else:
        low = h // 2
        (top, top_outs, _), (bottom, bottom_outs, _) = _chains(h - low), _chains(low)
        a, top_mid, top_ins = _split(top, h - low)
        bottom_mid, b, bottom_ins = _split(bottom, low)
        pairs = [
            (
                np.add.outer((2 * a[t] << h) | (top_ins[t] << low), (b[u] << h) | bottom_ins[u]),
                np.add.outer(top_outs[t] << low, bottom_outs[u]),
            )
            for t, u in ((top_mid == c, bottom_mid == c) for c in (0, 1))
        ]
        codes, outs = (np.concatenate([x.ravel() for x in xs]) for xs in zip(*pairs))
    order = np.argsort(codes)
    codes, outs = codes[order].astype(np.int32), outs[order].astype(np.int32)
    first = np.searchsorted(codes, np.arange((4 << h) + 1)).astype(np.int32)
    for x in (codes, outs, first):
        x.setflags(write=False)
    return codes, outs, first


def _split(codes: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The end bits a, b and the inlet bits of chain codes of h rows."""
    return codes >> (h + 1), (codes >> h) & 1, codes & ((1 << h) - 1)


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i
    in turn."""
    ends = np.cumsum(counts, dtype=np.int32)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1:].sum(), dtype=np.int32)


def _joined_arcs(inlets: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    low = m // 2
    (_, top_outs, top_first), (_, bottom_outs, bottom_first) = _chains(m - low), _chains(low)
    # one row per inlet and one column per (a, b), 2a + b: the codes of the
    # top chains on its high bits and of the bottom chains, (b, a), on its low
    keys = np.arange(4, dtype=np.int32)
    swapped = 2 * (keys & 1) + (keys >> 1)
    top = (keys << (m - low)) | (inlets >> low)[:, None]
    bottom = (swapped << low) | (inlets & ((1 << low) - 1))[:, None]
    top_start, bottom_start = top_first[top], bottom_first[bottom]
    bottom_count = bottom_first[bottom + 1] - bottom_start
    top_count = (top_first[top + 1] - top_start) * (bottom_count > 0)
    # one entry per top chain that some bottom chain joins, then one per
    # bottom chain joined to it
    tops = _runs(top_start.ravel(), top_count.ravel())
    reps = np.repeat(bottom_count.ravel(), top_count.ravel())
    bottoms = _runs(np.repeat(bottom_start.ravel(), top_count.ravel()), reps)
    outlets = np.repeat(top_outs[tops] << low, reps) | bottom_outs[bottoms]
    return np.repeat(inlets, (top_count * bottom_count).sum(axis=1)), outlets


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


def dihedral_least(m: int) -> np.ndarray:
    """The least word of each width-m word's orbit under rotation and
    reversal, indexed by the word (int64)."""
    words = np.arange(1 << m, dtype=np.int64)
    least = words.copy()
    for x in (words, reverse_words(words, m)):
        for k in range(m):
            np.minimum(least, rotate_words(x, k, m), out=least)
    return least


def charge(words: np.ndarray, m: int) -> np.ndarray:
    """The charge of each int word u of width m: |Σ_j (-1)^j u_j| at even m,
    popcount(u) mod 2 at odd m, in one pass per row.

    Every reduced arc u -> w keeps it.  Each row of a column word has degree
    2 in the 2-factor, u_j + w_j + s_j + s_(j+1) = 2 with s_j its up bit, so
    Σ w_j = 2m - Σ u_j - 2·Σ s_j keeps the parity, and at even m the signed
    sum, in which each s_j appears once with each sign, gives alt(w) =
    -alt(u).  Rotation and reversal keep the charge too.  That each class is
    one component is checked, not proved: the component count of the label
    search :func:`arc_components` over the reduced arcs must equal the
    number of classes, in ``verify`` for m <= 10 and in the tests for
    m <= 13, and :func:`build_glued`'s vertex counts must match the shipped
    ones.
    """
    sign = -1 if m % 2 == 0 else 1
    total = np.zeros(len(words), dtype=np.int64)
    for j in range(m):
        total += sign**j * ((words >> j) & 1)
    return np.abs(total) if m % 2 == 0 else total & 1


def symmetry_faults(src: np.ndarray, dst: np.ndarray, m: int) -> list[str]:
    """The laws of the reduced digraph A that the int32 arcs src[i] -> dst[i]
    break, of "transpose" (A = Aᵀ), "rotation", "reversal" and "complement"
    (A·X = X·A, X the map).  Each compares the sorted int32 codes src << m | dst
    (exact while 2m <= 30) with those of the arcs' images, one image at a time."""
    if m > 15:
        raise ValueError(f"int32 arc codes hold widths m <= 15, got {m}")

    def code(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        c = (u << m) | w  # numpy reuses the temporary u << m in place
        c.sort()
        return c

    codes = code(src, dst)
    # each map once over the 2^m words, then looked up at both ends of every arc
    words = np.arange(1 << m, dtype=np.int32)
    rot, rev = rotate_words(words, 1, m), reverse_words(words, m)
    images = {
        "transpose": lambda: code(dst, src),
        "rotation": lambda: code(rot[src], rot[dst]),
        "reversal": lambda: code(rev[src], rev[dst]),
        # u -> ū reverses the order of the codes: no sort needed
        "complement": lambda: (codes ^ ((1 << 2 * m) - 1))[::-1],
    }
    return [law for law, image in images.items() if not np.array_equal(codes, image())]


def build_reduced(m: int) -> TransferDigraph:
    """Reduced transfer digraph on all 2^m binary words, dense multiplicity
    matrix.  Vertex order: 0^m first, then lexicographic (= numeric)."""
    check_width("reduced", m)
    size = 1 << m
    adj = np.zeros((size, size), dtype=np.uint8)
    np.add.at(adj, reduced_arcs(np.arange(size), m), 1)
    return TransferDigraph("reduced", m, np.arange(size, dtype=np.int64), adj)


def build_glued(m: int, root: int = 0) -> TransferDigraph:
    """The component of the reduced digraph that holds the word ``root``
    (0^m by default), folded along rotation and reversal orbits, each orbit
    named by its least word.

    The component is the root's :func:`charge` class, which rotation and
    reversal keep, so its vertices are the dihedral orbits of that class,
    named by their least words.  The arcs out of 256 representatives at a
    time come from :func:`reduced_arcs`, their outlets are mapped to the
    least word of their orbit, and the (source, target) pairs are counted;
    an outlet whose orbit is not a vertex raises.  A commutes with rotation
    and reversal, so the orbit partition is equitable: the quotient G keeps
    the Perron root.  A = Aᵀ makes D·G = Gᵀ·D for D the orbit sizes; that
    is checked exactly, so S = D^½·G·D^-½, whose entries are
    sqrt(G_ij·G_ji), is symmetric and similar to G.  G is int32: an entry
    is at most its row sum, Lucas(m) <= 5778.

    Vertex order: orbit of ``root``, then orbit of 1^m when present, then
    the remaining orbits by their least member.
    """
    check_width("glued", m)
    size, mask = 1 << m, (1 << m) - 1
    least, words = dihedral_least(m), np.arange(size)
    charges = charge(words, m)
    reps = words[(least == words) & (charges == charges[root])]
    reps = reps[np.lexsort((reps, reps != mask, reps != least[root]))]
    # vertex[x] is the vertex of the orbit of word x, -1 outside the class;
    # the int32 pair codes hold n^2 < 2^31 (n = 2056 at m = 17)
    n, index = len(reps), np.full(size, -1, dtype=np.int32)
    index[reps] = np.arange(n)
    vertex = index[least]
    adj = np.zeros((n, n), dtype=np.int32)
    for i in range(0, n, 256):
        src, outlets = reduced_arcs(reps[i : i + 256], m)
        target = vertex[outlets]
        if (target < 0).any():
            raise AssertionError(f"an arc leaves the charge class of m={m} root={root}")
        pair, mult = np.unique(vertex[src] * n + target, return_counts=True)
        adj.flat[pair] = mult
    # D·G = Gᵀ·D a block of rows at a time, each int64 product of at most
    # about 2^16 entries, so that no second D·G is formed
    d, step = np.bincount(least)[reps], max(1, (1 << 16) // n)
    for rows in (slice(i, i + step) for i in range(0, n, step)):
        if not np.array_equal(d[rows, None] * adj[rows], (d[:, None] * adj[:, rows]).T):
            raise AssertionError(f"D·G is not symmetric on the glued quotient m={m} root={root}")
    return TransferDigraph("glued", m, reps, adj)


def arc_components(nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The least node of each node's component, for a digraph on ``nodes``
    nodes with arcs src[i] -> dst[i], every component strongly connected.

    Each node is labelled by the least node that reaches it, by propagating
    labels along the arcs with ``np.minimum.at`` until nothing changes, and
    again along the reversed arcs by the least node it reaches.  The two
    labellings, fwd and bwd, agree exactly when every weakly connected component is
    strongly connected: then a label's nodes reach it and are reached by
    it, and an arc u -> v gives fwd(v) <= fwd(u) = bwd(u) <= bwd(v) =
    fwd(v), so no arc joins two labels.  Otherwise this raises, since every
    component of these digraphs is strongly connected by construction and a
    failure would mean a construction bug.
    """

    def least_reaching(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        label = np.arange(nodes)
        while True:
            before = label.copy()
            np.minimum.at(label, b, label[a])
            if np.array_equal(label, before):
                return label

    label = least_reaching(src, dst)
    if not np.array_equal(label, least_reaching(dst, src)):
        raise AssertionError("a component of the digraph is not strongly connected")
    return label


def components(d: TransferDigraph) -> ComponentCensus:
    """The components of a full or reduced digraph: the classes of
    :func:`charge`, numbered by charge, with no graph search.  A reduced
    vertex is labelled by the charge of its word.  The full digraph is the
    line digraph of the reduced multigraph (word v is the arc inlet(v) ->
    outlet(v), and v -> u exactly when outlet(v) = inlet(u)), so its
    components are those of the reduced digraph and each word is labelled
    by the charge of its outlet class.  At reduced widths charge order is
    least-word order: the least word of class c is bits 0, 2, ..., 2c-2.
    The components of neither anchor word go largest first, ties to the
    lower charge."""
    labels = charge(d.classes[1] if d.kind == "full" else d.words, d.m)
    sizes = np.bincount(labels).tolist()
    zero_id, ones_id = charge(np.array([0, (1 << d.m) - 1]), d.m).tolist()
    named = {zero_id, ones_id}
    rest = sorted((c for c in range(len(sizes)) if c not in named), key=lambda c: -sizes[c])
    return ComponentCensus(labels.tolist(), sizes, zero_id, ones_id, rest)


def component_subdigraph(d: TransferDigraph, census: ComponentCensus, comp_id: int) -> TransferDigraph:
    """Restriction of a digraph (with matrix) to one component.

    The component's anchor word (0^m / 1^m on reduced digraphs, b^m / e^m on
    full ones) is moved to index 0 when present; other vertices keep their
    relative order.
    """
    if d.adj is None:
        raise ResourceLimitError("component restriction needs a materialised matrix")
    idx = census.members(comp_id)
    for anchor in d.anchors():
        j = d.index(anchor)
        if j in idx:
            idx.remove(j)
            idx.insert(0, j)
            break
    return TransferDigraph(d.kind, d.m, d.words[idx], d.adj[np.ix_(idx, idx)])
