"""Independent brute-force 2-factor counter on explicit grid multigraphs.

This module deliberately shares nothing with the transfer machinery: it
builds the actual graph (vertices, edge multiset) from the gluing rules and
counts spanning 2-regular sub-multigraphs by backtracking over edges.
Parallel edges are first-class citizens: a parallel pair may form a
2-cycle, and the two edges of a pair count as distinct choices.  Without
this the published counts for width-2 cylinders and length-2 tori are not
reproducible.

Desk-scale only: the edge count is capped, and torus/Klein graphs of
length 1 are refused (the gluing would create loops).
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import GridSpec

MAX_EDGES = 40


@dataclass
class Multigraph:
    """Vertex count plus an edge multiset; parallel edges appear repeatedly."""

    n_vertices: int
    edges: list[tuple[int, int]]

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def build_grid(spec: GridSpec) -> Multigraph:
    """Construct the grid multigraph for a fully specified GridSpec.

    Vertices are (row i, column j) with i = 1..m cyclic and j = 1..n.
    Columns are cycles (a width-2 column is a parallel pair).  The torus
    wraps column n to column 1 with rows shifted by the twist; the Klein
    bottle wraps with the row order reversed.
    """
    m, n, p = spec.m, spec.n, spec.p
    if n is None:
        raise ValueError("spec.n is required to build a grid")
    if spec.family in ("tg", "kb") and n < 2:
        raise ValueError(
            f"{spec.family} gluing needs length >= 2 (length 1 would create loops)"
        )

    def vid(i: int, j: int) -> int:
        return (j - 1) * m + ((i - 1) % m)

    edges: list[tuple[int, int]] = []
    for j in range(1, n + 1):
        if m == 2:
            edges.append((vid(1, j), vid(2, j)))
            edges.append((vid(1, j), vid(2, j)))
        else:
            for i in range(1, m + 1):
                edges.append((vid(i, j), vid(i + 1, j)))
    for j in range(1, n):
        for i in range(1, m + 1):
            edges.append((vid(i, j), vid(i, j + 1)))
    if spec.family == "tg":
        for i in range(1, m + 1):
            edges.append((vid(i, n), vid(i + p, 1)))
    elif spec.family == "kb":
        for i in range(1, m + 1):
            edges.append((vid(i, n), vid(m + p + 1 - i, 1)))
    return Multigraph(m * n, edges)


def count_two_factors(g: Multigraph) -> int:
    """Exact number of spanning 2-regular sub-multigraphs.

    Backtracking over edges sorted by lowest incident vertex.  At each edge
    both endpoints must stay completable: degree never above two, and
    degree plus remaining incident edges never below two.
    """
    if len(g.edges) > MAX_EDGES:
        raise ValueError(
            f"brute-force counter capped at {MAX_EDGES} edges, got {len(g.edges)}"
        )
    for u, v in g.edges:
        if u == v:
            raise ValueError("loops are not supported")
    edges = sorted((min(u, v), max(u, v)) for u, v in g.edges)
    if any(d < 2 for d in g.degree_sequence()):
        return 0

    deg = [0] * g.n_vertices
    rem = [0] * g.n_vertices
    for u, v in edges:
        rem[u] += 1
        rem[v] += 1

    def walk(k: int) -> int:
        if k == len(edges):
            return 1
        u, v = edges[k]
        rem[u] -= 1
        rem[v] -= 1
        total = 0
        if deg[u] < 2 and deg[v] < 2 and deg[u] + rem[u] >= 1 and deg[v] + rem[v] >= 1:
            deg[u] += 1
            deg[v] += 1
            total += walk(k + 1)
            deg[u] -= 1
            deg[v] -= 1
        if deg[u] + rem[u] >= 2 and deg[v] + rem[v] >= 2:
            total += walk(k + 1)
        rem[u] += 1
        rem[v] += 1
        return total

    return walk(0)


def count_grid(spec: GridSpec) -> int:
    """Brute-force count for a grid spec (the cross-check oracle)."""
    return count_two_factors(build_grid(spec))
