import json
import math

import numpy as np
import pytest

from gridcycles import alphabet as al
from gridcycles import refdata
from gridcycles import transfer as tr


def reindex(d, words):
    """Submatrix of d.adj in the given vertex order."""
    idx = [d.index(w) for w in words]
    return d.adj[np.ix_(idx, idx)].tolist()


# ---------------------------------------------------------------------------
# full digraph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,expected", [(2, 10), (3, 26), (5, 242)])
def test_full_vertex_counts(m, expected):
    assert len(tr.build_full(m, with_matrix=False)) == expected


def test_full_vertex_order_and_arcs():
    d = tr.build_full(2)
    assert d.vertices[0] == "bb"
    assert list(d.vertices[1:]) == sorted(d.vertices[1:])
    # arc rule: outlet(v) = inlet(u)
    for i, v in enumerate(d.vertices):
        for j, u in enumerate(d.vertices):
            assert d.adj[i, j] == (al.outlet(v) == al.inlet(u))


@pytest.mark.parametrize("m", range(1, 6))
def test_every_vertex_has_an_out_arc(m):
    d = tr.build_full(m, with_matrix=False)
    assert all(succ for succ in d.successor_lists())


def test_full_matrix_limit():
    with pytest.raises(tr.ResourceLimitError):
        tr.build_full(9, with_matrix=True)


# ---------------------------------------------------------------------------
# reduced digraph
# ---------------------------------------------------------------------------


def test_reduced_m2_component_matrices():
    d = tr.build_reduced(2)
    assert d.vertices[0] == "00"
    assert reindex(d, ["00", "11"]) == [[1, 2], [2, 1]]
    assert reindex(d, ["10", "01"]) == [[0, 2], [2, 0]]


def test_reduced_m3_component_matrix():
    d = tr.build_reduced(3)
    expected = [[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    assert reindex(d, ["000", "101", "011", "110"]) == expected
    assert reindex(d, ["111", "001", "100", "010"]) == expected


def test_reduced_m4_zero_component_matrix():
    d = tr.build_reduced(4)
    order = ["0000", "1111", "0011", "0110", "1100", "1001"]
    expected = [
        [1, 2, 1, 1, 1, 1],
        [2, 1, 1, 1, 1, 1],
        [1, 1, 0, 1, 2, 1],
        [1, 1, 1, 0, 1, 2],
        [1, 1, 2, 1, 0, 1],
        [1, 1, 1, 2, 1, 0],
    ]
    assert reindex(d, order) == expected


@pytest.mark.parametrize("m", range(1, 11))
def test_reduced_counts(m):
    d = tr.build_reduced(m)
    assert len(d) == 2**m
    assert tr.reduced_edge_total(d) == 3**m + (-1) ** m


@pytest.mark.parametrize("m", range(1, 11))
def test_reduced_symmetry(m):
    d = tr.build_reduced(m)
    assert np.array_equal(d.adj, d.adj.T)


def test_reduced_limit():
    with pytest.raises(tr.ResourceLimitError):
        tr.build_reduced(tr.REDUCED_DENSE_LIMIT + 1)


# ---------------------------------------------------------------------------
# rotation / reversal relations
# ---------------------------------------------------------------------------


def relation(d, fn):
    """Vertex permutation perm[i] = index of fn(v_i)."""
    return np.array([d.index(fn(v)) for v in d.vertices])


def rotation(d):
    return relation(d, lambda v: al.rotate(v, 1))


def reversal(d):
    return relation(d, lambda w: w[::-1])


def test_rotation_cycle_m4():
    d = tr.build_reduced(4)
    rot = rotation(d)
    cycle = ["0011", "0110", "1100", "1001"]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert rot[d.index(a)] == d.index(b)


@pytest.mark.parametrize("m", range(2, 11))
def test_relation_properties(m):
    d = tr.build_reduced(m)
    rot = rotation(d)
    conv = reversal(d)
    zero, ones = d.index("0" * m), d.index("1" * m)
    assert rot[zero] == zero and rot[ones] == ones
    assert conv[zero] == zero and conv[ones] == ones
    # rotation has order dividing m; reversal is an involution
    idx = np.arange(len(d))
    acc = idx
    for _ in range(m):
        acc = rot[acc]
    assert np.array_equal(acc, idx)
    assert np.array_equal(conv[conv], idx)


@pytest.mark.parametrize("m", range(2, 9))
def test_rotation_is_an_automorphism(m):
    d = tr.build_reduced(m)
    perm = rotation(d)
    assert np.array_equal(d.adj[np.ix_(perm, perm)], d.adj)


@pytest.mark.parametrize("m", range(2, 9))
def test_reversal_is_an_automorphism(m):
    d = tr.build_reduced(m)
    perm = reversal(d)
    assert np.array_equal(d.adj[np.ix_(perm, perm)], d.adj)


@pytest.mark.parametrize("m", range(1, 7))
def test_int_word_rotation_and_reversal_match_the_string_forms(m):
    words = np.arange(1 << m)
    strings = [format(x, f"0{m}b") for x in words]
    assert tr.reverse_words(words, m).tolist() == [int(w[::-1], 2) for w in strings]
    for k in range(-m, 2 * m):
        expected = [int(al.rotate(w, k), 2) for w in strings]
        assert tr.rotate_words(words, k, m).tolist() == expected


def test_full_hconversion_relation():
    # horizontal conversion permutes the full digraph's vertices
    d = tr.build_full(3)
    perm = relation(d, al.horizontal_convert)
    assert sorted(perm) == list(range(len(d)))


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def test_components_m4():
    d = tr.build_reduced(4)
    census = tr.components(d)
    assert census.zero_id == census.ones_id
    assert census.sizes[census.zero_id] == 6
    assert census.rest_sizes() == [8, 2]


def test_components_m5():
    census = tr.components(tr.build_reduced(5))
    assert census.n_components == 2
    assert sorted(census.sizes) == [16, 16]
    assert census.zero_id != census.ones_id


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_even_component_sizes_are_binomial(m):
    census = tr.components(tr.build_reduced(m))
    assert census.n_components == m // 2 + 1
    assert census.sizes[census.ones_id] == math.comb(m, m // 2)
    assert census.rest_sizes() == [
        2 * math.comb(m, m // 2 - s) for s in range(1, m // 2 + 1)
    ]


@pytest.mark.parametrize("m", [3, 5, 7])
def test_odd_components_isomorphic_under_complement(m):
    d = tr.build_reduced(m)
    census = tr.components(d)
    assert census.zero_id != census.ones_id
    zero = census.members(census.zero_id)
    flip = str.maketrans("01", "10")
    image = [d.index(d.vertices[i].translate(flip)) for i in zero]
    assert sorted(census.labels[i] for i in image) == [census.ones_id] * len(image)
    assert np.array_equal(d.adj[np.ix_(zero, zero)], d.adj[np.ix_(image, image)])


@pytest.mark.parametrize("m", range(2, 9))
def test_full_and_reduced_parity_split(m):
    full_census = tr.components(tr.build_full(m, with_matrix=False))
    assert (full_census.zero_id == full_census.ones_id) == (m % 2 == 0)


# ---------------------------------------------------------------------------
# glued digraph
# ---------------------------------------------------------------------------


def test_glued_m4_exact():
    g = tr.build_glued(4)
    assert g.vertices == ("0000", "1111", "0011")
    assert g.adj.tolist() == [[1, 2, 4], [2, 1, 4], [1, 1, 4]]


def test_glued_m2():
    g = tr.build_glued(2)
    assert g.vertices == ("00", "11")


@pytest.mark.parametrize(
    "m,expected", [(2, 2), (3, 2), (4, 3), (5, 4), (6, 6), (7, 9), (8, 11)]
)
def test_glued_sizes(m, expected):
    assert len(tr.build_glued(m)) == expected


def zero_component(d):
    census = tr.components(d)
    return {d.vertices[i] for i in census.members(census.zero_id)}


@pytest.mark.parametrize("m", range(2, 11))
def test_zero_component_closure(m):
    words = zero_component(tr.build_reduced(m))
    for w in words:
        assert w[::-1] in words
        assert al.rotate(w, 1) in words


@pytest.mark.parametrize("m", range(2, 11))
def test_glued_is_the_orbit_quotient_of_the_zero_component(m):
    # reference: the dense census's zero component, split into dihedral
    # orbits, with arcs out of each representative summed per target orbit
    d = tr.build_reduced(m)
    orbits = {}
    for w in zero_component(d):
        orbit = {al.rotate(x, k) for x in (w, w[::-1]) for k in range(m)}
        orbits[min(orbit)] = [d.index(y) for y in orbit]
    g = tr.build_glued(m)
    assert sorted(g.vertices) == sorted(orbits)
    rows = d.adj[[d.index(rep) for rep in g.vertices]].astype(np.int64)
    expected = np.stack([rows[:, orbits[rep]].sum(axis=1) for rep in g.vertices], axis=1)
    assert np.array_equal(g.adj, expected)


@pytest.mark.parametrize("m", range(2, 11))
def test_glued_is_balanced_by_orbit_sizes(m):
    # D·G = Gᵀ·D for D the dihedral orbit sizes, so the elementwise
    # sqrt(G∘Gᵀ) that the spectrum iterates on is D^½·G·D^-½
    g = tr.build_glued(m)
    d = np.array(
        [len({al.rotate(x, k) for x in (w, w[::-1]) for k in range(m)}) for w in g.vertices]
    )
    assert np.array_equal(d[:, None] * g.adj, (d[:, None] * g.adj).T)
    a = g.adj.astype(float)
    r = np.sqrt(d)
    assert np.allclose(np.sqrt(a * a.T), r[:, None] * a / r[None, :], rtol=1e-15, atol=0)


def test_glued_sizes_up_to_the_limit():
    tab = refdata.tables()
    for m in range(15, tr.GLUED_LIMIT + 1):
        assert len(tr.build_glued(m)) == tab["glued_vertices"][str(m)]


def test_glued_limit():
    with pytest.raises(tr.ResourceLimitError):
        tr.build_glued(tr.GLUED_LIMIT + 1)


# ---------------------------------------------------------------------------
# column sets, serialization
# ---------------------------------------------------------------------------


def test_column_sets_m2():
    first, last = tr.column_sets(2)
    assert set(first) == {"bb", "ac", "ca"}
    assert set(last) == {"bb", "df", "fd"}


@pytest.mark.parametrize("m,expected", [(4, 7), (10, 123)])
def test_column_set_sizes(m, expected):
    first, last = tr.column_sets(m)
    assert len(first) == len(last) == expected == tr.lucas(m)


def test_json_serialization_roundtrip():
    d = tr.build_reduced(3)
    doc = json.loads(json.dumps(d.to_json_dict()))
    assert doc["kind"] == "reduced" and doc["m"] == 3
    assert doc["vertices"] == list(d.vertices)
    assert doc["adj"] == [int(x) for x in d.adj.reshape(-1)]
    with pytest.raises(tr.ResourceLimitError):
        tr.build_full(9, with_matrix=False).to_json_dict()
