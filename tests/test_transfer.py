import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gridcycles import alphabet as al
from gridcycles import refdata
from gridcycles import transfer as tr


def positions(d):
    """{word: index} over the vertices of d."""
    return {w: i for i, w in enumerate(d.vertices)}


def reindex(d, words):
    """Submatrix of d.adj in the given vertex order."""
    index = positions(d)
    idx = [index[w] for w in words]
    return d.adj[np.ix_(idx, idx)].tolist()


# ---------------------------------------------------------------------------
# full digraph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,expected", [(2, 10), (3, 26), (5, 242)])
def test_full_vertex_counts(m, expected):
    assert len(tr.build_full(m)) == expected


def test_full_vertex_order_and_arcs():
    d = tr.build_full(2, with_matrix=True)
    assert d.vertices[0] == "bb"
    assert list(d.vertices[1:]) == sorted(d.vertices[1:])
    # arc rule: outlet(v) = inlet(u)
    for i, v in enumerate(d.vertices):
        for j, u in enumerate(d.vertices):
            assert d.adj[i, j] == (al.outlet(v) == al.inlet(u))


@pytest.mark.parametrize("m", range(1, 6))
def test_every_vertex_has_an_out_arc(m):
    d = tr.build_full(m, with_matrix=True)
    assert np.isin(np.arange(len(d)), np.nonzero(d.adj)[0]).all()


def test_full_matrix_limit():
    limit, name = tr.LIMITS["full"]
    with pytest.raises(tr.ResourceLimitError, match=re.escape(name)):
        tr.build_full(limit + 1, with_matrix=True)


@pytest.mark.parametrize("m", range(1, 9))
def test_full_digraph_holds_no_matrix_by_default(m):
    assert tr.build_full(m).adj is None


@pytest.mark.parametrize("m", range(1, 9))
def test_word_classes_are_the_binary_inlet_and_outlet_words(m):
    codes = al.column_word_codes(m)
    words = al.decode_words(codes, m)
    inlets, outlets = tr.word_classes(codes, m)
    assert inlets.dtype == outlets.dtype == np.int64
    assert inlets.tolist() == [int(al.inlet(w), 2) for w in words]
    assert outlets.tolist() == [int(al.outlet(w), 2) for w in words]


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
    assert int(d.adj.sum(dtype=np.int64)) == 3**m + (-1) ** m


@pytest.mark.parametrize("m", range(1, 11))
def test_reduced_symmetry(m):
    d = tr.build_reduced(m)
    assert np.array_equal(d.adj, d.adj.T)


def test_reduced_limit():
    limit, name = tr.LIMITS["reduced"]
    with pytest.raises(tr.ResourceLimitError, match=re.escape(name)):
        tr.build_reduced(limit + 1)


# ---------------------------------------------------------------------------
# rotation / reversal / complement relations and the digraph laws
# ---------------------------------------------------------------------------


def relation(d, fn):
    """Vertex permutation perm[i] = index of fn(v_i)."""
    index = positions(d)
    return np.array([index[fn(v)] for v in d.vertices])


def rotation(d):
    return relation(d, lambda v: al.rotate(v, 1))


def reversal(d):
    return relation(d, lambda w: w[::-1])


def complement(w):
    """The binary word with 0 and 1 swapped."""
    return w.translate(str.maketrans("01", "10"))


def test_rotation_cycle_m4():
    d = tr.build_reduced(4)
    rot = rotation(d)
    cycle = ["0011", "0110", "1100", "1001"]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert rot[d.vertices.index(a)] == d.vertices.index(b)


@pytest.mark.parametrize("m", range(2, 11))
def test_relation_properties(m):
    d = tr.build_reduced(m)
    rot = rotation(d)
    conv = reversal(d)
    zero, ones = d.vertices.index("0" * m), d.vertices.index("1" * m)
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


@pytest.mark.parametrize("m", range(2, 9))
def test_complement_is_an_automorphism(m):
    d = tr.build_reduced(m)
    perm = relation(d, complement)
    assert np.array_equal(d.adj[np.ix_(perm, perm)], d.adj)


@pytest.mark.parametrize("m", range(1, 13))
def test_reduced_arcs_keep_every_law(m):
    assert tr.symmetry_faults(*tr.reduced_arcs(np.arange(2**m), m), m) == []


def on_both_ends(f):
    """The arc map that applies the string map f to both ends of an arc
    between width-m int words."""

    def word(m, x):
        return int(f(format(x, f"0{m}b")), 2)

    return lambda m, u, w: (word(m, u), word(m, w))


ARC_MAPS = {
    "transpose": lambda m, u, w: (w, u),
    "rotation": on_both_ends(lambda w: al.rotate(w, 1)),
    "reversal": on_both_ends(lambda w: w[::-1]),
    "complement": on_both_ends(complement),
}


def orbit(arc, m, maps):
    seen, todo = {arc}, [arc]
    while todo:
        u, w = todo.pop()
        for f in maps:
            image = f(m, u, w)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


@pytest.mark.parametrize("m", [5, 6])
@pytest.mark.parametrize("law", list(ARC_MAPS))
def test_a_broken_law_is_reported_alone(m, law):
    # the true arcs minus one copy of each arc in an orbit under the other
    # three maps keep those three; they break the fourth unless its image of
    # the orbit is the orbit
    src, dst = tr.reduced_arcs(np.arange(2**m), m)
    others = [f for name, f in ARC_MAPS.items() if name != law]
    for arc in sorted(set(zip(src.tolist(), dst.tolist()))):
        removed = orbit(arc, m, others)
        if {ARC_MAPS[law](m, u, w) for u, w in removed} != removed:
            break
    else:
        pytest.fail(f"every orbit is closed under {law} at m={m}")
    keep = np.ones(len(src), dtype=bool)
    for u, w in removed:
        keep[np.flatnonzero((src == u) & (dst == w))[0]] = False
    assert tr.symmetry_faults(src[keep], dst[keep], m) == [law]


def test_symmetry_faults_refuses_widths_past_int32_codes():
    with pytest.raises(ValueError, match="m <= 15"):
        tr.symmetry_faults(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32), 16)


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


def test_components_abort_on_a_one_way_arc():
    # two self-loops joined by an arc 0 -> 1 only: one weak component, two
    # strong ones
    with pytest.raises(AssertionError, match="not strongly connected"):
        tr.arc_components(2, np.array([0, 0, 1]), np.array([0, 1, 1]))


@pytest.mark.parametrize("m", range(2, 9))
def test_matrix_and_word_arcs_give_one_census(m):
    # the label search over the dumped matrix's arcs against the census,
    # which labels each word by the charge of its outlet class
    d = tr.build_full(m, with_matrix=True)
    least = tr.arc_components(len(d), *np.nonzero(d.adj))
    census = tr.components(d)
    _, labels, sizes = np.unique(least, return_inverse=True, return_counts=True)
    assert labels.tolist() == census.labels and sizes.tolist() == census.sizes


@pytest.mark.parametrize("m", range(2, 16))
def test_reduced_arcs_keep_the_charge(m):
    words = np.arange(2**m)
    src, outlets = tr.reduced_arcs(words, m)
    charges = tr.charge(words, m).astype(np.int8)  # int8 keeps m = 15 small
    assert np.array_equal(charges[src], charges[outlets])


@pytest.mark.parametrize("m", range(2, 14))
def test_charge_classes_are_the_components(m):
    # charge 0, 1, ... against the components numbered by their least words
    words = np.arange(2**m)
    least = tr.arc_components(2**m, *tr.reduced_arcs(words, m))
    assert np.array_equal(tr.charge(words, m), np.unique(least, return_inverse=True)[1])


@pytest.mark.parametrize("m", range(1, 14))
def test_rotation_and_reversal_keep_the_charge(m):
    words = np.arange(2**m)
    charges = tr.charge(words, m)
    assert np.array_equal(charges[tr.rotate_words(words, 1, m)], charges)
    assert np.array_equal(charges[tr.reverse_words(words, m)], charges)
    # so the least word of each class is the least of its rotations
    for c in np.unique(charges):
        least = words[charges == c].min()
        assert min(tr.rotate_words(least, k, m) for k in range(m)) == least


def least_word_order(d, census):
    """The components of neither anchor word, largest first, ties to the
    lesser least member word."""
    least = {}
    for word, c in zip(d.vertices, census.labels):
        least[c] = min(least.get(c, word), word)
    rest = [c for c in range(census.n_components) if c not in (census.zero_id, census.ones_id)]
    return sorted(rest, key=lambda c: (-census.sizes[c], least[c]))


@pytest.mark.parametrize(
    "kind,m", [("reduced", m) for m in range(2, 13)] + [("full", m) for m in range(2, 10)]
)
def test_rest_components_go_by_size_then_least_word(kind, m):
    d = tr.build_reduced(m) if kind == "reduced" else tr.build_full(m)
    census = tr.components(d)
    assert census.rest_ids == least_word_order(d, census)


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
    index = positions(d)
    image = [index[d.vertices[i].translate(flip)] for i in zero]
    assert sorted(census.labels[i] for i in image) == [census.ones_id] * len(image)
    assert np.array_equal(d.adj[np.ix_(zero, zero)], d.adj[np.ix_(image, image)])


def test_census_past_verify_matches_the_shipped_tables():
    # rows that verify's digraph suite, which stops at m = 10, never reads
    tab = refdata.tables()
    for m in (11, 12):
        full = tr.components(tr.build_full(m))
        assert len(full.labels) == sum(full.sizes) == tab["full_vertices"][str(m)]
    for m in (11, 12, 13):
        census = tr.components(tr.build_reduced(m))
        assert census.sizes[census.zero_id] == tab["reduced_zero_component"][str(m)]
        if str(m) in tab["reduced_components"]:
            ref = tab["reduced_components"][str(m)]
            assert census.sizes[census.ones_id] == ref["ones"]
            rest = census.rest_sizes() if m % 2 == 0 else [census.sizes[census.zero_id]]
            assert rest == ref["rest"]


@pytest.mark.parametrize("m", range(2, 9))
def test_full_and_reduced_parity_split(m):
    full_census = tr.components(tr.build_full(m))
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


def test_glued_from_another_root():
    # the walk starts at the orbit of the root and stays in its component:
    # {01, 10} of width 2 is one orbit with a double arc to itself, and the
    # 8-word component of width 4 folds into two orbits of four
    g = tr.build_glued(2, 0b10)
    assert g.vertices == ("01",) and g.adj.tolist() == [[2]]
    g = tr.build_glued(4, 0b1000)
    assert g.vertices == ("0001", "0111") and g.adj.tolist() == [[2, 3], [3, 2]]


@pytest.mark.parametrize(
    "m,expected", [(2, 2), (3, 2), (4, 3), (5, 4), (6, 6), (7, 9), (8, 11)]
)
def test_glued_sizes(m, expected):
    assert len(tr.build_glued(m)) == expected


def test_glued_build_leaves_numpy_ma_unloaded():
    # np.unique without return_* imports numpy.ma (about 8 ms) on numpy 2.4;
    # if import numpy alone leaves it unloaded, so do the glued builds and
    # the trace engines
    script = (
        "import sys, numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    print('loaded by numpy')\n"
        "else:\n"
        "    from gridcycles import counting, transfer\n"
        "    for m in range(2, 11):\n"
        "        transfer.build_glued(m)\n"
        "        counting._trace_engine(m)\n"
        "    print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(tr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    if child.stdout == "loaded by numpy\n":
        pytest.skip("import numpy loads numpy.ma itself")
    assert child.stdout == "False\n"


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
    index = positions(d)
    orbits = {}
    for w in zero_component(d):
        orbit = {al.rotate(x, k) for x in (w, w[::-1]) for k in range(m)}
        orbits[min(orbit)] = [index[y] for y in orbit]
    g = tr.build_glued(m)
    assert sorted(g.vertices) == sorted(orbits)
    rows = d.adj[[index[rep] for rep in g.vertices]].astype(np.int64)
    expected = np.stack([rows[:, orbits[rep]].sum(axis=1) for rep in g.vertices], axis=1)
    assert np.array_equal(g.adj, expected)


@pytest.mark.parametrize("m", range(2, 11))
def test_glued_is_balanced_by_orbit_sizes(m):
    # D·G = Gᵀ·D for D the dihedral orbit sizes, so the elementwise
    # sqrt(G∘Gᵀ) that the spectrum solves is D^½·G·D^-½
    g = tr.build_glued(m)
    d = np.array(
        [len({al.rotate(x, k) for x in (w, w[::-1]) for k in range(m)}) for w in g.vertices]
    )
    assert np.array_equal(d[:, None] * g.adj, (d[:, None] * g.adj).T)
    a = g.adj.astype(float)
    r = np.sqrt(d)
    assert np.allclose(np.sqrt(a * a.T), r[:, None] * a / r[None, :], rtol=1e-15, atol=0)


@pytest.mark.parametrize("m", range(11, 18))
def test_glued_invariants_past_the_dense_census(m, shared_build):
    # D·G = Gᵀ·D for D the dihedral orbit sizes, each row of G sums to its
    # representative's out-degree, and the size is the shipped one
    g = shared_build("build_glued", m)
    reps = [int(w, 2) for w in g.vertices]
    d = np.array(
        [len({al.rotate(x, k) for x in (w, w[::-1]) for k in range(m)}) for w in g.vertices]
    )
    assert np.array_equal(d[:, None] * g.adj, (d[:, None] * g.adj).T)
    out_degree = Counter(tr.reduced_arcs(np.array(reps), m)[0].tolist())
    assert g.adj.sum(axis=1).tolist() == [out_degree[r] for r in reps]
    assert len(g) == refdata.tables()["glued_vertices"][str(m)]


def test_glued_sizes_up_to_the_limit(shared_build):
    tab = refdata.tables()
    for m in range(15, tr.LIMITS["glued"][0] + 1):
        assert len(shared_build("build_glued", m)) == tab["glued_vertices"][str(m)]


def test_glued_limit():
    limit, name = tr.LIMITS["glued"]
    with pytest.raises(tr.ResourceLimitError, match=re.escape(name)):
        tr.build_glued(limit + 1)


# ---------------------------------------------------------------------------
# column sets, serialization
# ---------------------------------------------------------------------------


def test_column_sets_m2():
    first, last = (al.decode_words(al.column_word_codes(2, x), 2) for x in ("abc", "bdf"))
    assert set(first) == {"bb", "ac", "ca"}
    assert set(last) == {"bb", "df", "fd"}


@pytest.mark.parametrize("m,expected", [(4, 7), (10, 123)])
def test_column_set_sizes(m, expected):
    first, last = (al.decode_words(al.column_word_codes(m, x), m) for x in ("abc", "bdf"))
    assert len(first) == len(last) == expected


def dumped(d):
    out = io.StringIO()
    d.write_json(out)
    return out.getvalue()


def test_json_serialization_roundtrip():
    d = tr.build_reduced(3)
    doc = json.loads(dumped(d))
    assert doc["kind"] == "reduced" and doc["m"] == 3
    assert doc["vertices"] == list(d.vertices)
    assert doc["adj"] == [int(x) for x in d.adj.reshape(-1)]
    with pytest.raises(tr.ResourceLimitError):
        tr.build_full(9).write_json(io.StringIO())


@pytest.mark.parametrize(
    "d",
    [tr.build_full(3, with_matrix=True), tr.build_reduced(4), tr.build_glued(6)]
    + [tr.TransferDigraph("glued", 1, np.arange(0), np.zeros((0, 0), dtype=np.int64))],
    ids=["full", "reduced", "glued", "empty"],
)
def test_streamed_json_is_one_json_dumps(d):
    # row by row, byte for byte the text of one json.dumps of the whole
    doc = {"kind": d.kind, "m": d.m, "vertices": list(d.vertices), "adj": d.adj.ravel().tolist()}
    assert dumped(d) == json.dumps(doc)


def test_vertex_words_are_decoded_only_on_request():
    # the census and the class counts of the stats read the codes alone
    d = tr.build_full(10)
    census = tr.components(d)
    ins, outs = (np.bincount(c, minlength=1 << d.m) for c in d.classes)
    assert int(outs @ ins) > 0 and census.zero_id is not None
    assert "vertices" not in d.__dict__
    reduced = tr.build_reduced(10)
    tr.components(reduced)
    assert "vertices" not in reduced.__dict__
    assert d.vertices[0] == "b" * 10 and len(d.vertices) == len(d)
    assert d.vertices[1:] == tuple(sorted(d.vertices[1:]))
