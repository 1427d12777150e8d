import pytest

from gridcycles import counting as ct
from gridcycles import oracle as orc
from gridcycles.counting import GridSpec


def test_cylinder_construction():
    g = orc.build_grid(GridSpec("tnc", 3, 0, 2))
    assert g.n_vertices == 6
    assert len(g.edges) == 9  # 6 vertical + 3 horizontal
    assert sorted(g.degree_sequence()) == [3] * 6


def test_width_two_columns_are_parallel_pairs():
    g = orc.build_grid(GridSpec("tnc", 2, 0, 2))
    assert g.n_vertices == 4
    # 2 doubled vertical edges per column + 1 horizontal edge per row
    assert len(g.edges) == 6
    assert orc.count_two_factors(g) == 5


def test_torus_wrap_edges():
    g = orc.build_grid(GridSpec("tg", 3, 1, 3))
    assert g.n_vertices == 9 and len(g.edges) == 18
    wrap = {tuple(sorted(e)) for e in g.edges if 6 <= max(e) and min(e) < 3}
    # wrap edges: (i, 3) to (i + 1 mod 3, 1)
    def vid(i, j):
        return (j - 1) * 3 + (i - 1) % 3

    expected = {tuple(sorted((vid(i, 3), vid(i + 1, 1)))) for i in (1, 2, 3)}
    assert wrap == expected


def test_edge_counts_by_family():
    for m in (2, 3, 4):
        for n in (2, 3):
            assert len(orc.build_grid(GridSpec("tnc", m, 0, n)).edges) == m * n + m * (n - 1)
            for family in ("tg", "kb"):
                assert len(orc.build_grid(GridSpec(family, m, 1 % m, n)).edges) == 2 * m * n


def test_count_examples():
    assert orc.count_grid(GridSpec("tnc", 3, 0, 2)) == 4
    assert orc.count_grid(GridSpec("tnc", 2, 0, 2)) == 5
    assert orc.count_grid(GridSpec("tg", 3, 0, 2)) == 26


def test_length_one_cylinder_is_a_single_cycle():
    for m in (2, 3, 5):
        assert orc.count_grid(GridSpec("tnc", m, 0, 1)) == 1


def test_glued_families_refuse_length_one():
    for family in ("tg", "kb"):
        with pytest.raises(ValueError):
            orc.build_grid(GridSpec(family, 3, 0, 1))


def test_edge_cap():
    with pytest.raises(ValueError):
        orc.count_grid(GridSpec("tg", 5, 0, 5))
    # a plain ValueError, not transfer's ResourceLimitError: the oracle
    # imports nothing from the transfer machinery
    with pytest.raises(ValueError) as refusal:
        orc.count_grid(GridSpec("tnc", 5, 0, 6))
    assert type(refusal.value) is ValueError
    assert str(refusal.value) == f"brute-force counter capped at {orc.MAX_EDGES} edges, got 55"


def test_matches_transfer_counts():
    for m in (2, 3, 4):
        for n in (1, 2, 3, 4):
            assert orc.count_grid(GridSpec("tnc", m, 0, n)) == ct.count_tnc(m, n)
    for family in ("tg", "kb"):
        for m in (2, 3, 4):
            for p in range(m):
                for n in (2, 3):
                    spec = GridSpec(family, m, p, n)
                    assert orc.count_grid(spec) == ct.count(spec), spec


def test_column_relabelling_invariance():
    # the torus has no distinguished seam: rotating column labels must not
    # change the count
    spec = GridSpec("tg", 3, 1, 3)
    g = orc.build_grid(spec)
    m, n = spec.m, spec.n

    def shift(v):
        row, col = v % m, v // m
        return ((col + 1) % n) * m + row

    relabeled = orc.Multigraph(
        g.n_vertices, [(shift(u), shift(v)) for u, v in g.edges]
    )
    assert orc.count_two_factors(relabeled) == orc.count_two_factors(g)


def test_zero_when_degree_deficient():
    g = orc.Multigraph(3, [(0, 1), (1, 2)])
    assert orc.count_two_factors(g) == 0


def test_loops_rejected():
    with pytest.raises(ValueError):
        orc.count_two_factors(orc.Multigraph(1, [(0, 0)]))


def test_edge_list_text():
    g = orc.build_grid(GridSpec("tnc", 2, 0, 1))
    assert g.edges == [(0, 1), (0, 1)]
