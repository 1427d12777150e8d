from collections import Counter

import numpy as np
import pytest

from gridcycles import alphabet as al
from gridcycles import transfer as tr


def arc_counts(m, inlets=None):
    """(inlet, outlet) -> number of arcs, from one reduced_arcs call."""
    if inlets is None:
        inlets = np.arange(1 << m)
    src, outlets = tr.reduced_arcs(inlets, m)
    return Counter(zip(src.tolist(), outlets.tolist()))


@pytest.mark.parametrize("m", range(1, 7))
def test_reduced_arcs_match_count_io_words(m):
    got = arc_counts(m)
    for u in range(1 << m):
        for w in range(1 << m):
            expect = al.count_io_words(format(u, f"0{m}b"), format(w, f"0{m}b"))
            assert got[u, w] == expect, (m, u, w)


@pytest.mark.parametrize("m", range(1, 9))
def test_reduced_arcs_match_full_digraph(m):
    # one arc per valid column word, from its inlet word to its outlet word
    words = al.enumerate_column_words(m)
    expect = Counter((int(al.inlet(w), 2), int(al.outlet(w), 2)) for w in words)
    assert arc_counts(m) == expect


@pytest.mark.parametrize("m", range(1, 13))
def test_reduced_arc_total(m):
    src, outlets = tr.reduced_arcs(np.arange(1 << m), m)
    assert len(src) == len(outlets) == 3**m + (-1) ** m


def test_reduced_arcs_out_of_a_subset():
    # a partial call returns exactly those inlets' arcs, grouped by inlet in
    # the order given
    m = 7
    whole = arc_counts(m)
    inlets = np.random.default_rng(0).permutation(1 << m)[:40]
    chosen = set(inlets.tolist())
    assert arc_counts(m, inlets) == Counter(
        {(u, w): n for (u, w), n in whole.items() if u in chosen}
    )
    src, _ = tr.reduced_arcs(inlets, m)
    per_inlet = [sum(n for (u, _), n in whole.items() if u == x) for x in inlets]
    assert np.array_equal(src, np.repeat(inlets, per_inlet))
