import itertools
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


@pytest.mark.parametrize("m", range(1, 10))
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


@pytest.mark.parametrize("h", range(0, 7))
def test_chain_tables_match_brute_force(h):
    # every open chain (u, s_0 .. s_h): no row with u_j = s_j = s_(j+1), no
    # closing condition, end bits (s_0, s_h) and outlet bits u_j ^ s_j ^ s_(j+1)
    expect = []
    for u in range(1 << h):
        bits = [(u >> (h - 1 - j)) & 1 for j in range(h)]
        for s in itertools.product((0, 1), repeat=h + 1):
            if any(bits[j] == s[j] == s[j + 1] for j in range(h)):
                continue
            out = sum((bits[j] ^ s[j] ^ s[j + 1]) << (h - 1 - j) for j in range(h))
            expect.append(((2 * s[0] + s[h]) << h | u, out))
    codes, outs, first = tr._chains(h)
    assert sorted(zip(codes.tolist(), outs.tolist())) == sorted(expect)
    assert np.array_equal(codes, np.sort(codes))
    assert first.tolist() == [np.searchsorted(codes, c) for c in range((4 << h) + 1)]
    assert codes.dtype == outs.dtype == first.dtype == np.int32


def test_chain_tables_refuse_writes():
    for table in tr._chains(5):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_reduced_arcs_of_no_inlet_and_of_one_row():
    src, outlets = tr.reduced_arcs(np.zeros(0, dtype=np.int64), 7)
    assert len(src) == len(outlets) == 0 and src.dtype == outlets.dtype == np.int32
    # one row: the letters b (inlet and outlet 0) and e (both 1)
    src, outlets = tr.reduced_arcs(np.arange(2), 1)
    assert src.dtype == outlets.dtype == np.int32
    assert sorted(zip(src.tolist(), outlets.tolist())) == [(0, 0), (1, 1)]
