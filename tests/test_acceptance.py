"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them inline).

The reference numbers come from the dataset in ``gridcycles/data``; oracle
and route-agreement criteria are internal cross-checks between independent
implementations.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from gridcycles import alphabet as al
from gridcycles import counting as ct
from gridcycles import recurrence as rc
from gridcycles import refdata
from gridcycles import transfer as tr
from gridcycles.counting import GridSpec
from gridcycles.exactmat import amplitude_estimate
from gridcycles.oracle import count_grid


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_series_reproduction():
    with criterion(1, "series reproduction (exact, n <= 25)"):
        for family, m, p in refdata.series_keys():
            ref = list(refdata.reference_series(family, m, p))
            got = ct.series(GridSpec(family, m, p), 25).values
            assert got == ref, (family, m, p)
        assert ct.count_tnc(7, 25) == 14458254399899446658426778070807


def test_criterion_2_digraph_census():
    with criterion(2, "digraph census m = 2..10 (exact)"):
        tab = refdata.tables()
        for m in range(2, 11):
            assert len(al.enumerate_column_words(m)) == 3**m + (-1) ** m
            full = tr.build_full(m)
            census = tr.components(full)
            assert census.sizes[census.zero_id] == tab["full_zero_component"][str(m)]

            d = tr.build_reduced(m)
            assert len(d) == 2**m
            assert int(d.adj.sum(dtype=np.int64)) == 3**m + (-1) ** m
            rcensus = tr.components(d)
            assert rcensus.sizes[rcensus.zero_id] == tab["reduced_zero_component"][str(m)]
            ref = tab["reduced_components"][str(m)]
            assert rcensus.sizes[rcensus.ones_id] == ref["ones"]
            if m % 2 == 0:
                assert rcensus.n_components == m // 2 + 1
                assert rcensus.sizes[rcensus.ones_id] == math.comb(m, m // 2)
                assert rcensus.rest_sizes() == ref["rest"]
                assert rcensus.rest_sizes() == [
                    2 * math.comb(m, m // 2 - s) for s in range(1, m // 2 + 1)
                ]
            else:
                assert rcensus.n_components == 2
                assert rcensus.sizes[rcensus.zero_id] == ref["rest"][0]
                assert rcensus.rest_sizes() == []

            assert len(tr.build_glued(m)) == tab["glued_vertices"][str(m)]


def test_criterion_3_structural_invariants():
    with criterion(3, "structural invariants (exact)"):
        tab = refdata.tables()
        for m in range(2, 13):
            arcs = tr.reduced_arcs(np.arange(2**m), m)
            assert tr.symmetry_faults(*arcs, m) == [], f"broken laws m={m}"
        for m in range(2, 11):
            # the label search hard-fails unless every component is strongly
            # connected; word 0 labels the zero component
            least = tr.arc_components(2**m, *tr.reduced_arcs(np.arange(2**m), m))
            words = {format(x, f"0{m}b") for x in np.flatnonzero(least == 0)}
            for w in words:
                assert w[::-1] in words and al.rotate(w, 1) in words
        for m in range(2, 13):
            first, last = (al.decode_words(al.column_word_codes(m, x), m) for x in ("abc", "bdf"))
            assert len(first) == len(last) == tab["lucas"][str(m)]


def test_criterion_4_method_equivalence():
    with criterion(4, "method equivalence m <= 7, n <= 30"):
        for m in range(2, 8):
            for p in range(m):
                assert ct.verify_route_agreement(m, p, 30), (m, p)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence (brute force = transfer)"):
        for m in (2, 3, 4):
            for n in range(1, 5):
                spec = GridSpec("tnc", m, 0, n)
                assert count_grid(spec) == ct.count(spec), spec
        for family in ("tg", "kb"):
            for m in (2, 3, 4):
                for p in range(m):
                    for n in (2, 3):
                        spec = GridSpec(family, m, p, n)
                        assert count_grid(spec) == ct.count(spec), spec


def test_criterion_6_symmetry_theorems():
    with criterion(6, "twist symmetries m <= 8, n <= 30"):
        for m in range(2, 9):
            tg = [ct.series(GridSpec("tg", m, p), 30).values for p in range(m)]
            for p in range(1, m):
                assert tg[p] == tg[m - p], ("torus reflection", m, p)
            kb = [ct.series(GridSpec("kb", m, p), 30).values for p in range(m)]
            if m % 2 == 1:
                assert all(v == kb[0] for v in kb), ("klein odd", m)
            else:
                assert all(kb[p] == kb[p % 2] for p in range(m)), ("klein even", m)


def test_criterion_7_recurrence_orders():
    with criterion(7, "recurrence orders and generating functions"):
        tab = refdata.tables()
        got = [rc.order_report("tnc", m) for m in range(2, 9)]
        assert got == [2, 2, 3, 4, 6, 8, 10]
        for m in range(2, 6):
            assert [rc.order_report("tg", m, p) for p in range(m)] == tab["orders_tg"][str(m)], m
        for m in range(2, 7):
            for p in (0, 1):
                assert rc.order_report("kb", m, p) == tab["orders_kb"][str(m)], (m, p)
        known = {
            2: ([0, 1, 3], [1, -2, -3]),
            3: ([0, 1, 1], [1, -3, -1]),
            4: ([0, 1, 3, -4], [1, -6, -3, 4]),
        }
        for m, (num, den) in known.items():
            values = ct.series(GridSpec("tnc", m), 25).values
            gf = rc.to_generating_function(values, rc.minimal_recurrence(values))
            assert (gf.numerator, gf.denominator) == (num, den), m


def test_criterion_8_spectral_estimates():
    with criterion(8, "spectral estimates (1e-9 / 1e-5)"):
        tab = refdata.tables()
        for m in range(2, 9):
            theta = ct.zero_component_spectrum(m).theta
            assert abs(theta - float(tab["theta"][str(m)])) <= 1e-9, m
        for m in range(2, 7):
            amp = amplitude_estimate(m)
            assert abs(amp - float(tab["amplitude_tnc"][str(m)])) <= 1e-5, m
