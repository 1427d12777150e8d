import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcycles import counting, refdata, transfer
from gridcycles.alphabet import rotate
from gridcycles.exactmat import amplitude_estimate, dominant_eigenvalue

N2 = [[1, 2], [2, 1]]  # zero component of width 2
B2 = [[0, 2], [2, 0]]


def _power(m, n):
    # exact n-th power of the reduced matrix, numpy object arithmetic
    a = transfer.build_reduced(m).adj.astype(object)
    return np.linalg.matrix_power(a, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 6))
def test_pow_addition_law(m, i, j):
    # the engine's vectors are columns of A^n: stepping A^i e_r by j more
    # terms gives A^j (A^i e_r), with A^j from numpy
    engine = counting._trace_engine(m)
    assert engine.vectors == [_power(m, 1)[:, r].tolist() for r in engine.starts]
    engine.values("tg", 0, i)
    columns = np.array(engine.vectors, dtype=object).T
    engine.values("tg", 0, i + j)
    assert engine.vectors == (_power(m, j) @ columns).T.tolist()


@pytest.mark.parametrize("m", range(2, 9))
def test_cylinder_vector_is_a_power_column(m):
    # the thin-cylinder engine steps G's rows from column 0: v = G^n e_0
    engine = counting._tnc_engine(m)
    g = transfer.build_glued(m).adj.astype(object)
    power = g
    for n in range(1, 7):
        engine.values("tnc", 0, n)
        assert engine.vectors == [power[:, 0].tolist()]
        power = power @ g


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_short_orbit_reads(m):
    # orbits shorter than m: each orbit's reads sum its members' selected
    # entries (A^n)[sigma(i), i], sigma the torus or Klein source map
    engine = counting._trace_engine(m)
    words = transfer.build_reduced(m).vertices
    short = ["0" * m, "1" * m] + (["01" * (m // 2)] if m % 2 == 0 else [])
    sources = {
        "tg": lambda w, p: rotate(w, p),
        "kb": lambda w, p: rotate(w, p)[::-1],
    }
    for n in range(1, 7):
        engine.values("tg", 0, n)
        power = _power(m, n)
        for word in short:
            j = engine.starts.index(words.index(word))
            orbit = {rotate(word, k) for k in range(m)}
            for family, source in sources.items():
                for p in range(m):
                    expected = sum(
                        power[words.index(source(w, p)), words.index(w)] for w in orbit
                    )
                    reads = engine.reads[family][p][j]
                    assert sum(engine.vectors[j][x] for x in reads) == expected


def test_power_entry_reproduces_cylinder_counts():
    d = transfer.build_reduced(2)
    census = transfer.components(d)
    sub = transfer.component_subdigraph(d, census, census.zero_id)
    a = sub.adj.astype(object)
    assert a.tolist() == N2
    zero = sub.index("00")
    for n in range(1, 12):
        assert np.linalg.matrix_power(a, n)[zero, zero] == counting.count_tnc(2, n)


@pytest.mark.parametrize("m", range(2, 7))
def test_symmetric_powers_stay_symmetric(m):
    # A^n is symmetric: v_r[r'] == v_r'[r] across representatives
    engine = counting._trace_engine(m)
    for terms in range(2, 51):
        engine.values("tg", 0, terms)
        for v, r in zip(engine.vectors, engine.starts):
            for w, s in zip(engine.vectors, engine.starts):
                assert v[s] == w[r]


def test_torus_count_is_sum_of_component_traces():
    # the torus count pairs every vertex with itself at twist 0: the sum of
    # the traces of the component powers
    d = transfer.build_reduced(2)
    census = transfer.components(d)
    blocks = [
        transfer.component_subdigraph(d, census, comp)
        for comp in range(census.n_components)
    ]
    assert sorted(b.adj.tolist() for b in blocks) == sorted([N2, B2])
    for n in range(1, 8):
        total = sum(
            int(np.trace(np.linalg.matrix_power(b.adj.astype(object), n)))
            for b in blocks
        )
        assert total == counting.count_tg(2, 0, n)
    assert counting.count_tg(2, 0, 2) == 18


def test_dominant_eigenvalue_examples():
    assert dominant_eigenvalue(np.array([[4.5]])).theta == 4.5
    s = dominant_eigenvalue(np.array(N2, dtype=float))
    assert abs(s.theta - 3.0) < 1e-11
    assert s.residual <= 1e-12
    d = transfer.build_reduced(4)
    census = transfer.components(d)
    sub = transfer.component_subdigraph(d, census, census.zero_id)
    s4 = dominant_eigenvalue(sub.adj.astype(float), tol=1e-12)
    assert abs(s4.theta - 6.37228132326901) < 1e-9


def test_dominant_eigenvalue_periodic_component():
    # bipartite component: plain power iteration would oscillate
    s = dominant_eigenvalue(np.array(B2, dtype=float))
    assert abs(s.theta - 2.0) < 1e-11


def test_residuals_shrink_after_burn_in():
    d = transfer.build_reduced(5)
    census = transfer.components(d)
    sub = transfer.component_subdigraph(d, census, census.zero_id)
    log: list[float] = []
    dominant_eigenvalue(sub.adj.astype(float), tol=1e-12, residual_log=log)
    burn = len(log) // 4
    tail = log[burn:]
    assert all(b <= a * 1.0001 + 1e-15 for a, b in zip(tail, tail[1:]))


def test_nonconvergence_reported():
    d = transfer.build_reduced(4)
    census = transfer.components(d)
    sub = transfer.component_subdigraph(d, census, census.zero_id)
    with pytest.raises(ArithmeticError):
        dominant_eigenvalue(sub.adj.astype(float), tol=1e-15, max_iter=1)


@pytest.mark.parametrize(
    "m,expected",
    [(2, 0.5), (3, 0.361324950944), (4, 0.206480586011)],
)
def test_amplitude_estimates(m, expected):
    assert abs(amplitude_estimate(m) - expected) <= 1e-6


def test_amplitude_past_the_float_range():
    # counts at m = 8, n = 240 exceed 1e308; the ratio is formed exactly
    expected = float(refdata.tables()["amplitude_tnc"]["8"])
    assert abs(amplitude_estimate(8, n_max=240) - expected) <= 1e-9


@pytest.mark.parametrize("n_max,window", [(3, 5), (0, 5), (5, 0)])
def test_amplitude_rejects_windows_past_the_series(n_max, window):
    # a window longer than the series would divide by theta^n for n <= 0
    with pytest.raises(ValueError):
        amplitude_estimate(3, n_max=n_max, window=window)


@pytest.mark.parametrize("m", range(2, 7))
def test_torus_amplitude_behaviour(m):
    # torus counts scale like theta^n, with coefficient 1 for even widths
    # and 2 for odd widths at desk scale
    theta = counting.zero_component_spectrum(m).theta
    values = counting.series(counting.GridSpec("tg", m, 0), 60).values
    ratio = values[-1] / theta**60
    assert abs(ratio - (1 if m % 2 == 0 else 2)) <= 0.05
