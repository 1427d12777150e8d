import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcycles import counting, refdata, transfer
from gridcycles.counting import _matmul_rows
from gridcycles.exactmat import amplitude_estimate, dominant_eigenvalue

N2 = [[1, 2], [2, 1]]  # zero component of width 2
B2 = [[0, 2], [2, 0]]


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def _matmul(a, b):
    return _matmul_rows(a, list(zip(*b)))


def _matpow(a, n):
    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(n):
        result = _matmul(result, a)
    return result


def test_matmul_rows_examples():
    # the exact product the torus/Klein engine steps with
    eye = [[1, 0], [0, 1]]
    assert _matmul(eye, N2) == N2
    assert _matmul(N2, N2) == [[5, 4], [4, 5]]
    assert _matmul(N2, B2) == [[4, 2], [2, 4]]


@settings(max_examples=60)
@given(small_matrices, st.integers(0, 6), st.integers(0, 6))
def test_pow_addition_law(a, i, j):
    assert _matpow(a, i + j) == _matmul(_matpow(a, i), _matpow(a, j))


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
    engine = counting._ReducedTraceEngine(m)
    for terms in range(2, 51):
        engine.extend(terms)
        for power in engine.powers:
            assert power == [list(col) for col in zip(*power)]


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


def test_amplitude_only_for_cylinders():
    with pytest.raises(ValueError):
        amplitude_estimate(3, family="tg")


@pytest.mark.parametrize("m", range(2, 7))
def test_torus_amplitude_behaviour(m):
    # torus counts scale like theta^n, with coefficient 1 for even widths
    # and 2 for odd widths at desk scale
    theta = counting.zero_component_spectrum(m).theta
    values = counting.series(counting.GridSpec("tg", m, 0), 60).values
    ratio = values[-1] / theta**60
    assert abs(ratio - (1 if m % 2 == 0 else 2)) <= 0.05
