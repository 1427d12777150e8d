import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcycles import counting, refdata, transfer
from gridcycles.alphabet import rotate
from gridcycles.exactmat import amplitude_estimate

N2 = [[1, 2], [2, 1]]  # zero component of width 2
B2 = [[0, 2], [2, 0]]


def _power(m, n):
    # exact n-th power of the reduced matrix, numpy object arithmetic
    a = transfer.build_reduced(m).adj.astype(object)
    return np.linalg.matrix_power(a, n)


def _step_to(engine, n):
    # vector steps only: a request past 2·|U| terms would certify the
    # engine and drop its vectors
    while len(next(iter(engine.series.values()))[0]) < n:
        engine._step()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 6))
def test_pow_addition_law(m, i, j):
    # the engine's vectors are columns of A^n: stepping A^i e_r by j more
    # terms gives A^j (A^i e_r), with A^j from numpy
    engine = counting._trace_engine(m)
    assert engine.vectors == [_power(m, 1)[:, r].tolist() for r in engine.starts]
    _step_to(engine, i)
    columns = np.array(engine.vectors, dtype=object).T
    _step_to(engine, i + j)
    assert engine.vectors == (_power(m, j) @ columns).T.tolist()


@pytest.mark.parametrize("m", range(2, 9))
def test_cylinder_vector_is_a_power_column(m):
    # the thin-cylinder engine keeps G^n e_0 modulo each of its primes, one
    # residue column per prime, and lifts G^n[0, 0] from row 0
    engine = counting._tnc_engine(m)
    g = transfer.build_glued(m).adj.astype(object)
    power = g
    for n in range(1, 7):
        _step_to(engine, n)
        assert len(engine.primes) == engine.residues.shape[1] >= 1
        for p, column in zip(engine.primes, engine.residues.T):
            assert column.astype(np.int64).tolist() == (power[:, 0] % p).tolist()
        assert engine.series["tnc"][0][n - 1] == power[0, 0]
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
        _step_to(engine, terms)
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


@pytest.mark.parametrize("n_max", [0, -1])
def test_amplitude_needs_a_term(n_max):
    # the ratio is read at n = n_max, which must be a length
    with pytest.raises(ValueError):
        amplitude_estimate(3, n_max=n_max)


def test_amplitude_matches_the_tables():
    # one exact ratio at n = 80 against every shipped amplitude
    tab = refdata.tables()["amplitude_tnc"]
    for m in range(2, 15):
        assert abs(amplitude_estimate(m) - float(tab[str(m)])) <= 1e-12 * float(tab[str(m)])


@pytest.mark.parametrize("m", range(2, 7))
def test_torus_amplitude_behaviour(m):
    # torus counts scale like theta^n, with coefficient 1 for even widths
    # and 2 for odd widths at desk scale
    theta = counting.zero_component_spectrum(m).theta
    values = counting.series(counting.GridSpec("tg", m, 0), 60).values
    ratio = values[-1] / theta**60
    assert abs(ratio - (1 if m % 2 == 0 else 2)) <= 0.05
