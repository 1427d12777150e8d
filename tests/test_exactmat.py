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
    # residue steps only: a request past the Gram certificate would certify
    # the engine and drop its residues
    while engine.n < n:
        engine._walk(n)
        engine._record()


def _layout(m):
    # the trace engine's blocks: each component of A that holds a rotation
    # representative (every one does), by least representative, as
    # (members, representatives); the components come from the label
    # search over the arcs, not from the charge classes the engine reads
    labels = transfer.arc_components(1 << m, *transfer.reduced_arcs(np.arange(1 << m), m)).tolist()
    words = [format(x, f"0{m}b") for x in range(1 << m)]
    reps = [x for x, w in enumerate(words) if w == min(rotate(w, k) for k in range(m))]
    order = list(dict.fromkeys(labels[r] for r in reps))
    return [
        ([x for x in range(1 << m) if labels[x] == c], [r for r in reps if labels[r] == c])
        for c in order
    ]


def _vectors(engine, m, layout):
    # A^n e_r as a list over all 2^m words for every representative r,
    # lifted from the residue cubes (every prime of the engine) by its own CRT
    vectors = {}
    for (members, reps), v in zip(layout, engine.residues):
        lifted = engine._lift(v.transpose(1, 0, 2).astype(np.int64).astype(object))
        for j, r in enumerate(reps):
            vectors[r] = [0] * (1 << m)
            for x, value in zip(members, lifted[:, j]):
                vectors[r][x] = value
    return vectors


@pytest.mark.parametrize("m", range(2, 10))
def test_trace_blocks_are_the_census_components(m):
    # each block is A on one census component, every one of which holds a
    # representative, in the order of their least representatives, started
    # at those
    d = transfer.build_reduced(m)
    a = d.adj
    blocks, layout = counting._trace_engine(m).blocks, _layout(m)
    assert len(blocks) == len(layout) == transfer.components(d).n_components
    for (matrix, starts), (members, reps) in zip(blocks, layout):
        assert np.array_equal(matrix, a[np.ix_(members, members)])
        assert starts == [members.index(r) for r in reps]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 6))
def test_pow_addition_law(m, i, j):
    # the engine's residues are columns of A^n: stepping A^i e_r by j more
    # terms gives A^j (A^i e_r), with A^j from numpy
    engine, layout = counting._trace_engine(m), _layout(m)
    _step_to(engine, 1)
    assert _vectors(engine, m, layout) == {
        r: _power(m, 1)[:, r].tolist() for _, reps in layout for r in reps
    }
    _step_to(engine, i)
    columns = _vectors(engine, m, layout)
    _step_to(engine, i + j)
    power = _power(m, j)
    assert _vectors(engine, m, layout) == {
        r: (power @ np.array(v, dtype=object)).tolist() for r, v in columns.items()
    }


@pytest.mark.parametrize("m", range(2, 9))
def test_cylinder_vector_is_a_power_column(m):
    # the thin-cylinder engine keeps G^n e_0 modulo primes[i], as signed
    # residues, at residues[0][:, i, 0], and lifts G^n[0, 0] from row 0
    engine = counting._tnc_engine(m)
    g = transfer.build_glued(m).adj.astype(object)
    power = g
    for n in range(1, 7):
        _step_to(engine, n)
        assert len(engine.primes) == engine.residues[0].shape[1] >= 1
        for p, column in zip(engine.primes, engine.residues[0][:, :, 0].T):
            assert (column.astype(np.int64) % p).tolist() == (power[:, 0] % p).tolist()
        assert engine.series["tnc", 0][n - 1] == power[0, 0]
        power = power @ g


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_short_orbit_reads(m):
    # orbits shorter than m: each orbit's reads sum its members' selected
    # entries (A^n)[sigma(i), i], sigma the torus or Klein source map
    engine, layout = counting._trace_engine(m), _layout(m)
    words = transfer.build_reduced(m).vertices
    short = ["0" * m, "1" * m] + (["01" * (m // 2)] if m % 2 == 0 else [])
    sources = {
        "tg": lambda w, p: rotate(w, p),
        "kb": lambda w, p: rotate(w, p)[::-1],
    }
    for n in range(1, 7):
        _step_to(engine, n)
        power, vectors = _power(m, n), _vectors(engine, m, layout)
        for word in short:
            r = words.index(word)
            b = next(b for b, (_, reps) in enumerate(layout) if r in reps)
            members, j = layout[b][0], layout[b][1].index(r)
            orbit = {rotate(word, k) for k in range(m)}
            for family, source in sources.items():
                for p in range(m):
                    expected = sum(
                        power[words.index(source(w, p)), words.index(w)] for w in orbit
                    )
                    # the read's pairs (row, start r) in the gather of r's block
                    rows, columns, bounds = engine.gathers[b]
                    t = list(engine.series).index((family, p))
                    pairs = slice(bounds[t], bounds[t + 1])
                    got = sum(
                        vectors[r][members[x]]
                        for x, column in zip(rows[pairs].tolist(), columns[pairs].tolist())
                        if column == j
                    )
                    assert got == expected


def test_power_entry_reproduces_cylinder_counts():
    d = transfer.build_reduced(2)
    census = transfer.components(d)
    sub = transfer.component_subdigraph(d, census, census.zero_id)
    a = sub.adj.astype(object)
    assert a.tolist() == N2
    zero = sub.vertices.index("00")
    for n in range(1, 12):
        assert np.linalg.matrix_power(a, n)[zero, zero] == counting.count_tnc(2, n)


@pytest.mark.parametrize("m", range(2, 7))
def test_symmetric_powers_stay_symmetric(m):
    # A^n is symmetric: v_r[r'] == v_r'[r] across representatives
    engine, layout = counting._trace_engine(m), _layout(m)
    for terms in range(2, 51):
        _step_to(engine, terms)
        vectors = _vectors(engine, m, layout)
        for r, v in vectors.items():
            for s, w in vectors.items():
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
