import functools
import math
import sys
import threading
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcycles import alphabet as al
from gridcycles import counting as ct
from gridcycles import recurrence as rc
from gridcycles import refdata
from gridcycles import transfer as tr
from gridcycles.counting import GridSpec


# ---------------------------------------------------------------------------
# GridSpec validation
# ---------------------------------------------------------------------------


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec("hex", 3)
    with pytest.raises(ValueError):
        GridSpec("tg", 1)
    with pytest.raises(ValueError):
        GridSpec("tnc", 4, p=2)
    with pytest.raises(ValueError):
        GridSpec("tg", 3, 0, n=0)
    assert GridSpec("tg", 3, p=5).p == 2  # normalized mod m
    assert GridSpec("tnc", 4, p=4).p == 0


def test_series_serialization():
    ser = ct.series(GridSpec("tnc", 2), 3)
    assert ser.to_json_dict() == {
        "family": "tnc",
        "m": 2,
        "p": 0,
        "values": ["1", "5", "13"],
    }
    assert ser.to_bfile_text() == "1 1\n2 5\n3 13\n"
    assert ct.series(GridSpec("tnc", 2), 0).values == []


# ---------------------------------------------------------------------------
# single counts (known values)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,n,expected", [(3, 2, 4), (2, 1, 1), (4, 3, 53)]
)
@pytest.mark.parametrize("method", ["reduced", "full", "glued"])
def test_count_tnc(m, n, expected, method):
    assert ct.count_tnc(m, n, method=method) == expected


@pytest.mark.parametrize(
    "m,p,n,expected", [(2, 0, 2, 18), (3, 1, 1, 8), (4, 2, 2, 90)]
)
@pytest.mark.parametrize("method", ["reduced", "full"])
def test_count_tg(m, p, n, expected, method):
    assert ct.count_tg(m, p, n, method=method) == expected


@pytest.mark.parametrize(
    "m,p,n,expected", [(3, 0, 2, 22), (2, 1, 1, 2), (4, 1, 1, 6)]
)
@pytest.mark.parametrize("method", ["reduced", "full"])
def test_count_kb(m, p, n, expected, method):
    assert ct.count_kb(m, p, n, method=method) == expected


def test_glued_route_is_cylinder_only():
    with pytest.raises(ValueError):
        ct.count_tg(3, 0, 2, method="glued")


def test_route_limits():
    with pytest.raises(tr.ResourceLimitError):
        ct.count_tnc(tr.LIMITS["full"][0] + 1, 2, method="full")
    with pytest.raises(tr.ResourceLimitError):
        ct.count_tg(tr.LIMITS["trace"][0] + 1, 0, 2)
    for method in ("reduced", "glued"):
        with pytest.raises(tr.ResourceLimitError):
            ct.count_tnc(tr.LIMITS["glued"][0] + 1, 2, method=method)


# one request past each row of the limits table: the builder of a matrix
# route, a series of each engine route
_PAST_THE_ROW = {
    "full": lambda m: ct.series(GridSpec("kb", m), 1, method="full"),
    "census": tr.build_full,
    "reduced": tr.build_reduced,
    "glued": lambda m: ct.series(GridSpec("tnc", m), 1),
    "trace": lambda m: ct.series(GridSpec("tg", m, 1), 1),
}


@pytest.mark.parametrize("route", tr.LIMITS)
def test_each_route_refuses_one_past_its_row(route):
    limit, name = tr.LIMITS[route]
    with pytest.raises(tr.ResourceLimitError) as refusal:
        _PAST_THE_ROW[route](limit + 1)
    assert str(refusal.value) == f"{name} limited to m <= {limit}, got {limit + 1}"


# every builder and engine kind, with the row of the limits table it checks
_WIDTH_CHECKS = {
    "build_full": (tr.build_full, "census"),
    "build_full-matrix": (functools.partial(tr.build_full, with_matrix=True), "full"),
    "build_reduced": (tr.build_reduced, "reduced"),
    "build_glued": (tr.build_glued, "glued"),
    **{f"engine-{kind}": (functools.partial(ct._engine, kind), kind) for kind in ct._KINDS},
}


@pytest.mark.parametrize("caller", _WIDTH_CHECKS)
def test_every_builder_and_engine_checks_its_width(caller, monkeypatch):
    monkeypatch.setattr(ct, "_ENGINES", {})
    build, route = _WIDTH_CHECKS[caller]
    with pytest.raises(ValueError) as refusal:
        build(0)
    assert type(refusal.value) is ValueError
    assert str(refusal.value) == "width must be >= 1, got 0"
    limit, name = tr.LIMITS[route]
    with pytest.raises(tr.ResourceLimitError) as refusal:
        build(limit + 1)
    assert str(refusal.value) == f"{name} limited to m <= {limit}, got {limit + 1}"
    assert ct._ENGINES == {}


@pytest.mark.parametrize("kind", sorted(ct._KINDS))
def test_refused_width_leaves_no_engine_slot(kind, monkeypatch):
    # widths are checked before a cache slot is made, which bounds the cache
    monkeypatch.setattr(ct, "_ENGINES", {})
    with pytest.raises(tr.ResourceLimitError):
        ct._engine(kind, tr.LIMITS[kind][0] + 1)
    assert ct._ENGINES == {}


def test_the_trace_row_stays_within_the_symmetry_check():
    # the trace engine runs symmetry_faults at build, on int32 codes that
    # hold widths m <= 15
    assert tr.LIMITS["trace"][0] <= 15


def test_engine_builds_do_not_serialise_across_widths(monkeypatch):
    # while one width's build blocks, another width's engine still builds,
    # and a second request for the blocked width waits for that one build
    real = ct._KINDS["full"]
    entered, release = threading.Event(), threading.Event()
    builds = []

    def build(m):
        builds.append(m)
        if m == 3:
            entered.set()
            release.wait(10)
        return real(m)

    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setitem(ct._KINDS, "full", build)

    def request(m):
        return threading.Thread(target=ct.count_tnc, args=(m, 2, "full"), daemon=True)

    blocked, waiting, other = request(3), request(3), request(4)
    blocked.start()
    try:
        assert entered.wait(5)
        waiting.start()
        other.start()
        other.join(timeout=5)
        assert not other.is_alive()
    finally:
        release.set()
        for t in (blocked, waiting, other):
            if t.ident is not None:
                t.join(timeout=10)
    assert not blocked.is_alive() and not waiting.is_alive()
    assert sorted(builds) == [3, 4]


def test_concurrent_requests_build_each_engine_once(monkeypatch):
    real = ct._KINDS["glued"]
    builds = []

    def build(m):
        builds.append(m)
        return real(m)

    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setitem(ct._KINDS, "glued", build)
    got = []
    threads = [
        threading.Thread(target=lambda m=m: got.append(ct._engine("glued", m)), daemon=True)
        for m in (2, 3, 4) * 4
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(builds) == [2, 3, 4]
    assert len(got) == 12 and len({id(e) for e in got}) == 3
    assert sorted(ct._ENGINES) == [("glued", 2), ("glued", 3), ("glued", 4)]


# ---------------------------------------------------------------------------
# series (known prefixes)
# ---------------------------------------------------------------------------


def test_series_examples():
    assert ct.series(GridSpec("tnc", 2), 5).values == [1, 5, 13, 41, 121]
    assert ct.series(GridSpec("tg", 3, 0), 4).values == [2, 26, 68, 242]
    assert ct.series(GridSpec("kb", 5, 0), 3).values == [18, 146, 1110]


@pytest.mark.parametrize("family,m,p", [("tnc", 5, 0), ("tg", 4, 3), ("kb", 5, 2)])
def test_series_against_reference_data(family, m, p):
    ref = list(refdata.reference_series(family, m, p))
    assert ct.series(GridSpec(family, m, p), 25).values == ref


def test_cross_family_identities():
    tg0 = ct.series(GridSpec("tg", 2, 0), 25).values
    tg1 = ct.series(GridSpec("tg", 2, 1), 25).values
    kb0 = ct.series(GridSpec("kb", 2, 0), 25).values
    kb1 = ct.series(GridSpec("kb", 2, 1), 25).values
    assert tg0 == kb1 and tg1 == kb0


# ---------------------------------------------------------------------------
# route equivalence and structural identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 6))
def test_route_agreement_small(m):
    assert all(ct.verify_route_agreement(m, p, 12) for p in range(m))


def test_route_agreement_reduces_the_twist():
    # p = 5 and p = -1 both name twist 2 at m = 3
    assert ct.verify_route_agreement(3, 5, 4)
    assert ct.verify_route_agreement(3, -1, 4)
    for m in (0, 1):
        with pytest.raises(ValueError):
            ct.verify_route_agreement(m, 0, 4)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["tg", "kb", "tnc"]),
    st.integers(2, 7),
    st.integers(0, 6),
    st.integers(1, 12),
)
def test_reduced_and_full_routes_agree(family, m, p, n):
    spec = GridSpec(family, m, 0 if family == "tnc" else p, n)
    assert ct.count(spec, method="reduced") == ct.count(spec, method="full")


@pytest.mark.parametrize("family", ["tg", "kb"])
def test_trace_route_at_its_limit(family, shared_build):
    # n = 1, 2 against the dense matrix, by elementwise sums alone:
    # sum_i A[s(i), i] and sum_ij A[s(i), j] A[j, i]
    m = tr.LIMITS["trace"][0]
    d = shared_build("build_reduced", m)
    a = d.adj.astype(np.int64)
    index = {w: i for i, w in enumerate(d.vertices)}
    for p in range(m):
        if family == "tg":
            sigma = [index[al.rotate(w, p)] for w in d.vertices]
        else:
            sigma = [index[al.rotate(w, p)[::-1]] for w in d.vertices]
        expected = [int(a[sigma, range(len(d))].sum()), int((a[sigma] * a.T).sum())]
        assert ct.series(GridSpec(family, m, p), 2).values == expected


def test_cylinder_route_at_its_limit(shared_build, monkeypatch):
    # n = 1, 2 against the engine's own glued quotient in int64: G[0, 0]
    # and (G G)[0, 0]
    m = tr.LIMITS["glued"][0]
    glued = shared_build("build_glued", m)
    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setattr(tr, "build_glued", lambda width: glued)
    values = ct.series(GridSpec("tnc", m), 2).values
    g = glued.adj
    assert values == [int(g[0, 0]), int(g[0] @ g[:, 0])]


def test_trace_engine_never_builds_the_dense_matrix(monkeypatch):
    # the trace engine takes its rows from the arcs alone
    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setattr(tr, "build_reduced", None)
    for family in ("tg", "kb"):
        for p in range(5):
            spec = GridSpec(family, 5, p)
            assert ct.series(spec, 6) == ct.series(spec, 6, method="full")


def _walk_counts(m, source, steps):
    """Test-local walk counter on the full word digraph (independent of the
    engines): vector of walk counts from `source` after `steps` arcs."""
    words = al.enumerate_column_words(m)
    by_inlet = defaultdict(list)
    for i, w in enumerate(words):
        by_inlet[al.inlet(w)].append(i)
    vec = {words.index(source): 1}
    for _ in range(steps):
        sums = defaultdict(int)
        for i, v in vec.items():
            sums[al.outlet(words[i])] += v
        vec = {}
        for word, total in sums.items():
            for j in by_inlet[word]:
                vec[j] = total
    return words, vec


@pytest.mark.parametrize("m", range(2, 6))
def test_first_column_identity(m):
    # closed walks over admissible first columns equal the shifted
    # b^m -> b^m walk count
    words = al.enumerate_column_words(m)
    first = al.decode_words(al.column_word_codes(m, "abc"), m)
    for n in range(1, 11):
        total = 0
        for w in first:
            _, vec = _walk_counts(m, w, n)
            total += vec.get(words.index(w), 0)
        _, vec = _walk_counts(m, "b" * m, n + 1)
        assert total == vec.get(words.index("b" * m), 0) == ct.count_tnc(m, n)


@pytest.mark.parametrize("m", range(2, 7))
def test_torus_reflection_symmetry(m):
    series = {p: ct.series(GridSpec("tg", m, p), 15).values for p in range(m)}
    for p in range(1, m):
        assert series[p] == series[m - p]


@pytest.mark.parametrize("m", range(2, 7))
def test_klein_twist_classes(m):
    series = {p: ct.series(GridSpec("kb", m, p), 15).values for p in range(m)}
    if m % 2 == 1:
        assert all(series[p] == series[0] for p in range(m))
    else:
        assert all(series[p] == series[p % 2] for p in range(m))


def test_zero_component_spectrum():
    assert abs(ct.zero_component_spectrum(2).theta - 3.0) < 1e-10
    d = tr.build_reduced(4)
    spectra = ct.component_spectra(d, tr.components(d))
    assert len(spectra) == 3
    assert max(s.theta for s in spectra) == pytest.approx(6.372281323269014, abs=1e-9)


@pytest.mark.parametrize("m", range(2, 13))
def test_component_spectra_match_dense_eigensolves(m):
    # reference: the greatest eigenvalue of each dense symmetric component,
    # periodic ones (m = 2 has [[0, 2], [2, 0]]) included
    d = tr.build_reduced(m)
    census = tr.components(d)
    spectra = ct.component_spectra(d, census)
    assert len(spectra) == census.n_components
    for comp, s in enumerate(spectra):
        a = tr.component_subdigraph(d, census, comp).adj.astype(float)
        expected = np.linalg.eigvalsh(a)[-1]
        assert abs(s.theta - expected) <= 1e-12 * expected


def test_spectrum_at_the_glued_limit(shared_build, monkeypatch):
    # the Perron root lies between the least and greatest row sums of G
    m = tr.LIMITS["glued"][0]
    glued = shared_build("build_glued", m)
    monkeypatch.setattr(tr, "build_glued", lambda width: glued)
    rows = glued.adj.sum(axis=1)
    assert rows.min() <= ct.zero_component_spectrum(m).theta <= rows.max()


@pytest.mark.parametrize("m", range(2, 15))
def test_glued_sizes_and_theta_match_tables(m, monkeypatch):
    # the spectrum builds one glued quotient and no dense reduced digraph;
    # its size and Perron root are checked against the shipped tables
    built = []
    real = tr.build_glued

    def build_glued(width):
        built.append(real(width))
        return built[-1]

    monkeypatch.setattr(tr, "build_glued", build_glued)
    monkeypatch.setattr(tr, "build_reduced", None)
    theta = ct.zero_component_spectrum(m).theta
    tab = refdata.tables()
    assert [len(g) for g in built] == [tab["glued_vertices"][str(m)]]
    assert abs(theta - float(tab["theta"][str(m)])) <= 1e-12


# ---------------------------------------------------------------------------
# certified recurrences in the production engines
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _object_matrix(family, m):
    d = tr.build_glued(m) if family == "tnc" else tr.build_reduced(m)
    return d.adj.astype(object), d.vertices


def _power_count(family, m, p, n):
    # G^n[0, 0] for the cylinder; for the torus (Klein bottle) the sum over
    # words w of A^n[source(w), w], source the (reversed) rotation by p
    a, words = _object_matrix(family, m)
    power = np.linalg.matrix_power(a, n)
    if family == "tnc":
        return power[0, 0]
    index = {w: i for i, w in enumerate(words)}
    flip = (lambda w: w[::-1]) if family == "kb" else (lambda w: w)
    return sum(power[index[flip(al.rotate(w, p))], i] for i, w in enumerate(words))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["tnc", "tg", "kb"]).flatmap(
        lambda family: st.integers(2, 5).flatmap(
            lambda m: st.tuples(
                st.just(family),
                st.just(m),
                st.just(0) if family == "tnc" else st.integers(0, m - 1),
                st.integers(1, 200),
            )
        )
    )
)
def test_count_on_a_fresh_engine_matches_full_route_and_powers(case):
    # the fresh engine steps its residues until its Gram series (order L)
    # certifies at 2L + 2 terms, or to the cap 2·|U|; a count past those
    # reads the one term off the recurrence and caches nothing past them
    family, m, p, n = case
    engine = ct._tnc_engine(m) if family == "tnc" else ct._trace_engine(m)
    value = engine.term(family, p, n)
    assert value == ct.count(GridSpec(family, m, p, n), method="full")
    assert value == _power_count(family, m, p, n)
    gram = rc.order_report("tnc" if family == "tnc" else "tg", m, 0)
    stepped = min(2 * gram + 2, 2 * engine.size)
    assert len(engine.series[family, p]) == min(n, stepped)
    assert (engine.recurrences is not None) == (n >= stepped)
    assert (engine.residues is None) == (n >= stepped)


# numerator and denominator of the thin-cylinder generating functions
TNC_CLOSED_FORMS = {
    2: ([0, 1, 3], [1, -2, -3]),
    3: ([0, 1, 1], [1, -3, -1]),
    4: ([0, 1, 3, -4], [1, -6, -3, 4]),
}


def _closed_form_term(num, den, n):
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        acc = num[k] if k < len(num) else 0
        coeffs[k] = acc - sum(den[j] * coeffs[k - j] for j in range(1, min(k, len(den) - 1) + 1))
    return coeffs[n]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_long_count_reads_the_recurrence(m, monkeypatch):
    monkeypatch.setattr(ct, "_ENGINES", {})
    assert ct.count_tnc(m, 5000) == _closed_form_term(*TNC_CLOSED_FORMS[m], 5000)
    engine = ct._ENGINES["glued", m][1]
    assert len(engine.series["tnc", 0]) <= 2 * engine.size
    assert engine.blocks is None and engine.residues is None
    # the series goes on from the recurrence and agrees with the count
    assert ct.series(GridSpec("tnc", m), 300).values[-1] == ct.count_tnc(m, 300)


def test_certification_drops_vectors_and_keeps_the_series(monkeypatch):
    # tg(n, 0) has order 8 at m = 4: the engine certifies at its 18th term
    monkeypatch.setattr(ct, "_ENGINES", {})
    before = {p: ct.series(GridSpec("kb", 4, p), 17).values for p in range(4)}
    engine = ct._ENGINES["trace", 4][1]
    assert engine.size == 16 and engine.recurrences is None and engine.residues is not None
    after = {p: ct.series(GridSpec("kb", 4, p), 80).values for p in range(4)}
    assert engine.residues is None and engine.recurrences is not None
    for p in range(4):
        assert after[p][:17] == before[p]
        assert after[p] == ct.series(GridSpec("kb", 4, p), 80, method="full").values


@pytest.mark.parametrize(
    "family,m", [("tnc", m) for m in range(2, 14)] + [("tg", m) for m in range(2, 8)]
)
def test_engine_steps_to_the_gram_certificate(family, m):
    # 2L + 2 stepped terms certify the Gram series of order L; 2·|U| caps
    engine = ct._tnc_engine(m) if family == "tnc" else ct._trace_engine(m)
    order = engine.recurrence(family, 0).order
    assert len(engine.series[family, 0]) == min(2 * order + 2, 2 * engine.size)
    assert engine.residues is None


@pytest.mark.parametrize("family,m,stepped", [("tnc", 11, 66), ("tg", 6, 54)])
def test_residue_columns_grow_without_restepping(family, m, stepped, monkeypatch):
    # one term at a time with a first horizon of at most 16 terms, a fresh
    # engine adds primes to its residue cubes several times on the way to its
    # certified terms; every stepped term is G^n[0, 0] (tr(A^n)) and every
    # slice residues[b][:, i] is a signed residue of M_b^n e_s mod primes[i]
    monkeypatch.setattr(ct, "_FIRST_HORIZON", 16)
    engine = ct._tnc_engine(m) if family == "tnc" else ct._trace_engine(m)
    a = (tr.build_glued(m) if family == "tnc" else tr.build_reduced(m)).adj.astype(object)
    blocks = [(matrix.astype(np.int64).astype(object), starts) for matrix, starts in engine.blocks]
    vectors = [matrix[:, starts] for matrix, starts in blocks]  # M_b^n e_s, one column per start
    count = (lambda power: power[0, 0]) if family == "tnc" else np.trace
    power, widths = a, set()
    for n in range(1, stepped):
        assert engine.values(family, 0, n)[-1] == count(power)
        for v, residues in zip(vectors, engine.residues):
            widths.add(residues.shape[1])
            for i, p in enumerate(engine.primes):
                signed = residues[:, i].astype(np.int64)
                assert (signed % p).tolist() == (v % p).tolist()
                assert (np.abs(signed) < p).all()
        vectors = [matrix @ v for (matrix, _), v in zip(blocks, vectors)]
        power = power @ a
    assert engine.values(family, 0, stepped)[-1] == count(power)
    assert engine.recurrences is not None and engine.residues is None
    assert len(widths) >= 3


@pytest.mark.parametrize("family,m", [("tnc", 13), ("tg", 9)])
def test_first_horizon_follows_the_first_request(family, m):
    # asked for 1 and then 4 terms, a fresh engine holds the primes whose
    # product first exceeds the bound of its 4th term, and no more
    engine = ct._tnc_engine(m) if family == "tnc" else ct._trace_engine(m)
    engine.values(family, 0, 1)
    engine.values(family, 0, 4)
    bound = engine.rowmax**4 * (1 if family == "tnc" else engine.weight)
    assert engine.products[-2] <= bound < engine.products[-1]


def test_gathered_reads_match_exact_sums(monkeypatch):
    # a walk of two blocks whose gathers hold every layout at once: one
    # series spans both blocks, and block 0 has empty segments at the
    # start, the middle and the end of its gather; 120 terms at rowmax 5
    # need several growths of the primes
    grows, grow = [], ct._ResidueWalk._grow

    def counted(walk, horizon):
        old = len(walk.primes)
        grow(walk, horizon)
        grows.append(len(walk.primes) - old)

    monkeypatch.setattr(ct._ResidueWalk, "_grow", counted)
    m0 = [[1, 2, 0], [1, 1, 1], [0, 3, 2]]
    m1 = [[2, 1], [1, 3]]
    blocks = [(np.array(m0, dtype=np.float64), [0, 2]), (np.array(m1, dtype=np.float64), [1])]
    # (block, rows, columns) parts: the count sums M_b^n[rows[i], starts[columns[i]]]
    pairs = {
        ("a", 0): [(1, [0, 1], [0, 0])],
        ("a", 1): [(0, [2, 0, 2], [1, 0, 1]), (1, [1], [0])],
        ("a", 2): [(1, [1, 1], [0, 0])],
        ("a", 3): [(0, [1], [0])],
        ("a", 4): [(0, [0, 1, 2], [1, 1, 1])],
        ("a", 5): [(1, [0], [0])],
    }
    reads = {
        key: [(b, np.array(rows), np.array(columns)) for b, rows, columns in parts]
        for key, parts in pairs.items()
    }
    walk = ct._ResidueWalk(blocks, reads)
    assert walk.gathers[0][2].tolist() == [0, 0, 3, 3, 4, 7, 7]
    terms = 120
    walk.values("a", 5, terms)
    assert grows[0] and sum(1 for added in grows[1:] if added) >= 2
    matrices = [np.array(m0, dtype=object), np.array(m1, dtype=object)]
    # M_b^n e_s, one column per start, from n = 0
    vectors = [np.eye(len(a), dtype=object)[:, starts] for a, (_, starts) in zip(matrices, blocks)]
    for n in range(1, terms + 1):
        vectors = [a @ v for a, v in zip(matrices, vectors)]
        for key, parts in pairs.items():
            expected = sum(
                vectors[b][x, j] for b, rows, columns in parts for x, j in zip(rows, columns)
            )
            assert walk.series[key][n - 1] == expected


def test_walk_refuses_gathers_whose_running_sums_overflow(monkeypatch):
    # with the prime at 2^53, two series of 600 pairs each stay below 2^63
    # (600 < 2^10), but their 1200 pairs in one block's running sum do not
    monkeypatch.setattr(ct, "_prime", lambda i: 1 << 53)
    blocks = [(np.ones((1, 1)), [0])]
    read = [(0, np.zeros(600, dtype=np.int64), np.zeros(600, dtype=np.int64))]
    assert ct._ResidueWalk(blocks, {("a", 0): read}).weight == 600
    with pytest.raises(AssertionError, match="block pairs 1200"):
        ct._ResidueWalk(blocks, {("a", 0): read, ("a", 1): read})


def test_prime_search_skips_only_even_numbers(monkeypatch):
    # the search tests odd candidates alone and finds what a scan of every
    # number down from the limit finds
    plain, q = [], ct._PRIME_LIMIT
    while len(plain) < 40:
        if ct._is_prime(q):
            plain.append(q)
        q -= 1
    monkeypatch.setattr(ct, "_PRIMES", [])
    assert [ct._prime(i) for i in range(40)] == plain


def test_residue_primes_are_prime():
    # Miller–Rabin agrees with a sieve, refuses strong pseudoprimes to the
    # first four and the first nine prime bases, and the engine's primes
    # descend from the limit
    sieve = np.ones(20000, dtype=bool)
    sieve[:2] = False
    for i in range(2, 142):
        sieve[i * i :: i] = False
    assert [n for n in range(20000) if ct._is_prime(n)] == np.flatnonzero(sieve).tolist()
    assert not ct._is_prime(3215031751) and not ct._is_prime(3825123056546413051)
    primes = [ct._prime(i) for i in range(8)]
    assert all(map(ct._is_prime, primes)) and primes == sorted(primes, reverse=True)
    assert primes[0] <= ct._PRIME_LIMIT and 5778 * primes[0] <= 1 << 53


def test_prime_limit_follows_the_widest_engine_row():
    # Lucas(m) counts the first-column words; at the shipped table the widest
    # engine row is glued m = 18, Lucas(18) = 5778
    assert [ct._lucas(w) for w in range(1, 19)] == [
        len(al.decode_words(al.column_word_codes(w, "abc"), w)) for w in range(1, 19)
    ]
    widest = max(tr.LIMITS[kind][0] for kind in ct._KINDS)
    assert ct._PRIME_LIMIT == (1 << 53) // ct._lucas(widest)
    assert ct._PRIME_LIMIT == (1 << 53) // 5778  # the shipped table: glued m = 18


def test_reduction_is_exact_next_to_multiples():
    # for the greatest and the least of the first 256 primes, every w of
    # either sign at 0, k·p and k·p ± 1 for 0 < k < rowmax = Lucas(18), next
    # to the halves k·p + (p ± 1)/2 where rint rounds either way, and at
    # rowmax·p - 1 reduces to a w - q·p with |w - q·p| <= p/2 + 2 < p
    for p in (ct._prime(0), ct._prime(255)):
        k = np.arange(1, 5778, dtype=np.int64)
        near = [k * p + d for d in (-1, 0, 1, (p - 1) // 2, (p + 1) // 2)]
        w = np.concatenate([[0, 5778 * p - 1], *near])
        w = np.concatenate([w, -w])
        assert np.abs(w).max() < 1 << 53
        modulus = np.array([p], dtype=np.float64)
        r = ct._reduce(w.astype(np.float64), modulus, 1 / modulus).astype(np.int64)
        assert ((r - w) % p == 0).all()
        assert (np.abs(r) <= p // 2 + 2).all()
        assert (r < 0).any() and (r > 0).any()


def test_mulmod_is_exact_next_to_multiples():
    # a·b ≡ d (mod q) for d in -2..2, 300 random a of either sign, a = -(q - 1)
    # and 24 engine primes q, gives Python's a·b % q, although
    # floor(a·b·(1/q)) in float64 misses the quotient by one both ways for
    # some of these products
    rng = np.random.default_rng(5)
    q = np.array([ct._prime(i) for i in range(24)], dtype=np.int64)[None, :, None]
    a = rng.integers(1, q[..., 0], size=(300, 24))
    a = np.repeat(np.concatenate([a, -a, 1 - q[..., 0]])[..., None], 5, axis=2)
    inverses = [[pow(int(x), -1, int(p)) for x, p in zip(row, q[0, :, 0])] for row in a[..., 0]]
    b = np.array(inverses)[..., None] * np.arange(-2, 3) % q
    quotient = np.floor(a.astype(np.float64) * b * (1 / q)).astype(np.int64)
    naive = a * b - quotient * q
    assert (naive < 0).any() and (naive >= q).any()
    exact = (a.astype(object) * b % q.astype(object)).astype(np.int64)
    assert np.array_equal(ct._mulmod(a, b, q), exact)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_base_extension_matches_python_residues(data):
    # any split of engine primes into old and new ones extends every
    # 0 <= x < M/2, M the product of the old primes: the ends, random x,
    # and x below 2^(bits(M) - 100), where x/M is so small that the float
    # sum of the CRT quotient lands just below an integer; the residues of x
    # modulo p are taken in [0, p) and, as the walk keeps them, signed: each
    # r ≡ x drawn from (-p/2 - 2, p/2 + 2]
    indices = data.draw(st.lists(st.integers(0, 47), min_size=2, max_size=24, unique=True))
    split = data.draw(st.integers(1, len(indices) - 1))
    primes = [ct._prime(i) for i in indices]
    old, new = primes[:split], primes[split:]
    half = math.prod(old) // 2
    xs = [0, half - 1, half] + data.draw(st.lists(st.integers(0, half), min_size=1, max_size=8))
    if half.bit_length() >= 100:
        tiny = st.integers(0, (1 << (half.bit_length() - 99)) - 1)
        xs += data.draw(st.lists(tiny, min_size=1, max_size=8))
    residues = np.array([[x % p for p in old] for x in xs], dtype=np.int64)
    expected = [[x % q for q in new] for x in xs]
    assert ct._base_extension(old, new)(residues).tolist() == expected
    p = np.array(old, dtype=np.int64)
    lower = data.draw(st.lists(st.booleans(), min_size=residues.size, max_size=residues.size))
    lower = np.reshape(lower, residues.shape) & (residues - p >= -(p // 2) - 2)
    signed = np.where(lower | (residues > p // 2 + 2), residues - p, residues)
    assert ct._base_extension(old, new)(signed).tolist() == expected


def test_base_extension_at_many_primes():
    # 160 old primes, about the most a growth of tg m = 10 holds
    primes = [ct._prime(i) for i in range(168)]
    old, new = primes[:160], primes[160:]
    half = math.prod(old) // 2
    rng = np.random.default_rng(7)
    xs = [0, half, half - 1] + [int(rng.integers(1 << 62)) << e for e in range(0, 6400, 97)]
    residues = np.array([[x % p for p in old] for x in xs], dtype=np.int64)
    assert ct._base_extension(old, new)(residues).tolist() == [[x % q for q in new] for x in xs]


def test_base_extension_refuses_inexact_bounds():
    # 2048 old primes let a column of limb products reach 2^53, and a prime
    # of 2^41 or more a limb 2^21; both are refused before any arithmetic,
    # also when a walk grows onto such primes
    primes = [ct._prime(i) for i in range(3)]
    with pytest.raises(AssertionError, match="from 2048 primes"):
        ct._base_extension(primes[:1] * 2048, primes[1:])
    big = [n for n in range((1 << 41) + 1, (1 << 41) + 400, 2) if ct._is_prime(n)][:3]
    with pytest.raises(AssertionError, match=f"greatest prime {big[0]}"):
        ct._base_extension(primes[:2], big[:1])
    assert ct._base_extension(primes[:2], primes[2:])
    # rowmax 2: the first horizon of 64 terms takes two primes, the third
    # comes at the growth to n = 100 and is extended from the first two
    walk = ct._ResidueWalk([(np.full((1, 1), 2.0), [0])], {("a", 0): [(0, [0], [0])]})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ct, "_prime", big.__getitem__)
        with pytest.raises(AssertionError, match="from 2 primes"):
            walk.values("a", 0, 100)
    assert walk.series["a", 0] == [2**n for n in range(1, 81)]


def test_growth_keeps_the_entries_below_half_the_old_product(monkeypatch):
    # on small primes, 37 alone exceeds 2^5, the largest entry of a first
    # horizon of 5 terms at rowmax 2, but not twice it, and the entry
    # 2^5 = 32 is not below 37/2; a horizon takes primes whose product
    # exceeds twice its bound, so each growth extends entries below M/2
    monkeypatch.setattr(ct, "_prime", [37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79].__getitem__)
    walk = ct._ResidueWalk([(np.full((1, 1), 2.0), [0])], {("a", 0): [(0, [0], [0])]})
    walk.values("a", 0, 5)
    assert walk.primes == [37, 41]
    assert walk.values("a", 0, 40) == [2**n for n in range(1, 41)]


@pytest.mark.parametrize("chunk", [1, 300])
def test_growth_chunks_extend_the_same_residues(chunk, monkeypatch):
    # chunks of one row, or of several rows, of a block extend the same
    # residues as one chunk for the whole block
    monkeypatch.setattr(ct, "_FIRST_HORIZON", 8)
    whole = ct._trace_engine(6)
    whole.values("tg", 0, 40)
    monkeypatch.setattr(ct, "_CHUNK", chunk)
    chunked = ct._trace_engine(6)
    assert chunked.values("tg", 0, 40) == whole.values("tg", 0, 40)
    assert len(chunked.blocks) > 1 and len(chunked.primes) > 2
    for a, b in zip(chunked.residues, whole.residues):
        assert np.array_equal(a, b)


def test_certified_engine_extends_only_the_requested_series():
    # past certification at 54 terms, asking for 120 terms of tg(n, 0)
    # extends that series alone; kb(n, 1) goes on from its own recurrence
    # when it is asked for
    engine = ct._trace_engine(6)
    engine.recurrence("tg", 0)
    stepped = len(engine.series["kb", 1])
    assert stepped == 54
    engine.values("tg", 0, 120)
    assert len(engine.series["tg", 0]) == 120 and len(engine.series["kb", 1]) == stepped
    assert engine.values("kb", 1, 120) == ct._trace_engine(6).values("kb", 1, 120)


def test_miller_rabin_bases_follow_the_size():
    # six bases below ψ6 and twelve from it: the least strong pseudoprimes
    # to the first five and to the first six prime bases are both refused
    assert not ct._is_prime(2152302898747) and not ct._is_prime(3474749660383)
    assert ct._is_prime(3474749660401) and ct._prime(0) < ct._PSI6


@pytest.mark.parametrize("m", range(2, 13))
def test_residue_bound_is_the_first_column_count(m):
    # the greatest row sum of G, whose powers bound the entries of G^n e_0,
    # is the number of first-column words, Lucas(m)
    rowmax = int(tr.build_glued(m).adj.sum(axis=1).max())
    first = al.decode_words(al.column_word_codes(m, "abc"), m)
    assert rowmax == len(first) == ct._tnc_engine(m).rowmax


def test_engine_refuses_a_non_symmetrisable_quotient(monkeypatch):
    # one arc dropped from each batch of reduced arcs breaks D·G = Gᵀ·D
    real = tr.reduced_arcs
    monkeypatch.setattr(tr, "reduced_arcs", lambda inlets, m: tuple(a[1:] for a in real(inlets, m)))
    with pytest.raises(AssertionError, match="not symmetric"):
        tr.build_glued(4)


def test_trace_engine_refuses_a_component_without_a_start(monkeypatch):
    # each word its own charge class, and self-loops, which keep every law
    # and every charge: the words that are not the least of their rotation
    # orbit make blocks with no start
    monkeypatch.setattr(tr, "charge", lambda words, m: words)
    monkeypatch.setattr(tr, "reduced_arcs", lambda inlets, m: (inlets, inlets))
    with pytest.raises(AssertionError, match="holds no start"):
        ct._trace_engine(4)


def test_builders_refuse_an_arc_that_changes_the_charge(monkeypatch):
    # a charge that splits the zero component: some of its arcs leave the
    # class, and neither the glued quotient nor the trace blocks take it
    monkeypatch.setattr(tr, "charge", lambda words, m: words & 1)
    with pytest.raises(AssertionError, match="leaves the charge class"):
        tr.build_glued(4)
    with pytest.raises(AssertionError, match="changes the charge"):
        ct._trace_engine(4)


def test_engine_refuses_an_asymmetric_reduced_digraph(monkeypatch):
    # one arc dropped from the reduced digraph breaks A = Aᵀ
    real = tr.reduced_arcs
    monkeypatch.setattr(tr, "reduced_arcs", lambda inlets, m: tuple(a[1:] for a in real(inlets, m)))
    with pytest.raises(AssertionError, match="transpose"):
        ct._trace_engine(4)


@pytest.mark.parametrize("m", range(3, 12))
def test_engine_refuses_a_reduced_digraph_that_breaks_rotation(monkeypatch, m):
    ct._trace_engine(m)  # the true reduced digraph passes both checks
    # one arc u -> w dropped with its reverse w -> u keeps A = Aᵀ; with
    # u = 0..01, not fixed by the rotation R, and w != R·u, the rotated
    # pair R·u -> R·w keeps its arcs (at m = 2 every arc out of 01 goes
    # to R·01 = 10, so no such pair exists)
    real = tr.reduced_arcs

    def dropped(inlets, m):
        src, outlets = real(inlets, m)
        u = 1
        w = outlets[(src == u) & (outlets != tr.rotate_words(u, 1, m))][0]
        keep = np.ones(len(src), dtype=bool)
        for a, b in ((u, w), (w, u)):
            keep[np.flatnonzero((src == a) & (outlets == b))[0]] = False
        return src[keep], outlets[keep]

    monkeypatch.setattr(tr, "reduced_arcs", dropped)
    with pytest.raises(AssertionError, match="rotation"):
        ct._trace_engine(m)


def test_full_route_refuses_images_not_read_off_the_outlet(monkeypatch):
    # the vertical reflection swaps inlet and outlet, so the outlet of a
    # word's image is no function of the word's outlet class
    vertical = np.array([al.LETTER_IDS.index(al.vertical_convert(x)) for x in al.LETTER_IDS])
    monkeypatch.setattr(al, "_H_CODES", vertical)
    with pytest.raises(AssertionError, match="not a function of the outlet"):
        ct._full_engine(3)


@pytest.mark.parametrize("m,size", [(2, 10), (3, 26), (4, 82)])
def test_full_route_matches_word_digraph_powers(m, size):
    # powers of the word adjacency M[u, v] = [outlet(u) == inlet(v)] in
    # object dtype, free of both the outlet classes and the residues
    words = al.enumerate_column_words(m)
    assert len(words) == size
    index = {w: i for i, w in enumerate(words)}
    inlets = [al.inlet(v) for v in words]
    adj = np.array([[int(al.outlet(u) == i) for i in inlets] for u in words], dtype=object)
    powers = [adj]  # powers[k] = M^(k + 1)
    for _ in range(10):
        powers.append(powers[-1].dot(adj))
    b = index["b" * m]
    assert ct.series(GridSpec("tnc", m), 10, method="full").values == [
        powers[n][b, b] for n in range(1, 11)
    ]
    for p in range(m):
        images = {
            "tg": [index[al.rotate(y, p)] for y in words],
            "kb": [index[al.horizontal_convert(al.rotate(y, p))] for y in words],
        }
        for family, rows in images.items():
            expected = [sum(powers[n - 1][rows, range(size)]) for n in range(1, 11)]
            assert ct.series(GridSpec(family, m, p), 10, method="full").values == expected


def test_full_route_never_reads_a_recurrence():
    spec = GridSpec("tnc", 3, 0, 40)
    assert ct.count(spec, method="full") == ct.count(spec)
    engine = ct._engine("full", 3)
    assert not hasattr(engine, "recurrences")
    assert len(engine.series["tnc", 0]) >= 40
