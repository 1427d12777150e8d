import sys
import threading
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcycles import alphabet as al
from gridcycles import counting as ct
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
        ct.count_tnc(tr.FULL_MATRIX_LIMIT + 1, 2, method="full")
    with pytest.raises(tr.ResourceLimitError):
        ct.count_tg(ct.TG_KB_REDUCED_LIMIT + 1, 0, 2)
    for method in ("reduced", "glued"):
        with pytest.raises(tr.ResourceLimitError):
            ct.count_tnc(tr.GLUED_LIMIT + 1, 2, method=method)


def test_engine_builds_do_not_serialise_across_widths(monkeypatch):
    # while one width's build blocks, another width's engine still builds,
    # and a second request for the blocked width waits for that one build
    real = ct._FullWalkEngine
    entered, release = threading.Event(), threading.Event()
    builds = []

    def build(m):
        builds.append(m)
        if m == 3:
            entered.set()
            release.wait(10)
        return real(m)

    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setattr(ct, "_BUILD_LOCKS", {})
    monkeypatch.setattr(ct, "_FullWalkEngine", build)

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
    real = ct._tnc_engine
    builds = []

    def build(m):
        builds.append(m)
        return real(m)

    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setattr(ct, "_BUILD_LOCKS", {})
    monkeypatch.setattr(ct, "_tnc_engine", build)
    got = []
    threads = [
        threading.Thread(target=lambda m=m: got.append(ct._engine("tnc", m)), daemon=True)
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
    assert ct._BUILD_LOCKS == {}


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
def test_trace_route_at_its_limit(family):
    # n = 1, 2 against the dense matrix, by elementwise sums alone:
    # sum_i A[s(i), i] and sum_ij A[s(i), j] A[j, i]
    m = ct.TG_KB_REDUCED_LIMIT
    d = tr.build_reduced(m)
    a = d.adj.astype(np.int64)
    for p in range(m):
        if family == "tg":
            sigma = [d.index(al.rotate(w, p)) for w in d.vertices]
        else:
            sigma = [d.index(al.rotate(w, p)[::-1]) for w in d.vertices]
        expected = [int(a[sigma, range(len(d))].sum()), int((a[sigma] * a.T).sum())]
        assert ct.series(GridSpec(family, m, p), 2).values == expected


def test_cylinder_route_at_its_limit(monkeypatch):
    # n = 1, 2 against the engine's own glued quotient in int64: G[0, 0]
    # and (G G)[0, 0]
    built = []
    real = tr.build_glued

    def build_glued(width):
        built.append(real(width))
        return built[-1]

    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setattr(ct, "_BUILD_LOCKS", {})
    monkeypatch.setattr(tr, "build_glued", build_glued)
    values = ct.series(GridSpec("tnc", tr.GLUED_LIMIT), 2).values
    g = built[0].adj
    assert values == [int(g[0, 0]), int(g[0] @ g[:, 0])]


def test_trace_engine_never_builds_the_dense_matrix(monkeypatch):
    # the trace engine takes its rows from the arcs alone
    monkeypatch.setattr(ct, "_ENGINES", {})
    monkeypatch.setattr(ct, "_BUILD_LOCKS", {})
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
    first, _ = tr.column_sets(m)
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
