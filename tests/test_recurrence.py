import json
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given, settings, strategies as st

from gridcycles import counting as ct
from gridcycles import recurrence as rc
from gridcycles import refdata
from gridcycles.counting import GridSpec


def tnc_values(m, terms=25):
    return ct.series(GridSpec("tnc", m), terms).values


def test_minimal_recurrence_examples():
    r2 = rc.minimal_recurrence(tnc_values(2))
    assert (r2.order, r2.coeffs) == (2, [2, 3])
    r3 = rc.minimal_recurrence(tnc_values(3))
    assert (r3.order, r3.coeffs) == (2, [3, 1])
    r1 = rc.minimal_recurrence([1] * 10)
    assert (r1.order, r1.coeffs) == (1, [1])


def test_fitted_coefficients_are_ints():
    for m in (2, 4, 6):
        rec = rc.minimal_recurrence(tnc_values(m, terms=40))
        assert all(type(c) is int for c in rec.coeffs), m


def test_too_short_is_reported_not_guessed():
    with pytest.raises(rc.SeriesTooShort):
        rc.minimal_recurrence(tnc_values(4, terms=7))
    with pytest.raises(rc.SeriesTooShort):
        rc.minimal_recurrence([])


def test_non_integral_fit_is_too_short():
    # 64·(3/2)^(n-1) fits f(n) = 3/2 f(n-1) on enough terms for order 1, but an
    # integer series' minimal recurrence has integer coefficients
    with pytest.raises(rc.SeriesTooShort, match="non-integral"):
        rc.minimal_recurrence([64, 96, 144, 216, 324, 486, 729])


@settings(max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            st.lists(st.integers(-5, 5), min_size=d, max_size=d),
        )
    )
)
def test_fitted_recurrence_regenerates_input(case):
    coeffs, init = case
    d = len(coeffs)
    seq = list(init)
    for i in range(d, 2 * d + 8):
        seq.append(sum(c * seq[i - 1 - k] for k, c in enumerate(coeffs)))
    rec = rc.minimal_recurrence(seq)
    assert rec.order <= d
    regen = seq[: rec.order]
    for i in range(rec.order, len(seq)):
        regen.append(sum(c * regen[i - 1 - k] for k, c in enumerate(rec.coeffs)))
    assert regen == seq


@pytest.mark.parametrize(
    "m,num,den",
    [
        (2, [0, 1, 3], [1, -2, -3]),
        (3, [0, 1, 1], [1, -3, -1]),
        (4, [0, 1, 3, -4], [1, -6, -3, 4]),
    ],
)
def test_generating_functions_match_known_forms(m, num, den):
    values = tnc_values(m)
    gf = rc.to_generating_function(values, rc.minimal_recurrence(values))
    assert gf.numerator == num
    assert gf.denominator == den


def test_expand_examples():
    assert rc.expand(rc.RationalGF([0, 1, 3], [1, -2, -3]), 5) == [1, 5, 13, 41, 121]
    assert rc.expand(rc.RationalGF([0, 1], [1, -1]), 3) == [1, 1, 1]
    with pytest.raises(ValueError):
        rc.expand(rc.RationalGF([0, 1], [0, 1]), 3)
    with pytest.raises(ValueError):
        rc.expand(rc.RationalGF([1], [1, -1]), 3)  # constant term present
    with pytest.raises(ValueError):
        rc.expand(rc.RationalGF([0, 1], [2, -1]), 3)  # denominator constant not 1


@pytest.mark.parametrize("family,m,plist", [("tnc", 6, [0]), ("tg", 4, [0, 1, 2, 3]), ("kb", 5, [0, 1])])
def test_expand_round_trip(family, m, plist):
    for p in plist:
        values = ct.series(GridSpec(family, m, p), 40).values
        gf = rc.to_generating_function(values, rc.minimal_recurrence(values))
        assert rc.expand(gf, len(values)) == values


def test_gf_rejects_inconsistent_recurrence():
    rec = rc.Recurrence(1, [2])
    with pytest.raises(ValueError):
        rc.to_generating_function([1, 2, 5, 14], rec)


@pytest.mark.parametrize(
    "family,m,p,expected",
    [
        ("tnc", 6, 0, 6),
        ("tnc", 8, 0, 10),
        ("tg", 4, 2, 7),
        ("tg", 5, 3, 10),
        ("kb", 6, 0, 17),
        ("kb", 5, 1, 4),
    ],
)
def test_order_report(family, m, p, expected):
    assert rc.order_report(family, m, p) == expected


def test_recurrence_serialization():
    rec = rc.minimal_recurrence(tnc_values(2))
    assert (rec.order, rec.coeffs) == (2, [2, 3])
    gf = rc.to_generating_function(tnc_values(2), rec)
    assert (gf.numerator, gf.denominator) == ([0, 1, 3], [1, -2, -3])


# ---------------------------------------------------------------------------
# modular Berlekamp–Massey and the certificate
# ---------------------------------------------------------------------------


def _generated(coeffs, init, length):
    seq = list(init)
    while len(seq) < length:
        seq.append(sum(c * seq[-1 - k] for k, c in enumerate(coeffs)))
    return seq


recurrences = st.integers(1, 5).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(-4, 4), min_size=d, max_size=d),
        st.lists(st.integers(-6, 6), min_size=d, max_size=d),
    )
)


def _fraction_bm(seq: list[Fraction]) -> list[Fraction]:
    """Reference Berlekamp–Massey over the rationals: connection
    coefficients c_1..c_L of the shortest LFSR generating the whole
    sequence, seq[i] = sum_k c_k * seq[i-k] for i >= L."""
    cur: list[Fraction] = []  # c_1..c_L
    last: list[Fraction] = []  # cur as of the last length change
    fail_idx = 0
    fail_delta = Fraction(0)
    for i, s in enumerate(seq):
        delta = s - sum(c * seq[i - 1 - k] for k, c in enumerate(cur))
        if delta == 0:
            continue
        if not cur:
            cur = [Fraction(0)] * (i + 1)
            fail_idx, fail_delta = i, delta
            continue
        factor = delta / fail_delta
        fix = [Fraction(0)] * (i - fail_idx - 1) + [factor] + [-factor * c for c in last]
        if len(fix) < len(cur):
            fix += [Fraction(0)] * (len(cur) - len(fix))
        grows = i - fail_idx + len(last) >= len(cur)
        if grows:
            last, fail_idx, fail_delta = list(cur), i, delta
        cur = [a + b for a, b in zip(fix, cur + [Fraction(0)] * (len(fix) - len(cur)))]
    return cur


def test_fit_primes_are_distinct_primes():
    # Miller–Rabin with the first twelve prime bases decides primality far
    # above 2^62
    assert all(map(ct._is_prime, rc.PRIMES)) and len(set(rc.PRIMES)) == len(rc.PRIMES)


@settings(max_examples=40)
@given(recurrences, st.sampled_from(rc.PRIMES[:3]))
def test_modular_bm_agrees_with_fraction_bm(case, p):
    # fed one term at a time, the modular fit of every prefix has the
    # rational order, and the rational coefficients reduced mod p wherever
    # the prefix pins them down (2·order terms)
    coeffs, init = case
    seq = _generated(coeffs, init, 2 * len(coeffs) + 6)
    bm = rc.ModularBM(p)
    for i, v in enumerate(seq, start=1):
        bm.add(v)
        exact = _fraction_bm([Fraction(x) for x in seq[:i]])
        assert bm.order == len(exact)
        if 2 * bm.order <= i:
            assert bm.coeffs() == [c.numerator * pow(c.denominator, -1, p) % p for c in exact]


@settings(max_examples=40)
@given(recurrences, st.integers(0, 4))
def test_minimal_recurrence_agrees_with_fraction_bm(case, extra):
    # the modular fit and its lift give the rational fit wherever that is
    # integral and confirmed by EXTRA_TERMS more terms
    coeffs, init = case
    seq = _generated(coeffs, init, 2 * len(coeffs) + rc.EXTRA_TERMS + extra)
    exact = _fraction_bm([Fraction(v) for v in seq])
    assert all(c.denominator == 1 for c in exact)
    rec = rc.minimal_recurrence(seq)
    assert rec.coeffs == [c.numerator for c in exact]


@settings(max_examples=40)
@given(recurrences, st.integers(0, 3))
def test_certified_fit_holds_beyond_its_terms(case, slack):
    # any bound at or above the true order certifies the minimal recurrence,
    # which then generates every later term
    coeffs, init = case
    bound = len(coeffs) + slack
    seq = _generated(coeffs, init, 2 * bound + 40)
    rec = rc.certify(seq[: 2 * bound], bound)
    assert rec.order <= len(coeffs)
    assert rec == rc.minimal_recurrence(seq)
    assert _generated(rec.coeffs, seq[: rec.order], len(seq)) == seq


wide_recurrences = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(-(1 << 130), 1 << 130), min_size=d, max_size=d),
        st.lists(st.integers(-(1 << 20), 1 << 20), min_size=d, max_size=d),
    )
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(recurrences, wide_recurrences), st.integers(0, 3))
def test_certificate_on_a_fed_fit_matches_a_fresh_one(case, slack):
    # a running BM mod PRIMES[0] that has seen exactly the terms stands in
    # for the certificate's first fit, also when the coefficients need
    # several primes, and the result is the fresh certificate's and the
    # minimal recurrence
    coeffs, init = case
    bound = len(coeffs) + slack
    seq = _generated(coeffs, init, 2 * bound + rc.EXTRA_TERMS)
    fit = rc.ModularBM(rc.PRIMES[0])
    for v in seq:
        fit.add(v)
    rec = rc.certify(seq, bound, fit)
    assert rec == rc.certify(seq, bound) == rc.minimal_recurrence(seq)
    assert len(fit.terms) == len(seq)


def test_certificate_refuses_a_fit_of_other_terms():
    seq = _generated([1, 1], [1, 1], 8)
    fit = rc.ModularBM(rc.PRIMES[0])
    for v in seq[:-1]:
        fit.add(v)
    with pytest.raises(ValueError, match="7 terms"):
        rc.certify(seq, 2, fit)
    fit = rc.ModularBM(rc.PRIMES[1])
    for v in seq:
        fit.add(v)
    with pytest.raises(ValueError, match=f"mod {rc.PRIMES[1]}"):
        rc.certify(seq, 2, fit)


@pytest.mark.parametrize("m,fits", [(10, 0), (13, 2)])
def test_gram_certificate_reuses_the_running_fit(m, fits, monkeypatch):
    # the engine's running BM mod PRIMES[0] is the Gram certificate's first
    # fit: at m = 10 one prime lifts the coefficients and no fit is made, at
    # m = 13 the two more primes the lift needs are the only fits made
    engine = ct._tnc_engine(m)
    made = []

    class Counted(rc.ModularBM):
        def __init__(self, p):
            made.append(p)
            super().__init__(p)

    monkeypatch.setattr(rc, "ModularBM", Counted)
    rec = engine.recurrence("tnc", 0)
    assert len(made) == fits and rc.PRIMES[0] not in made
    assert rec == rc.certify(engine.series["tnc", 0][: 2 * rec.order + 2], rec.order)


def test_certificate_needs_two_bound_terms():
    with pytest.raises(ValueError):
        rc.certify([1, 5, 13], 2)


def test_certificate_refutes_a_bound_below_the_order():
    # 0, 0, 0, 1 needs order 4; so does any series it starts
    with pytest.raises(rc.CertificateError, match="exceeds"):
        rc.certify([0, 0, 0, 1], 2)
    # 64·(3/2)^(n-1) has order 1 but no integer recurrence of order 1
    with pytest.raises(rc.CertificateError, match="primes"):
        rc.certify([64, 96, 144, 216], 2)


@pytest.mark.parametrize("m", range(3, 10))
def test_engine_refuses_an_understated_size(m, monkeypatch):
    # with |U| understated to any u in 2 .. order - 1 the engine raises
    # instead of extending the series, and keeps stepping its residues
    truth = ct.series(GridSpec("tnc", m), 40).values
    order = rc.certified_recurrence("tnc", m, 0).order
    for u in range(2, order):
        engine = ct._tnc_engine(m)
        monkeypatch.setattr(engine, "size", u)
        with pytest.raises(rc.CertificateError):
            engine.values("tnc", 0, 2 * u + 1)
        assert engine.recurrences is None
        assert engine.blocks is not None and engine.residues is not None
        assert engine.values("tnc", 0, 2 * u) == truth[: 2 * u]


def test_certified_orders_match_the_tables():
    tab = refdata.tables()
    for m in range(2, 14):
        assert rc.certified_recurrence("tnc", m, 0).order == tab["orders_tnc"][str(m)], m
    for m in range(2, 6):
        got = [rc.certified_recurrence("tg", m, p).order for p in range(m)]
        assert got == tab["orders_tg"][str(m)], m
    for m in range(2, 7):
        got = [rc.certified_recurrence("kb", m, p).order for p in range(m)]
        assert got == [tab["orders_kb"][str(m)]] * m, m


@pytest.mark.parametrize("m", [2, 5, 8])
def test_far_term_equals_stepping_the_recurrence(m):
    values = tnc_values(m, terms=200)
    rec = rc.certified_recurrence("tnc", m, 0)
    for n in (1, rec.order, rec.order + 1, 64, 199, 200):
        assert rec.term(values, n) == values[n - 1]
    assert rc.Recurrence(0, []).term([], 7) == 0


def test_derived_orders_match_the_tables_and_recompute():
    # the shipped derived orders agree with tables.json where both hold a
    # row, and the m = 6, 7 torus and Klein rows are certified again here
    derived = json.loads((files("gridcycles") / "data" / "derived_orders.json").read_text())
    assert set(derived["provenance"]) == {"command", "commit"}
    tab = refdata.tables()
    overlap = 0
    for family in ("tnc", "tg", "kb"):
        for m, row in derived[f"orders_{family}"].items():
            if m in tab[f"orders_{family}"]:
                expected = tab[f"orders_{family}"][m]
                assert row == ([expected] * int(m) if family == "kb" else expected), (family, m)
                overlap += 1
    assert overlap >= 1
    for m in (6, 7):
        for family in ("tg", "kb"):
            got = [rc.order_report(family, m, p) for p in range(m)]
            assert derived[f"orders_{family}"][str(m)] == got, (family, m)
