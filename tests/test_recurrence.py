import pytest
from hypothesis import given, settings, strategies as st

from gridcycles import counting as ct
from gridcycles import recurrence as rc
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
    doc = rec.to_json_dict()
    assert doc == {"order": 2, "coeffs": ["2", "3"]}
    gf = rc.to_generating_function(tnc_values(2), rec)
    assert gf.to_json_dict() == {
        "numerator": ["0", "1", "3"],
        "denominator": ["1", "-2", "-3"],
    }
