import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from ipd.errors import InputError, IrreducibleDenominator
from ipd.exact import (
    GaussianRational,
    Rational,
    RationalFunction,
    as_scalar,
    change_chart_infinity,
    differentiate,
    factor_roots,
    format_scalar,
    parse_scalar,
    partial_fractions,
)

rationals = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=6)
)
scalars = st.builds(
    lambda a, b: GaussianRational(Rational(a), Rational(b)), rationals, rationals
)
small_ints = st.integers(min_value=-5, max_value=5)


def rf(num, den):
    return RationalFunction.from_coeffs(num, den)


def test_scalar_arithmetic_basics():
    i = GaussianRational(Rational(0), Rational(1))
    assert i * i == as_scalar(-1)
    a = parse_scalar("1/2+3i")
    assert a.re == Fraction(1, 2) and a.im == 3
    assert complex(a) == 0.5 + 3j
    assert (a / a) == as_scalar(1)


@given(scalars, scalars)
@settings(max_examples=50, deadline=None)
def test_scalar_field_axioms(a, b):
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a
    assert a * GaussianRational(a.re, -a.im) == GaussianRational(
        Rational(a.re * a.re + a.im * a.im), Rational(0)
    )


@given(scalars)
@settings(max_examples=50, deadline=None)
def test_scalar_text_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize("text", ["", "i+i+i", "1/0", "2x", "++1", "1e5", "2E3i"])
def test_parse_scalar_rejects_garbage(text):
    with pytest.raises(InputError):
        parse_scalar(text)


def test_rational_function_arithmetic():
    f = rf([1], [0, 1])          # 1/z
    g = rf([0, 1], [1])          # z
    assert (f * g - rf([1], [1])).is_zero()
    h = f + g                    # (1 + z^2)/z
    assert (h - rf([1, 0, 1], [0, 1])).is_zero()
    assert (h - g - f).is_zero()


def test_pole_orders():
    f = rf([1], [0, 0, 1])       # 1/z^2
    assert f.pole_order_at(as_scalar(0)) == 2
    assert f.pole_order_at(as_scalar(1)) == 0
    # the 1-form f dz has order deg(num) - deg(den) + 2 at infinity
    assert change_chart_infinity(f).pole_order_at(as_scalar(0)) == 0
    g = rf([0, 0, 0, 1], [1])    # z^3
    assert change_chart_infinity(g).pole_order_at(as_scalar(0)) == 5


@given(st.lists(small_ints, min_size=1, max_size=4), st.lists(small_ints, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_derivative_is_leibniz_compatible(nc, dc):
    if all(v == 0 for v in dc):
        dc = dc[:-1] + [1]
    f = rf(nc, dc)
    g = rf([1, 0, 2], [1])
    lhs = differentiate(f * g)
    rhs = differentiate(f) * g + f * differentiate(g)
    assert (lhs - rhs).is_zero()


def test_factor_roots_gaussian_splitting():
    # z^2 + 1 = (z - i)(z + i)
    roots = factor_roots([as_scalar(1), as_scalar(0), as_scalar(1)])
    keys = {format_scalar(r) for r in roots}
    assert keys == {"i", "-i"} and all(m == 1 for m in roots.values())
    # z^2 + z + 1 stays irreducible over Q(i)
    with pytest.raises(IrreducibleDenominator):
        factor_roots([as_scalar(1), as_scalar(1), as_scalar(1)])


def test_factor_roots_multiplicity():
    # z^3 (z - 2)^2
    f = rf([1], [0, 0, 0, 4, -4, 1])
    roots = factor_roots(list(f.den))
    as_text = {format_scalar(r): m for r, m in roots.items()}
    assert as_text == {"0": 3, "2": 2}


@given(st.lists(small_ints, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_partial_fractions_reassembles(nc):
    # denominator splits over Q(i): z^2 (z - 1) (z + i)
    den = rf([0, 0, 1], [1]) * rf([-1, 1], [1]) * rf([as_scalar("i"), as_scalar(1)], [1])
    f = rf(nc, [1]) / den
    pf = partial_fractions(f)
    assert (pf.assemble() - f).is_zero()


@given(st.lists(small_ints, min_size=1, max_size=4), st.lists(small_ints, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_chart_change_is_involutive(nc, dc):
    if all(v == 0 for v in dc):
        dc = dc[:-1] + [1]
    f = rf(nc, dc)
    assert (change_chart_infinity(change_chart_infinity(f)) - f).is_zero()


def test_chart_change_example():
    # f(z) = z^2 maps to (1/w^2) * (-1/w^2) dw coefficient = -1/w^4
    f = rf([0, 0, 1], [1])
    g = change_chart_infinity(f)
    assert g.pole_order_at(as_scalar(0)) == 4
    assert g.eval_complex(0.5 + 0j) == pytest.approx(complex((1 / 0.5) ** 2 * -(1 / 0.25)))
