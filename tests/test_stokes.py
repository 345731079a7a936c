import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ipd.connection import INFINITY, dualize
from ipd.errors import InputError, NotIrregular
from ipd.exact import GaussianRational, Rational, as_scalar
from ipd.families import bessel_connection, gamma_connection, gaussian_connection
from ipd.stokes import stokes_geometry, stokes_geometry_from_term

nonzero_scalars = st.builds(
    lambda a, b, c, d: GaussianRational(Rational(Fraction(a, b)), Rational(Fraction(c, d))),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=7),
).filter(bool)


def test_gaussian_geometry_at_infinity():
    geo = stokes_geometry(gaussian_connection(), INFINITY)
    assert geo.exponential_degree == 2
    assert len(geo.rays) == 4 and len(geo.decay_sectors) == 2
    assert all(hi - lo == pytest.approx(math.pi / 2) for lo, hi in geo.decay_sectors)
    # dual section exp(-t^2): in the w-chart the leading term is -1/w^2
    # decay where cos(pi - 2 theta) < 0: bisectors at 0 and pi
    assert sorted(b % (2 * math.pi) for b in geo.bisectors()) == pytest.approx(
        [0.0, math.pi]
    )


def test_gamma_geometry_at_infinity():
    geo = stokes_geometry(gamma_connection(Fraction(1, 2)), INFINITY)
    assert geo.exponential_degree == 1
    assert len(geo.rays) == 2 and len(geo.decay_sectors) == 1
    # exp(-t) decays for t -> +infinity, which is w-direction 0 under w = 1/t
    (b,) = geo.bisectors()
    assert b % (2 * math.pi) == pytest.approx(0.0)


def test_bessel_geometry_both_points():
    c = bessel_connection(Fraction(1))
    at0 = stokes_geometry(c, as_scalar(0))
    at_inf = stokes_geometry(c, INFINITY)
    assert at0.exponential_degree == at_inf.exponential_degree == 1
    (b0,) = at0.bisectors()
    (bi,) = at_inf.bisectors()
    # exp(-1/(2u)) decays toward u -> 0+ along arg 0; exp(u/2) needs Re u < 0
    assert b0 == pytest.approx(0.0) or b0 == pytest.approx(2 * math.pi)
    assert bi == pytest.approx(math.pi)


def test_decay_verified_numerically():
    c = gaussian_connection()
    geo = stokes_geometry(c, INFINITY)
    a = complex(geo_leading(c))
    for theta in geo.bisectors():
        # value of Re(a w^-k) along the w-ray must head to -infinity
        w = 0.1 * cmath.exp(1j * theta)
        assert (a / w**2).real < 0


def geo_leading(c):
    from ipd.connection import profile_at

    coeff, _ = profile_at(c, INFINITY).leading_term()
    # dual section exponent integrates -alpha onto +f; leading_term already
    # reports the dual-side coefficient used by the geometry
    return coeff


def test_regular_point_raises():
    c = gamma_connection(Fraction(1, 2))
    with pytest.raises(NotIrregular):
        stokes_geometry(c, as_scalar(0))


def test_point_off_the_divisor_raises_input_error():
    c = gamma_connection(Fraction(1, 2))
    with pytest.raises(InputError):
        stokes_geometry(c, as_scalar(7))


def test_dual_flag_flips_sectors():
    c = gaussian_connection()
    geo = stokes_geometry(c, INFINITY)
    flipped = stokes_geometry(dualize(c), INFINITY)
    # growth sectors of one side are the decay sectors of the other
    assert sorted(
        round(b, 6) % round(2 * math.pi, 6) for b in flipped.bisectors()
    ) != sorted(round(b, 6) % round(2 * math.pi, 6) for b in geo.bisectors())
    assert len(flipped.decay_sectors) == len(geo.decay_sectors)


@given(nonzero_scalars, st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_ray_and_sector_counts(a, k):
    geo = stokes_geometry_from_term(as_scalar(0), a, k)
    assert len(geo.rays) == 2 * k
    assert len(geo.decay_sectors) == k
    assert geo.rays == tuple(sorted(geo.rays))
    # sectors are disjoint, each of width pi/k
    for lo, hi in geo.decay_sectors:
        assert hi - lo == pytest.approx(math.pi / k)


@given(nonzero_scalars, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_bisectors_decay_rays_reject_stokes_directions(a, k):
    geo = stokes_geometry_from_term(as_scalar(0), a, k)
    av = complex(a)
    for b in geo.bisectors():
        assert geo.sector_containing(b) is not None
        assert (av * cmath.exp(-1j * k * b)).real < 0
    for ray in geo.rays:
        assert geo.sector_containing(ray) is None
