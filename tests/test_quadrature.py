import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from ipd.connection import dualize
from ipd.corpus import connection_corpus, random_lattice_section
from ipd.cycles import build_circle, candidate_basis
from ipd.derham import h1_basis, nabla_applied
from ipd.errors import SingularApproach
from ipd.exact import GaussianRational, Rational, RationalFunction, as_scalar
from ipd.families import bessel_connection, gamma_connection, gaussian_connection
from ipd.quadrature import (
    flat_section_eval,
    integrate_cycle,
    parametric_derivative_period,
    period_matrix,
)


def rf(num, den):
    return RationalFunction.from_coeffs(num, den)


def test_flat_section_values():
    c = gamma_connection(Fraction(1, 2))
    # dual section: exp(-t) * t^{1/2}; at t = 4 on the principal branch
    got = flat_section_eval(c, complex(4, 0))
    assert got == pytest.approx(math.exp(-4) * 2.0, rel=1e-12)
    g = gaussian_connection()
    assert flat_section_eval(g, complex(2, 0)) == pytest.approx(math.exp(-4), rel=1e-12)


def test_dual_connection_gives_the_inverse_section():
    # dualize(c) is the one route to the connection's own flat section
    for c in (gaussian_connection(), gamma_connection(Fraction(1, 2)), bessel_connection(Fraction(1))):
        for z in (complex(0.7, 0.3), complex(-1.5, 0.8), complex(2.0, -1.0)):
            product = flat_section_eval(c, z) * flat_section_eval(dualize(c), z)
            assert abs(product - 1.0) < 1e-12


def test_flat_section_branch_argument():
    c = gamma_connection(Fraction(1, 2))
    # with arg(t) tracked at 2 pi rather than 0 the half power flips sign
    base = flat_section_eval(c, complex(4, 0))
    moved = flat_section_eval(c, complex(4, 0), {as_scalar(0): 2 * math.pi})
    assert moved == pytest.approx(-base, rel=1e-12)


def test_circle_period_of_dz_over_z():
    # pure residue integral, no exponential factor
    c = bessel_connection(Fraction(1))
    cy = build_circle(c, as_scalar(0), radius=1.0)
    pv = integrate_cycle(c, cy, rf([1], [0, 1]))
    assert pv.converged
    assert pv.value.imag > 0  # counterclockwise
    # value is 2 pi i J_0(1), not 2 pi i: the section weights the integrand
    assert abs(pv.value) == pytest.approx(2 * math.pi * 0.7651976865579666, rel=1e-10)


def test_gaussian_period_error_budget():
    c = gaussian_connection()
    b = h1_basis(c)
    (cy,) = candidate_basis(c)
    pv = integrate_cycle(c, cy, b.basis[0])
    assert pv.converged
    assert abs(pv.value - math.sqrt(math.pi)) < 1e-11
    assert pv.abs_error < 1e-9
    assert pv.tail_bound < 1e-12
    assert pv.segments_used > 0


def test_orientation_flips_sign():
    c = gaussian_connection()
    b = h1_basis(c)
    (cy,) = candidate_basis(c)
    flipped = type(cy)(
        label=cy.label, pieces=cy.pieces, base_args=cy.base_args, orientation=-1
    )
    assert integrate_cycle(c, flipped, b.basis[0]).value == pytest.approx(
        -integrate_cycle(c, cy, b.basis[0]).value
    )


def test_exactness_scale_relative():
    rng = random.Random(2)
    c = gamma_connection(Fraction(1, 3))
    b = h1_basis(c)
    (cy,) = candidate_basis(c)
    for _ in range(5):
        g = random_lattice_section(rng, c, b)
        pv = integrate_cycle(c, cy, nabla_applied(c, g))
        assert abs(pv.value) < 1e-10 * max(pv.scale, 1e-300)


def test_period_matrix_pairing():
    c = bessel_connection(Fraction(1))
    b = h1_basis(c)
    cycles = candidate_basis(c)
    mat = period_matrix(c, cycles, b)
    assert mat.rank == 2
    assert abs(mat.determinant) > 1e-6 * mat.scale**2
    # the circle row pairs to 2 pi i J_n(1), purely imaginary entries
    circle_row = mat.entries[[cy.label.startswith("circle") for cy in cycles].index(True)]
    assert abs(circle_row[0].value.real) < 1e-12


def test_period_matrix_rank_of_a_repeated_cycle():
    # the same circle twice gives two equal rows, so rank 1 although h1 = 2
    c = bessel_connection(Fraction(1))
    b = h1_basis(c)
    cy = build_circle(c, as_scalar(0), radius=1.0)
    mat = period_matrix(c, [cy, cy], b)
    assert len(b.basis) == 2
    assert mat.rank == 1


def test_bessel_cross_pair_is_hankel_value():
    from scipy.special import k0

    # at z = i/5 the modified second path equals the vertical-ray textbook one;
    # i pi H_0^(1)(it) = 2 K_0(t), so the period is real
    z = GaussianRational(Rational(0), Rational(Fraction(1, 5)))
    c = bessel_connection(z)
    b = h1_basis(c)
    cycles = [cy for cy in candidate_basis(c) if cy.label.startswith("ray_pair")]
    pv = integrate_cycle(c, cycles[0], b.basis[0])
    assert abs(pv.value.imag) < 1e-10 * abs(pv.value)
    assert pv.value.real == pytest.approx(2.0 * k0(0.2), rel=1e-10)


def test_parametric_derivative_against_difference_quotient():
    c = bessel_connection(Fraction(1))
    cy = build_circle(c, as_scalar(0), radius=1.0)
    form = rf([1], [0, 1])
    d1 = parametric_derivative_period(c, cy, form, order=1).value
    h = Fraction(1, 64)
    plus = integrate_cycle(bessel_connection(Fraction(1) + h), cy, form).value
    minus = integrate_cycle(bessel_connection(Fraction(1) - h), cy, form).value
    quotient = (plus - minus) / (2 * float(h))
    assert d1 == pytest.approx(quotient, rel=5e-4)


def test_tolerance_not_met_is_flagged_not_raised():
    # 1e-30 is below the rounding level, so bisection stops there at once
    c = gaussian_connection()
    b = h1_basis(c)
    (cy,) = candidate_basis(c)
    t0 = time.perf_counter()
    pv = integrate_cycle(c, cy, b.basis[0], rel_tol=1e-30)
    assert time.perf_counter() - t0 < 2.0
    assert pv.converged is False
    assert pv.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_large_chunks_are_held_to_their_own_mass():
    # chunks with |value| of 300-570 open some cycles of corpus[35]; an
    # absolute 1e-12 on them lies below the rounding level
    c = connection_corpus(40, 0)[35]
    b = h1_basis(c)
    cycles = candidate_basis(c)
    t0 = time.perf_counter()
    mat = period_matrix(c, cycles, b)
    assert time.perf_counter() - t0 < 5.0
    assert all(pv.converged for row in mat.entries for pv in row)
    # the basis is rank-deficient (h1 = 4): a cycle-search defect, not quadrature
    assert (b.h1_dim, mat.rank) == (4, 2)


def test_nan_exponent_raises():
    # at |z| = 1e300 the section exponent of bessel(z=1) evaluates to inf - inf
    c = bessel_connection(Fraction(1))
    cy = build_circle(c, as_scalar(0), radius=1e300)
    with pytest.raises(SingularApproach):
        integrate_cycle(c, cy, rf([1], [0, 1]))
