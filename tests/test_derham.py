import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ipd.connection import canonicalize, singular_profile
from ipd.corpus import connection_corpus, random_lattice_section
from ipd.derham import (
    euler_characteristics,
    h0_dimension,
    h1_basis,
    nabla_applied,
    reduce_form,
    section_lattice_functions,
)
from ipd.errors import InconsistentRank, InputError
from ipd.exact import RationalFunction, as_scalar
from ipd.families import bessel_connection, gamma_connection, gaussian_connection


def rf(num, den):
    return RationalFunction.from_coeffs(num, den)


def test_family_dimensions_and_bases():
    cases = [
        (gaussian_connection(), 0, 1, ["1"]),
        (gamma_connection(Fraction(1, 2)), 0, 1, ["1/(z)"]),
        (bessel_connection(Fraction(1)), 0, 2, ["1/(z)", "1/(z^2)"]),
    ]
    for c, h0, h1, basis_strs in cases:
        b = h1_basis(c)
        assert (b.h0_dim, b.h1_dim) == (h0, h1), c.label
        assert [str(f) for f in b.basis] == basis_strs, c.label


def test_trivial_connection():
    c = canonicalize(RationalFunction.zero(), label="trivial")
    b = h1_basis(c)
    assert (b.h0_dim, b.h1_dim) == (1, 0)
    assert b.basis == ()
    assert h0_dimension(c) == 1


def test_h0_detects_rational_flat_section():
    # alpha = dz/z - dz/(z-1): flat section z/(z-1) is rational
    c = canonicalize(rf([1], [0, 1]) - rf([1], [-1, 1]), label="log pair")
    assert h0_dimension(c) == 1
    b = h1_basis(c)
    assert b.h0_dim == 1 and b.h1_dim == 1


def test_h0_zero_for_fractional_residue():
    assert h0_dimension(gamma_connection(Fraction(1, 2))) == 0


def test_reduce_form_pinned_coordinates():
    u_du = rf([0, 1], [1])
    c0 = bessel_connection(Fraction(1))
    b0 = h1_basis(c0)
    assert [str(x) for x in reduce_form(c0, b0, u_du)] == ["-1", "2"]
    c1 = bessel_connection(Fraction(1), Fraction(1))
    b1 = h1_basis(c1)
    assert [str(x) for x in reduce_form(c1, b1, u_du)] == ["-1", "0"]
    cg = gamma_connection(Fraction(1, 2))
    bg = h1_basis(cg)
    assert [str(x) for x in reduce_form(cg, bg, rf([0, 0, 1], [1]))] == ["15/8"]


def test_reduce_form_rejects_off_divisor_pole():
    c = gamma_connection(Fraction(1, 2))
    b = h1_basis(c)
    with pytest.raises(InputError):
        reduce_form(c, b, rf([1], [-3, 1]))


def test_reduce_form_reads_the_order_at_infinity():
    # alpha = dz/z - dz/(z-1) is regular at infinity, so D = {0, 1}
    c = canonicalize(rf([1], [0, 1]) - rf([1], [-1, 1]), label="log pair")
    b = h1_basis(c)
    assert reduce_form(c, b, RationalFunction.zero()) == [as_scalar(0)]
    assert len(reduce_form(c, b, rf([1], [0, 0, 1]))) == 1  # dz/z^2: O(1) dw
    for form in (rf([0, 1], [1]), rf([1], [0, 1])):  # z dz and dz/z
        with pytest.raises(InputError, match="infinity"):
            reduce_form(c, b, form)


def test_exact_forms_reduce_to_zero():
    rng = random.Random(11)
    for c in (gaussian_connection(), bessel_connection(Fraction(1))):
        b = h1_basis(c)
        for _ in range(4):
            g = random_lattice_section(rng, c, b)
            coords = reduce_form(c, b, nabla_applied(c, g))
            assert all(x == as_scalar(0) for x in coords), c.label


def test_basis_reduces_to_identity():
    c = bessel_connection(Fraction(1))
    b = h1_basis(c)
    for i, form in enumerate(b.basis):
        coords = reduce_form(c, b, form)
        expected = [as_scalar(1 if j == i else 0) for j in range(len(b.basis))]
        assert coords == expected


@pytest.mark.parametrize("seed", [1, 2])
def test_lattice_stability_on_corpus(seed):
    # enlarging the section bounds must not change the computed dimensions
    for c in connection_corpus(6, seed=seed):
        b = h1_basis(c)
        prof = singular_profile(c)
        bumped = {sp.location: bound + 3 for (sp, (_, bound)) in zip(prof, b.section_bounds)}
        b2 = h1_basis(c, extra_bounds=bumped)
        assert (b2.h0_dim, b2.h1_dim) == (b.h0_dim, b.h1_dim), c.label


def test_chi_matches_pole_orders_on_corpus():
    for c in connection_corpus(12, seed=9):
        b = h1_basis(c)
        orders = [p.pole_order for p in singular_profile(c)]
        euler = euler_characteristics(1, 0, [[(m, 1)] for m in orders], len(orders))
        assert b.h0_dim - b.h1_dim == euler.chi_dr, c.label
        assert euler.chi_dr - euler.chi_top == -sum(m - 1 for m in orders)


def test_euler_characteristics_validation():
    with pytest.raises(InputError):
        euler_characteristics(1, 0, [[(2, 1)]], 2)
    with pytest.raises(InconsistentRank):
        euler_characteristics(2, 0, [[(2, 1)]], 1)
    flagged = euler_characteristics(1, 0, [[(0, 1)]], 1)
    assert flagged.non_reduced


def test_section_lattice_spans_rationals_with_allowed_poles():
    c = gamma_connection(Fraction(1, 2))
    b = h1_basis(c)
    fns = section_lattice_functions(c, b)
    assert fns, "lattice has generators"
    bounds = b.bounds_dict()
    for g in fns:
        assert g.pole_order_at(as_scalar(0)) <= bounds[as_scalar(0)]
