from fractions import Fraction

from ipd.connection import INFINITY, canonicalize, point_str, singular_profile
from ipd.corpus import connection_corpus
from ipd.derham import h1_basis
from ipd.exact import RationalFunction, as_scalar
from ipd.families import bessel_connection, gamma_connection, gaussian_connection
from ipd.homology import rd_profile


def rf(num, den):
    return RationalFunction.from_coeffs(num, den)


def test_gamma_rd_profile():
    prof = rd_profile(gamma_connection(Fraction(1, 2)))
    local = {point_str(p): d for p, d in prof.local_rd}
    assert local == {"0": 0, "inf": 1}
    assert (prof.h0_rd, prof.h1_rd) == (0, 1)


def test_bessel_rd_profile():
    prof = rd_profile(bessel_connection(Fraction(1)))
    assert sorted(d for _, d in prof.local_rd) == [1, 1]
    assert (prof.h0_rd, prof.h1_rd) == (0, 2)


def test_trivial_rd_profile():
    prof = rd_profile(canonicalize(RationalFunction.zero(), label="trivial"))
    assert (prof.h0_rd, prof.h1_rd) == (1, 0)
    assert all(d == 0 for _, d in prof.local_rd)


def test_gaussian_rd_profile():
    prof = rd_profile(gaussian_connection())
    assert (prof.h0_rd, prof.h1_rd) == (0, 1)
    assert dict(prof.local_rd)[INFINITY] == 2


def test_dual_monodromy_exponents():
    profile = singular_profile(gamma_connection(Fraction(1, 3)))
    exps = {point_str(sp.location): sp.residue for sp in profile}
    # dual section carries exp(+integral alpha): exponent at 0 is +1/3
    assert exps["0"] == as_scalar(Fraction(1, 3))
    assert exps["inf"] == as_scalar(Fraction(-1, 3))
    assert not any(sp.residue.is_integer() for sp in profile)


def test_monodromy_trivial_iff_integer_exponents():
    c = bessel_connection(Fraction(1))
    assert all(sp.residue.is_integer() for sp in singular_profile(c))
    prof = rd_profile(c)
    # trivial local system on a 2-punctured line
    assert (prof.h0_open, prof.h1_open) == (1, 1)


def test_local_system_homology_nontrivial():
    prof = rd_profile(gamma_connection(Fraction(1, 2)))
    assert (prof.h0_open, prof.h1_open) == (0, 0)


def test_exponents_sum_to_zero_on_corpus():
    for c in connection_corpus(15, seed=21):
        total = sum((sp.residue for sp in singular_profile(c)), as_scalar(0))
        assert total == as_scalar(0)


def test_five_term_exactness_on_corpus():
    for c in connection_corpus(15, seed=22):
        prof = rd_profile(c)
        seq = (
            prof.h1_open
            - prof.h1_rd
            + sum(d for _, d in prof.local_rd)
            - prof.h0_open
            + prof.h0_rd
        )
        assert seq == 0, c.label


def test_duality_on_small_corpus():
    for c in connection_corpus(10, seed=23):
        b = h1_basis(c)
        prof = rd_profile(c)
        assert b.h1_dim == prof.h1_rd, c.label
        assert b.h0_dim == prof.h0_rd, c.label

