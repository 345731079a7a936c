import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ipd.connection import (
    INFINITY,
    canonicalize,
    connection_from_json,
    connection_to_json,
    dualize,
    global_antiderivative,
    parse_point,
    point_key,
    point_str,
    profile_at,
    singular_profile,
)
from ipd.corpus import connection_corpus
from ipd.errors import InputError
from ipd.exact import RationalFunction, as_scalar, differentiate
from ipd.families import bessel_connection, gamma_connection, gaussian_connection


def rf(num, den):
    return RationalFunction.from_coeffs(num, den)


def test_gamma_profile():
    c = gamma_connection(Fraction(1, 2))
    prof = {point_str(p.location): p for p in singular_profile(c)}
    assert set(prof) == {"0", "inf"}
    assert prof["0"].pole_order == 1 and str(prof["0"].residue) == "1/2"
    assert prof["inf"].pole_order == 2
    assert prof["inf"].is_irregular and not prof["0"].is_irregular
    # exponential part at infinity: -t = -1/w, a single degree-1 term
    (k, coeff), = prof["inf"].exponential_part
    assert k == 1 and str(coeff) == "-1"


def test_gaussian_profile():
    c = gaussian_connection()
    (p,) = singular_profile(c)
    assert p.location is INFINITY and p.pole_order == 3
    (k, coeff), = p.exponential_part
    assert k == 2 and str(coeff) == "-1"


def test_bessel_profile():
    c = bessel_connection(Fraction(1))
    prof = {point_str(p.location): p for p in singular_profile(c)}
    assert prof["0"].pole_order == 2 and prof["inf"].pole_order == 2
    assert str(prof["0"].residue) == "0"
    (k0, c0), = prof["0"].exponential_part
    assert k0 == 1 and str(c0) == "-1/2"
    (ki, ci), = prof["inf"].exponential_part
    assert ki == 1 and str(ci) == "1/2"


def test_residues_sum_to_zero_on_corpus():
    for c in connection_corpus(15, seed=3):
        total = sum(
            (p.residue for p in singular_profile(c)), as_scalar(0)
        )
        assert total == as_scalar(0)


def test_exponential_part_is_nonempty_exactly_when_irregular():
    """cycles and stokes read is_irregular alone as having an exponential part."""
    conns = [
        gaussian_connection(),
        gamma_connection(Fraction(1, 3)),
        bessel_connection(Fraction(5, 2)),
        bessel_connection(Fraction(1), Fraction(2)),
        canonicalize(rf([0], [1])),
    ]
    for seed in (0, 1, 2):
        conns += connection_corpus(100, seed)
    for c in conns:
        for sp in singular_profile(c):
            assert bool(sp.exponential_part) == sp.is_irregular, c.label


def test_dualize_is_involution():
    for c in connection_corpus(8, seed=5):
        dd = dualize(dualize(c))
        assert (dd.alpha - c.alpha).is_zero()


def test_dual_flips_residues():
    c = gamma_connection(Fraction(1, 3))
    d = dualize(c)
    r = {point_str(p.location): p.residue for p in singular_profile(c)}
    rd = {point_str(p.location): p.residue for p in singular_profile(d)}
    assert rd["0"] == -r["0"]


def test_global_antiderivative_reassembles_alpha():
    for c in (gaussian_connection(), gamma_connection(Fraction(1, 2)), bessel_connection(Fraction(1))):
        ga = global_antiderivative(c)
        rebuilt = differentiate(ga.f_global)
        for point, s in ga.log_terms:
            rebuilt = rebuilt + rf([s], [1]) / rf([-point, as_scalar(1)], [1])
        assert (rebuilt - c.alpha).is_zero()


def test_point_text_roundtrip():
    for text in ("0", "inf", "1/2+3i", "-2"):
        assert point_str(parse_point(text)) == text
    assert point_key(INFINITY) < point_key(as_scalar(0)) or point_key(
        INFINITY
    ) > point_key(as_scalar(0))  # comparable, stable


def test_json_roundtrip():
    for c in (gamma_connection(Fraction(2, 3)), bessel_connection(Fraction(1))):
        doc = json.loads(json.dumps(connection_to_json(c)))
        c2 = connection_from_json(doc)
        assert (c2.alpha - c.alpha).is_zero()
        assert c2.label == c.label


def test_connection_from_json_rejects_bad_docs():
    with pytest.raises(InputError):
        connection_from_json({"alpha": {"num": ["1"]}})
    with pytest.raises(InputError):
        connection_from_json({"label": "x", "alpha": {"num": ["1"], "den": ["0"]}})


def test_profile_at_unknown_point():
    c = gamma_connection(Fraction(1, 2))
    with pytest.raises(InputError):
        profile_at(c, as_scalar(7))
