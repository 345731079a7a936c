"""The de Rham lattice map: closed-form columns and elimination mod p."""

from fractions import Fraction
from pathlib import Path

import pytest

from ipd import connection, derham, linalg, report
from ipd.connection import INFINITY, canonicalize, load_connection, singular_profile
from ipd.corpus import connection_corpus
from ipd.derham import (
    FunctionLattice,
    _lattice_pair,
    decompose,
    default_section_bounds,
    element_function,
    h0_dimension,
    h1_basis,
    nabla_applied,
    nabla_columns,
    reduce_form,
)
from ipd.errors import LatticeTooSmall
from ipd.exact import I, ONE, ZERO, GaussianRational, RationalFunction, as_scalar, partial_fractions
from ipd.families import bessel_connection, gamma_connection, gaussian_connection
from ipd.linalg import BadPrime, SpanTracker, nullspace, rank, reduce_mod, require_distinct_mod

ROOT = Path(__file__).resolve().parent.parent


def closed_form_inputs():
    yield gaussian_connection()
    yield gamma_connection(Fraction(1, 2))
    yield gamma_connection(Fraction(2, 7))
    yield bessel_connection(Fraction(1))
    yield bessel_connection(Fraction(1), Fraction(1))
    for path in sorted((ROOT / "connections").glob("*.json")):
        yield load_connection(str(path))
    yield from connection_corpus(40, 0)


def test_closed_form_columns_match_rational_function_path():
    seen = set()
    for c in closed_form_inputs():
        profile = singular_profile(c)
        bounds = default_section_bounds(profile, h0_dimension(c))
        sec, form = _lattice_pair(profile, bounds)
        sec_coords, form_coords = sec.ambient(), form.ambient()
        alpha = partial_fractions(c.alpha)
        columns = nabla_columns(alpha, sec_coords, form_coords)
        for coord, col in zip(sec_coords, columns):
            expected = decompose(
                partial_fractions(nabla_applied(c, element_function(coord))), form_coords
            )
            assert col == expected, (c.label, coord)
        inf = [sp for sp in profile if sp.location is INFINITY]
        if inf and inf[0].pole_order >= 1:
            seen.add("pole at infinity")
        if alpha.poly:
            seen.add("polynomial part")
        if form.inf_pole < 0:
            seen.add("non-singular infinity")
    assert seen == {"pole at infinity", "polynomial part", "non-singular infinity"}


def test_form_basis_at_regular_infinity_is_the_residue_nullspace():
    points = (ZERO, ONE, I)
    lattice = FunctionLattice(points, (3, 1, 2), -2)
    coords = lattice.ambient()
    residue_row = [ONE if coord[2] == 1 else ZERO for coord in coords]
    assert lattice.basis_vectors() == nullspace([residue_row])


def test_reduce_mod_is_a_ring_map():
    p = 13
    x = GaussianRational(Fraction(3, 5), Fraction(-2, 7))
    y = GaussianRational(Fraction(-4, 3), Fraction(1, 2))
    assert reduce_mod(I, p) ** 2 % p == p - 1
    assert reduce_mod(x * y, p) == reduce_mod(x, p) * reduce_mod(y, p) % p
    assert reduce_mod(x + y, p) == (reduce_mod(x, p) + reduce_mod(y, p)) % p
    assert reduce_mod(ONE / x, p) * reduce_mod(x, p) % p == 1


def test_reduce_mod_rejects_denominators_divisible_by_p():
    with pytest.raises(BadPrime):
        reduce_mod(GaussianRational(Fraction(1, 26)), 13)
    with pytest.raises(BadPrime):
        reduce_mod(GaussianRational(Fraction(1), Fraction(5, 13)), 13)


def test_distinct_points_that_coincide_mod_p_are_rejected():
    with pytest.raises(BadPrime):
        require_distinct_mod([ZERO, as_scalar(13)], 13)
    with pytest.raises(BadPrime):
        require_distinct_mod([I, as_scalar(reduce_mod(I, 13))], 13)
    require_distinct_mod([ZERO, ONE, -ONE, I, -I, as_scalar(2)], 13)


def test_span_tracker_copy_is_independent():
    tracker = SpanTracker(2)
    tracker.add([ONE, ZERO])
    snapshot = tracker.copy()
    assert tracker.add([ZERO, ONE])
    assert (tracker.rank, snapshot.rank) == (2, 1)
    assert snapshot.add([ONE, ONE])


def _answer(b):
    return b.h0_dim, b.h1_dim, [str(f) for f in b.basis], b.section_bounds


def test_second_prime_takes_over_from_a_bad_one(monkeypatch):
    # poles at 0 and 13 coincide mod 13
    alpha = RationalFunction.from_coeffs([1], [0, 1]) - RationalFunction.from_coeffs([1], [-13, 1])
    c = canonicalize(alpha, label="poles 0 and 13")
    expected = _answer(h1_basis(c))
    monkeypatch.setattr(linalg, "PRIMES", (13, linalg.PRIMES[0]))
    assert _answer(h1_basis(c)) == expected
    monkeypatch.setattr(linalg, "PRIMES", (13,))
    with pytest.raises(LatticeTooSmall):
        h1_basis(c)


def test_small_prime_never_gives_a_different_answer(monkeypatch):
    # Mod 13 every dimension is either certified or refused.  A basis form
    # skipped mod p may still be independent over Q(i), so a small prime can
    # pick another basis of the same H^1; it must reduce exactly to an
    # invertible matrix in the default basis.
    corpus = connection_corpus(12, seed=9)
    defaults = [h1_basis(c) for c in corpus]
    monkeypatch.setattr(linalg, "PRIMES", (13,))
    for c, default in zip(corpus, defaults):
        try:
            got = h1_basis(c)
        except LatticeTooSmall:
            continue
        assert _answer(got)[:2] == _answer(default)[:2], c.label
        assert got.section_bounds == default.section_bounds, c.label
        if got.basis != default.basis:
            coords = [reduce_form(c, default, form) for form in got.basis]
            assert rank(coords) == default.h1_dim, c.label


def test_report_computes_the_basis_once(monkeypatch):
    """One report runs h1_basis once, and factors alpha once in
    singular_profile and once in h1_basis (not in global_antiderivative)."""
    c = gaussian_connection()
    calls = []
    factored = {"connection": 0, "derham": 0}

    def counted(c, *args, **kwargs):
        calls.append(c)
        return h1_basis(c, *args, **kwargs)

    def counted_in(name):
        def counted_pf(r):
            factored[name] += r == c.alpha
            return partial_fractions(r)
        return counted_pf

    monkeypatch.setattr(report, "h1_basis", counted)
    monkeypatch.setattr(connection, "partial_fractions", counted_in("connection"))
    monkeypatch.setattr(derham, "partial_fractions", counted_in("derham"))
    connection.singular_profile.cache_clear()
    connection.global_antiderivative.cache_clear()
    doc = report.generate_report(c)
    assert len(calls) == 1
    assert doc["dims"]["basis"] == ["1"]
    assert factored == {"connection": 1, "derham": 1}
