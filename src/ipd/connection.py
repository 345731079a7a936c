"""Rank-1 connections d + alpha on the projective line.

A connection is determined by its rational 1-form alpha = f(z) dz.  The
singular profile records, at every pole (and at infinity when the form has a
pole there), the pole order m, the residue s, and the principal part of the
local antiderivative of alpha, which drives both the Stokes geometry and the
flat-section evaluation.  One helper reads all three from alpha's principal
part at the point, and the global antiderivative is assembled from the
profile rather than from a second factorisation of alpha.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import InputError
from .exact import (
    GaussianRational,
    ONE,
    RationalFunction,
    ZERO,
    as_scalar,
    change_chart_infinity,
    differentiate,
    format_scalar,
    p_monomial,
    p_pow_linear,
    parse_scalar,
    partial_fractions,
)


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()

Point = Union[GaussianRational, _Infinity]


def point_key(p: Point):
    """Deterministic sort key: finite points by (re, im), infinity last."""
    if p is INFINITY:
        return (1, Fraction(0), Fraction(0))
    return (0, p.re, p.im)


def point_str(p: Point) -> str:
    return "inf" if p is INFINITY else format_scalar(p)


def parse_point(text: str) -> Point:
    return INFINITY if isinstance(text, str) and text.strip() == "inf" else parse_scalar(text)


@dataclass(frozen=True)
class SingularPointData:
    """Local data at one point of the singular divisor D.

    The residue s is the monodromy exponent of the dual local system: its
    monodromy about the point is exp(2*pi*i*s), trivial iff s is a rational
    integer.  exponential_part lists (k, c) meaning c * w^-k where w is the
    local coordinate (z - a at a finite point, 1/z at infinity).  It is
    nonempty exactly when pole_order >= 2.
    """

    location: Point
    pole_order: int
    residue: GaussianRational
    exponential_part: tuple[tuple[int, GaussianRational], ...]

    @property
    def is_irregular(self) -> bool:
        return self.pole_order >= 2

    def leading_term(self) -> tuple[GaussianRational, int]:
        """(a, k) with the local antiderivative ~ a * w^-k, k = m - 1."""
        if not self.exponential_part:
            raise ValueError(f"no exponential part at {point_str(self.location)}")
        k, c = max(self.exponential_part, key=lambda t: t[0])
        return c, k


@dataclass(frozen=True)
class Connection:
    """Rank-1 meromorphic connection on P^1 with nabla(1) = alpha."""

    alpha: RationalFunction
    label: str = "connection"


def canonicalize(alpha: RationalFunction, label: str = "connection") -> Connection:
    """Wrap a 1-form coefficient in a Connection after canonical reduction."""
    if not isinstance(alpha, RationalFunction):
        raise InputError("alpha must be a RationalFunction")
    return Connection(alpha=alpha, label=label)


def dualize(c: Connection) -> Connection:
    """The dual connection, whose 1-form is -alpha."""
    return Connection(alpha=-c.alpha, label=f"{c.label}.dual")


def _point_data(location: Point, terms) -> SingularPointData:
    """The local data at one point of D, read from the terms (k, c), meaning
    c w^-k dw, of alpha's principal part there; the antiderivative of
    c w^-k is -c/(k-1) w^-(k-1) for k >= 2."""
    return SingularPointData(
        location=location,
        pole_order=max((k for k, _ in terms), default=0),
        residue=next((coeff for k, coeff in terms if k == 1), ZERO),
        exponential_part=tuple(
            sorted((k - 1, -coeff / as_scalar(k - 1)) for k, coeff in terms if k >= 2)
        ),
    )


@lru_cache(maxsize=256)
def singular_profile(c: Connection) -> tuple[SingularPointData, ...]:
    """Singular divisor data, sorted by point, infinity last.

    D consists of the poles of alpha in the finite chart plus infinity when
    the chart change has a pole at w = 0.  For alpha = 0 the point at infinity
    is adjoined with m = 0 so that D is never empty.
    """
    by_point: dict = {}
    for a, k, coeff in partial_fractions(c.alpha).pole_terms:
        by_point.setdefault(a, []).append((k, coeff))
    entries = [_point_data(a, terms) for a, terms in by_point.items()]
    beta = change_chart_infinity(c.alpha)
    if beta.pole_order_at(ZERO) > 0 or not entries:
        terms = [(k, coeff) for a, k, coeff in partial_fractions(beta).pole_terms if a == ZERO]
        entries.append(_point_data(INFINITY, terms))
    if sum((sp.residue for sp in entries), ZERO):
        raise AssertionError("residues across D must sum to zero")
    return tuple(entries)


def finite_singular_points(c: Connection) -> dict[GaussianRational, complex]:
    """Each finite point of D mapped to its position in the z-plane."""
    return {
        sp.location: complex(sp.location)
        for sp in singular_profile(c)
        if sp.location is not INFINITY
    }


def profile_at(c: Connection, p: Point) -> SingularPointData:
    for sp in singular_profile(c):
        if sp.location is p or sp.location == p:
            return sp
    raise InputError(f"{point_str(p)} is not a singular point of {c.label}")


@dataclass(frozen=True)
class GlobalAntiderivative:
    """Antiderivative of alpha split as f_global + sum s_j log(z - a_j)."""

    f_global: RationalFunction
    log_terms: tuple[tuple[GaussianRational, GaussianRational], ...]


@lru_cache(maxsize=256)
def global_antiderivative(c: Connection) -> GlobalAntiderivative:
    """Integrate alpha exactly: f_global sums the exponential parts over D,
    each in its local coordinate, and the log coefficients are the nonzero
    finite residues.

    Verifies d(f_global) + sum s_j dz/(z - a_j) == alpha before returning.
    """
    profile = singular_profile(c)
    f = RationalFunction.zero()
    for sp in profile:
        for k, coeff in sp.exponential_part:
            if sp.location is INFINITY:
                f = f + RationalFunction.from_coeffs(p_monomial(k, coeff), (ONE,))
            else:
                f = f + RationalFunction.from_coeffs((coeff,), p_pow_linear(sp.location, k))
    logs = [
        (sp.location, sp.residue)
        for sp in profile
        if sp.location is not INFINITY and sp.residue
    ]
    check = differentiate(f)
    for a, s in logs:
        check = check + RationalFunction.from_coeffs((s,), p_pow_linear(a, 1))
    if not (check - c.alpha).is_zero():
        raise AssertionError("antiderivative check failed")
    return GlobalAntiderivative(f_global=f, log_terms=tuple(logs))


# ---------------------------------------------------------------------------
# JSON input/output for connections


def connection_to_json(c: Connection) -> dict:
    return {
        "label": c.label,
        "alpha": {
            "num": [format_scalar(x) for x in c.alpha.num],
            "den": [format_scalar(x) for x in c.alpha.den],
        },
    }


def connection_from_json(doc: dict) -> Connection:
    if not isinstance(doc, dict):
        raise InputError("connection document must be a JSON object")
    try:
        label = doc.get("label", "connection")
        num, den = doc["alpha"]["num"], doc["alpha"]["den"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed connection document: {exc}") from exc
    if not isinstance(label, str):
        raise InputError("connection label must be a string")
    if not (isinstance(num, list) and isinstance(den, list)):
        raise InputError("alpha num and den must be JSON lists of scalar text")
    rf = RationalFunction.from_coeffs(
        [parse_scalar(t) for t in num], [parse_scalar(t) for t in den]
    )
    return canonicalize(rf, label=label)


def read_json(path: str):
    """Parse a JSON file; an unreadable or malformed file is an InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_connection(path: str) -> Connection:
    return connection_from_json(read_json(path))
