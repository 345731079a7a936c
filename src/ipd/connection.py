"""Rank-1 connections d + alpha on the projective line.

A connection is determined by its rational 1-form alpha = f(z) dz.  The
singular profile records, at every pole (and at infinity when the form has a
pole there), the pole order m, the residue s, and the principal part of the
local antiderivative of alpha, which drives both the Stokes geometry and the
flat-section evaluation.
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
    p_pow_linear,
    parse_scalar,
    partial_fractions,
    scalar_sort_key,
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
    return INFINITY if text.strip() == "inf" else parse_scalar(text)


@dataclass(frozen=True)
class SingularPointData:
    """Local data at one point of the singular divisor D.

    exponential_part lists (k, c) meaning c * w^-k where w is the local
    coordinate (z - a at a finite point, 1/z at infinity).  It is nonempty
    exactly when pole_order >= 2.
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


def _principal_antiderivative(
    terms: list[tuple[int, GaussianRational]]
) -> tuple[tuple[int, GaussianRational], ...]:
    """Integrate sum c_k w^-k (k >= 2) termwise: -> -c_k/(k-1) * w^-(k-1)."""
    out = []
    for k, c in terms:
        if k >= 2:
            out.append((k - 1, -c / as_scalar(k - 1)))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=256)
def singular_profile(c: Connection) -> tuple[SingularPointData, ...]:
    """Singular divisor data, sorted by point, infinity last.

    D consists of the poles of alpha in the finite chart plus infinity when
    the chart change has a pole at w = 0.  For alpha = 0 the point at infinity
    is adjoined with m = 0 so that D is never empty.
    """
    pf = partial_fractions(c.alpha)
    by_point: dict = {}
    for a, k, coeff in pf.pole_terms:
        by_point.setdefault(a, []).append((k, coeff))
    entries = []
    for a in sorted(by_point, key=scalar_sort_key):
        terms = by_point[a]
        m = max(k for k, _ in terms)
        residue = next((coeff for k, coeff in terms if k == 1), ZERO)
        entries.append(
            SingularPointData(
                location=a,
                pole_order=m,
                residue=residue,
                exponential_part=_principal_antiderivative(terms),
            )
        )
    beta = change_chart_infinity(c.alpha)
    m_inf = beta.pole_order_at(ZERO)
    if m_inf > 0:
        pf_inf = partial_fractions(beta)
        terms_inf = [(k, coeff) for a, k, coeff in pf_inf.pole_terms if a == ZERO]
        residue_inf = next((coeff for k, coeff in terms_inf if k == 1), ZERO)
        entries.append(
            SingularPointData(
                location=INFINITY,
                pole_order=m_inf,
                residue=residue_inf,
                exponential_part=_principal_antiderivative(terms_inf),
            )
        )
    elif not entries:
        # alpha has no poles at all, i.e. alpha = 0: adjoin infinity with m = 0
        entries.append(
            SingularPointData(
                location=INFINITY, pole_order=0, residue=ZERO, exponential_part=()
            )
        )
    profile = tuple(entries)
    total = ZERO
    for sp in profile:
        total = total + sp.residue
    if total:
        raise AssertionError("residues across D must sum to zero")
    return profile


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
    """Integrate alpha exactly; log coefficients are the finite residues.

    Verifies d(f_global) + sum s_j dz/(z - a_j) == alpha before returning.
    """
    pf = partial_fractions(c.alpha)
    poly = list(pf.poly)
    f = RationalFunction.from_coeffs(
        [ZERO] + [poly[k] / as_scalar(k + 1) for k in range(len(poly))], (ONE,)
    )
    logs = []
    for a, k, coeff in pf.pole_terms:
        if k == 1:
            logs.append((a, coeff))
        else:
            f = f + RationalFunction.from_coeffs(
                (coeff / as_scalar(1 - k),), p_pow_linear(a, k - 1)
            )
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
    try:
        label = doc.get("label", "connection")
        alpha = doc["alpha"]
        num = [parse_scalar(t) for t in alpha["num"]]
        den = [parse_scalar(t) for t in alpha["den"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed connection document: {exc}") from exc
    if not isinstance(label, str):
        raise InputError("connection label must be a string")
    rf = RationalFunction.from_coeffs(num, den)
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
