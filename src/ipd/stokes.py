"""Stokes directions and decay sectors at irregular singular points.

All angles are directions in the local coordinate centered at the point
(z - p at a finite point, w = 1/z at infinity; a w-direction theta at
infinity is the z-direction -theta).  The section is always the dual flat
section exp(+integral alpha), the one rapid-decay cycles pair with; the
connection's own flat section is the dual section of `dualize(c)`.  If it
behaves like exp(a * w^-k) to leading order, it decays along direction
theta exactly when cos(arg(a) - k*theta) < 0, giving k open decay sectors
of width pi/k separated by 2k Stokes rays on which the exponential merely
oscillates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .connection import Connection, Point, point_str, profile_at
from .errors import NotIrregular

TWO_PI = 2.0 * math.pi
ANCHOR_MARGIN = 1e-6


def _norm_angle(theta: float) -> float:
    t = math.fmod(theta, TWO_PI)
    if t < 0:
        t += TWO_PI
    return t


@dataclass(frozen=True)
class StokesGeometry:
    """Decay geometry of one irregular point, in its local coordinate."""

    point: Point
    exponential_degree: int
    rays: tuple[float, ...]
    decay_sectors: tuple[tuple[float, float], ...]

    def bisectors(self) -> tuple[float, ...]:
        return tuple(_norm_angle(0.5 * (lo + hi)) for lo, hi in self.decay_sectors)

    def sector_containing(self, theta: float, margin: float = ANCHOR_MARGIN):
        """Index of the decay sector holding direction theta, or None.

        The direction must sit at least `margin` radians inside the open
        sector; anchors on or near a Stokes ray are rejected.
        """
        for i, (lo, hi) in enumerate(self.decay_sectors):
            off = _norm_angle(theta - lo)
            if margin <= off <= (hi - lo) - margin:
                return i
        return None


def _geometry_from_leading(
    p: Point, a_arg: float, k: int
) -> StokesGeometry:
    rays = sorted(
        _norm_angle((a_arg + s * 0.5 * math.pi + TWO_PI * j) / k)
        for j in range(k)
        for s in (-1.0, 1.0)
    )
    sectors = []
    for j in range(k):
        lo = (a_arg - 1.5 * math.pi + TWO_PI * j) / k
        hi = (a_arg - 0.5 * math.pi + TWO_PI * j) / k
        lo_n = _norm_angle(lo)
        sectors.append((lo_n, lo_n + (hi - lo)))
    sectors.sort()
    return StokesGeometry(
        point=p,
        exponential_degree=k,
        rays=tuple(rays),
        decay_sectors=tuple(sectors),
    )


def stokes_geometry(c: Connection, p: Point) -> StokesGeometry:
    """Stokes rays and decay sectors of the dual flat section at p.

    Raises NotIrregular when the point has pole order <= 1, since the decay
    pattern is then governed by the monodromy exponent, not by sectors.
    """
    sp = profile_at(c, p)
    if not sp.is_irregular:
        raise NotIrregular(
            f"{point_str(p)} has pole order {sp.pole_order}; no Stokes rays"
        )
    a, k = sp.leading_term()
    return _geometry_from_leading(p, cmath.phase(complex(a)), k)


def stokes_geometry_from_term(p: Point, a: complex, k: int) -> StokesGeometry:
    """Geometry for an explicit leading term a * w^-k (k >= 1, a != 0)."""
    if k < 1:
        raise NotIrregular(f"exponential degree {k} < 1 has no Stokes rays")
    if a == 0:
        raise NotIrregular("zero leading coefficient has no Stokes rays")
    return _geometry_from_leading(p, cmath.phase(complex(a)), k)
