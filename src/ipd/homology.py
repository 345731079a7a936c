"""Rapid-decay homology dimensions for a rank-1 connection on P^1.

Everything here is combinatorial and exact.  The homology of the restriction
to the open curve comes from the monodromy of the flat local system; the
rapid-decay correction adds, per irregular point, the count of decay sectors
weighted by the local exponential degree.  The final dimensions are checked
to be integers and to satisfy the expected duality with de Rham cohomology
by the callers in the verification suite, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import Connection, Point, singular_profile
from .errors import InconsistentMonodromy, NonIntegralDimension
from .exact import GaussianRational


@dataclass(frozen=True)
class MonodromyData:
    """Local monodromy exponents of the flat dual local system.

    The stored exponent e at a point means the monodromy multiplier is
    exp(2*pi*i*e); the multiplier is trivial iff e is a rational integer.
    """

    exponents: tuple[tuple[Point, GaussianRational], ...]

    def is_trivial_at(self, p: Point) -> bool:
        for q, e in self.exponents:
            if q == p:
                return e.is_integer()
        raise KeyError(p)

    def all_trivial(self) -> bool:
        return all(e.is_integer() for _, e in self.exponents)


def monodromy(c: Connection, dual: bool = True) -> MonodromyData:
    """Monodromy exponents at every singular point, exactly.

    The dual local system (the one rapid-decay cycles pair with) has
    multiplier exponent +residue at each point; the connection's own flat
    sections have the opposite sign.  The exponents must sum to an integer
    (here: to zero exactly, by the residue theorem).
    """
    sign = 1 if dual else -1
    exps = []
    total = GaussianRational()
    for sp in singular_profile(c):
        e = sp.residue if sign == 1 else -sp.residue
        exps.append((sp.location, e))
        total = total + e
    if total:
        raise InconsistentMonodromy(
            f"monodromy exponents sum to {total}, expected 0"
        )
    return MonodromyData(exponents=tuple(exps))


@dataclass(frozen=True)
class LocalSystemHomology:
    rank_invariants: int
    h0: int
    h1: int


def local_system_homology(mono: MonodromyData) -> LocalSystemHomology:
    """Homology of the rank-1 local system on the punctured line.

    With n punctures the reduced chain complex is V^(n-1) -> V, where the
    map hits (multiplier - 1) factors; it is zero iff every multiplier is
    trivial, and surjective otherwise.
    """
    n = len(mono.exponents)
    if n == 0:
        return LocalSystemHomology(rank_invariants=1, h0=1, h1=0)
    trivial = mono.all_trivial()
    rank = 0 if trivial else 1
    return LocalSystemHomology(
        rank_invariants=1 if trivial else 0, h0=1 - rank, h1=(n - 1) - rank
    )


def local_rd_dim(c: Connection, p: Point) -> Fraction:
    """Local rapid-decay contribution at a singular point.

    For a point of pole order m >= 2 with exponential degree d = m - 1 the
    dual sections decay in d sectors, contributing d local classes for a
    rank-1 block; in the general weighted form this is sum (m_i - 1) dim M_i
    over the exponential blocks, divided by the ramification degree (1 for
    the unramified rank-1 case handled here).
    """
    for sp in singular_profile(c):
        if sp.location == p:
            if sp.pole_order >= 2:
                return Fraction(sp.pole_order - 1)
            return Fraction(0)
    raise KeyError(p)


def require_integer(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NonIntegralDimension(f"{what} = {x} is not an integer")
    return int(x)


@dataclass(frozen=True)
class RapidDecayProfile:
    h0_open: int
    h1_open: int
    h0_rd: int
    h1_rd: int
    local_rd: tuple[tuple[Point, int], ...]


def rd_profile(c: Connection) -> RapidDecayProfile:
    """Rapid-decay homology dimensions of the dual local system.

    Degree-0 classes survive the decay condition only when no singular point
    imposes one (no irregularity anywhere); degree-1 gains one class per
    decay sector at each irregular point.
    """
    mono = monodromy(c, dual=True)
    ls = local_system_homology(mono)
    local = []
    total_rd = 0
    for sp in singular_profile(c):
        d = require_integer(
            local_rd_dim(c, sp.location), f"local decay count at {sp.location}"
        )
        local.append((sp.location, d))
        total_rd += d
    h0_rd = ls.h0 if total_rd == 0 else 0
    h1_rd = ls.h1 + total_rd - ls.h0 + h0_rd
    return RapidDecayProfile(
        h0_open=ls.h0,
        h1_open=ls.h1,
        h0_rd=h0_rd,
        h1_rd=h1_rd,
        local_rd=tuple(local),
    )
