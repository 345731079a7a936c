"""Rapid-decay homology dimensions for a rank-1 connection on P^1.

Everything here is combinatorial and exact, and read from the singular
profile alone.  The dual local system on the open curve U = P^1 - D has
monodromy exp(2*pi*i*s) at a point of residue s, so its homology is that of
the trivial system exactly when every residue is an integer; otherwise H_0
vanishes and H_1 loses one class.  The rapid-decay correction adds m - 1
decay sectors at each point of pole order m.  The final dimensions are
checked against de Rham cohomology by the callers in the verification suite,
not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connection import Connection, Point, singular_profile


@dataclass(frozen=True)
class RapidDecayProfile:
    h0_open: int
    h1_open: int
    h0_rd: int
    h1_rd: int
    local_rd: tuple[tuple[Point, int], ...]


def rd_profile(c: Connection) -> RapidDecayProfile:
    """Rapid-decay homology dimensions of the dual local system.

    On U with n = |D| >= 1 punctures the reduced chain complex is
    V^(n-1) -> V, zero when the monodromy is trivial and onto otherwise.
    Degree-0 classes survive the decay condition only when no point imposes
    one (no irregularity anywhere); degree-1 gains one class per decay
    sector at each irregular point.
    """
    profile = singular_profile(c)
    h0_open = int(all(sp.residue.is_integer() for sp in profile))
    h1_open = len(profile) - 2 + h0_open
    local = tuple((sp.location, max(sp.pole_order - 1, 0)) for sp in profile)
    total_rd = sum(d for _, d in local)
    h0_rd = h0_open if total_rd == 0 else 0
    return RapidDecayProfile(
        h0_open=h0_open,
        h1_open=h1_open,
        h0_rd=h0_rd,
        h1_rd=h1_open + total_rd - h0_open + h0_rd,
        local_rd=local,
    )
