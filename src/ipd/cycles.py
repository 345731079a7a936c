"""Piecewise-analytic rapid-decay cycles: construction and validation.

A cycle is an ordered chain of pieces traversed start to end.  Open ends
must be decay rays: the path enters from a singular point inside a decay
sector of the dual flat section, and leaves into one.  At infinity a ray
with local direction theta (in w = 1/z) runs along z-direction -theta.

Branch bookkeeping: the cycle records arg(z - a) for every finite singular
point a at its base point (the first anchor).  One walker, `walk`, continues
these args along every bounded piece by bounded-turn stepping; validation
(`thread_interior`) and quadrature both use it, so Hankel loops acquire
their 2*pi branch shift exactly from the arc around the loop point.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import Optional, Union

from .connection import (
    Connection,
    INFINITY,
    Point,
    finite_singular_points,
    parse_point,
    point_key,
    point_str,
    profile_at,
    read_json,
    singular_profile,
)
from .errors import BasisNotFound, InputError, NotIrregular, SingularApproach
from .homology import rd_profile
from .stokes import ANCHOR_MARGIN, stokes_geometry

DELTA = 1e-4          # hard clearance between path pieces and singular points
ENDPOINT_TOL = 1e-9   # chaining tolerance for consecutive piece endpoints
MAX_SPLIT_DEPTH = 60


# ---------------------------------------------------------------------------
# pieces


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex


@dataclass(frozen=True)
class Arc:
    """Circular arc center + radius*e^(i*theta), theta from theta0 to theta1.

    theta1 > theta0 is counterclockwise; the sweep may reach a full 2*pi
    (Hankel loops) but no more.
    """

    center: complex
    radius: float
    theta0: float
    theta1: float


@dataclass(frozen=True)
class DecayRay:
    """Radial ray at a singular point, in its local coordinate.

    sense "outward": traversed from the singular point to the anchor
    (r: 0 -> anchor_radius); legal only as the first piece of a cycle.
    sense "inward": traversed from the anchor into the singular point;
    legal only as the last piece.  At infinity the local radius is |1/z|,
    so "outward" arrives from far away and "inward" escapes to infinity.
    """

    point: Point
    direction: float
    anchor_radius: float
    sense: str  # "outward" | "inward"

    def anchor(self) -> complex:
        if self.point is INFINITY:
            return cmath.rect(1.0 / self.anchor_radius, -self.direction)
        return complex(self.point) + cmath.rect(self.anchor_radius, self.direction)


Piece = Union[Line, Arc, DecayRay]


def piece_endpoints(p: Piece) -> tuple[Optional[complex], Optional[complex]]:
    """(start, end) in the z-plane; None marks a singular open end."""
    if isinstance(p, Line):
        return p.start, p.end
    if isinstance(p, Arc):
        return (
            p.center + cmath.rect(p.radius, p.theta0),
            p.center + cmath.rect(p.radius, p.theta1),
        )
    if p.sense == "outward":
        return None, p.anchor()
    return p.anchor(), None


# ---------------------------------------------------------------------------
# cycles


@dataclass(frozen=True)
class Cycle:
    label: str
    pieces: tuple[Piece, ...]
    base_args: tuple[tuple[Point, float], ...]
    orientation: int = 1

    def args_dict(self) -> dict[Point, float]:
        return dict(self.base_args)


def default_base_args(c: Connection, pieces: tuple[Piece, ...]) -> tuple:
    """Principal args at the base point; the starting ray's own point, if
    finite, uses the ray direction itself so the branch matches the ray."""
    first = pieces[0]
    base = first.anchor() if isinstance(first, DecayRay) else piece_endpoints(first)[0]
    args = []
    for p, a in finite_singular_points(c).items():
        if isinstance(first, DecayRay) and first.point == p:
            args.append((p, first.direction))
        else:
            args.append((p, cmath.phase(base - a)))
    return tuple(args)


def make_cycle(
    c: Connection, label: str, pieces, base_args=None, orientation: int = 1
) -> Cycle:
    pieces = tuple(pieces)
    if base_args is None:
        base_args = default_base_args(c, pieces)
    return Cycle(label=label, pieces=pieces, base_args=tuple(base_args), orientation=orientation)


# ---------------------------------------------------------------------------
# branch continuation by bounded-turn stepping


def _seg_point_dist(z0: complex, z1: complex, a: complex) -> float:
    d = z1 - z0
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(z0 - a)
    t = ((a - z0).real * d.real + (a - z0).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z0 + t * d - a)


def _chunk_edges(param, tracked: dict, t0: float, t1: float, depth: int = 0):
    """Split [t0, t1] so each chunk's chord is under half its clearance."""
    z0, z1 = param(t0), param(t1)
    if depth > MAX_SPLIT_DEPTH:
        raise SingularApproach("branch stepping did not separate from a singular point")
    for a in tracked.values():
        d = _seg_point_dist(z0, z1, a)
        if d <= 0.0 or abs(z1 - z0) > 0.5 * d:
            tm = 0.5 * (t0 + t1)
            yield from _chunk_edges(param, tracked, t0, tm, depth + 1)
            yield from _chunk_edges(param, tracked, tm, t1, depth + 1)
            return
    yield (t0, t1)


def piece_param(piece: Piece):
    """z(t) and z'(t), t in [0, 1], start to end, for bounded pieces."""
    if isinstance(piece, Line):
        d = piece.end - piece.start
        return (lambda t: piece.start + t * d), (lambda t: d)
    if isinstance(piece, Arc):
        sweep = piece.theta1 - piece.theta0
        return (
            lambda t: piece.center + cmath.rect(piece.radius, piece.theta0 + t * sweep),
            lambda t: 1j * sweep * cmath.rect(piece.radius, piece.theta0 + t * sweep),
        )
    raise InputError("decay rays have no bounded parametrization")


def walk(piece: Piece, tracked: dict[Point, complex], args: dict[Point, float]):
    """Continue the log branches arg(z - a) along a bounded piece.

    Yields (u0, u1, args_at) for each chunk [u0, u1] of the parameter range
    [0, 1], where args_at(z, t) gives the args at z = z(t) inside the chunk,
    then advances `args` in place to the chunk's end.  Arcs are first cut at
    half a radian of sweep; each chunk's chord is then kept under half its
    distance to every stepped point, so no arg moves by pi/2 within a chunk
    and the principal-value increment is the true one.  Around an arc's own
    centre the arg advances exactly with the sweep.
    """
    param, _ = piece_param(piece)
    own = None
    seeds = [(0.0, 1.0)]
    if isinstance(piece, Arc):
        sweep = piece.theta1 - piece.theta0
        own = next(
            (p for p, a in tracked.items() if abs(a - piece.center) < 1e-12), None
        )
        if abs(sweep) > 0.5:
            n = math.ceil(abs(sweep) / 0.5)
            seeds = [(i / n, (i + 1) / n) for i in range(n)]
    stepped = {p: a for p, a in tracked.items() if p != own}

    for s0, s1 in seeds:
        for u0, u1 in _chunk_edges(param, stepped, s0, s1):
            z_base = param(u0)
            base = dict(args)

            def args_at(z, t, base=base, z_base=z_base, u0=u0):
                at = {
                    p: base[p] + cmath.phase((z - a) / (z_base - a))
                    for p, a in stepped.items()
                }
                if own is not None:
                    at[own] = base[own] + sweep * (t - u0)
                return at

            yield u0, u1, args_at
            z_end = param(u1)
            for p, a in stepped.items():
                args[p] += cmath.phase((z_end - a) / (z_base - a))
            if own is not None:
                args[own] += sweep * (u1 - u0)


def thread_interior(
    c: Connection, cy: Cycle
) -> dict[Point, float]:
    """Branch args threaded from the base point to the end of the last
    bounded piece (or to the final anchor when the cycle ends in a ray)."""
    tracked = finite_singular_points(c)
    args = cy.args_dict()
    for p in tracked:
        if p not in args:
            raise InputError(f"cycle carries no branch value for {point_str(p)}")
    for piece in cy.pieces:
        if not isinstance(piece, DecayRay):
            for _ in walk(piece, tracked, args):
                pass
    return args


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    reason: Optional[str]
    closed: bool

    def __bool__(self) -> bool:
        return self.valid


def _fail(reason: str, closed=False) -> ValidityReport:
    return ValidityReport(False, reason, closed)


def _piece_clearance(piece: Piece, a: complex) -> float:
    """Distance from a piece to the singular point a (its z-plane position)."""
    if isinstance(piece, Line):
        return _seg_point_dist(piece.start, piece.end, a)
    if isinstance(piece, Arc):
        d = abs(a - piece.center)
        lo, hi = min(piece.theta0, piece.theta1), max(piece.theta0, piece.theta1)
        if hi - lo >= 2.0 * math.pi - 1e-12:
            return abs(d - piece.radius)
        phi = cmath.phase(a - piece.center)
        for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
            if lo - 1e-12 <= phi + shift <= hi + 1e-12:
                return abs(d - piece.radius)
        e0, e1 = piece_endpoints(piece)
        return min(abs(e0 - a), abs(e1 - a))
    # decay ray at another point: a segment (finite point) or a half line
    if piece.point is INFINITY:
        z0 = piece.anchor()
        direction = cmath.rect(1.0, -piece.direction)
        t = ((a - z0).real * direction.real + (a - z0).imag * direction.imag)
        t = max(0.0, t)
        return abs(z0 + t * direction - a)
    return _seg_point_dist(complex(piece.point), piece.anchor(), a)


def clearances(c: Connection, cy: Cycle):
    """(piece index, point, distance) for each piece and each finite singular
    point it must keep clear of: every one but a decay ray's own point."""
    finite = finite_singular_points(c)
    for i, piece in enumerate(cy.pieces):
        for p, a in finite.items():
            if isinstance(piece, DecayRay) and piece.point == p:
                continue
            yield i, p, _piece_clearance(piece, a)


def validate_cycle(c: Connection, cy: Cycle, delta: float = DELTA) -> ValidityReport:
    """Check the chain, decay anchoring, clearance, and branch consistency.

    Returns a report with the first violated condition; never raises for
    geometric defects.
    """
    if not cy.pieces:
        return _fail("cycle has no pieces")
    for i, piece in enumerate(cy.pieces):
        if isinstance(piece, DecayRay):
            if piece.sense not in ("outward", "inward"):
                return _fail(f"piece {i}: unknown ray sense {piece.sense!r}")
            if piece.sense == "outward" and i != 0:
                return _fail(f"piece {i}: outward decay ray must open the cycle")
            if piece.sense == "inward" and i != len(cy.pieces) - 1:
                return _fail(f"piece {i}: inward decay ray must close the cycle")
            if piece.anchor_radius <= 0:
                return _fail(f"piece {i}: anchor radius must be positive")
        if isinstance(piece, Arc):
            if piece.radius <= 0:
                return _fail(f"piece {i}: arc radius must be positive")
            if abs(piece.theta1 - piece.theta0) > 2.0 * math.pi + 1e-9:
                return _fail(f"piece {i}: arc sweep exceeds a full turn")

    starts_open = isinstance(cy.pieces[0], DecayRay)
    ends_open = isinstance(cy.pieces[-1], DecayRay)
    if starts_open != ends_open:
        return _fail("cycle has one open end; decay rays must pair")
    if len(cy.pieces) == 1 and starts_open:
        return _fail("a single decay ray is a half-open chain, not a cycle")

    # chaining
    for i in range(len(cy.pieces) - 1):
        e = piece_endpoints(cy.pieces[i])[1]
        s = piece_endpoints(cy.pieces[i + 1])[0]
        if e is None or s is None:
            return _fail(f"pieces {i},{i+1}: open end in the interior")
        if abs(e - s) > ENDPOINT_TOL * max(1.0, abs(e)):
            return _fail(f"pieces {i},{i+1}: endpoints do not chain ({e} vs {s})")

    closed = not starts_open
    if closed:
        z_first = piece_endpoints(cy.pieces[0])[0]
        z_last = piece_endpoints(cy.pieces[-1])[1]
        if abs(z_first - z_last) > ENDPOINT_TOL * max(1.0, abs(z_first)):
            return _fail("closed cycle does not return to its base point", closed=True)

    # decay anchoring
    locations = {sp.location for sp in singular_profile(c)}
    for i in (0, len(cy.pieces) - 1):
        piece = cy.pieces[i]
        if not isinstance(piece, DecayRay):
            continue
        if piece.point not in locations:
            return _fail(f"decay ray at {point_str(piece.point)}: not a singular point")
        try:
            st = stokes_geometry(c, piece.point)
        except NotIrregular:
            return _fail(
                f"decay ray at {point_str(piece.point)}: pole order <= 1, "
                "no rapid decay along rays"
            )
        if st.sector_containing(piece.direction, ANCHOR_MARGIN) is None:
            return _fail(
                f"decay ray at {point_str(piece.point)}: direction "
                f"{piece.direction:.6f} is not inside a decay sector"
            )

    # clearance
    for i, p, d in clearances(c, cy):
        if d < delta:
            return _fail(f"piece {i} passes within {d:.2e} of {point_str(p)}")

    # branch consistency
    try:
        final_args = thread_interior(c, cy)
    except SingularApproach as exc:
        return _fail(str(exc), closed=closed)
    except InputError as exc:
        return _fail(str(exc), closed=closed)
    if closed:
        base = cy.args_dict()
        for sp in singular_profile(c):
            p = sp.location
            if p is INFINITY:
                continue
            defect = final_args[p] - base[p]
            winding = round(defect / (2.0 * math.pi))
            if abs(defect - winding * 2.0 * math.pi) > 1e-9:
                return _fail(
                    f"closed cycle has non-integer winding about {point_str(p)}",
                    closed=True,
                )
            if winding:
                scaled = sp.residue * winding
                if not scaled.is_integer():
                    return _fail(
                        f"closed cycle winds {winding}x around {point_str(p)} "
                        "whose monodromy is nontrivial; use a Hankel loop",
                        closed=True,
                    )
    else:
        last = cy.pieces[-1]
        if (
            isinstance(last, DecayRay)
            and last.point is not INFINITY
            and last.point in final_args
        ):
            d = final_args[last.point] - last.direction
            residue = math.remainder(d, 2.0 * math.pi)
            if abs(residue) > 1e-9:
                return _fail(
                    "incoming ray direction disagrees with the threaded arg "
                    f"at {point_str(last.point)} by {residue:.3f}"
                )

    return ValidityReport(valid=True, reason=None, closed=closed)


# ---------------------------------------------------------------------------
# routing: chords with automatic counterclockwise detours


def _detour_radius(c: Connection, sp, finite_points) -> float:
    others = [abs(complex(sp.location) - complex(q)) for q in finite_points if q != sp.location]
    d_near = min(others) if others else math.inf
    r = min(d_near / 3.0, 0.25)
    if sp.is_irregular:
        a, k = sp.leading_term()
        r_safe = (abs(complex(a)) / 2.0) ** (1.0 / k)
        if r_safe > r:
            if r_safe > d_near / 2.0:
                raise BasisNotFound(
                    f"no safe detour radius around {point_str(sp.location)}"
                )
            r = r_safe
    return r


def chord_with_detours(c: Connection, z0: complex, z1: complex) -> list[Piece]:
    """Straight run from z0 to z1, replaced inside each obstacle disk by the
    counterclockwise boundary arc.  Long straight runs are split at their
    midpoint so jitter tests have interior waypoints to move."""
    profile = singular_profile(c)
    finite = [sp for sp in profile if sp.location is not INFINITY]
    pts = [sp.location for sp in finite]
    d = z1 - z0
    L = abs(d)
    if L == 0:
        return []
    hits = []
    for sp in finite:
        a = complex(sp.location)
        r = _detour_radius(c, sp, pts)
        if _seg_point_dist(z0, z1, a) >= r:
            continue
        t_foot = ((a - z0).real * d.real + (a - z0).imag * d.imag) / (L * L)
        if not (0.0 < t_foot < 1.0):
            continue
        h2 = r * r - _seg_point_dist(z0, z1, a) ** 2
        half = math.sqrt(max(h2, 0.0)) / L
        hits.append((t_foot, max(t_foot - half, 0.0), min(t_foot + half, 1.0), a, r))
    hits.sort()
    pieces: list[Piece] = []
    cursor = z0
    for _, t_in, t_out, a, r in hits:
        entry = z0 + t_in * d
        exit_ = z0 + t_out * d
        entry = a + r * (entry - a) / abs(entry - a)
        exit_ = a + r * (exit_ - a) / abs(exit_ - a)
        if abs(entry - cursor) > 1e-14:
            pieces.extend(_split_line(cursor, entry))
        phi0 = cmath.phase(entry - a)
        phi1 = cmath.phase(exit_ - a)
        while phi1 <= phi0:
            phi1 += 2.0 * math.pi
        pieces.append(Arc(center=a, radius=r, theta0=phi0, theta1=phi1))
        cursor = exit_
    if abs(z1 - cursor) > 1e-14:
        pieces.extend(_split_line(cursor, z1))
    return pieces


def _split_line(z0: complex, z1: complex, min_len: float = 0.2) -> list[Line]:
    if abs(z1 - z0) <= min_len:
        return [Line(z0, z1)]
    mid = 0.5 * (z0 + z1)
    return [Line(z0, mid), Line(mid, z1)]


def _anchor_radius_inf(c: Connection) -> float:
    return 2.0 + 2.0 * max(map(abs, finite_singular_points(c).values()), default=0.0)


def _anchor_radius_finite(c: Connection, p: Point) -> float:
    sp = profile_at(c, p)
    others = [abs(complex(p) - a) for q, a in finite_singular_points(c).items() if q != p]
    d_near = min(others) if others else math.inf
    r = min(1.0, d_near / 2.0)
    if sp.exponential_part:
        a, k = sp.leading_term()
        r = max(r, (abs(complex(a)) / 2.0) ** (1.0 / k))
    if r > d_near / 2.0 + 1e-12 and others:
        raise BasisNotFound(f"no safe anchor radius at {point_str(p)}")
    return r


def _ray_anchor_radius(c: Connection, p: Point) -> float:
    if p is INFINITY:
        return 1.0 / _anchor_radius_inf(c)
    return _anchor_radius_finite(c, p)


# ---------------------------------------------------------------------------
# builders


def build_ray_pair(
    c: Connection,
    start: tuple[Point, float],
    end: tuple[Point, float],
    label: Optional[str] = None,
) -> Cycle:
    """Open cycle entering from one decay sector and leaving into another.

    Same finite point: the anchors are joined by the counterclockwise arc at
    the anchor radius.  Otherwise the anchors are joined by a straight run
    with automatic detours.
    """
    (p0, th0), (p1, th1) = start, end
    r0 = _ray_anchor_radius(c, p0)
    r1 = _ray_anchor_radius(c, p1)
    ray_in = DecayRay(point=p0, direction=th0, anchor_radius=r0, sense="outward")
    ray_out = DecayRay(point=p1, direction=th1, anchor_radius=r1, sense="inward")
    a0, a1 = ray_in.anchor(), ray_out.anchor()
    if p0 == p1 and p0 is not INFINITY:
        hi = th1
        while hi <= th0:
            hi += 2.0 * math.pi
        middle: list[Piece] = [Arc(center=complex(p0), radius=r0, theta0=th0, theta1=hi)]
    else:
        middle = chord_with_detours(c, a0, a1)
    name = label or (
        f"ray_pair({point_str(p0)}:{th0:.4f}->{point_str(p1)}:{th1:.4f})"
    )
    return make_cycle(c, name, [ray_in, *middle, ray_out])


def build_circle(
    c: Connection, point: Point, radius: Optional[float] = None, label=None
) -> Cycle:
    if point is INFINITY:
        raise InputError("circles are built around finite points")
    r = radius if radius is not None else _anchor_radius_finite(c, point)
    a = complex(point)
    circle = Arc(center=a, radius=r, theta0=0.0, theta1=2.0 * math.pi)
    name = label or f"circle({point_str(point)};r={r:g})"
    return make_cycle(c, name, [circle])


def build_hankel(
    c: Connection,
    around: Point,
    anchor_point: Point,
    direction: Optional[float] = None,
    radius: float = 1e-2,
    label=None,
) -> Cycle:
    """Loop in from a decay sector, circle `around` once counterclockwise at
    `radius`, and leave along the same ray on the shifted branch."""
    if around is INFINITY:
        raise InputError("hankel loops are built around finite points")
    if direction is None:
        st = stokes_geometry(c, anchor_point)
        a = complex(around)
        candidates = st.bisectors()
        def anchor_of(theta):
            return DecayRay(anchor_point, theta, _ray_anchor_radius(c, anchor_point), "outward").anchor()
        direction = min(candidates, key=lambda th: abs(anchor_of(th) - a))
    r_anchor = _ray_anchor_radius(c, anchor_point)
    ray_in = DecayRay(point=anchor_point, direction=direction, anchor_radius=r_anchor, sense="outward")
    ray_out = DecayRay(point=anchor_point, direction=direction, anchor_radius=r_anchor, sense="inward")
    a = complex(around)
    z0 = ray_in.anchor()
    entry = a + radius * (z0 - a) / abs(z0 - a)
    inward = chord_with_detours(c, z0, entry)
    phi = cmath.phase(entry - a)
    loop = Arc(center=a, radius=radius, theta0=phi, theta1=phi + 2.0 * math.pi)
    outward = chord_with_detours(c, entry, z0)
    name = label or f"hankel({point_str(around)}@{point_str(anchor_point)}:{direction:.4f};r={radius:g})"
    return make_cycle(c, name, [ray_in, *inward, loop, *outward, ray_out])


# ---------------------------------------------------------------------------
# candidate basis


def candidate_basis(c: Connection) -> list[Cycle]:
    """Exactly h1 rapid-decay cycles, or BasisNotFound.

    Pool order: adjacent-valley pairs at each irregular point, cross-point
    pairs between irregular points, circles around finite irregular points
    with trivial monodromy, then Hankel loops around finite regular points
    with nontrivial monodromy.
    """
    target = rd_profile(c).h1_rd
    if target == 0:
        return []
    profile = singular_profile(c)
    irregular = [sp for sp in profile if sp.is_irregular]
    irregular.sort(key=lambda sp: point_key(sp.location))
    geoms = {sp.location: stokes_geometry(c, sp.location) for sp in irregular}

    candidates: list[Cycle] = []

    def try_add(maker):
        try:
            cy = maker()
        except (BasisNotFound, NotIrregular, SingularApproach):
            return
        if validate_cycle(c, cy):
            candidates.append(cy)

    # bisectors come in decay-sector order (by lower sector edge); adjacent
    # pairs are traversed from the lower sector into the next one up
    for sp in irregular:
        bis = geoms[sp.location].bisectors()
        for j in range(len(bis) - 1):
            try_add(
                lambda s=sp, a=bis[j], b=bis[j + 1]: build_ray_pair(
                    c, (s.location, a), (s.location, b)
                )
            )

    for i in range(len(irregular)):
        for j in range(i + 1, len(irregular)):
            p, q = irregular[i].location, irregular[j].location
            for th_p in geoms[p].bisectors():
                for th_q in geoms[q].bisectors():
                    try_add(
                        lambda a=(p, th_p), b=(q, th_q): build_ray_pair(c, a, b)
                    )

    for sp in irregular:
        if sp.location is INFINITY:
            continue
        if sp.residue.is_integer():
            try_add(lambda s=sp: build_circle(c, s.location))

    for sp in profile:
        if sp.location is INFINITY or sp.is_irregular:
            continue
        if not sp.residue.is_integer():
            anchors = [s.location for s in irregular]
            if not anchors:
                continue
            a = complex(sp.location)
            def dist(q):
                if q is INFINITY:
                    return math.inf
                return abs(complex(q) - a)
            anchors.sort(key=lambda q: (dist(q), point_key(q)))
            try_add(lambda s=sp, q=anchors[0]: build_hankel(c, s.location, q))

    if len(candidates) < target:
        raise BasisNotFound(
            f"needed {target} independent cycles for {c.label}, "
            f"found {len(candidates)} valid candidates"
        )
    return candidates[:target]


# ---------------------------------------------------------------------------
# waypoint jitter (perturbation-stability tests)


def jitter_waypoints(cy: Cycle, rng: random.Random, magnitude: float) -> Cycle:
    """Perturb interior Line-Line junctions by up to `magnitude`."""
    pieces = list(cy.pieces)
    for i in range(len(pieces) - 1):
        p, q = pieces[i], pieces[i + 1]
        if isinstance(p, Line) and isinstance(q, Line):
            eps = cmath.rect(rng.uniform(0, magnitude), rng.uniform(0, 2.0 * math.pi))
            w = p.end + eps
            pieces[i] = Line(p.start, w)
            pieces[i + 1] = Line(w, q.end)
    return Cycle(cy.label + "+jitter", tuple(pieces), cy.base_args, cy.orientation)


# ---------------------------------------------------------------------------
# serialization (the `cycles` CLI output is the `periods` input)


def _c2j(z: complex) -> list[float]:
    return [z.real, z.imag]


def _real(v) -> float:
    """A finite JSON number.  Text, booleans, NaN and infinities are refused:
    a NaN radius would keep the walker cutting an arc forever."""
    if type(v) not in (int, float) or not math.isfinite(v):
        raise InputError(f"expected a finite number, got {v!r}")
    return float(v)


def _j2c(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise InputError(f"expected [re, im], got {v!r}")
    return complex(_real(v[0]), _real(v[1]))


def piece_to_json(p: Piece) -> dict:
    if isinstance(p, Line):
        return {"type": "line", "start": _c2j(p.start), "end": _c2j(p.end)}
    if isinstance(p, Arc):
        return {
            "type": "arc",
            "center": _c2j(p.center),
            "radius": p.radius,
            "theta0": p.theta0,
            "theta1": p.theta1,
        }
    return {
        "type": "decay_ray",
        "point": point_str(p.point),
        "direction": p.direction,
        "anchor_radius": p.anchor_radius,
        "sense": p.sense,
    }


def piece_from_json(d: dict) -> Piece:
    try:
        kind = d["type"]
        if kind == "line":
            return Line(_j2c(d["start"]), _j2c(d["end"]))
        if kind == "arc":
            return Arc(
                _j2c(d["center"]),
                _real(d["radius"]),
                _real(d["theta0"]),
                _real(d["theta1"]),
            )
        if kind == "decay_ray":
            return DecayRay(
                parse_point(d["point"]),
                _real(d["direction"]),
                _real(d["anchor_radius"]),
                d["sense"],
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad piece record: {exc}") from exc
    raise InputError(f"unknown piece type {d.get('type')!r}")


def cycle_to_json(cy: Cycle) -> dict:
    return {
        "label": cy.label,
        "orientation": cy.orientation,
        "base_args": {point_str(p): a for p, a in cy.base_args},
        "pieces": [piece_to_json(p) for p in cy.pieces],
    }


def cycle_from_json(d: dict) -> Cycle:
    if not isinstance(d, dict):
        raise InputError("cycle record must be a JSON object")
    orientation = d.get("orientation", 1)
    if type(orientation) is not int or orientation not in (1, -1):
        raise InputError(f"cycle orientation must be 1 or -1, got {orientation!r}")
    pieces, args = d.get("pieces"), d.get("base_args", {})
    if not isinstance(pieces, list):
        raise InputError("cycle pieces must be a JSON list")
    if not isinstance(args, dict):
        raise InputError("cycle base_args must be a JSON object")
    try:
        return Cycle(
            label=str(d.get("label", "cycle")),
            pieces=tuple(piece_from_json(p) for p in pieces),
            base_args=tuple((parse_point(k), _real(v)) for k, v in args.items()),
            orientation=orientation,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad cycle record: {exc}") from exc


def save_cycles(path: str, cycles: list[Cycle]) -> None:
    with open(path, "w") as fh:
        json.dump([cycle_to_json(cy) for cy in cycles], fh, indent=2)


def load_cycles(path: str) -> list[Cycle]:
    data = read_json(path)
    if not isinstance(data, list):
        raise InputError("cycle file must hold a JSON list")
    return [cycle_from_json(d) for d in data]
