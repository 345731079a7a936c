import cmath
import json
import math
import random
from fractions import Fraction

import pytest

from ipd.connection import INFINITY
from ipd.cycles import (
    Arc,
    Cycle,
    DecayRay,
    Line,
    build_circle,
    build_hankel,
    candidate_basis,
    cycle_from_json,
    cycle_to_json,
    jitter_waypoints,
    load_cycles,
    make_cycle,
    save_cycles,
    thread_interior,
    validate_cycle,
    walk,
)
from ipd.errors import InputError
from ipd.exact import as_scalar
from ipd.families import bessel_connection, gamma_connection, gaussian_connection
from ipd.homology import rd_profile


def test_gaussian_real_line_cycle():
    c = gaussian_connection()
    (cy,) = candidate_basis(c)
    rays = [p for p in cy.pieces if isinstance(p, DecayRay)]
    assert len(rays) == 2
    # departs into the valley around arg pi, returns through the valley at 0:
    # first piece leaves the singular point, last one comes back in
    assert rays[0].sense == "outward" and rays[-1].sense == "inward"
    assert validate_cycle(c, cy)
    report = validate_cycle(c, cy)
    assert not report.closed and report.valid


def test_gamma_hankel_cycle():
    c = gamma_connection(Fraction(1, 2))
    (cy,) = candidate_basis(c)
    arcs = [p for p in cy.pieces if isinstance(p, Arc)]
    assert any(abs((a.theta1 - a.theta0) - 2 * math.pi) < 1e-12 for a in arcs)
    assert validate_cycle(c, cy)


def test_bessel_candidates_cover_h1():
    c = bessel_connection(Fraction(1))
    cycles = candidate_basis(c)
    assert len(cycles) == rd_profile(c).h1_rd == 2
    for cy in cycles:
        assert validate_cycle(c, cy)


def test_circle_requires_trivial_monodromy():
    c = gamma_connection(Fraction(1, 2))
    cy = build_circle(c, as_scalar(0), radius=0.5)
    report = validate_cycle(c, cy)
    assert not report.valid
    assert "Hankel" in report.reason


def test_ray_pair_requires_decay_anchor():
    c = gamma_connection(Fraction(1, 2))
    # a radial ray at the regular point 0 has no decay sector to land in
    ray_in = DecayRay(point=as_scalar(0), direction=0.0, anchor_radius=1.0, sense="inward")
    ray_out = DecayRay(point=as_scalar(0), direction=0.0, anchor_radius=1.0, sense="outward")
    cy = make_cycle(c, "bad", (ray_out, ray_in))
    report = validate_cycle(c, cy)
    assert not report.valid
    assert "no rapid decay" in report.reason


def test_validate_rejects_gapped_chain():
    c = gaussian_connection()
    pieces = (
        Line(start=complex(-1, 0), end=complex(0, 0)),
        Line(start=complex(1, 0), end=complex(2, 0)),
    )
    report = validate_cycle(c, make_cycle(c, "gap", pieces))
    assert not report.valid


def test_closed_loop_winding_must_be_integral():
    # closed circle around a fractional-residue point is rejected,
    # around an integer-residue point it passes
    c_ok = bessel_connection(Fraction(1))
    cy = build_circle(c_ok, as_scalar(0), radius=1.0)
    assert validate_cycle(c_ok, cy)


def test_cycle_json_roundtrip():
    c = bessel_connection(Fraction(1))
    for cy in candidate_basis(c):
        doc = json.loads(json.dumps(cycle_to_json(cy)))
        back = cycle_from_json(doc)
        assert back.label == cy.label
        assert len(back.pieces) == len(cy.pieces)
        assert validate_cycle(c, back)


def test_save_load_cycles(tmp_path):
    c = gamma_connection(Fraction(1, 2))
    cycles = candidate_basis(c)
    path = tmp_path / "cycles.json"
    save_cycles(str(path), cycles)
    back = load_cycles(str(path))
    assert [cy.label for cy in back] == [cy.label for cy in cycles]


def test_load_cycles_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(InputError):
        load_cycles(str(path))
    path.write_text("[{\"label\": \"x\"}]")
    with pytest.raises(InputError):
        load_cycles(str(path))
    # numbers must be finite JSON numbers; a NaN radius made `periods` hang
    circle = cycle_to_json(build_circle(bessel_connection(Fraction(1)), as_scalar(0), 1.0))
    arc = circle["pieces"][0]
    assert cycle_from_json(circle).pieces[0].radius == 1.0
    for bad in ({"radius": float("nan")}, {"radius": "1.0"}, {"center": [math.inf, 0]},
                {"theta1": True}, {"radius": 10**400}):
        with pytest.raises(InputError):
            cycle_from_json(dict(circle, pieces=[dict(arc, **bad)]))
    with pytest.raises(InputError):
        cycle_from_json(dict(circle, base_args={"0": "0.5"}))


def test_jitter_keeps_validity():
    rng = random.Random(4)
    c = gaussian_connection()
    (cy,) = candidate_basis(c)
    for _ in range(5):
        moved = jitter_waypoints(cy, rng, 0.05)
        assert validate_cycle(c, moved)


def test_hankel_around_infinity_anchor():
    c = gamma_connection(Fraction(1, 3))
    cy = build_hankel(c, as_scalar(0), INFINITY, radius=1e-2)
    assert validate_cycle(c, cy)
    rays = [p for p in cy.pieces if isinstance(p, DecayRay)]
    assert all(r.point is INFINITY for r in rays)


def _point_on(piece, t):
    if isinstance(piece, Line):
        return piece.start + t * (piece.end - piece.start)
    return piece.center + cmath.rect(piece.radius, piece.theta0 + t * (piece.theta1 - piece.theta0))


def _segment_distance(z0, z1, a):
    d = z1 - z0
    t = ((a - z0) * d.conjugate()).real / abs(d) ** 2
    return abs(z0 + min(1.0, max(0.0, t)) * d - a)


WALK_POINTS = {as_scalar(0): 0j, as_scalar("1/2+1/5i"): complex(0.5, 0.2)}
WALK_PIECES = [
    Line(complex(-1, 0.01), complex(1, 0.01)),
    Arc(center=0j, radius=0.5, theta0=0.0, theta1=2.0 * math.pi),
    Arc(center=complex(1, 0), radius=0.9, theta0=2.0, theta1=4.5),
]


@pytest.mark.parametrize("piece", WALK_PIECES)
def test_walk_chunks_tile_and_keep_clear(piece):
    own = [p for p, a in WALK_POINTS.items() if isinstance(piece, Arc) and a == piece.center]
    args = {p: cmath.phase(_point_on(piece, 0.0) - a) for p, a in WALK_POINTS.items()}
    chunks = [(u0, u1) for u0, u1, _ in walk(piece, WALK_POINTS, args)]
    assert chunks[0][0] == 0.0 and chunks[-1][1] == 1.0
    assert all(prev[1] == nxt[0] for prev, nxt in zip(chunks, chunks[1:]))
    for u0, u1 in chunks:
        assert u0 < u1
        z0, z1 = _point_on(piece, u0), _point_on(piece, u1)
        for p, a in WALK_POINTS.items():
            if p not in own:
                assert abs(z1 - z0) < 0.5 * _segment_distance(z0, z1, a)
    # the walked args end on the branch continued to the piece's end
    z_end = _point_on(piece, 1.0)
    for p, a in WALK_POINTS.items():
        assert math.remainder(args[p] - cmath.phase(z_end - a), 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    for p in own:
        assert args[p] - cmath.phase(_point_on(piece, 0.0)) == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_thread_interior_turns_once_around_the_hankel_point():
    c = gamma_connection(Fraction(1, 2))
    (cy,) = candidate_basis(c)
    loop_point = as_scalar(0)
    final = thread_interior(c, cy)
    assert final[loop_point] - cy.args_dict()[loop_point] == pytest.approx(2.0 * math.pi, abs=1e-12)
