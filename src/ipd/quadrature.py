"""Numerical periods: flat-section evaluation and cycle integration.

The integrand along a cycle is (dual flat section) * (rational 1-form).
The section is exp(f(z) + sum_j s_j log(z - a_j)) with f rational and the
log branches threaded along the path by the walker `cycles.walk`, the same
one that validation uses: every piece is cut into chunks short enough that
no arg(z - a_j) moves by pi/2 within a chunk, so principal-value
continuation from the chunk base is unambiguous.  Bounded chunks use
adaptive Gauss-Kronrod 7-15, which stops unconverged once its error estimate
is at the rounding level; decay rays use dyadic chunks with an explicit
exponential tail bound once the integrand falls below the truncation
threshold.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .connection import (
    Connection,
    INFINITY,
    finite_singular_points,
    global_antiderivative,
    profile_at,
)
from .cycles import DELTA, Cycle, DecayRay, Line, Piece, clearances, piece_param, walk
from .derham import CohomologyBasis
from .errors import InputError, SingularApproach
from .exact import RationalFunction
from .families import bessel_parameter

EXP_CAP = 700.0
TRUNCATE_REL = 1e-16
MAX_RAY_CHUNKS = 64
_ROUNDOFF = 50.0 * sys.float_info.epsilon
RANK_TOL = 1e-6   # period_matrix rank: singular values above RANK_TOL x largest entry

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK QK15 constants)
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


# ---------------------------------------------------------------------------
# section evaluation


class _SectionContext:
    """Precomputed data for evaluating the dual flat section."""

    def __init__(self, c: Connection):
        self.connection = c
        anti = global_antiderivative(c)
        self.f = anti.f_global
        self.log_terms = [
            (p, complex(p), complex(s)) for p, s in anti.log_terms
        ]
        self.tracked = finite_singular_points(c)

    def section(self, z: complex, args: dict) -> complex:
        w = complex(self.f.eval_complex(z))
        for p, a, s in self.log_terms:
            w += s * complex(math.log(abs(z - a)), args[p])
        if not w.real <= EXP_CAP:  # NaN too: inf - inf far out on a path
            raise SingularApproach(
                "flat section overflow: the path crosses a growth region"
            )
        return cmath.exp(w)


def flat_section_eval(c: Connection, z: complex, args: Optional[dict] = None) -> complex:
    """Evaluate the dual flat section exp(+integral alpha) at z with given (or
    principal) log branches; `dualize(c)` gives the connection's own section."""
    ctx = _SectionContext(c)
    if args is None:
        args = {p: cmath.phase(z - a) for p, a, _ in ctx.log_terms}
    return ctx.section(z, args)


# ---------------------------------------------------------------------------
# chunked integration along a parametrized path


def _gk15(f, a: float, b: float):
    """(kronrod, |kronrod - gauss|, L1 mass) of f over [a, b]; the mass is
    the Kronrod rule applied to |f|."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fk = 0j
    fg = 0j
    fa = 0.0
    for i, x in enumerate(_XGK):
        w = _WGK[i]
        if x == 0.0:
            v = f(mid)
            fk += w * v
            fg += _WG[3] * v
            fa += w * abs(v)
        else:
            v1 = f(mid - half * x)
            v2 = f(mid + half * x)
            fk += w * (v1 + v2)
            fa += w * (abs(v1) + abs(v2))
            if i % 2 == 1:
                fg += _WG[i // 2] * (v1 + v2)
    return fk * half, abs(fk - fg) * abs(half), fa * abs(half)


def _adaptive_gk(f, a: float, b: float, abs_tol: float, est, max_depth: int = 13):
    """Recursive bisection Gauss-Kronrod from est = _gk15(f, a, b); returns
    (value, err, converged).

    Bisection stops unconverged once err <= 50 eps * (L1 mass), QUADPACK's
    rounding level (Piessens et al. 1983), below which halving cannot lower
    the estimate.
    """
    val, err, mass = est
    if err <= abs_tol or b - a <= 1e-15 * max(abs(a), abs(b), 1.0):
        return val, err, True
    if max_depth == 0 or err <= _ROUNDOFF * mass:
        return val, err, False
    mid = 0.5 * (a + b)
    v1, e1, c1 = _adaptive_gk(f, a, mid, 0.5 * abs_tol, _gk15(f, a, mid), max_depth - 1)
    v2, e2, c2 = _adaptive_gk(f, mid, b, 0.5 * abs_tol, _gk15(f, mid, b), max_depth - 1)
    return v1 + v2, e1 + e2, c1 and c2


@dataclass
class _Accum:
    value: complex = 0j
    abs_error: float = 0.0
    tail_bound: float = 0.0
    l1: float = 0.0
    segments: int = 0
    converged: bool = True


def _integrate_piece(
    ctx: _SectionContext,
    form: RationalFunction,
    piece: Piece,
    args: dict,
    acc: _Accum,
    rel_tol: float,
) -> None:
    """Integrate F(z) dz over a Line or Arc, threading args in place."""
    param, dparam = piece_param(piece)
    for u0, u1, args_at in walk(piece, ctx.tracked, args):

        def integrand(t):
            z = param(t)
            return ctx.section(z, args_at(z, t)) * complex(form.eval_complex(z)) * dparam(t)

        est = _gk15(integrand, u0, u1)
        tol = rel_tol * max(acc.l1, abs(acc.value), 1.0, est[2])
        val, err, ok = _adaptive_gk(integrand, u0, u1, tol, est)
        acc.value += val
        acc.abs_error += err
        acc.l1 += abs(val)
        acc.segments += 1
        acc.converged = acc.converged and ok


def _ray_decay_rate(ctx: _SectionContext, ray: DecayRay) -> tuple[float, int]:
    """(gamma, k): the section decays like exp(-gamma r^-k) at a finite point
    (exp(-gamma R^k) in |z| = R at infinity) along the ray direction."""
    a, k = profile_at(ctx.connection, ray.point).leading_term()
    gamma = -(complex(a) * cmath.rect(1.0, -k * ray.direction)).real
    # directions on a Stokes line give gamma ~ 1e-16*|a| from rounding,
    # far below the ~1e-6*|a| floor a margin-respecting anchor has
    if gamma <= 1e-11 * abs(complex(a)):
        raise SingularApproach(
            "decay ray direction does not decay; invalid cycle"
        )
    return gamma, k


def _integrate_ray(ctx, form, ray: DecayRay, args: dict, acc, rel_tol):
    """Integral over the ray in its traversal direction, starting or ending
    at the anchor whose branch args are `args`; they are threaded in place
    from the anchor to the decaying end."""
    gamma, k = _ray_decay_rate(ctx, ray)
    at_inf = ray.point is INFINITY
    if at_inf:
        z_dir = cmath.rect(1.0, -ray.direction)
        r0 = 1.0 / ray.anchor_radius
    else:
        z_dir = cmath.rect(1.0, ray.direction)
        r0 = ray.anchor_radius
        p = complex(ray.point)

    def z_of(r: float) -> complex:
        return r * z_dir if at_inf else p + r * z_dir

    # S = integral from the anchor toward the decaying end, in r-space
    sub = _Accum()
    sub.l1 = acc.l1
    r_hi = r0
    for _ in range(MAX_RAY_CHUNKS):
        r_next = r_hi * 2.0 if at_inf else r_hi * 0.5
        seg = Line(z_of(r_hi), z_of(r_next))
        _integrate_piece(ctx, form, seg, args, sub, rel_tol)
        r_hi = r_next
        f_edge = abs(
            ctx.section(z_of(r_hi), args)
            * complex(form.eval_complex(z_of(r_hi)))
        )
        scale = max(sub.l1, abs(acc.value), 1.0)
        if f_edge * r_hi * 4.0 < TRUNCATE_REL * scale:
            break
    else:
        sub.converged = False
    if at_inf:
        tail = 2.0 * f_edge / (gamma * k * r_hi ** (k - 1))
    else:
        tail = 2.0 * f_edge * r_hi ** (k + 1) / (gamma * k)

    # traversal sign: sub.value is anchor -> decaying end
    sign = 1.0 if ray.sense == "inward" else -1.0
    acc.value += sign * sub.value
    acc.abs_error += sub.abs_error
    acc.tail_bound += tail
    acc.l1 = max(acc.l1, sub.l1)
    acc.segments += sub.segments
    acc.converged = acc.converged and sub.converged


# ---------------------------------------------------------------------------
# public entry points


@dataclass(frozen=True)
class PeriodValue:
    value: complex
    abs_error: float
    tail_bound: float
    segments_used: int
    scale: float
    converged: bool


def integrate_cycle(
    c: Connection,
    cy: Cycle,
    form: RationalFunction,
    rel_tol: float = 1e-12,
) -> PeriodValue:
    """Period of (dual section) * form over the cycle.

    The branch args start from the cycle's declared base args; pieces are
    integrated in traversal order.  A piece passing within DELTA of a
    singular point raises SingularApproach.  Failure to meet the tolerance
    is reported through converged=False, not an exception.
    """
    ctx = _SectionContext(c)
    for i, _, d in clearances(c, cy):
        if d < DELTA:
            raise SingularApproach(
                f"piece {i} passes within {d:.2e} of a singular point"
            )

    acc = _Accum()
    args = cy.args_dict()
    for i, piece in enumerate(cy.pieces):
        if isinstance(piece, DecayRay):
            # a ray threads its args out to the decaying end, so an opening
            # ray gets a copy and the interior starts from the anchor branch
            _integrate_ray(ctx, form, piece, dict(args) if i == 0 else args, acc, rel_tol)
        else:
            _integrate_piece(ctx, form, piece, args, acc, rel_tol)

    value = acc.value * cy.orientation
    return PeriodValue(
        value=value,
        abs_error=acc.abs_error,
        tail_bound=acc.tail_bound,
        segments_used=acc.segments,
        scale=max(acc.l1, abs(value)),
        converged=acc.converged,
    )


@dataclass(frozen=True)
class PeriodMatrix:
    entries: tuple[tuple[PeriodValue, ...], ...]
    rank: int
    determinant: Optional[complex]
    scale: float


def period_matrix(
    c: Connection,
    cycles: list[Cycle],
    basis: CohomologyBasis,
) -> PeriodMatrix:
    """All pairings cycle x basis form, with numerical rank and determinant.

    The rank counts the singular values of the value matrix above
    RANK_TOL * (largest entry magnitude).
    """
    entries = tuple(
        tuple(integrate_cycle(c, cy, form) for form in basis.basis)
        for cy in cycles
    )
    if not entries or not basis.basis:
        return PeriodMatrix(entries, 0, None, 0.0)
    m = np.array([[e.value for e in row] for row in entries], dtype=complex)
    scale = float(np.max(np.abs(m)))
    rank = int(np.linalg.matrix_rank(m, tol=RANK_TOL * scale))
    det = complex(np.linalg.det(m)) if m.shape[0] == m.shape[1] else None
    return PeriodMatrix(entries, rank, det, scale)


def parametric_derivative_period(
    c: Connection, cy: Cycle, form: RationalFunction, order: int = 1
) -> PeriodValue:
    """d^k/dz^k of the period, for the Bessel family with parameter z.

    Differentiating under the integral multiplies the integrand by
    ((u^2 - 1) / 2u)^k; only k <= 2 is supported.
    """
    if order < 0 or order > 2:
        raise InputError("parameter derivatives are supported for order <= 2")
    bessel_parameter(c)  # InputError when not in the family
    if order == 0:
        return integrate_cycle(c, cy, form)
    factor = RationalFunction.from_coeffs([-1, 0, 1], [0, 2])
    g = form
    for _ in range(order):
        g = g * factor
    return integrate_cycle(c, cy, g)
