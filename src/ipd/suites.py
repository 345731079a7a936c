"""Known-answer verification suites.

Five named suites (gaussian, gamma, bessel, dimensions, invariants) exercise
the engine against oracle values and internal identities. Every expected
number is produced by the oracles module at run time; nothing is hard-coded.

Check semantics: equality checks compare computed against expected at a
relative tolerance. Threshold checks (ids ending in a comparison hint) store
the threshold as `expected` and pass when computed clears it; abs_err and
rel_err then record the violation margin, zero when passing.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .connection import singular_profile
from .corpus import connection_corpus, random_lattice_section
from .cycles import build_circle, build_hankel, candidate_basis, jitter_waypoints
from .derham import euler_characteristics, h1_basis, nabla_applied
from .errors import InputError
from .exact import GaussianRational, Rational, as_scalar
from .families import bessel_connection, gamma_connection, gaussian_connection
from .homology import rd_profile
from .oracles import bessel_j, lanczos_gamma
from .quadrature import integrate_cycle, parametric_derivative_period, period_matrix
from .stokes import stokes_geometry_from_term

SUITE_NAMES = ("gaussian", "gamma", "bessel", "dimensions", "invariants")

_DEFAULT_TOL = {
    "gaussian": 1e-9,
    "gamma": 1e-8,
    "bessel": 1e-8,
    "dimensions": 0.0,
    "invariants": 1e-8,
}


@dataclass(frozen=True)
class CheckResult:
    id: str
    expected: complex
    computed: complex
    abs_err: float
    rel_err: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "expected": _num_json(self.expected),
            "computed": _num_json(self.computed),
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [ch.to_json() for ch in self.checks],
            "pass": self.passed,
        }


def _num_json(v):
    if isinstance(v, complex):
        if v.imag == 0.0:
            return v.real
        return [v.real, v.imag]
    return v


def _close_check(cid: str, expected, computed, tol: float) -> CheckResult:
    abs_err = abs(computed - expected)
    denom = abs(expected)
    rel_err = abs_err / denom if denom else abs_err
    return CheckResult(cid, expected, computed, abs_err, rel_err, rel_err < tol)


def _exact_check(cid: str, expected: int, computed: int) -> CheckResult:
    abs_err = float(abs(computed - expected))
    return CheckResult(cid, expected, computed, abs_err, abs_err, computed == expected)


def _threshold_check(cid: str, threshold: float, computed: float, exceed: bool) -> CheckResult:
    ok = computed > threshold if exceed else computed < threshold
    margin = 0.0 if ok else abs(computed - threshold)
    rel = margin / abs(threshold) if threshold else margin
    return CheckResult(cid, threshold, computed, margin, rel, ok)


def _suite_gaussian(seed: int, tol: float) -> list[CheckResult]:
    c = gaussian_connection()
    basis = h1_basis(c)
    cy = candidate_basis(c)[0]
    pv = integrate_cycle(c, cy, basis.basis[0])
    expected = lanczos_gamma(0.5)  # sqrt(pi)
    return [_close_check("gaussian.sqrt_pi", expected, pv.value, tol)]


def _suite_gamma(seed: int, tol: float) -> list[CheckResult]:
    checks = []
    for s in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        c = gamma_connection(s)
        basis = h1_basis(c)
        cy = candidate_basis(c)[0]
        pv = integrate_cycle(c, cy, basis.basis[0])
        sv = float(s)
        expected = (cmath.exp(2j * math.pi * sv) - 1.0) * lanczos_gamma(sv)
        checks.append(_close_check(f"gamma.hankel(s={s})", expected, pv.value, tol))
    c = gamma_connection(Fraction(1, 2))
    basis = h1_basis(c)
    vals = []
    from .connection import INFINITY

    for r in (1e-2, 1e-3):
        cy = build_hankel(c, as_scalar(0), INFINITY, radius=r)
        vals.append(integrate_cycle(c, cy, basis.basis[0]).value)
    checks.append(_close_check("gamma.radius_independence", vals[0], vals[1], tol))
    return checks


def _suite_bessel(seed: int, tol: float) -> list[CheckResult]:
    from .exact import RationalFunction

    checks = []
    c = bessel_connection(Fraction(1))
    basis = h1_basis(c)
    for n in (0, 1, 2):
        form = RationalFunction.from_coeffs([1], [0] * (n + 1) + [1])
        cy = build_circle(c, as_scalar(0), radius=1.0)
        pv = integrate_cycle(c, cy, form)
        expected = 2j * math.pi * bessel_j(n, 1.0)
        checks.append(_close_check(f"bessel.circle(n={n})", expected, pv.value, tol))

    cycles = candidate_basis(c)
    mat = period_matrix(c, cycles, basis)
    checks.append(
        _threshold_check(
            "bessel.pairing_det>", 1e-6 * mat.scale**2, abs(mat.determinant), exceed=True
        )
    )

    # d/dz of the circle period of du/u is 2*pi*i*J0'(z) = -2*pi*i*J1(z)
    circle = build_circle(c, as_scalar(0), radius=1.0)
    form0 = RationalFunction.from_coeffs([1], [0, 1])
    d1 = parametric_derivative_period(c, circle, form0, order=1)
    checks.append(
        _close_check("bessel.j0_derivative", -2j * math.pi * bessel_j(1, 1.0), d1.value, tol)
    )

    # holonomy: z^2 P'' + z P' + z^2 P = 0 for the du/u periods, z = 1
    for cy in cycles:
        p0 = integrate_cycle(c, cy, form0).value
        p1 = parametric_derivative_period(c, cy, form0, order=1).value
        p2 = parametric_derivative_period(c, cy, form0, order=2).value
        resid = abs(p2 + p1 + p0)
        scale = max(abs(p0), abs(p1), abs(p2))
        checks.append(
            _threshold_check(f"bessel.ode_residual[{cy.label}]<", 1e-6 * scale, resid, exceed=False)
        )

    # |P(0.01i)| > |P(0.1i)|: the second solution is unbounded near z = 0
    grow = []
    for t in (Fraction(1, 100), Fraction(1, 10)):
        z = GaussianRational(Rational(0), Rational(t))
        ct = bessel_connection(z)
        bt = h1_basis(ct)
        ray_cycles = [cy for cy in candidate_basis(ct) if cy.label.startswith("ray_pair")]
        grow.append(abs(integrate_cycle(ct, ray_cycles[0], bt.basis[0]).value))
    checks.append(_threshold_check("bessel.growth|H0(0.01i)|>", grow[1], grow[0], exceed=True))
    return checks


def _suite_dimensions(seed: int, tol: float) -> list[CheckResult]:
    corpus = connection_corpus(100, seed)
    fails_h1 = fails_h0 = fails_chi = fails_seq = fails_euler = 0
    for c in corpus:
        basis = h1_basis(c)
        prof = rd_profile(c)
        pole_orders = [p.pole_order for p in singular_profile(c)]
        n = len(pole_orders)
        euler = euler_characteristics(1, 0, [[(m, 1)] for m in pole_orders], n)
        if basis.h1_dim != prof.h1_rd:
            fails_h1 += 1
        if basis.h0_dim != prof.h0_rd:
            fails_h0 += 1
        if basis.h1_dim != basis.h0_dim - euler.chi_dr:
            fails_chi += 1
        seq = (
            prof.h1_open
            - prof.h1_rd
            + sum(d for _, d in prof.local_rd)
            - prof.h0_open
            + prof.h0_rd
        )
        if seq != 0:
            fails_seq += 1
        if euler.chi_dr - euler.chi_top != -sum(m - 1 for m in pole_orders):
            fails_euler += 1
    return [
        _exact_check("dimensions.h1_duality_failures", 0, fails_h1),
        _exact_check("dimensions.h0_duality_failures", 0, fails_h0),
        _exact_check("dimensions.chi_identity_failures", 0, fails_chi),
        _exact_check("dimensions.five_term_failures", 0, fails_seq),
        _exact_check("dimensions.euler_difference_failures", 0, fails_euler),
    ]


def _suite_invariants(seed: int, tol: float) -> list[CheckResult]:
    rng = random.Random(seed)
    checks = []

    ray_fails = sector_fails = 0
    for m in range(2, 7):
        k = m - 1
        for _ in range(50):
            re = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            im = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if re == 0 and im == 0:
                re = Fraction(1)
            a = GaussianRational(Rational(re), Rational(im))
            geo = stokes_geometry_from_term(as_scalar(0), a, k)
            if len(geo.rays) != 2 * k:
                ray_fails += 1
            if len(geo.decay_sectors) != k:
                sector_fails += 1
    checks.append(_exact_check("invariants.stokes_ray_failures", 0, ray_fails))
    checks.append(_exact_check("invariants.stokes_sector_failures", 0, sector_fails))

    families = [
        ("gaussian", gaussian_connection()),
        ("gamma", gamma_connection(Fraction(1, 2))),
        ("bessel", bessel_connection(Fraction(1))),
    ]
    for name, c in families:
        basis = h1_basis(c)
        cy = candidate_basis(c)[0]
        worst = 0.0
        for _ in range(20):
            g = random_lattice_section(rng, c, basis)
            pv = integrate_cycle(c, cy, nabla_applied(c, g))
            worst = max(worst, abs(pv.value) / max(pv.scale, 1e-300))
        checks.append(_threshold_check(f"invariants.exactness[{name}]<", tol, worst, exceed=False))

    for name, c in families:
        basis = h1_basis(c)
        cy = candidate_basis(c)[0]
        base = integrate_cycle(c, cy, basis.basis[0]).value
        worst = 0.0
        for _ in range(3):
            moved = jitter_waypoints(cy, rng, 0.05)
            val = integrate_cycle(c, moved, basis.basis[0]).value
            worst = max(worst, abs(val - base) / abs(base))
        checks.append(_threshold_check(f"invariants.jitter[{name}]<", tol, worst, exceed=False))
    return checks


_SUITES = {
    "gaussian": _suite_gaussian,
    "gamma": _suite_gamma,
    "bessel": _suite_bessel,
    "dimensions": _suite_dimensions,
    "invariants": _suite_invariants,
}


def run_suite(name: str, seed: int = 0, tol: Optional[float] = None) -> SuiteReport:
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose one of {', '.join(SUITE_NAMES)}")
    checks = _SUITES[name](seed, _DEFAULT_TOL[name] if tol is None else tol)
    return SuiteReport(name, tuple(checks), all(ch.passed for ch in checks))
