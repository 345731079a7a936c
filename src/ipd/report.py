"""Full-analysis report for a single connection.

Collects the singular profile, both dimension computations, the cycle basis,
the period matrix, and a battery of internal consistency checks into one JSON
document. Deterministic for a fixed input and seed: wall-clock data is never
included.
"""

from . import __version__
from .connection import Connection, connection_to_json, point_str, singular_profile
from .cycles import candidate_basis, cycle_to_json
from .derham import CohomologyBasis, euler_characteristics, h1_basis
from .errors import IpdError
from .homology import rd_profile
from .quadrature import period_matrix
from .suites import CheckResult, _exact_check, _threshold_check


def dims_json(c: Connection, basis: CohomologyBasis) -> dict:
    """The `dims` document of `basis = h1_basis(c)`: both cohomology
    dimensions plus Euler data."""
    orders = [p.pole_order for p in singular_profile(c)]
    euler = euler_characteristics(1, 0, [[(m, 1)] for m in orders], len(orders))
    return {
        "h0": basis.h0_dim,
        "h1": basis.h1_dim,
        "chi_dr": basis.h0_dim - basis.h1_dim,
        "chi_top": euler.chi_top,
        "basis": [str(f) for f in basis.basis],
    }


def profile_json(c: Connection) -> dict:
    """The homology-side profile document."""
    prof = rd_profile(c)
    return {
        "h1_U": prof.h1_open,
        "h0_U": prof.h0_open,
        "local": [{"point": point_str(p), "dim": d} for p, d in prof.local_rd],
        "h1_XD": prof.h1_rd,
        "h0_XD": prof.h0_rd,
    }


def _period_entry_json(pv) -> dict:
    return {
        "value": [pv.value.real, pv.value.imag],
        "abs_error": pv.abs_error,
        "tail_bound": pv.tail_bound,
        "segments": pv.segments_used,
        "converged": pv.converged,
    }


def periods_json(mat) -> dict:
    det = mat.determinant
    return {
        "entries": [[_period_entry_json(pv) for pv in row] for row in mat.entries],
        "rank": mat.rank,
        "determinant": None if det is None else [det.real, det.imag],
        "scale": mat.scale,
    }


def generate_report(c: Connection) -> dict:
    """Assemble the complete analysis document for one connection.

    Component failures (no valid cycle basis, lattice trouble) become failing
    check entries instead of exceptions, so a report always comes back.
    """
    doc: dict = {"version": __version__, "connection": connection_to_json(c)}
    checks: list[CheckResult] = []

    basis = h1_basis(c)
    prof = rd_profile(c)
    doc["profile"] = profile_json(c)
    doc["dims"] = dims_json(c, basis)

    checks.append(_exact_check("duality.h1", basis.h1_dim, prof.h1_rd))
    checks.append(_exact_check("duality.h0", basis.h0_dim, prof.h0_rd))
    orders = [p.pole_order for p in singular_profile(c)]
    euler = euler_characteristics(1, 0, [[(m, 1)] for m in orders], len(orders))
    if not euler.non_reduced:
        checks.append(
            _exact_check("chi.formula", euler.chi_dr, basis.h0_dim - basis.h1_dim)
        )
    five = (
        prof.h1_open - prof.h1_rd + sum(d for _, d in prof.local_rd)
        - prof.h0_open + prof.h0_rd
    )
    checks.append(_exact_check("homology.five_term_sum", 0, five))

    try:
        cycles = candidate_basis(c)
    except IpdError as exc:
        cycles = []
        checks.append(
            CheckResult("cycles.basis", basis.h1_dim, f"error: {exc}", 0.0, 0.0, False)
        )
    doc["cycles"] = [cycle_to_json(cy) for cy in cycles]

    if cycles and basis.basis:
        try:
            mat = period_matrix(c, cycles, basis)
            doc["periods"] = periods_json(mat)
            converged = all(pv.converged for row in mat.entries for pv in row)
            checks.append(_exact_check("quadrature.converged", 1, int(converged)))
            if mat.determinant is not None and basis.h1_dim > 0:
                checks.append(
                    _threshold_check(
                        "pairing.det>",
                        1e-6 * mat.scale ** len(cycles),
                        abs(mat.determinant),
                        exceed=True,
                    )
                )
        except IpdError as exc:
            doc["periods"] = {"entries": [], "rank": 0, "determinant": None, "scale": 0.0}
            checks.append(
                CheckResult("periods.matrix", "computed", f"error: {exc}", 0.0, 0.0, False)
            )
    else:
        doc["periods"] = {"entries": [], "rank": 0, "determinant": None, "scale": 0.0}
        if basis.h1_dim == 0 and basis.h0_dim == 1:
            # degree-0 pairing: the flat section against the full point class
            checks.append(_exact_check("pairing.h0_note", basis.h0_dim, prof.h0_rd))

    doc["checks"] = [ch.to_json() for ch in checks]
    return doc
