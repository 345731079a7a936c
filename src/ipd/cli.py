"""Command line front end.

Subcommands: analyze, dims, cycles, periods, verify. Everything is
file-in/file-out JSON (CSV available for periods and verify tables).
Exit codes: 0 all checks pass, 1 check failure, 2 input error.
"""

import argparse
import csv
import json
import sys

from .connection import load_connection
from .cycles import candidate_basis, cycle_to_json, load_cycles, validate_cycle
from .derham import h1_basis
from .errors import DomainError, InputError, IpdError
from .quadrature import period_matrix
from .report import dims_json, generate_report, periods_json, profile_json
from .stokes import stokes_geometry
from .suites import SUITE_NAMES, run_suite


def _emit(doc, args) -> None:
    if not args.quiet:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _cmd_analyze(args) -> int:
    c = load_connection(args.connection)
    doc = generate_report(c)
    _emit(doc, args)
    return 0 if all(ch["pass"] for ch in doc["checks"]) else 1


def _cmd_dims(args) -> int:
    c = load_connection(args.connection)
    doc = dims_json(c, h1_basis(c))
    doc["profile"] = profile_json(c)
    _emit(doc, args)
    return 0


def _cmd_cycles(args) -> int:
    c = load_connection(args.connection)
    try:
        cycles = candidate_basis(c)
    except IpdError as exc:
        print(f"cycle search failed: {exc}", file=sys.stderr)
        return 1
    docs = []
    for cy in cycles:
        doc = cycle_to_json(cy)
        anchors = []
        for idx, piece in enumerate(cy.pieces):
            if type(piece).__name__ != "DecayRay":
                continue
            geo = stokes_geometry(c, piece.point)
            lo, hi = geo.decay_sectors[geo.sector_containing(piece.direction)]
            anchors.append(
                {
                    "point": doc["pieces"][idx]["point"],
                    "direction": piece.direction,
                    "sector": [lo, hi],
                }
            )
        doc["anchors"] = anchors
        docs.append(doc)
    _emit(docs, args)
    return 0


def _cmd_periods(args) -> int:
    c = load_connection(args.connection)
    basis = h1_basis(c)
    if args.cycles:
        cycles = load_cycles(args.cycles)
        # file-loaded cycles skip the builder checks, so vet them here
        for cy in cycles:
            rep = validate_cycle(c, cy)
            if not rep:
                raise InputError(f"cycle {cy.label!r}: {rep.reason}")
    else:
        try:
            cycles = candidate_basis(c)
        except IpdError as exc:
            print(f"cycle search failed: {exc}", file=sys.stderr)
            return 1
    mat = period_matrix(c, cycles, basis)
    if args.out == "csv":
        if not args.quiet:
            writer = csv.writer(sys.stdout)
            writer.writerow(
                ["cycle", "form", "value_re", "value_im", "abs_error", "tail_bound", "converged"]
            )
            for cy, row in zip(cycles, mat.entries):
                for form, pv in zip(basis.basis, row):
                    writer.writerow(
                        [cy.label, str(form), repr(pv.value.real), repr(pv.value.imag),
                         repr(pv.abs_error), repr(pv.tail_bound), pv.converged]
                    )
    else:
        doc = periods_json(mat)
        doc["forms"] = [str(f) for f in basis.basis]
        doc["cycles"] = [cy.label for cy in cycles]
        _emit(doc, args)
    converged = all(pv.converged for row in mat.entries for pv in row)
    return 0 if converged else 1


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed, tol=args.tol)
    if args.out == "csv":
        if not args.quiet:
            writer = csv.writer(sys.stdout)
            writer.writerow(["id", "expected", "computed", "abs_err", "rel_err", "pass"])
            for ch in report.checks:
                row = ch.to_json()
                writer.writerow(
                    [row["id"], row["expected"], row["computed"],
                     repr(row["abs_err"]), repr(row["rel_err"]), row["pass"]]
                )
    else:
        _emit(report.to_json(), args)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipd",
        description="Cohomology, homology, and period matrices for rank-1 "
        "connections on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_ok=False):
        p.add_argument(
            "--out",
            choices=["json", "csv"] if csv_ok else ["json"],
            default="json",
            help="output format" + ("" if csv_ok else " (json only)"),
        )
        p.add_argument("--quiet", action="store_true", help="suppress stdout, keep exit code")

    p = sub.add_parser("analyze", help="full report: profile, dims, cycles, periods, checks")
    p.add_argument("connection", help="connection JSON file")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dims", help="cohomology dimensions and basis")
    p.add_argument("connection")
    common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("cycles", help="certified cycle basis (input format for periods)")
    p.add_argument("connection")
    common(p)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("periods", help="period matrix over a cycle basis")
    p.add_argument("connection")
    p.add_argument("--cycles", help="cycle JSON file (default: search for a basis)")
    common(p, csv_ok=True)
    p.set_defaults(func=_cmd_periods)

    p = sub.add_parser("verify", help="run a known-answer suite")
    p.add_argument("suite", choices=list(SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    p.add_argument("--tol", type=float, default=None, help="override suite tolerance")
    common(p, csv_ok=True)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
