#!/usr/bin/env python3
"""Benchmark of the ipd package: one workload, one seed, one run.

    python3 ipdbench/run.py --workload analyze_families --seed 0 --seconds 45 --trace 0

A closed loop with one client in one process and one thread: each
connection of the workload is handed to the package only after the
previous one has finished. A run starts whole passes over the workload's
connections until --seconds seconds have passed; every timed call starts
with the package's lru caches empty.

--trace 0 prints the end-to-end metrics; --trace 1 runs each connection
untraced and traced back to back and prints the per-layer metrics (self
times and counts per pass, tracing overhead). The last line of standard
output is the JSON result; the lines before it are the same numbers for a
reader. See ipdbench/README.md for every metric and workload.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
# Names only, so that arguments parse before ipd is imported (workloads.py).
WORKLOADS = ("analyze_families", "dims_corpus", "periods_corpus")
SETUP_SAMPLES = 3
TAIL_ABOVE = 10
REJECT_CLASSES = ("clearance", "anchor", "monodromy", "branch", "structure")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import ipd, build the inputs and exit (one setup_s sample)")
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start, import ipd and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return out


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)
    rel_errs: list[float] = field(default_factory=list)
    failing: dict[str, list[str]] = field(default_factory=dict)
    span_range: tuple[int, int] = (0, 0)


def run_call(wl, wmod, k: int, item, res: PassResult, tracer=None) -> None:
    """One timed call on connection k, traced if a tracer is given; the gate
    runs after the latency is taken."""
    wmod.clear_caches()
    with tracer.installed() if tracer else nullcontext(), \
            tracer.connection(k) if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            result = wl.call(item)
        except Exception as exc:  # a crash is a failed and wrong connection
            result = exc
        res.latencies.append(time.perf_counter() - t0)
    if isinstance(result, Exception):
        outcome = wmod.Outcome()
        outcome.fail(f"raised:{type(result).__name__}", wrong=True)
    else:
        outcome = wl.check(item, result)
    res.rel_errs += outcome.rel_errs
    if outcome.failures:
        res.failed += 1
        res.wrong += bool(outcome.wrong)
        res.reasons.update(set(outcome.failures))
        res.failing[item.label] = outcome.failures


def run_pass(wl, wmod) -> PassResult:
    """One untraced pass over the workload's connections."""
    res = PassResult()
    gc.collect()
    for k, item in enumerate(wl.items):
        run_call(wl, wmod, k, item, res)
    return res


def paired_pass(wl, wmod, tracer, n: int) -> tuple[PassResult, PassResult]:
    """Pass n of a traced run: each connection runs untraced and traced back
    to back, and which of the two goes first alternates from one connection
    (and pass) to the next, so that a drift of the machine's speed cancels
    in traced minus untraced time."""
    untraced, traced = PassResult(), PassResult()
    lo = len(tracer.spans)
    gc.collect()
    for k, item in enumerate(wl.items):
        pair = ((untraced, None), (traced, tracer))
        for res, tr in pair if (k + n) % 2 == 0 else pair[::-1]:
            run_call(wl, wmod, k, item, res, tr)
    traced.span_range = (lo, len(tracer.spans))
    return untraced, traced


def passes_for(seconds: float, run_one) -> list:
    """Whole passes, started until `seconds` have passed; the last one may
    end later."""
    out = []
    end = time.perf_counter() + seconds
    while not out or time.perf_counter() < end:
        out.append(run_one())
    return out


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_ABOVE samples above."""
    xs = sorted(latencies)
    i = max(0, len(xs) - TAIL_ABOVE - 1)
    return xs[i], 100.0 * (i + 1) / len(xs)


def gate_totals(results: list[PassResult]) -> dict:
    attempted = sum(len(r.latencies) for r in results)
    failed = sum(r.failed for r in results)
    reasons = Counter()
    for r in results:
        reasons.update(r.reasons)
    errs = [e for r in results for e in r.rel_errs]
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(r.wrong for r in results),
        "fail_frac": failed / attempted,
        "period_rel_err_max": max(errs) if errs else None,
        "reasons": dict(sorted(reasons.items())),
        "failing": results[0].failing,
    }


def end_to_end(results: list[PassResult], setups: list[float]) -> tuple[dict, dict]:
    """Latency percentiles over all samples. Throughput is over all passes:
    the guest's speed moves within seconds, and the mean over the run's
    passes varies less between runs than the median pass does."""
    lat = [x for r in results for x in r.latencies]
    tail_s, tail_pct = tail(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "conn_per_s": (len(lat) / sum(lat), "1/s"),
        "conn_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "conn_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {
        "setup_samples_s": setups,
        "passes": len(results),
        "samples": len(lat),
        "measured_s": sum(lat),
        "pass_s": [sum(r.latencies) for r in results],
        "conn_tail_pct": tail_pct,
        "conn_tail_above": min(TAIL_ABOVE, len(lat) - 1),
    }
    return metrics, detail


def median_interval(xs: list[float], alpha: float = 0.01) -> tuple[float, float]:
    """Interval of order statistics of sorted xs that holds their median
    with probability at least 1 - alpha (the sign test's interval)."""
    n = len(xs)
    k, below = 0, 0.0  # below: P(Binomial(n, 1/2) < k + 1)
    while True:
        below += math.comb(n, k) / 2.0 ** n
        if 2 * below > alpha:
            break
        k += 1
    k = max(k, 1)
    return xs[k - 1], xs[n - k]


def reject_class(reason: str) -> str:
    if "passes within" in reason:
        return "clearance"
    if reason.startswith("decay ray at"):
        return "anchor"
    if "monodromy is nontrivial" in reason:
        return "monodromy"
    if "winding" in reason or "threaded arg" in reason or "branch" in reason:
        return "branch"
    return "structure"


def per_layer(tracer, wmod, pairs: list[tuple[PassResult, PassResult]]) -> tuple[dict, dict]:
    """Self times (median over traced passes), exact counts (first traced
    pass) and the check that the self times account for the untraced time."""
    from ipd import connection, derham, errors
    from tracing import ARGS, RESULT

    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    selfs = [tracer.self_times(*r.span_range) for r in traced]

    def self_s(name):
        return statistics.median(s.get(name, 0.0) for s in selfs)

    calls = tracer.calls(*traced[0].span_range)
    n_conn = len(traced[0].latencies)
    def returned(name):
        return [s for s in calls[name] if not isinstance(s[RESULT], Exception)]

    bases = returned("derham.h1_basis")
    retries = 0
    for s in bases:
        c = s[ARGS][0]
        default = derham.default_section_bounds(connection.singular_profile(c), derham.h0_dimension(c))
        retries += s[RESULT].bounds_dict() != default
    wmod.clear_caches()
    reports = [s[RESULT] for s in returned("cycles.validate_cycle")]
    rejects = Counter(reject_class(v.reason) for v in reports if not v.valid)
    mats = returned("quadrature.period_matrix")
    periods = [s[RESULT] for s in returned("quadrature.integrate_cycle")]
    untraced_s = statistics.median(sum(r.latencies) for r in untraced)
    traced_s = statistics.median(sum(r.latencies) for r in traced)
    gates = gate_totals(traced[:1])

    # The tracing overhead of a pass is its wrapper spans (root spans are
    # outside the timed call) times the cost of one wrapper. Whether the
    # traced calls take longer than that explains is judged per connection,
    # not on the pass sums: one call can take half a pass (corpus[35] on
    # periods_corpus) and two back-to-back runs of it differ by up to a
    # tenth, more than all other calls' differences together. The self
    # times account for the untraced time if the distribution-free interval
    # of the median relative difference holds the overhead's share.
    wrapper_spans = sum(r.span_range[1] - r.span_range[0] - len(r.latencies) for r in traced) / len(pairs)
    span_cost = tracer.span_cost()
    overhead_s = wrapper_spans * span_cost
    self_sum = sum(sum(s.values()) for s in selfs) / len(pairs)
    untraced_mean = sum(sum(r.latencies) for r in untraced) / len(pairs)
    rel = sorted((t - u) / u for u_res, t_res in pairs for u, t in zip(u_res.latencies, t_res.latencies))
    rel_lo, rel_hi = median_interval(rel)
    overhead_share = overhead_s / untraced_mean

    m = {
        "connection.singular_profile_s": (self_s("connection.singular_profile"), "s"),
        "derham.h1_basis_s": (self_s("derham.h1_basis"), "s"),
        "derham.h1_basis_calls": (len(calls["derham.h1_basis"]) / n_conn, "calls/conn"),
        "derham.doubling_retries": (retries, "count"),
        "derham.h1_dim_sum": (sum(s[RESULT].h1_dim for s in bases), "count"),
        "linalg.span_add_s": (self_s("linalg.span_add"), "s"),
        "linalg.span_add_calls": (len(calls["linalg.span_add"]), "count"),
        "homology.rd_profile_s": (self_s("homology.rd_profile"), "s"),
        "stokes.stokes_geometry_s": (self_s("stokes.stokes_geometry"), "s"),
        "cycles.candidate_basis_s": (self_s("cycles.candidate_basis"), "s"),
        "cycles.validate_cycle_s": (self_s("cycles.validate_cycle"), "s"),
        "cycles.validate_calls": (len(calls["cycles.validate_cycle"]), "count"),
        "cycles.validate_rejects": (sum(rejects.values()), "count"),
        **{f"cycles.validate_rejects.{k}": (rejects[k], "count") for k in REJECT_CLASSES},
        "cycles.basis_not_found": (sum(isinstance(s[RESULT], errors.BasisNotFound)
                                       for s in calls["cycles.candidate_basis"]), "count"),
        "cycles.rank_deficient": (sum(s[RESULT].rank < s[ARGS][2].h1_dim for s in mats), "count"),
        "quadrature.period_matrix_s": (self_s("quadrature.period_matrix"), "s"),
        "quadrature.integrate_cycle_s": (self_s("quadrature.integrate_cycle"), "s"),
        "quadrature.integrate_cycle_calls": (len(calls["quadrature.integrate_cycle"]), "count"),
        "quadrature.segments": (sum(p.segments_used for p in periods), "count"),
        "quadrature.unconverged": (sum(not p.converged for p in periods), "count"),
        "report.generate_report_s": (self_s("report.generate_report"), "s"),
        "bench.glue_s": (self_s("bench.connection"), "s"),
        "fail_frac": (gates["fail_frac"], "frac"),
        "period_rel_err_max": (gates["period_rel_err_max"] or 0.0, "rel"),
        "trace.pass_connections": (n_conn, "count"),
        "trace.untraced_pass_s": (untraced_s, "s"),
        "trace.traced_pass_s": (traced_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.traced_minus_untraced_s": (traced_s - untraced_s, "s"),
    }
    detail = {
        "paired_passes": len(pairs),
        "wrapper_spans": wrapper_spans,
        "span_cost_s": span_cost,
        "self_sum_s": self_sum,
        "untraced_s": untraced_mean,
        "unexplained_s": self_sum - untraced_mean - overhead_s,
        "overhead_share": overhead_share,
        "rel_diff_median": statistics.median(rel),
        "rel_diff_interval": [rel_lo, rel_hi],
        "self_times_account": rel_lo <= overhead_share <= rel_hi,
    }
    return m, detail


# ---------------------------------------------------------------------------
# output


def print_table(title: str, metrics: dict, detail: dict, gates: dict, correct: bool) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    print(f"  correct {correct}; failed {gates['failed']} of {gates['attempted']} "
          f"(fail_frac {gates['fail_frac']:.4g}); period_rel_err_max {gates['period_rel_err_max']}")
    if gates["reasons"]:
        print(f"  failure reasons (connections, all passes): {gates['reasons']}")
        print(f"  failed in the first pass: {gates['failing']}")
    detail = {**detail, "fail_frac": gates["fail_frac"],
              "period_rel_err_max": gates["period_rel_err_max"]}
    print("  detail " + json.dumps(detail))


def main(argv=None) -> int:
    args = parse_args(argv)
    setups = []
    if not args.setup_only and not args.trace:
        setups = setup_seconds(args.workload, args.seed)
    try:
        import workloads as wmod
        wl = wmod.WORKLOADS[args.workload](args.seed)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    wmod.warm_up()

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        n = itertools.count()
        pairs = passes_for(args.seconds, lambda: paired_pass(wl, wmod, tracer, next(n)))
        metrics, detail = per_layer(tracer, wmod, pairs)
        results = [r for pair in pairs for r in pair]
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        results = passes_for(args.seconds, lambda: run_pass(wl, wmod))
        metrics, detail = end_to_end(results, setups)

    gates = gate_totals(results)
    correct = gates["wrong"] == 0
    print_table(f"{args.workload} seed {args.seed} trace {args.trace}", metrics, detail, gates, correct)
    if args.trace:
        print(f"  self times account for the untraced wall time: {detail['self_times_account']} "
              f"(per pass: self times {detail['self_sum_s']:.4f} s, untraced {detail['untraced_s']:.4f} s, "
              f"overhead {metrics['trace.overhead_s'][0]:.4f} s, unexplained {detail['unexplained_s']:+.4f} s; "
              f"per connection: (traced - untraced) / untraced has median {detail['rel_diff_median']:+.4f}, "
              f"99% interval {detail['rel_diff_interval'][0]:+.4f} to {detail['rel_diff_interval'][1]:+.4f}, "
              f"overhead share {detail['overhead_share']:.2e})")
    print(json.dumps({
        "correct": correct,
        "attempted": gates["attempted"],
        "failed": gates["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
