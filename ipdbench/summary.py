#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric per workload
with its median, quartiles and spread (interquartile range over median).

    python3 ipdbench/summary.py --seeds 0-9
    python3 ipdbench/summary.py --seeds 0-4 --workloads dims_corpus --trace 1

Runs are sequential fresh processes of ipdbench/run.py, by default on every
workload it knows (periods_corpus too, which BENCHMARK.json leaves out),
each measuring run_seconds of BENCHMARK.json. The spread of each
end-to-end metric is compared with a third of its bound in BENCHMARK.json.
fail_frac and period_rel_err_max come from each run's detail line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(ln.split("detail ", 1)[1]) for ln in lines if ln.startswith("  detail "))
    return json.loads(lines[-1]), detail


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or list(WORKLOADS)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in workloads:
        results = []
        for seed in args.seeds:
            res, detail = run(workload, seed, seconds, args.trace)
            results.append((res, detail))
            print(f"# {workload} seed {seed}: correct {res['correct']}, failed {res['failed']} "
                  f"of {res['attempted']}", file=sys.stderr, flush=True)
        print(f"{workload}  seeds {args.seeds[0]}-{args.seeds[-1]}  trace {args.trace}  "
              f"correct {all(r['correct'] for r, _ in results)}")
        rows = {}
        for res, detail in results:
            for name, m in res["metrics"].items():
                rows.setdefault(name, (m["unit"], []))[1].append(m["value"])
            if not args.trace:
                for name, unit in (("fail_frac", "frac"), ("period_rel_err_max", "rel"),
                                   ("conn_tail_pct", "%"), ("samples", "count")):
                    if detail[name] is not None:
                        rows.setdefault(name, (unit, []))[1].append(detail[name])
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} unit")
        for name, (unit, values) in rows.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6} {unit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
