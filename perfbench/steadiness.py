#!/usr/bin/env python3
"""Steadiness report for the LEGO benchmark.

    python3 perfbench/steadiness.py [--runs 10]
        [--workloads derive,tune-cold,...] [--markdown FILE]

Runs every workload on seeds 1..--runs through perfbench/run.py and
prints per metric the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the bound BENCHMARK.json allows; a metric is steady
when its spread is below a third of its bound. It then runs seed 1 twice
more per workload, untraced and traced, checks that the deterministic
quantities repeat exactly, and keeps the traced run's per-layer metrics.
The report is printed and, with --markdown, written as Markdown. Exits 1
unless every metric is steady, every check passed and every
deterministic quantity repeated. Run it from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEAT_SEED = 1

# Quantities that are functions of the seed alone.
DETERMINISTIC_E2E = ["index_ops_total", "tuned_sim_us_geomean"]
DETERMINISTIC_TRACED = [
    "gpusim.trace_gen.lanes", "gpusim.coalesce.sectors",
    "gpusim.l2.accesses", "tune.search.evals", "tune.search.pruned",
]


def run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def markdown(report):
    """The report as Markdown tables, one per workload."""
    out = [f"run_seconds = {report['run_seconds']}; spread = (q3 - q1) / median "
           "over the runs' seeds; `ok` = below a third of the bound.", "",
           f"Verdict: **{'steady' if report['steady'] else 'NOT steady'}**.",
           ""]
    for w, entry in report["workloads"].items():
        rows = entry["metrics"]
        runs = len(next(iter(rows.values()))["values"])
        out += [f"### {w} ({runs} runs, failed checks: {entry['failed']})", "",
                "| metric | median | q1 | q3 | spread | bound | ok |",
                "|---|---|---|---|---|---|---|"]
        for name, r in rows.items():
            ok = r["spread"] < r["bound"] / 3
            out.append(f"| {name} | {r['median']:.6g} | {r['q1']:.6g} | "
                       f"{r['q3']:.6g} | {r['spread']:.4f} | {r['bound']} | "
                       f"{'yes' if ok else 'no'} |")
        same = ", ".join(f"{n} {'same' if v else 'DIFFERENT'}"
                         for n, v in entry["repeats_exactly"].items())
        out += ["", f"Seed {REPEAT_SEED} run twice: {same}.", "",
                f"Traced run of seed {REPEAT_SEED} (non-zero per-layer "
                "metrics):", ""]
        out += [f"- `{n}` = {v:.6g}"
                for n, v in entry["traced"].items() if v]
        out.append("")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--markdown", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in workloads:
        seeds = range(1, args.runs + 1)
        results = [run(spec, w, s, 0) for s in seeds]
        rows = {}
        print(f"\n{w}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < bounds[name] / 3
            ok &= steady
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name],
                          "values": vals}
            print(f"  {name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bounds[name]:6.2f}"
                  f"{'' if steady else '  <-- above a third of its bound'}")
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        s = REPEAT_SEED
        a, b = run(spec, w, s, 0), run(spec, w, s, 0)
        ta, tb = run(spec, w, s, 1), run(spec, w, s, 1)
        same = {n: a["metrics"][n]["value"] == b["metrics"][n]["value"]
                for n in DETERMINISTIC_E2E}
        same.update({n: ta["metrics"][n]["value"] == tb["metrics"][n]["value"]
                     for n in DETERMINISTIC_TRACED})
        ok &= all(same.values())
        ok &= all(r["correct"] and r["failed"] == 0 for r in (a, b, ta, tb))
        print(f"  seed {s} twice: " + ", ".join(
            f"{n}={'same' if v else 'DIFFERENT'}" for n, v in same.items()))
        report["workloads"][w] = {
            "metrics": rows, "failed": failed, "repeats_exactly": same,
            "traced": {n: v["value"] for n, v in ta["metrics"].items()},
        }
    report["steady"] = ok
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(markdown(report))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
