"""Repeat mode: run one workload N times and judge each metric against its bound.

    python3 bench/repeat.py --workload derivation-ladder --runs 10 [--first-seed 1]
                            [--save set1.json]
    python3 bench/repeat.py --compare set1.json set2.json

Run from the checkout root.  Each run is an untraced run of BENCHMARK.json's
run_seconds with its own seed (first-seed, first-seed + 1, ...).  For every
end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json; a spread
at or above a third of the bound is marked.  --compare reports, for two
saved sets of the same workload, how far the second median moved in the
"worse" direction as a share of the first median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import spec as bench_spec

RUN = [sys.executable, "bench/run.py"]


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return out


def report(summary: dict, spec: dict):
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, s in summary.items():
        bound = spec[name]["bound"]
        flag = ""
        if s["spread"] >= bound / 3.0:
            flag = "  <-- spread >= bound/3" if s["spread"] < bound else "  <-- spread >= bound"
        print(
            f"{name:44s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
            f"{s['spread']:8.4f} {bound:6.2f}{flag}"
        )


def compare(path_a: str, path_b: str, spec: dict):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"{a['workload']}: {path_a} -> {path_b}")
    for name, sa in a["summary"].items():
        sb = b["summary"][name]
        m = spec[name]
        worse = (sb["median"] - sa["median"]) / sa["median"]
        if m["better"] == "higher":
            worse = -worse
        verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
        print(f"  {name:42s} {sa['median']:12.5g} {sb['median']:12.5g} worse by {worse:+.4f} {verdict}")
    print(f"  failed share: {a['failed_share']} -> {b['failed_share']}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", default=None)
    ap.add_argument("--compare", nargs=2, default=None)
    args = ap.parse_args()
    spec = bench_spec.metrics("end_to_end")
    if args.compare:
        compare(*args.compare, spec)
        return 0
    seconds = bench_spec.run_seconds()
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = RUN + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        res["seed"] = seed
        res["info"] = json.loads(lines[-2])
        runs.append(res)
        short = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} {res['attempted']}/{res['failed']} {short}", flush=True)
    summary = summarise(runs)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"all correct: {all(r['correct'] for r in runs)}; failed shares: {shares}")
    report(summary, spec)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seconds": seconds,
                    "runs": runs,
                    "summary": summary,
                    "failed_share": shares,
                },
                fh,
                indent=1,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
