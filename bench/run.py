"""homsol benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding src/homsol).
The workloads are catalog-sweep, derivation-ladder and
construction-roundtrip; bench/README.md describes them.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run.  The line before it describes the
machine, the tail percentile used and the set-up samples.

The measured work runs in one child process (bench/worker.py), which pins
BLAS and OpenMP to one thread; this process byte-compiles the sources,
starts it and labels its figures with the units in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time

import spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def worker_timeout_s(seconds: float) -> float:
    """Room for the timed loop, its cold launches, the last round and the exact checks."""
    return max(170.0, 3.0 * seconds + 60.0)


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="checked by the worker")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "homsol", "cli.py")):
        return fail("run from the root of a homsol checkout: src/homsol/cli.py not found")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {name: m["unit"] for name, m in spec.metrics(kind).items()}
    # byte-compile once so that no timed launch pays for compilation
    if not compileall.compile_dir(os.path.join(root, "src"), quiet=1):
        return fail("src does not compile")
    compileall.compile_dir(BENCH_DIR, quiet=1)

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR,
    ]
    t0 = time.monotonic()
    # its own session, so that a timeout also stops the worker's children
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    timeout = worker_timeout_s(args.seconds)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail(f"worker did not finish within {timeout:g} s")
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}: {err.strip()[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(result["info"]))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    k: {"value": float(result["metrics"][k]), "unit": u} for k, u in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
