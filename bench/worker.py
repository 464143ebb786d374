"""The measured process of one benchmark run (started by run.py).

Imports homsol from ./src, generates the workload's inputs from the seed,
warms up, then carries whole rounds of operations through
`homsol.cli.main([...])` in this process until --seconds have passed.
Prints one JSON line with the figures.

Timing.  Only the CLI calls are timed; an operation's time is the sum of
its calls' wall times.  Every round draws fresh inputs, so every
execution is a first execution of its document.  A round holds the same
operations in the same order, and the timing figures are taken from each
position's fastest execution over the run's rounds (best_times): the
host switches between a fast state and one about 1.5 times slower, for
seconds at a time, and the share of a run spent in each differs from run
to run, which moves means and medians of single executions by up to a
quarter.  Whole runs, and stretches of many minutes, can still fall in a
slow period, so the figures are then scaled to a reference speed of the
host measured by the benchmark's own work on the same operations
(host_slowdown).

Set-up samples.  Between operations, at evenly spaced moments of the run,
the worker starts SETUP_SAMPLES - 1 fresh copies of itself that stop just
before their first timed operation (--setup-only); setup_s is the median
of their set-up times and its own.

With --trace 1 half of the run is timed untraced, then the tracer is
installed for the other half.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP before numpy is imported; cold launches inherit the pins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import oracle as orc
import spec
import workloads as wl
from ops import Checker, OpFailed, Runner, construction_op, doc_op, exact_checks

# a report the checks cannot read (missing key, wrong type, not JSON)
UNREADABLE = (KeyError, IndexError, TypeError, ValueError, AttributeError)
TRACED_MIN_ROUNDS = 1
MIN_ROUNDS = 3  # so that each position has several executions to take the fastest of
TAIL_BEYOND = 10  # positions slower than the one doc_tail_ms reports
SETUP_SAMPLES = 8
VERIFY_CALLS = 5
IMPORT_LAUNCHES = 5
CHILD_TIMEOUT_S = 120
RSS_UNIT_MB = 1.0 / 1024.0  # ru_maxrss is in KiB on Linux

IMPORT_CODE = (
    "import time; t = time.perf_counter(); import homsol.cli; "
    "print(time.perf_counter() - t)"
)


# ---------------------------------------------------------------------------
# cold launches
# ---------------------------------------------------------------------------

def setup_launch(args, chk: Checker) -> float | None:
    """Set-up time of a fresh copy of this worker that stops before timing; None if it failed."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--out-dir", args.out_dir, "--setup-only",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except UNREADABLE:
        chk.expect(False, f"set-up sample exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    chk.expect(out["correct"], "warm-up output of a set-up sample disagrees with the oracle")
    return out["setup_s"]


def import_launch() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip())


class LaunchSchedule:
    """Runs `count` cold launches at evenly spaced moments of the timed loop."""

    def __init__(self, seconds: float, count: int, launch):
        self.plan = [seconds * (i + 0.5) / count for i in range(count)]
        self.launch = launch
        self.samples = []

    def due(self, elapsed: float):
        while self.plan and self.plan[0] <= elapsed:
            self.plan.pop(0)
            self.samples.append(self.launch())

    def finish(self):
        self.due(math.inf)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def warmup_cases(workload: str, seed: int):
    """Every catalog entry at unit scale, or one operation of each family at its smallest size."""
    if workload == "catalog-sweep":
        return wl.catalog_unit_cases()
    first = {}
    make_round = wl.WORKLOADS[workload]
    for case in make_round(np.random.default_rng([seed, 1]), -1):
        first.setdefault(case.family, case)
    return list(first.values())


def machine_info() -> dict:
    cfg = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        cfg = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **cfg,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Loop:
    """Whole rounds of one workload's operations, timed."""

    def __init__(self, workload: str, seed: int, run: Runner, chk: Checker):
        self.make_round = wl.WORKLOADS[workload]
        self.op = construction_op if workload == "construction-roundtrip" else doc_op
        self.rng = np.random.default_rng(seed)
        self.first_round = self.make_round(self.rng, 0)
        self.run, self.chk = run, chk
        # per round, each position's time; None where the operation failed
        self.round_times: list[list[float | None]] = []
        # the same for the benchmark's own work on each operation (see host_speed)
        self.own_times: list[list[float | None]] = []
        self.attempted = self.failed = 0
        self.round_idx = 0
        self.failures: list[str] = []
        self.tracer = None

    def attempt(self, case) -> bool:
        """Run and check one operation; False if a CLI call raised.

        A report the checks cannot read is an oracle disagreement, so the
        run carries on and reports correct = false.
        """
        self.run.op_time = self.run.io_time = 0.0
        try:
            self.op(self.run, self.chk, case)
        except OpFailed as err:
            self.failures.append(f"{case.name}: {err}")
            return False
        except UNREADABLE as err:
            self.chk.expect(False, f"{case.name}: unreadable report: {type(err).__name__}: {err}")
        return True

    def rounds(self, seconds: float, min_rounds: int, schedule=None):
        """Whole rounds until `seconds` have passed and `min_rounds` rounds are done."""
        start = time.monotonic()
        done = 0
        while time.monotonic() - start < seconds or done < min_rounds:
            cases = self.first_round if self.round_idx == 0 else self.make_round(self.rng, self.round_idx)
            times, owns = [], []
            for case in cases:
                if schedule is not None:
                    schedule.due(time.monotonic() - start)
                if self.tracer is not None:
                    self.tracer.op = self.attempted
                self.attempted += 1
                t0 = time.perf_counter()
                if self.attempt(case):
                    times.append(self.run.op_time)
                    owns.append(time.perf_counter() - t0 - self.run.op_time - self.run.io_time)
                else:
                    self.failed += 1
                    times.append(None)
                    owns.append(None)
            self.round_times.append(times)
            self.own_times.append(owns)
            done += 1
            self.round_idx += 1


def best_times(round_times: list[list[float | None]]) -> list[float]:
    """Each position's fastest execution over the rounds; positions that never completed are left out."""
    best = []
    for column in zip(*round_times):
        done = [t for t in column if t is not None]
        if done:
            best.append(min(done))
    return best


def docs_per_s(best: list[float]) -> float:
    return len(best) / sum(best)


def host_slowdown(own_times: list[list[float | None]], workload: str) -> tuple[float, float]:
    """(how many times slower the host ran than the reference host, own work in s).

    The benchmark's own work on an operation (parsing the reports, the
    oracle's checks; not its file writes and reads, whose speed follows
    the shared disk rather than the processor) runs no homsol code and
    does the same work on every run of a workload, so its per-position
    fastest times, summed over a round, measure how fast the host ran
    during these rounds.
    """
    own = sum(best_times(own_times))
    return own / wl.OWN_WORK_REF_S[workload], own


def check_verify_all(chk: Checker, rc: int, text: str):
    """`homsol verify-all --json` passes every check, and names every catalog entry."""
    try:
        report = json.loads(text)
        names = {c["name"].split(":", 1)[0] for c in report["checks"]}
        ok = (
            rc == 0
            and report["passed"]
            and all(c["passed"] for c in report["checks"])
            and names == set(orc.CATALOG_NAMES)
        )
    except UNREADABLE:
        ok = False
    chk.expect(ok, "verify-all output disagrees with the catalog")


def run_exact_checks(workload: str, chk: Checker, first_round):
    """The once-per-run checks; an exception from homsol's nullspace is a disagreement."""
    try:
        exact_checks(workload, chk, first_round)
    except Exception as err:  # noqa: BLE001 - any raise from the checked code fails the run
        chk.expect(False, f"exact checks raised {type(err).__name__}: {err}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import homsol
    from homsol import cli

    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        return _run(args, homsol, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, homsol, cli, workdir: str) -> int:
    chk = Checker()
    run = Runner(cli, workdir)
    loop = Loop(args.workload, args.seed, run, chk)
    for case in warmup_cases(args.workload, args.seed):
        loop.attempt(case)  # a failure is listed in the info line; timed rounds count it
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "correct": not chk.problems}))
        return 0

    info = {"machine": machine_info()}
    if args.trace:
        loop.rounds(args.seconds / 2.0, TRACED_MIN_ROUNDS)
        untraced = docs_per_s(best_times(loop.round_times)) * host_slowdown(loop.own_times, args.workload)[0]
        n_untraced, attempted_untraced = len(loop.round_times), loop.attempted
        # every span the tracer records from here on has op >= attempted_untraced
        from tracer import Tracer, layer_metrics, self_ms_per_call

        loop.tracer = Tracer()
        loop.tracer.install(homsol)
        loop.rounds(args.seconds / 2.0, TRACED_MIN_ROUNDS)
        spans = loop.tracer.spans
        traced = docs_per_s(best_times(loop.round_times[n_untraced:])) * host_slowdown(
            loop.own_times[n_untraced:], args.workload
        )[0]
        metrics = layer_metrics(spans, spec.metrics("per_layer"), loop.attempted - attempted_untraced)
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced / untraced)
        loop.tracer.op = -2
        for _ in range(VERIFY_CALLS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["verify-all", "--json"])
            check_verify_all(chk, rc, buf.getvalue())
        metrics["cli.run_verify_all.self_ms"] = statistics.median(
            self_ms_per_call(spans, "cli.run_verify_all", -2)
        )
        metrics["cli.import_s"] = statistics.median(import_launch() for _ in range(IMPORT_LAUNCHES))
        loop.tracer.dump(os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        run_exact_checks(args.workload, chk, loop.first_round)
    else:
        schedule = LaunchSchedule(args.seconds, SETUP_SAMPLES - 1, lambda: setup_launch(args, chk))
        loop.rounds(args.seconds, MIN_ROUNDS, schedule)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * RSS_UNIT_MB
        schedule.finish()
        run_exact_checks(args.workload, chk, loop.first_round)
        best = sorted(best_times(loop.round_times))
        tail = best[max(0, len(best) - TAIL_BEYOND - 1)]
        setup_samples = [setup_s] + [t for t in schedule.samples if t is not None]
        raw = {
            "docs_per_s": docs_per_s(best),
            "doc_p50_ms": 1000.0 * statistics.median(best),
            "doc_tail_ms": 1000.0 * tail,
        }
        slowdown, own = host_slowdown(loop.own_times, args.workload)
        metrics = {
            "docs_per_s": raw["docs_per_s"] * slowdown,
            "doc_p50_ms": raw["doc_p50_ms"] / slowdown,
            "doc_tail_ms": raw["doc_tail_ms"] / slowdown,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
        }
        info["unscaled"] = raw
        info["host"] = {"own_work_s": own, "slowdown": slowdown}
        info["tail"] = {
            "positions": len(best),
            "beyond": sum(t > tail for t in best),
            "level": 100.0 * (len(best) - TAIL_BEYOND - 1) / max(1, len(best) - 1),
            "rounds": len(loop.round_times),
        }
        info["setup_samples_s"] = setup_samples
    info["problems"] = [p for p in chk.problems if p][:10]
    info["failures"] = loop.failures[:10]
    print(
        json.dumps(
            {
                "correct": not chk.problems,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
                "info": info,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
