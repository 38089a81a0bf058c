"""Benchmark of the `elastic-schwarz` command line.

    python3 bench/run.py --workload gmres --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout.  Every repetition runs the workload's
command list (see `workloads.py`) in a fresh interpreter, one at a time,
with the BLAS/OpenMP thread count pinned.  The benchmark repeats until
``--seconds`` have passed (at least MIN_REPS times) and checks every
command's output against `reference.json`.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median over repetitions of the time from the first
  `cli.main` call to the last return, rescaled to a reference host speed
  (`host_adjusted`); the raw times are printed next to it;
- ``setup_s``: median time from starting the interpreter until
  `elastic_schwarz.cli` and its numpy/scipy imports are ready, over
  SETUP_PROBES import-only interpreters plus every repetition, rescaled
  the same way;
- ``peak_rss_mb``: median peak resident memory of a repetition's process;
- ``ok_ratio``: commands that exited 0 and passed their output checks,
  over the commands attempted.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of `spans.layer_metrics` (medians over the traced
repetitions) plus ``trace.wall_s`` and ``trace.overhead_s``, the traced
minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
start with ``#`` and give the environment, sample counts and spreads.
Without the package sources under ``src/`` it exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

sys.path.insert(0, BENCH)
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
SETUP_PROBES = 3
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# One BLAS/OpenMP thread per worker.  A second thread barely speeds up the
# dense eigvals at n = 1,482 (mostly serial Hessenberg QR), and a two-thread
# BLAS call waits for the slower of two independently contended cores.
BLAS_THREADS = 1
# HostProbe duration that defines the reference host speed (about its
# duration in a quiet phase of the machine the benchmark was written on).
PROBE_REF_S = 0.018
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s", **spans.LAYER_METRICS}


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts worker interpreters one at a time and keeps the deadline."""

    def __init__(self, workload: str, seed: int, started: float, reference: dict | None):
        self.workload = workload
        self.started = started
        self.dir = os.path.join(RUN_DIR, workload)
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = str(BLAS_THREADS)
        self.reference = reference
        self.commands = workloads.commands(workload, seed)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, commands, trace: bool) -> tuple[float, dict]:
        """Run one worker; returns its set-up time and its result."""
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        result_path = os.path.join(self.dir, "result.json")
        spec = {
            "src": SRC, "commands": commands, "out": self.dir,
            "trace": trace, "result": result_path,
        }
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=max(self.remaining(), 1.0),
        )
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(
                f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        return result["ready"] - t0, result

    def repetition(self, trace: bool) -> dict:
        """One run of the command list, with its output checks."""
        setup, result = self.spawn(self.commands, trace)
        ok = 0
        for index, (argv, code) in enumerate(zip(self.commands, result["exit_codes"])):
            out = os.path.join(self.dir, str(index))
            problems = workloads.check(out, argv, code, self.reference)
            if problems:
                print(f"{self.workload}: {' '.join(argv)}: {'; '.join(problems)}",
                      file=sys.stderr)
            else:
                ok += 1
        result["setup_s"] = setup
        result["ok"] = ok
        if trace:
            result["layers"] = spans.layer_metrics(result["spans"], output_bytes(self.dir))
        return result


def output_bytes(directory: str) -> int:
    """Bytes of everything the commands wrote (one subdirectory each)."""
    total = 0
    for entry in os.scandir(directory):
        if entry.is_dir():
            for path, _, files in os.walk(entry.path):
                total += sum(os.path.getsize(os.path.join(path, f)) for f in files)
    return total


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.6g}"
    return "no tail percentile (needs 20 samples)"


def host_adjusted(seconds: float, worker: dict) -> float:
    """A time measured in a worker, rescaled to the reference host speed by
    the HostProbe durations measured in the same worker process."""
    return seconds * PROBE_REF_S / worker["probe_s"]


def describe(name: str, unit: str, values: list[float]) -> str:
    return (
        f"# {name} = {statistics.median(values):.6g} {unit}: median of n={len(values)}, "
        f"{tail_percentile(values)}, range {min(values):.6g}..{max(values):.6g}"
    )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one workload; returns the result object."""
    started = time.monotonic()
    runner = Runner(workload, seed, started, workloads.load_reference())
    # Warm-up: compiles bytecode on a fresh checkout and records the versions.
    _, warm = runner.spawn([], False)
    env = {
        "nproc": nproc(), "cpu": cpu_model(), "blas_threads": BLAS_THREADS,
        **warm["env"],
    }
    print(f"# env {json.dumps(env)}")
    imports = [] if trace else [runner.spawn([], False) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    rounds = []  # duration of each round (one repetition, or an untraced/traced pair)
    while True:
        round_start = time.monotonic()
        for with_trace in ((False, True) if trace else (False,)):
            (traced if with_trace else plain).append(runner.repetition(with_trace))
        rounds.append(time.monotonic() - round_start)
        # Start another round only if it is expected to end within --seconds.
        expected_end = time.monotonic() - started + statistics.median(rounds)
        if len(plain) >= (1 if trace else MIN_REPS) and expected_end > seconds:
            break
        if runner.remaining() < 1.5 * max(rounds):
            break

    reps = plain + traced
    attempted = len(runner.commands) * len(reps)
    ok = sum(r["ok"] for r in reps)
    print(f"# workload={workload} seed={seed} program_seed={seed % workloads.PROGRAM_SEEDS} "
          f"trace={int(trace)} repetitions={len(reps)} commands={attempted}")
    walls = [host_adjusted(r["wall_s"], r) for r in plain]
    print(describe("raw wall time", "s", [r["wall_s"] for r in plain]))
    print(describe("HostProbe", "s", [r["probe_s"] for r in plain]))
    if trace:
        traced_walls = [host_adjusted(r["wall_s"], r) for r in traced]
        values = {
            "trace.wall_s": statistics.median(traced_walls),
            "trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls),
        }
        for name in spans.LAYER_METRICS:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        print(describe("wall_s (untraced)", "s", walls))
        print(describe("trace.wall_s", "s", traced_walls))
        units = TRACE_UNITS
    else:
        imports += [(r["setup_s"], r) for r in plain]
        setups = [host_adjusted(seconds, worker) for seconds, worker in imports]
        print(describe("raw set-up time", "s", [seconds for seconds, _ in imports]))
        rss = [r["peak_rss_mb"] for r in plain]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "ok_ratio": ok / attempted,
        }
        print(describe("wall_s", "s", walls))
        print(describe("setup_s", "s", setups))
        print(describe("peak_rss_mb", "MB", rss))
        print(f"# ok_ratio = {ok}/{attempted}")
        units = E2E_UNITS
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds subprocess.run, which kills the worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isfile(os.path.join(SRC, "elastic_schwarz", "cli.py")):
        print(f"no package sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # One table for every workload, then a combined result line.
    metrics = {}
    for w, res in results.items():
        line = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"# {w:9s} {line}")
        metrics.update({f"{w}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
