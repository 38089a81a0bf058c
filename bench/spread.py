"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --workloads gmres schwarz --seeds 1-10 --seconds 20
    python3 bench/spread.py --seeds 1-10 --out bench/baseline.json
    python3 bench/spread.py --seeds 1,1 --trace 1 --out bench/baseline_trace.json

Runs `run.py` once per seed and workload, one run at a time, and prints
for every metric the median, the quartiles (`statistics.quantiles(values,
n=4)`) and the spread (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json.  With ``--out`` it also writes every value it saw, the
other medians the runs printed (raw wall time, probe time) and the
environment record of the first run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_range(text: str) -> list[int]:
    """``1-10`` or a comma list such as ``1,1`` (the same seed twice)."""
    if "," in text:
        return [int(part) for part in text.split(",")]
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the values seen to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    seen: dict = {}
    units: dict = {}
    extra: dict = {}
    env = None
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            env = env or next(
                (json.loads(line[6:]) for line in lines if line.startswith("# env ")), None
            )
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            for line in lines:  # medians printed as "# <what> = <value> ..."
                what, sep, rest = line[2:].partition(" = ")
                if line.startswith("# ") and sep and what not in result["metrics"]:
                    extra.setdefault(workload, {}).setdefault(what, []).append(
                        float(rest.split()[0].split("/")[0])
                    )
        seen[workload] = values
        if len(set(args.seeds)) == 1:  # same input every run: counts must repeat
            differ = [n for n, v in values.items() if units[n] != "s" and len(set(v)) > 1]
            print(f"{workload}: counts that differ between runs: {differ or 'none'}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:9s} {name:28s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if bounds and args.trace == 0:
        print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "seeds": args.seeds, "seconds": args.seconds,
                       "trace": args.trace, "values": seen, "printed": extra}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
