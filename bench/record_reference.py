"""Record `reference.json`, the output values the benchmark checks against.

    python3 bench/record_reference.py

Runs the `spectrum` workload once and the `gmres` and `schwarz` workloads
once per program seed, and stores the spectral radius of I - M^-1 A per
omega, the GMRES iteration count per seed and the final Schwarz error
(err_max, err_l2, dominant mode) per seed.  Run it only on a commit whose
outputs are trusted; the recorded file comes from the commit the
benchmark was introduced on.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402


def outputs(workload: str, seed: int):
    """Run a workload once; returns the runner and its output directories."""
    runner = run.Runner(workload, seed, time.monotonic(), None)
    _, result = runner.spawn(runner.commands, False)
    if any(result["exit_codes"]):
        raise SystemExit(f"{workload} seed {seed}: exit codes {result['exit_codes']}")
    return runner, [os.path.join(runner.dir, str(i)) for i in range(len(runner.commands))]


def main() -> int:
    run.HARD_LIMIT_S = 600.0  # one repetition per call, no benchmark deadline
    reference = {"spectrum_radius": {}, "gmres_iters": {}, "schwarz_final": {}}
    runner, outs = outputs("spectrum", 0)
    for argv, out in zip(runner.commands, outs):
        omega = argv[argv.index("--omega") + 1]
        reference["spectrum_radius"][omega] = workloads.spectral_radius(out)[1]
    for seed in range(workloads.PROGRAM_SEEDS):
        _, (out,) = outputs("gmres", seed)
        reference["gmres_iters"][str(seed)] = workloads.gmres_outcome(out)[1]
        _, (out,) = outputs("schwarz", seed)
        reference["schwarz_final"][str(seed)] = workloads.schwarz_final(out)[1]
        print(seed, reference["gmres_iters"][str(seed)], reference["schwarz_final"][str(seed)])
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
