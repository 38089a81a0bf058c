"""One repetition of a workload, in a fresh interpreter.

Started by `run.py` with one JSON argument:
``{"src", "commands", "out", "trace", "result"}``.  It imports the
package from ``src`` (the import time is the benchmark's set-up), runs
every command of the list through `elastic_schwarz.cli.main`, each with
its own output directory ``<out>/<index>``, and writes ``result``:

- ``ready``: `time.monotonic()` once `elastic_schwarz.cli` (with numpy and
  scipy) is imported; the parent subtracts its own clock reading from
  just before it started this process;
- ``wall_s``: from the first `cli.main` call to the last return;
- ``probe_s``: median duration of `HostProbe`, run PROBES times right
  after the imports (before the first command) and, with commands, PROBES
  times just after the last;
- ``exit_codes``: one per command, EXIT_CRASHED where `cli.main` raised;
- ``peak_rss_mb``: this process's peak resident memory;
- ``env``: library versions and BLAS vendor;
- ``spans``: with tracing on, the span list of `spans.Tracer`.

With an empty command list it only imports and records ``ready``,
``probe_s`` and ``env``: the set-up probe.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback

EXIT_CRASHED = -1  # cli.main raised instead of returning an exit code
PROBES = 4


class HostProbe:
    """A fixed mix of interpreter work (a Python loop) and cache-bound work
    (random gathers over 1 MB), the two kinds of work the workloads do.
    Its duration tracks how fast the host runs this process right now.
    Its 2 MB add little to the peak resident memory."""

    def __init__(self, np):
        self._data = np.ones(1 << 17)
        self._order = np.random.default_rng(0).permutation(1 << 17)
        self._np = np

    def __call__(self) -> float:
        start = time.perf_counter()
        x = 0
        for j in range(200_000):
            x += j * j
        for _ in range(16):
            self._np.take(self._data, self._order).sum()
        return time.perf_counter() - start


def _environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        vendor = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    from elastic_schwarz import cli

    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"elastic_schwarz imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    probe = HostProbe(np)
    probes = [probe() for _ in range(PROBES)]
    result = {"ready": ready, "env": _environment(np, scipy)}
    if spec["commands"]:
        result.update(_run(cli, spec))
        probes += [probe() for _ in range(PROBES)]
    result["probe_s"] = statistics.median(probes)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(cli, spec) -> dict:
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    exit_codes = []
    start = time.perf_counter()
    for index, argv in enumerate(spec["commands"]):
        out = os.path.join(spec["out"], str(index))
        try:
            exit_codes.append(cli.main(list(argv) + ["--out", out]))
        except Exception:  # a failed command is counted, the others still run
            traceback.print_exc()
            exit_codes.append(EXIT_CRASHED)
    return {
        "wall_s": time.perf_counter() - start,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }


if __name__ == "__main__":
    sys.exit(main())
