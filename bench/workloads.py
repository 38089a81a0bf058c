"""The benchmark's workloads and the checks of their outputs.

A workload is a list of `elastic-schwarz` command lines run in one
interpreter.  Why each exists:

- ``modes``: the closed-form analysis and its coefficient-space oracle
  (`sweep`, `verify`, `modesim` at omega = 1 and 5, reference medium,
  delta = 0.1).  No FEM work at all, so it is the bypass workload for
  every FEM or solver change.
- ``spectrum``: the dense spectrum of the RAS-preconditioned operator at
  40x20 and omega = 1, 5 (the fig2 configuration): dense eigensolve plus
  one subdomain solve per free dof to build the operator.
- ``gmres``: RAS-preconditioned GMRES to tol = 1e-6 plus 50 stationary RAS
  steps at 320x160, omega = 5.  About 81 subdomain solves per
  factorization: solve-heavy.
- ``schwarz``: 25 Schwarz sweeps at 320x160, omega = 1.  25 solves per
  factorization and a 51,681-node CSV and binary field written:
  factor-heavy, and the only workload with large output.

The benchmark seed selects the program seed ``seed % PROGRAM_SEEDS``.
`reference.json` holds, for each program seed, the values recorded on the
commit the benchmark was introduced on, so every input has its own
reference.
"""

from __future__ import annotations

import csv
import json
import math
import os

PROGRAM_SEEDS = 16
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Tolerances of the reference comparisons.  They are loose against the
# last bits, which a change of LU ordering or summation order moves, and
# tight against any change of the computed result.
RADIUS_RTOL = 1e-6
ERROR_RTOL = 1e-6
GMRES_ITER_SLACK = 2
EIG_DEVIATION_MAX = 1e-10

_MODES_K_COUNT = 20001


def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """Command lines of one workload; ``tiny`` shrinks every mesh and grid
    for the benchmark's own smoke test."""
    program_seed = str(seed % PROGRAM_SEEDS)
    fem_mesh = ["--nx", "16", "--ny", "8"] if tiny else ["--nx", "320", "--ny", "160"]
    if workload == "modes":
        k_count = "201" if tiny else str(_MODES_K_COUNT)
        lists = []
        for omega in ("1", "5"):
            common = ["--omega", omega, "--delta", "0.1"]
            lists += [
                ["sweep", "--k-count", k_count] + common,
                ["verify"] + common,
                ["modesim"] + common,
            ]
    elif workload == "spectrum":
        mesh = ["--nx", "8", "--ny", "4"] if tiny else ["--nx", "40", "--ny", "20"]
        lists = [["spectrum"] + mesh + ["--omega", omega] for omega in ("1", "5")]
    elif workload == "gmres":
        lists = [["gmres"] + fem_mesh + ["--omega", "5", "--tol", "1e-6"]]
    elif workload == "schwarz":
        lists = [["schwarz"] + fem_mesh + ["--omega", "1", "--n-iter", "25"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [argv + ["--seed", program_seed] for argv in lists]


WORKLOADS = ("modes", "spectrum", "gmres", "schwarz")


def _option(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def read_table(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """A CLI table: ``# key=value`` header lines, a column line, rows."""
    header: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return header, rows[0], rows[1:]


def _finite(rows, columns) -> bool:
    return all(math.isfinite(float(row[c])) for row in rows for c in columns)


def expected_zone(k: float, omega: float, cp: float = 1.0, cs: float = 0.5) -> str:
    """Band of a wavenumber for the reference medium (cp=1, cs=0.5)."""
    if k == omega / cp or k == omega / cs:
        return "boundary"
    if k < omega / cp:
        return "stagnant"
    if k < omega / cs:
        return "divergent"
    return "contractive"


def _check_sweep(out, argv, ref, seed):
    _, cols, rows = read_table(os.path.join(out, "sweep.csv"))
    problems = []
    k_count = int(_option(argv, "--k-count", "601"))
    if len(rows) != k_count:
        problems.append(f"sweep has {len(rows)} rows, expected {k_count}")
    omega = float(_option(argv, "--omega", "1"))
    zone = cols.index("zone")
    wrong = [r[0] for r in rows if r[zone] != expected_zone(float(r[0]), omega)]
    if wrong:
        problems.append(f"{len(wrong)} wrong zone labels, first at k={wrong[0]}")
    if not _finite(rows, range(4)):
        problems.append("sweep has non-finite values")
    return problems


def _check_verify(out, argv, ref, seed):
    with open(os.path.join(out, "verify_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("all_passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return [f"verify failed: {failed}"]
    return []


def _check_modesim(out, argv, ref, seed):
    _, cols, rows = read_table(os.path.join(out, "modesim.csv"))
    problems = []
    k_count = int(_option(argv, "--k-count", "601"))
    if len(rows) != k_count - 1:  # k = 0 is skipped
        problems.append(f"modesim has {len(rows)} rows, expected {k_count - 1}")
    dev = cols.index("eig_deviation")
    worst = max(float(r[dev]) for r in rows)
    if not worst <= EIG_DEVIATION_MAX:
        problems.append(f"eig_deviation {worst:.3e} > {EIG_DEVIATION_MAX}")
    if not _finite(rows, range(5)):
        problems.append("modesim has non-finite values")
    return problems


def spectral_radius(out: str) -> tuple[int, float]:
    """Eigenvalue count and spectral radius of I - M^-1 A."""
    _, _, rows = read_table(os.path.join(out, "spectrum.csv"))
    radius = max(abs(1.0 - complex(float(re), float(im))) for re, im in rows)
    return len(rows), radius


def _check_spectrum(out, argv, ref, seed):
    nx, ny = int(_option(argv, "--nx", "80")), int(_option(argv, "--ny", "40"))
    count, radius = spectral_radius(out)
    problems = []
    n_free = 2 * (nx - 1) * (ny - 1)
    if count != n_free:
        problems.append(f"{count} eigenvalues, expected one per free dof ({n_free})")
    if ref is not None:
        want = ref["spectrum_radius"][_option(argv, "--omega", "1")]
        if not abs(radius - want) <= RADIUS_RTOL * want:
            problems.append(f"spectral radius {radius!r}, reference {want!r}")
    return problems


def gmres_outcome(out: str) -> tuple[bool, int, float]:
    """Converged flag, iteration count and final relative residual."""
    header, _, rows = read_table(os.path.join(out, "gmres_history.csv"))
    return header.get("converged") == "true", len(rows) - 1, float(rows[-1][1])


def _check_gmres(out, argv, ref, seed):
    converged, iters, relres = gmres_outcome(out)
    tol = float(_option(argv, "--tol", "1e-6"))
    problems = []
    if not converged:
        problems.append("gmres did not converge")
    if not relres < tol:
        problems.append(f"final relres {relres!r} >= tol {tol}")
    if ref is not None:
        want = ref["gmres_iters"][str(seed)]
        if abs(iters - want) > GMRES_ITER_SLACK:
            problems.append(f"{iters} gmres iterations, reference {want}")
    _, _, ras_rows = read_table(os.path.join(out, "ras_history.csv"))
    if not _finite(ras_rows, (1,)):
        problems.append("ras history has non-finite values")
    return problems


def schwarz_final(out: str) -> tuple[list[list[str]], list]:
    """History rows and the final (err_max, err_l2, dominant mode)."""
    _, _, rows = read_table(os.path.join(out, "schwarz_history.csv"))
    last = rows[-1]
    return rows, [float(last[1]), float(last[2]), int(last[3])]


def _check_schwarz(out, argv, ref, seed):
    rows, final = schwarz_final(out)
    problems = []
    n_iter = int(_option(argv, "--n-iter", "25"))
    if len(rows) != n_iter + 1:
        problems.append(f"history has {len(rows)} rows, expected {n_iter + 1}")
    if not _finite(rows, (1, 2)):
        problems.append("schwarz history has non-finite values")
    nx, ny = int(_option(argv, "--nx", "80")), int(_option(argv, "--ny", "40"))
    n_nodes = (nx + 1) * (ny + 1)
    if os.path.getsize(os.path.join(out, "schwarz_final.bin")) != 24 + 32 * n_nodes:
        problems.append("schwarz_final.bin has the wrong size")
    _, _, field = read_table(os.path.join(out, "schwarz_final.csv"))
    if len(field) != n_nodes:
        problems.append(f"schwarz_final.csv has {len(field)} rows, expected {n_nodes}")
    if ref is not None:
        err_max, err_l2, mode = ref["schwarz_final"][str(seed)]
        if not abs(final[0] - err_max) <= ERROR_RTOL * err_max:
            problems.append(f"final err_max {final[0]!r}, reference {err_max!r}")
        if not abs(final[1] - err_l2) <= ERROR_RTOL * err_l2:
            problems.append(f"final err_l2 {final[1]!r}, reference {err_l2!r}")
        if final[2] != mode:
            problems.append(f"final dominant mode {final[2]}, reference {mode}")
    return problems


_CHECKS = {
    "sweep": _check_sweep,
    "verify": _check_verify,
    "modesim": _check_modesim,
    "spectrum": _check_spectrum,
    "gmres": _check_gmres,
    "schwarz": _check_schwarz,
}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check(out: str, argv: list[str], exit_code: int, reference: dict | None) -> list[str]:
    """Problems with one command's run; empty when it passed.  Without a
    reference (tiny meshes) only the structural checks run."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    seed = int(_option(argv, "--seed", "0"))
    try:
        return _CHECKS[argv[0]](out, argv, reference, seed)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
