"""Command-line front end: reproducible experiment drivers that wire the
analysis, oracle, FEM and Schwarz modules together and emit CSV/JSON
artifacts.

Configuration is a flat key=value file plus command-line overrides; every
key defaults to the reference experiment setup (cp=1, cs=0.5, rho=1,
80x40 mesh on (-1,1)x(0,1), overlap of 4 cells, 25 sweeps).  Each output
starts with comment lines serializing the resolved configuration, so any
file can be reproduced by feeding its own header back in (the output
directory itself is deliberately not part of the header).

Exit codes: 0 ok, 2 configuration error (an output directory that cannot
be created or take a new file too), 3 solver error (an assembled matrix
that is not finite too, whose message names the fields that set its
scale), 4 memory budget exceeded (the subdomain LU factors plus what the
command holds beside them, checked before each factorization; ``spectrum``
factors nothing and checks its interface block, LAPACK's copy of it and the
column blocks of its sweep before allocating any of them) or an
allocation refused with `MemoryError` (such as while a GMRES cycle grows
by one n-vector and one Hessenberg column per step, which the budget does
not count), 5 verification failure, 6 non-finite iterate (the history
stops before it and carries a ``nonfinite_at=`` header line).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import analysis, fem, modesim, schwarz
from .analysis import ElasticMedium, Zone
from .fem import write_table as _write_table

__all__ = ["ExperimentConfig", "load_config", "config_header", "run_verification", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_NONFINITE = 6


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters (both material parametrizations are
    filled in; ``medium_given`` records which one the user supplied)."""

    rho: float = 1.0
    cp: float = 1.0
    cs: float = 0.5
    lame_lambda: float = 0.5
    lame_mu: float = 0.25
    medium_given: str = "speeds"
    omega: float = 1.0
    delta: float = 0.1
    overlap_cells: int = 4
    nx: int = 80
    ny: int = 40
    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0
    k_min: float = 0.0
    k_max: float = 6.0
    k_count: int = 601
    tol: float = 1e-6
    max_iter: int = 500
    restart: int | None = None
    n_iter: int = 25
    stationary_iters: int = 50
    power_iters: int = 200
    initial_error: float = 0.789
    noise: float = 0.2
    seed: int = 1870
    single_domain: bool = False
    identity_system: bool = False

    def medium(self) -> ElasticMedium:
        return ElasticMedium(
            rho=self.rho, lame_lambda=self.lame_lambda, lame_mu=self.lame_mu
        )


_SPEED_KEYS = {"cp", "cs"}
_LAME_KEYS = {"lame_lambda", "lame_mu"}

# parser of each configuration key, in header order: the type of the
# field's default; restart (default none) is the one optional integer
_KEY_TYPES = {
    f.name: int if f.default is None else type(f.default)
    for f in fields(ExperimentConfig)
    if f.name != "medium_given"
}


def _parse_value(key: str, raw: str):
    raw, kind = raw.strip(), _KEY_TYPES[key]
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key == "restart" and raw.lower() == "none":
            return None
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse value {raw!r}") from exc


# configuration keys with a command-line flag (--overlap-cells for
# overlap_cells), in --help order
_FLAG_KEYS = (
    "seed", "omega", "overlap_cells", "nx", "ny", "tol", "delta", "k_min",
    "k_max", "k_count", "n_iter", "max_iter", "restart", "initial_error",
    "noise", "single_domain", "identity_system",
)

_RESERVED_KEYS = {"command", "converged", "stagnated", "nonfinite_at"}

# bound of omega/cs and k_max: the closed form squares both and adds the
# squares, which must stay below overflow
_ROOT_MAX = math.sqrt(sys.float_info.max) / 2


def parse_kv_lines(lines) -> dict:
    """Parse flat key=value lines.  Blank lines are skipped; '#' lines are
    comments unless they contain '=', so output headers round-trip as
    configuration files.  Run-descriptive keys like ``command`` are ignored."""
    out = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        commented = stripped.startswith("#")
        if commented:
            stripped = stripped.lstrip("#").strip()
        if not stripped:
            continue
        if "=" not in stripped:
            if commented:
                continue
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in _RESERVED_KEYS:
            continue
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown configuration field {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then the config file, then overrides; validate everything
    before any computation starts."""
    given: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            given.update(parse_kv_lines(fh))
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _KEY_TYPES:
                raise ConfigError(f"unknown configuration field {key!r}")
            given[key] = value
    return _resolve(given)


def _resolve(given: dict) -> ExperimentConfig:
    speeds_given = bool(_SPEED_KEYS & given.keys())
    lame_given = bool(_LAME_KEYS & given.keys())
    if speeds_given and lame_given:
        raise ConfigError(
            "fields cp/cs and lame_lambda/lame_mu: give exactly one "
            "material parametrization, not both"
        )
    if lame_given and not _LAME_KEYS <= given.keys():
        raise ConfigError("fields lame_lambda/lame_mu must be given together")

    cfg = ExperimentConfig()
    for key, value in given.items():
        setattr(cfg, key, value)
    _check_finite(cfg, given)

    try:
        if lame_given:
            cfg.medium_given = "lame"
            medium = ElasticMedium(cfg.rho, cfg.lame_lambda, cfg.lame_mu)
            cfg.cp, cfg.cs = medium.cp, medium.cs
        else:
            cfg.medium_given = "speeds"
            medium = ElasticMedium.from_speeds(cfg.rho, cfg.cp, cfg.cs)
            cfg.lame_lambda, cfg.lame_mu = medium.lame_lambda, medium.lame_mu
    except ValueError as exc:
        raise ConfigError(f"material parameters: {exc}") from exc

    if "k_max" not in given:
        cfg.k_max = 3.0 * cfg.omega / cfg.cs

    _validate(cfg)
    return cfg


def _check_finite(cfg: ExperimentConfig, keys) -> None:
    for key in keys:
        value = getattr(cfg, key)
        if _KEY_TYPES[key] is float and not math.isfinite(value):
            raise ConfigError(f"field {key}: must be finite, got {value}")


def _validate(cfg: ExperimentConfig) -> None:
    def need(cond: bool, field: str, msg: str):
        if not cond:
            raise ConfigError(f"field {field}: {msg}")

    _check_finite(cfg, _KEY_TYPES)  # also the material keys derived from the given ones
    need(cfg.omega > 0, "omega", f"must be > 0, got {cfg.omega}")
    need(cfg.omega / cfg.cs <= _ROOT_MAX, "omega",
         f"omega/cs = {cfg.omega / cfg.cs:.3g} must be <= {_ROOT_MAX:.3g}")
    need(cfg.delta >= 0, "delta", f"must be >= 0, got {cfg.delta}")
    need(cfg.k_min >= 0, "k_min", f"must be >= 0, got {cfg.k_min}")
    need(cfg.k_max > cfg.k_min, "k_max", "must exceed k_min")
    need(cfg.k_max <= _ROOT_MAX, "k_max",
         f"must be <= {_ROOT_MAX:.3g}, got {cfg.k_max}")
    need(cfg.k_count >= 2, "k_count", "must be >= 2")
    # a step past linspace's roundoff keeps the grid strictly increasing
    step, ulps = (cfg.k_max - cfg.k_min) / (cfg.k_count - 1), 4 * np.spacing(cfg.k_max)
    need(step > ulps, "k_count", f"the grid step {step:.3g} must exceed 4 ulps of "
         f"k_max, {ulps:.3g}, for {cfg.k_count} distinct points")
    need(cfg.tol > 0, "tol", f"must be > 0, got {cfg.tol}")
    need(cfg.max_iter >= 1, "max_iter", "must be >= 1")
    need(cfg.restart is None or cfg.restart >= 1, "restart", "must be >= 1 or none")
    need(cfg.n_iter >= 0, "n_iter", "must be >= 0")
    need(cfg.stationary_iters >= 1, "stationary_iters", "must be >= 1")
    need(cfg.power_iters >= 50, "power_iters", "must be >= 50")
    need(cfg.initial_error >= 0, "initial_error", "must be >= 0")
    need(cfg.noise >= 0, "noise", "must be >= 0")
    need(cfg.seed >= 0, "seed", f"must be >= 0, got {cfg.seed}")
    # geometry, for every command, then the interior node every subdomain solve needs
    try:
        fem.check_mesh((cfg.x_min, cfg.x_max), (cfg.y_min, cfg.y_max), cfg.nx, cfg.ny)
        if not cfg.single_domain:
            schwarz.subdomain_columns((cfg.x_min, cfg.x_max), cfg.nx, cfg.overlap_cells)
    except ValueError as exc:
        raise ConfigError(f"field {exc}") from exc
    need(cfg.nx >= 2 and cfg.ny >= 2, "nx/ny",
         f"the mesh needs an interior node: must be >= 2, got nx={cfg.nx}, ny={cfg.ny}")
    need(not cfg.single_domain or (cfg.overlap_cells >= 2 and cfg.overlap_cells % 2 == 0),
         "overlap_cells", f"must be even and >= 2, got {cfg.overlap_cells}")


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_header(cfg: ExperimentConfig, command: str) -> list[str]:
    """Serialized configuration for output headers; feeding these lines back
    as a config file reproduces the run."""
    skip = _LAME_KEYS if cfg.medium_given == "speeds" else _SPEED_KEYS
    lines = [f"command={command}"]
    for key in _KEY_TYPES:
        if key in skip:
            continue
        lines.append(f"{key}={_format_value(getattr(cfg, key))}")
    return lines


def _write_csv(out: str, name: str, header: list[str], columns: dict) -> None:
    """Write the table ``<out>/<name>.csv`` of ``columns`` (name: values)."""
    _write_table(os.path.join(out, f"{name}.csv"), header, columns)


def _write_history(out: str, name: str, header: list[str], columns: dict,
                   stopped: bool) -> bool:
    """Write the history ``<name>.csv``: an ``iter`` column, then ``columns``
    (name: values).  One that stopped before a non-finite value also gets a
    ``nonfinite_at=`` header line and a note on stderr.  Returns ``stopped``."""
    rows = len(next(iter(columns.values())))
    if stopped:
        print(f"{name}: non-finite iterate {rows}; history stops before it",
              file=sys.stderr)
        header = header + [f"nonfinite_at={rows}"]
    _write_csv(out, name, header, {"iter": np.arange(rows), **columns})
    return stopped


def _problem(cfg: ExperimentConfig) -> tuple[fem.AssembledSystem, schwarz.Decomposition]:
    """System and decomposition of a solver command, on one mesh: the FE
    system, or with ``identity_system`` the unit matrix with no Dirichlet
    row and a zero load (nothing assembled); two subdomains overlapping by
    ``overlap_cells``, or with ``single_domain`` one over every free dof."""
    mesh = fem.build_mesh((cfg.x_min, cfg.x_max), (cfg.y_min, cfg.y_max), cfg.nx, cfg.ny)
    if cfg.identity_system:
        n = 2 * mesh.n_nodes
        system = fem.AssembledSystem(sp.identity(n, format="csr"), np.zeros(n),
                                     np.zeros(n, dtype=bool), mesh)
    else:
        system = fem.assemble(mesh, cfg.medium(), cfg.omega)
    if cfg.single_domain:
        return system, schwarz.single_domain(mesh)
    return system, schwarz.decompose(mesh, cfg.overlap_cells)


def experiment_load(cfg: ExperimentConfig, system: fem.AssembledSystem) -> np.ndarray:
    """Documented load for the solver experiments: the system applied to the
    seeded initial-error field, so the exact discrete solution is that
    field itself."""
    target = schwarz.seeded_initial_guess(
        system, cfg.seed, max_modulus=cfg.initial_error or 1.0, noise=cfg.noise
    )
    return system.matrix @ target


def cmd_sweep(cfg: ExperimentConfig, header: list[str], out: str) -> int:
    ks = np.linspace(cfg.k_min, cfg.k_max, cfg.k_count)
    s = analysis.sweep(cfg.medium(), cfg.omega, cfg.delta, ks)
    text = np.select([s.zone == z for z in Zone], [z.value for z in Zone], "")
    _write_csv(out, "sweep", header, {"k": s.k, "abs_r_plus": s.abs_r_plus,
                                      "abs_r_minus": s.abs_r_minus,
                                      "rho": s.rho_cla, "zone": text})
    return EXIT_OK


def cmd_modesim(cfg: ExperimentConfig, header: list[str], out: str) -> int:
    medium = cfg.medium()
    ks = np.linspace(cfg.k_min, cfg.k_max, cfg.k_count)
    ks = ks[ks > 0]
    sym = analysis.characteristic_roots(medium, cfg.omega, ks)
    eigs = np.linalg.eigvals(modesim.numeric_iteration_matrix(sym, cfg.delta))
    closed = analysis.iteration_matrix(medium, cfg.omega, ks, cfg.delta)
    deviation = _pairing(eigs, closed.r_plus, closed.r_minus)
    growth = modesim.power_growth(sym, cfg.delta, cfg.power_iters, cfg.seed)
    _write_csv(out, "modesim", header, {
        "k": ks, "rho_closed": closed.rho_cla, "rho_numeric": np.abs(eigs).max(axis=1),
        "eig_deviation": deviation / np.maximum(1.0, closed.rho_cla),
        "power_growth": growth})
    return EXIT_OK


def _pairing(eigs: np.ndarray, r_plus: np.ndarray, r_minus: np.ndarray) -> np.ndarray:
    """Distance between each row of numeric eigenvalue pairs and the
    closed-form pair, under the better of the two matchings."""
    first, second = eigs[:, 0], eigs[:, 1]
    return np.minimum(
        np.abs(first - r_plus) + np.abs(second - r_minus),
        np.abs(first - r_minus) + np.abs(second - r_plus),
    )


def cmd_schwarz(cfg: ExperimentConfig, header: list[str], out: str) -> int:
    system, decomposition = _problem(cfg)
    initial = schwarz.seeded_initial_guess(
        system, cfg.seed, max_modulus=cfg.initial_error, noise=cfg.noise
    )
    final, history = schwarz.schwarz_iterate(system, decomposition, initial, cfg.n_iter)
    stopped = _write_history(out, "schwarz_history", header, {
        "err_max": history.err_max, "err_l2": history.err_l2,
        "dominant_mode_j": history.dominant_mode}, len(history) <= cfg.n_iter)
    fem.export_solution_csv(
        system.mesh, final, os.path.join(out, "schwarz_final.csv"), header
    )
    fem.export_solution_binary(
        system.mesh, final, os.path.join(out, "schwarz_final.bin")
    )
    return EXIT_NONFINITE if stopped else EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, header: list[str], out: str) -> int:
    system, decomposition = _problem(cfg)
    eigs = schwarz.spectrum(system, decomposition)
    _write_csv(out, "spectrum", header, {"re": eigs.real, "im": eigs.imag})
    return EXIT_OK


def cmd_gmres(cfg: ExperimentConfig, header: list[str], out: str) -> int:
    system, decomposition = _problem(cfg)
    rhs = experiment_load(cfg, system)
    solve = schwarz.RestrictedSolve(system, decomposition)
    result = schwarz.gmres(solve, rhs, tol=cfg.tol, max_iter=cfg.max_iter,
                           restart=cfg.restart, ras_iters=cfg.stationary_iters)
    # the stationary RAS steps GMRES's first cycle has taken are not repeated
    _, ras_history = schwarz.stationary_ras(solve, rhs, cfg.stationary_iters, start=result)
    gmres_stopped = _write_history(
        out, "gmres_history", header + [f"converged={_format_value(result.converged)}",
                                        f"stagnated={_format_value(result.stagnated)}"],
        {"relres": result.history}, result.nonfinite)
    ras_stopped = _write_history(out, "ras_history", header, {"relres": ras_history},
                                 ras_history.size <= cfg.stationary_iters)
    return EXIT_NONFINITE if gmres_stopped or ras_stopped else EXIT_OK


def run_verification(cfg: ExperimentConfig) -> list[dict]:
    """Cross-check battery: closed form against the coefficient-space
    oracle, asymptotics against finite differences, structural identities.
    Every entry reports the worst observed deviation and its threshold; a
    deviation that is not finite is reported as None and fails."""
    medium = cfg.medium()
    omega, delta = cfg.omega, cfg.delta
    checks: list[dict] = []

    def add(name: str, value: float, tolerance: float, detail: str = "", valid=True):
        checks.append(
            {
                "name": name,
                "max_deviation": float(value) if math.isfinite(value) else None,
                "tolerance": float(tolerance),
                "passed": bool(valid and value <= tolerance),
                "detail": detail,
            }
        )

    # 100 draws of rho, lame_lambda, lame_mu, omega ~ U(0.1, 10), k ~ U(0, 3 omega/cs),
    # each as uniform(lo, hi) draws it: lo + (hi - lo) * random(); one call
    u = np.random.default_rng(cfg.seed).random((100, 5))
    media = ElasticMedium(*(0.1 + (10.0 - 0.1) * u[:, :3].T))
    w = 0.1 + (10.0 - 0.1) * u[:, 3]
    k = 3.0 * w / media.cs * u[:, 4]
    pair = np.array(analysis.eigenvalues_closed_form(media, w, k, 0.0))
    worst = np.max(np.abs(analysis._modulus(pair) - 1.0))
    add("zero_overlap_stagnation", worst, 1e-12, "100 random media, delta=0")

    ks = np.linspace(0.05, 4.0 * omega / medium.cs, 500)
    guard = 1e-6
    ks = ks[
        (np.abs(ks - omega / medium.cp) >= guard)
        & (np.abs(ks - omega / medium.cs) >= guard)
    ]
    sym = analysis.characteristic_roots(medium, omega, ks)
    numeric = modesim.numeric_iteration_matrix(sym, delta)
    closed = analysis.iteration_matrix(medium, omega, ks, delta)
    scale_m = np.maximum(1.0, np.abs(closed.r).max(axis=(1, 2)))
    worst_entry = np.max(np.abs(numeric - closed.r).max(axis=(1, 2)) / scale_m)
    eigs = np.linalg.eigvals(numeric)
    scale = np.maximum(1.0, closed.rho_cla)
    worst_eig = np.max(_pairing(eigs, closed.r_plus, closed.r_minus) / scale)
    # trace and determinant drift is roundoff on the scale of the
    # entries (resp. their products), so normalize accordingly
    trace = np.trace(closed.r, axis1=1, axis2=2)
    trace_dev = np.abs(closed.r_plus + closed.r_minus - trace)
    det_dev = np.abs(closed.r_plus * closed.r_minus - np.linalg.det(closed.r))
    worst_trace = max(
        np.max(trace_dev / scale_m),
        np.max(det_dev / np.maximum(1.0, scale_m * scale_m)),
    )
    second = modesim.numeric_iteration_matrix(sym, delta, subdomain=2)
    e1 = np.sort_complex(eigs)
    e2 = np.sort_complex(np.linalg.eigvals(second))
    worst_equiv = np.max(np.abs(e1 - e2).max(axis=1) / scale)
    inverse = modesim.numeric_iteration_matrix_inverse(sym, delta)
    inv_scale = np.maximum(
        1.0, np.abs(numeric).max(axis=(1, 2)) * np.abs(inverse).max(axis=(1, 2))
    )
    worst_inv = np.max(
        np.abs(numeric @ inverse - np.eye(2)).max(axis=(1, 2)) / inv_scale
    )
    add("closed_form_vs_oracle_eigenvalues", worst_eig, 1e-10, "500-point grid")
    add("closed_form_vs_oracle_entries", worst_entry, 1e-10, "500-point grid")
    add("trace_det_consistency", worst_trace, 1e-12)
    add("spectral_equivalence", worst_equiv, 1e-10, "both subdomain orderings")
    add("inversion_sanity", worst_inv, 1e-12)

    if delta > 0:
        lo, hi = omega / medium.cp, omega / medium.cs
        stagnant, divergent, contractive = (
            analysis.convergence_factor(medium, omega, band, delta)
            for band in (
                lo * np.linspace(0.02, 0.98, 40),
                lo + (hi - lo) * np.linspace(0.05, 0.95, 40),
                np.linspace(hi + 0.1, 4.0 * hi, 40),
            )
        )
        add("zone_stagnant_rho_is_one", np.max(np.abs(stagnant - 1.0)), 1e-9)
        add(
            "zone_divergent_rho_above_one",
            max(0.0, (1.0 + 1e-6) - divergent.min()),
            0.0,
            f"min rho = {divergent.min():.6f}",
        )
        add(
            "zone_contractive_rho_below_one",
            max(0.0, contractive.max() - (1.0 - 1e-6)),
            0.0,
            f"max rho = {contractive.max():.6f}",
        )
    else:
        flat = analysis.convergence_factor(
            medium, omega, np.linspace(0.0, 4.0 * omega / medium.cs, 60), 0.0
        )
        add(
            "zone_degenerate_no_overlap",
            np.max(np.abs(flat - 1.0)),
            1e-12,
            "delta=0: every mode stagnates",
        )

    slope = analysis.asymptotic_slope(medium, omega)
    rel_errs = []
    for d in (1e-2, 1e-3, 1e-4):
        _, rho_star = analysis.max_rho(medium, omega, d)
        rel_errs.append(abs((rho_star - 1.0) / d - slope) / slope)
    monotone = rel_errs[0] > rel_errs[1] > rel_errs[2]
    add(
        "asymptotic_slope_vs_finite_difference",
        rel_errs[-1],
        5e-2,
        f"relative errors {['%.2e' % e for e in rel_errs]}, monotone={monotone}",
        valid=monotone,
    )

    lo, hi = omega / medium.cp, omega / medium.cs
    ks = lo + (hi - lo) * np.linspace(0.05, 0.95, 20)
    coef = analysis.first_order_coefficient(medium, omega, ks)
    fd = (analysis.convergence_factor(medium, omega, ks, 1e-4) - 1.0) / 1e-4
    worst_fo = np.max(np.abs(fd - coef) / coef)
    add("first_order_rho_vs_finite_difference", worst_fo, 1e-2, "20 interior k")

    if delta > 0:
        ks = np.array([0.5 * (lo + hi), 2.5 * hi])
        sym = analysis.characteristic_roots(medium, omega, ks)
        growth = modesim.power_growth(sym, delta, cfg.power_iters, cfg.seed)
        rho = analysis.convergence_factor(medium, omega, ks, delta)
        worst_pg = np.max(np.abs(growth - rho) / rho)
        add("power_growth_vs_closed_form", worst_pg, 1e-2, "mid-band and evanescent")

    return checks


def cmd_verify(cfg: ExperimentConfig, header: list[str], out: str) -> int:
    checks = run_verification(cfg)
    report = {
        "config": {line.split("=")[0]: line.split("=", 1)[1]
                   for line in header[1:]},
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    fem.atomic_write(
        os.path.join(out, "verify_report.json"),
        [(json.dumps(report, indent=2, allow_nan=False) + "\n").encode()],
    )
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        deviation = check["max_deviation"]
        shown = "not finite" if deviation is None else f"{deviation:.3e}"
        print(
            f"{status} {check['name']}: max deviation {shown} "
            f"(tolerance {check['tolerance']:.3e})"
        )
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


# each command's runner, called with the config, its header and the
# output directory, and its one-line help
_COMMANDS = {
    "sweep": (cmd_sweep, "eigenvalue moduli of the mode iteration over a wavenumber grid"),
    "verify": (cmd_verify, "cross-check battery: closed form vs oracle, asymptotics"),
    "modesim": (cmd_modesim,
                "coefficient-space oracle table (numeric eigenvalues, power growth)"),
    "schwarz": (cmd_schwarz, "two-subdomain Schwarz error experiment on the FEM mesh"),
    "spectrum": (cmd_spectrum, "eigenvalues of the RAS-preconditioned operator"),
    "gmres": (cmd_gmres, "stationary RAS and RAS-preconditioned GMRES histories"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastic-schwarz",
        description="Schwarz-method convergence experiments for time-harmonic "
        "elastic waves",
        epilog="commands:\n"
        + "\n".join(f"  {name:10}{text}" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="the experiment to run, one of the commands below")
    parser.add_argument("--config", metavar="PATH", help="key=value configuration file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    for key in _FLAG_KEYS:
        flag, kind = "--" + key.replace("_", "-"), _KEY_TYPES[key]
        if kind is bool:
            parser.add_argument(flag, action="store_const", const=True)
        else:
            parser.add_argument(flag, type=kind, metavar="N" if kind is int else "F")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None
    }
    try:
        cfg = load_config(args.config, overrides)
        os.makedirs(args.out, exist_ok=True)
        # a directory that takes no new file fails here, not after the work
        tempfile.NamedTemporaryFile(dir=args.out).close()
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run, _ = _COMMANDS[args.command]
        return run(cfg, config_header(cfg, args.command), args.out)
    except (schwarz.BudgetExceededError, MemoryError) as exc:
        print(f"budget exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        analysis.DegenerateModeError,
        modesim.SingularBasisError,
        fem.SingularSystemError,
    ) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
