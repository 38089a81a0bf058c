"""Command-line front end: reproducible experiment drivers that wire the
analysis, oracle, FEM and Schwarz modules together and emit CSV/JSON
artifacts.

Configuration is a flat key=value file plus command-line overrides; every
key defaults to the reference experiment setup (cp=1, cs=0.5, rho=1,
80x40 mesh on (-1,1)x(0,1), overlap of 4 cells, 25 sweeps).  Each output
starts with comment lines serializing the resolved configuration, so any
file can be reproduced by feeding its own header back in (the output
directory itself is deliberately not part of the header).

Exit codes: 0 ok, 2 configuration error, 3 solver error, 4 eigensolve
budget exceeded, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, fem, modesim, schwarz
from .analysis import ElasticMedium

__all__ = ["ExperimentConfig", "load_config", "config_header", "run_verification", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


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


_INT_KEYS = {
    "overlap_cells", "nx", "ny", "k_count", "max_iter", "n_iter",
    "stationary_iters", "power_iters", "seed",
}
_FLOAT_KEYS = {
    "rho", "cp", "cs", "lame_lambda", "lame_mu", "omega", "delta",
    "x_min", "x_max", "y_min", "y_max", "k_min", "k_max", "tol",
    "initial_error", "noise",
}
_BOOL_KEYS = {"single_domain", "identity_system"}
_SPEED_KEYS = {"cp", "cs"}
_LAME_KEYS = {"lame_lambda", "lame_mu"}
_ALL_KEYS = (
    _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | {"restart"}
)

# canonical header order; the non-given material pair is skipped at write time
_HEADER_ORDER = [
    "rho", "cp", "cs", "lame_lambda", "lame_mu", "omega", "delta",
    "overlap_cells", "nx", "ny", "x_min", "x_max", "y_min", "y_max",
    "k_min", "k_max", "k_count", "tol", "max_iter", "restart", "n_iter",
    "stationary_iters", "power_iters", "initial_error", "noise", "seed",
    "single_domain", "identity_system",
]


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key == "restart":
            return None if raw.lower() == "none" else int(raw)
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse value {raw!r}") from exc
    raise ConfigError(f"unknown configuration field {key!r}")


_RESERVED_KEYS = {"command", "converged", "stagnated"}


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
        if key not in _ALL_KEYS:
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
            if key not in _ALL_KEYS:
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


def _validate(cfg: ExperimentConfig) -> None:
    def need(cond: bool, field: str, msg: str):
        if not cond:
            raise ConfigError(f"field {field}: {msg}")

    need(cfg.omega > 0, "omega", f"must be > 0, got {cfg.omega}")
    need(cfg.delta >= 0, "delta", f"must be >= 0, got {cfg.delta}")
    need(cfg.nx >= 1 and cfg.ny >= 1, "nx/ny", "must be >= 1")
    need(cfg.x_max > cfg.x_min, "x_min/x_max", "range is degenerate")
    need(cfg.y_max > cfg.y_min, "y_min/y_max", "range is degenerate")
    need(cfg.k_min >= 0, "k_min", f"must be >= 0, got {cfg.k_min}")
    need(cfg.k_max > cfg.k_min, "k_max", "must exceed k_min")
    need(cfg.k_count >= 2, "k_count", "must be >= 2")
    need(cfg.tol > 0, "tol", f"must be > 0, got {cfg.tol}")
    need(cfg.max_iter >= 1, "max_iter", "must be >= 1")
    need(cfg.restart is None or cfg.restart >= 1, "restart", "must be >= 1 or none")
    need(cfg.n_iter >= 0, "n_iter", "must be >= 0")
    need(cfg.stationary_iters >= 1, "stationary_iters", "must be >= 1")
    need(cfg.power_iters >= 50, "power_iters", "must be >= 50")
    need(cfg.initial_error >= 0, "initial_error", "must be >= 0")
    need(cfg.noise >= 0, "noise", "must be >= 0")
    need(
        cfg.overlap_cells >= 2 and cfg.overlap_cells % 2 == 0,
        "overlap_cells",
        f"must be even and >= 2, got {cfg.overlap_cells}",
    )
    if not cfg.single_domain:
        try:
            schwarz.subdomain_columns(
                (cfg.x_min, cfg.x_max), cfg.nx, cfg.overlap_cells
            )
        except ValueError as exc:
            raise ConfigError(f"field {exc}") from exc


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
    for key in _HEADER_ORDER:
        if key in skip:
            continue
        lines.append(f"{key}={_format_value(getattr(cfg, key))}")
    return lines


def _write_table(path, header_lines, columns, rows) -> None:
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    fem.atomic_write(path, ("\n".join(lines) + "\n").encode())


def _outdir(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _mesh(cfg: ExperimentConfig) -> fem.StructuredMesh:
    return fem.build_mesh(
        (cfg.x_min, cfg.x_max), (cfg.y_min, cfg.y_max), cfg.nx, cfg.ny
    )


def _system(cfg: ExperimentConfig) -> fem.AssembledSystem:
    system = fem.assemble(_mesh(cfg), cfg.medium(), cfg.omega)
    if cfg.identity_system:
        import scipy.sparse as sp

        system = fem.AssembledSystem(
            matrix=sp.identity(system.n_dofs, format="csr"),
            rhs=np.zeros(system.n_dofs),
            dirichlet_mask=np.zeros(system.n_dofs, dtype=bool),
            mesh=system.mesh,
        )
    return system


def _decomposition(cfg: ExperimentConfig, mesh: fem.StructuredMesh):
    if cfg.single_domain:
        return schwarz.single_domain(mesh)
    return schwarz.decompose(mesh, cfg.overlap_cells)


def experiment_load(cfg: ExperimentConfig, system: fem.AssembledSystem) -> np.ndarray:
    """Documented load for the solver experiments: the system applied to the
    seeded initial-error field, so the exact discrete solution is that
    field itself."""
    target = schwarz.seeded_initial_guess(
        system, cfg.seed, max_modulus=cfg.initial_error or 1.0, noise=cfg.noise
    )
    return system.matrix @ target


def cmd_sweep(cfg: ExperimentConfig, out: str) -> int:
    ks = np.linspace(cfg.k_min, cfg.k_max, cfg.k_count)
    rows = analysis.sweep(cfg.medium(), cfg.omega, cfg.delta, ks)
    _write_table(
        os.path.join(_outdir(out), "sweep.csv"),
        config_header(cfg, "sweep"),
        ["k", "abs_r_plus", "abs_r_minus", "rho", "zone"],
        [(p.k, p.abs_r_plus, p.abs_r_minus, p.rho_cla, p.zone.value) for p in rows],
    )
    return EXIT_OK


def cmd_modesim(cfg: ExperimentConfig, out: str) -> int:
    medium = cfg.medium()
    ks = [k for k in np.linspace(cfg.k_min, cfg.k_max, cfg.k_count) if k > 0]
    rows = []
    for k in ks:
        sym = analysis.characteristic_roots(medium, cfg.omega, float(k))
        numeric = modesim.numeric_iteration_matrix(sym, cfg.delta)
        eigs = np.linalg.eigvals(numeric)
        r_plus, r_minus = analysis.eigenvalues_closed_form(
            medium, cfg.omega, float(k), cfg.delta
        )
        pairing = min(
            abs(eigs[0] - r_plus) + abs(eigs[1] - r_minus),
            abs(eigs[0] - r_minus) + abs(eigs[1] - r_plus),
        )
        scale = max(1.0, abs(r_plus), abs(r_minus))
        growth = modesim.power_growth(sym, cfg.delta, cfg.power_iters, cfg.seed)
        rows.append(
            (
                float(k),
                max(abs(r_plus), abs(r_minus)),
                float(np.abs(eigs).max()),
                pairing / scale,
                growth,
            )
        )
    _write_table(
        os.path.join(_outdir(out), "modesim.csv"),
        config_header(cfg, "modesim"),
        ["k", "rho_closed", "rho_numeric", "eig_deviation", "power_growth"],
        rows,
    )
    return EXIT_OK


def cmd_schwarz(cfg: ExperimentConfig, out: str) -> int:
    system = _system(cfg)
    decomposition = _decomposition(cfg, system.mesh)
    initial = schwarz.seeded_initial_guess(
        system, cfg.seed, max_modulus=cfg.initial_error, noise=cfg.noise
    )
    final, history = schwarz.schwarz_iterate(system, decomposition, initial, cfg.n_iter)
    header = config_header(cfg, "schwarz")
    out = _outdir(out)
    _write_table(
        os.path.join(out, "schwarz_history.csv"),
        header,
        ["iter", "err_max", "err_l2", "dominant_mode_j"],
        [
            (n, history.err_max[n], history.err_l2[n], int(history.dominant_mode[n]))
            for n in range(len(history))
        ],
    )
    fem.export_solution_csv(
        system.mesh, final, os.path.join(out, "schwarz_final.csv"), header
    )
    fem.export_solution_binary(
        system.mesh, final, os.path.join(out, "schwarz_final.bin")
    )
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, out: str) -> int:
    system = _system(cfg)
    decomposition = _decomposition(cfg, system.mesh)
    eigs = schwarz.spectrum(system, decomposition)
    _write_table(
        os.path.join(_outdir(out), "spectrum.csv"),
        config_header(cfg, "spectrum"),
        ["re", "im"],
        [(float(z.real), float(z.imag)) for z in eigs],
    )
    return EXIT_OK


def cmd_gmres(cfg: ExperimentConfig, out: str) -> int:
    system = _system(cfg)
    decomposition = _decomposition(cfg, system.mesh)
    rhs = experiment_load(cfg, system)
    solve = schwarz.RestrictedSolve(system, decomposition)
    result = schwarz.gmres(
        solve, rhs, tol=cfg.tol, max_iter=cfg.max_iter, restart=cfg.restart
    )
    _, ras_history = schwarz.stationary_ras(solve, rhs, cfg.stationary_iters)
    header = config_header(cfg, "gmres")
    out = _outdir(out)
    _write_table(
        os.path.join(out, "gmres_history.csv"),
        header + [f"converged={_format_value(result.converged)}",
                  f"stagnated={_format_value(result.stagnated)}"],
        ["iter", "relres"],
        list(enumerate(float(r) for r in result.history)),
    )
    _write_table(
        os.path.join(out, "ras_history.csv"),
        header,
        ["iter", "relres"],
        list(enumerate(float(r) for r in ras_history)),
    )
    return EXIT_OK


def _random_medium(rng: np.random.Generator) -> ElasticMedium:
    return ElasticMedium(
        rho=float(rng.uniform(0.1, 10.0)),
        lame_lambda=float(rng.uniform(0.1, 10.0)),
        lame_mu=float(rng.uniform(0.1, 10.0)),
    )


def run_verification(cfg: ExperimentConfig) -> list[dict]:
    """Cross-check battery: closed form against the coefficient-space
    oracle, asymptotics against finite differences, structural identities.
    Every entry reports the worst observed deviation and its threshold."""
    medium = cfg.medium()
    omega, delta = cfg.omega, cfg.delta
    checks: list[dict] = []

    def add(name: str, value: float, tolerance: float, detail: str = ""):
        checks.append(
            {
                "name": name,
                "max_deviation": float(value),
                "tolerance": float(tolerance),
                "passed": bool(value <= tolerance),
                "detail": detail,
            }
        )

    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(100):
        m = _random_medium(rng)
        w = float(rng.uniform(0.1, 10.0))
        k = float(rng.uniform(0.0, 3.0 * w / m.cs))
        r_plus, r_minus = analysis.eigenvalues_closed_form(m, w, k, 0.0)
        worst = max(worst, abs(abs(r_plus) - 1.0), abs(abs(r_minus) - 1.0))
    add("zero_overlap_stagnation", worst, 1e-12, "100 random media, delta=0")

    ks = np.linspace(0.05, 4.0 * omega / medium.cs, 500)
    guard = 1e-6
    worst_eig = 0.0
    worst_entry = 0.0
    worst_trace = 0.0
    worst_equiv = 0.0
    worst_inv = 0.0
    for k in ks:
        k = float(k)
        if (
            abs(k - omega / medium.cp) < guard
            or abs(k - omega / medium.cs) < guard
        ):
            continue
        sym = analysis.characteristic_roots(medium, omega, k)
        numeric = modesim.numeric_iteration_matrix(sym, delta)
        closed = analysis.iteration_matrix(medium, omega, k, delta)
        scale_m = max(1.0, float(np.abs(closed.r).max()))
        worst_entry = max(
            worst_entry, float(np.abs(numeric - closed.r).max()) / scale_m
        )
        eigs = np.linalg.eigvals(numeric)
        pairing = min(
            abs(eigs[0] - closed.r_plus) + abs(eigs[1] - closed.r_minus),
            abs(eigs[0] - closed.r_minus) + abs(eigs[1] - closed.r_plus),
        )
        scale = max(1.0, abs(closed.r_plus), abs(closed.r_minus))
        worst_eig = max(worst_eig, pairing / scale)
        # trace and determinant drift is roundoff on the scale of the
        # entries (resp. their products), so normalize accordingly
        trace_dev = abs(closed.r_plus + closed.r_minus - np.trace(closed.r))
        det_dev = abs(
            closed.r_plus * closed.r_minus - np.linalg.det(closed.r)
        )
        worst_trace = max(
            worst_trace,
            trace_dev / scale_m,
            det_dev / max(1.0, scale_m * scale_m),
        )
        second = modesim.numeric_iteration_matrix(sym, delta, subdomain=2)
        e1 = np.sort_complex(np.linalg.eigvals(numeric))
        e2 = np.sort_complex(np.linalg.eigvals(second))
        worst_equiv = max(worst_equiv, float(np.abs(e1 - e2).max()) / scale)
        inverse = modesim.numeric_iteration_matrix_inverse(sym, delta)
        inv_scale = max(
            1.0, float(np.abs(numeric).max()) * float(np.abs(inverse).max())
        )
        worst_inv = max(
            worst_inv,
            float(np.abs(numeric @ inverse - np.eye(2)).max()) / inv_scale,
        )
    add("closed_form_vs_oracle_eigenvalues", worst_eig, 1e-10, "500-point grid")
    add("closed_form_vs_oracle_entries", worst_entry, 1e-10, "500-point grid")
    add("trace_det_consistency", worst_trace, 1e-12)
    add("spectral_equivalence", worst_equiv, 1e-10, "both subdomain orderings")
    add("inversion_sanity", worst_inv, 1e-12)

    if delta > 0:
        lo, hi = omega / medium.cp, omega / medium.cs
        stagnant = [
            analysis.convergence_factor(medium, omega, float(k), delta)
            for k in lo * np.linspace(0.02, 0.98, 40)
        ]
        divergent = [
            analysis.convergence_factor(medium, omega, float(k), delta)
            for k in lo + (hi - lo) * np.linspace(0.05, 0.95, 40)
        ]
        contractive = [
            analysis.convergence_factor(medium, omega, float(k), delta)
            for k in np.linspace(hi + 0.1, 4.0 * hi, 40)
        ]
        add("zone_stagnant_rho_is_one", max(abs(r - 1.0) for r in stagnant), 1e-9)
        add(
            "zone_divergent_rho_above_one",
            max(0.0, (1.0 + 1e-6) - min(divergent)),
            0.0,
            f"min rho = {min(divergent):.6f}",
        )
        add(
            "zone_contractive_rho_below_one",
            max(0.0, max(contractive) - (1.0 - 1e-6)),
            0.0,
            f"max rho = {max(contractive):.6f}",
        )
    else:
        flat = [
            analysis.convergence_factor(medium, omega, float(k), 0.0)
            for k in np.linspace(0.0, 4.0 * omega / medium.cs, 60)
        ]
        add(
            "zone_degenerate_no_overlap",
            max(abs(r - 1.0) for r in flat),
            1e-12,
            "delta=0: every mode stagnates",
        )

    slope = analysis.asymptotic_slope(medium.cp, medium.cs, omega)
    rel_errs = []
    for d in (1e-2, 1e-3, 1e-4):
        _, rho_star = analysis.max_rho(medium, omega, d)
        rel_errs.append(abs((rho_star - 1.0) / d - slope) / slope)
    monotone = rel_errs[0] > rel_errs[1] > rel_errs[2]
    add(
        "asymptotic_slope_vs_finite_difference",
        rel_errs[-1] if monotone else math.inf,
        5e-2,
        f"relative errors {['%.2e' % e for e in rel_errs]}, monotone={monotone}",
    )

    lo, hi = omega / medium.cp, omega / medium.cs
    worst_fo = 0.0
    for rel in np.linspace(0.05, 0.95, 20):
        k = float(lo + (hi - lo) * rel)
        coef = analysis.first_order_coefficient(medium, omega, k)
        fd = (analysis.convergence_factor(medium, omega, k, 1e-4) - 1.0) / 1e-4
        worst_fo = max(worst_fo, abs(fd - coef) / coef)
    add("first_order_rho_vs_finite_difference", worst_fo, 1e-2, "20 interior k")

    if delta > 0:
        worst_pg = 0.0
        for k in (0.5 * (lo + hi), 2.5 * hi):
            sym = analysis.characteristic_roots(medium, omega, float(k))
            growth = modesim.power_growth(sym, delta, cfg.power_iters, cfg.seed)
            rho = analysis.convergence_factor(medium, omega, float(k), delta)
            worst_pg = max(worst_pg, abs(growth - rho) / rho)
        add("power_growth_vs_closed_form", worst_pg, 1e-2, "mid-band and evanescent")

    return checks


def cmd_verify(cfg: ExperimentConfig, out: str) -> int:
    checks = run_verification(cfg)
    report = {
        "config": {line.split("=")[0]: line.split("=", 1)[1]
                   for line in config_header(cfg, "verify")[1:]},
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    fem.atomic_write(
        os.path.join(_outdir(out), "verify_report.json"),
        (json.dumps(report, indent=2) + "\n").encode(),
    )
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"{status} {check['name']}: max deviation {check['max_deviation']:.3e} "
            f"(tolerance {check['tolerance']:.3e})"
        )
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastic-schwarz",
        description="Schwarz-method convergence experiments for time-harmonic "
        "elastic waves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sweep", "eigenvalue moduli of the mode iteration over a wavenumber grid"),
        ("verify", "cross-check battery: closed form vs oracle, asymptotics"),
        ("modesim", "coefficient-space oracle table (numeric eigenvalues, power growth)"),
        ("schwarz", "two-subdomain Schwarz error experiment on the FEM mesh"),
        ("spectrum", "eigenvalues of the RAS-preconditioned operator"),
        ("gmres", "stationary RAS and RAS-preconditioned GMRES histories"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="key=value configuration file")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
        p.add_argument("--seed", type=int, metavar="N")
        p.add_argument("--omega", type=float, metavar="F")
        p.add_argument("--overlap-cells", dest="overlap_cells", type=int, metavar="N")
        p.add_argument("--nx", type=int, metavar="N")
        p.add_argument("--ny", type=int, metavar="N")
        p.add_argument("--tol", type=float, metavar="F")
        p.add_argument("--delta", type=float, metavar="F")
        p.add_argument("--k-min", dest="k_min", type=float, metavar="F")
        p.add_argument("--k-max", dest="k_max", type=float, metavar="F")
        p.add_argument("--k-count", dest="k_count", type=int, metavar="N")
        p.add_argument("--n-iter", dest="n_iter", type=int, metavar="N")
        p.add_argument("--max-iter", dest="max_iter", type=int, metavar="N")
        p.add_argument("--restart", type=int, metavar="N")
        p.add_argument("--initial-error", dest="initial_error", type=float, metavar="F")
        p.add_argument("--noise", type=float, metavar="F")
        p.add_argument(
            "--single-domain", dest="single_domain", action="store_const", const=True
        )
        p.add_argument(
            "--identity-system", dest="identity_system", action="store_const", const=True
        )
    return parser


_COMMANDS = {
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "modesim": cmd_modesim,
    "schwarz": cmd_schwarz,
    "spectrum": cmd_spectrum,
    "gmres": cmd_gmres,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in _ALL_KEYS
        if hasattr(args, key) and getattr(args, key) is not None
    }
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args.out)
    except schwarz.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (fem.SingularSystemError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
