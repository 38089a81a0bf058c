"""Overlapping Schwarz methods for time-harmonic elastic waves:
closed-form mode analysis, a finite-element substrate, and the
two-subdomain Schwarz / RAS / GMRES experiments built on top of it."""

from .analysis import (
    ElasticMedium,
    Zone,
    asymptotic_slope,
    characteristic_roots,
    classify_zone,
    convergence_factor,
    eigenvalues_closed_form,
    iteration_matrix,
    max_rho,
    sweep,
    wave_speeds,
)

__all__ = [
    "ElasticMedium",
    "Zone",
    "asymptotic_slope",
    "characteristic_roots",
    "classify_zone",
    "convergence_factor",
    "eigenvalues_closed_form",
    "iteration_matrix",
    "max_rho",
    "sweep",
    "wave_speeds",
]

__version__ = "0.1.0"
