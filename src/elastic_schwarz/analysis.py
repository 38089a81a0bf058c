"""Closed-form convergence analysis of the overlapping Schwarz iteration
for time-harmonic elastic waves.

For two half-plane subdomains with overlap ``delta``, every Fourier
wavenumber ``k`` along the interface evolves independently under a 2x2
coefficient iteration (one matrix per double sweep).  This module
evaluates that matrix and its eigenvalues in closed form, classifies
wavenumbers into the stagnant / divergent / contractive bands, and
provides wavenumber sweeps, the band maximum of the convergence factor,
and its small-overlap asymptotics.

Everything here is a pure function of its inputs (safe to call
concurrently); all arithmetic is plain double precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Zone",
    "ElasticMedium",
    "ModeSymbol",
    "BasisMatrices",
    "IterationMatrix2",
    "SweepPoint",
    "wave_speeds",
    "principal_sqrt",
    "classify_zone",
    "characteristic_roots",
    "basis_matrices",
    "iteration_matrix",
    "eigenvalues_closed_form",
    "convergence_factor",
    "sweep",
    "max_rho",
    "asymptotic_slope",
    "first_order_coefficient",
    "first_order_rho",
]

# |k^2 - lambda1*lambda2| can be shown to stay strictly positive for real k,
# so this guard is purely defensive.
_ROOT_PRODUCT_GUARD = 1e-300


class Zone(Enum):
    """Convergence behaviour of a single Fourier mode."""

    STAGNANT = "stagnant"          # propagative band, modulus-one eigenvalues
    DIVERGENT = "divergent"        # mixed band, amplification
    CONTRACTIVE = "contractive"    # evanescent band, contraction
    BOUNDARY = "boundary"          # cut-off wavenumbers, one decay root vanishes


def wave_speeds(rho: float, lame_lambda: float, lame_mu: float) -> tuple[float, float]:
    """Pressure and shear wave speeds of a homogeneous isotropic medium.

    Parameters
    ----------
    rho : float
        Mass density, strictly positive.
    lame_lambda, lame_mu : float
        Lame coefficients, both strictly positive.

    Returns
    -------
    (cp, cs) : tuple of float
        cp = sqrt((lambda + 2 mu) / rho), cs = sqrt(mu / rho); cp > cs.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if not lame_mu > 0:
        raise ValueError(f"lame_mu must be > 0, got {lame_mu}")
    if not lame_lambda > 0:
        raise ValueError(f"lame_lambda must be > 0, got {lame_lambda}")
    cp = math.sqrt((lame_lambda + 2.0 * lame_mu) / rho)
    cs = math.sqrt(lame_mu / rho)
    return cp, cs


@dataclass(frozen=True)
class ElasticMedium:
    """Material constants of a homogeneous isotropic elastic medium.

    ``cp`` and ``cs`` are the pressure and shear wave speeds, computed
    once by `wave_speeds` when the medium is built.
    """

    rho: float
    lame_lambda: float
    lame_mu: float
    cp: float = field(init=False, repr=False, compare=False)
    cs: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cp, cs = wave_speeds(self.rho, self.lame_lambda, self.lame_mu)
        object.__setattr__(self, "cp", cp)
        object.__setattr__(self, "cs", cs)

    @classmethod
    def from_speeds(cls, rho: float, cp: float, cs: float) -> "ElasticMedium":
        """Build a medium from its wave speeds.

        Requires cp > sqrt(2) * cs so the first Lame coefficient stays
        strictly positive.
        """
        if not rho > 0:
            raise ValueError(f"rho must be > 0, got {rho}")
        if not (cp > cs > 0):
            raise ValueError(f"need cp > cs > 0, got cp={cp}, cs={cs}")
        lame_mu = rho * cs * cs
        lame_lambda = rho * (cp * cp - 2.0 * cs * cs)
        if not lame_lambda > 0:
            raise ValueError(
                f"cp={cp}, cs={cs} imply a nonpositive first Lame coefficient; "
                "need cp > sqrt(2)*cs"
            )
        return cls(rho=rho, lame_lambda=lame_lambda, lame_mu=lame_mu)


def principal_sqrt(radicand: float) -> complex:
    """Square root of a real number with the decay/radiation branch.

    Nonnegative input gives the nonnegative real root (spatial decay);
    negative input gives +i*sqrt(|x|) (outgoing oscillation).  This is the
    branch that keeps the half-plane solutions bounded at infinity.
    """
    if radicand >= 0.0:
        return complex(math.sqrt(radicand), 0.0)
    return complex(0.0, math.sqrt(-radicand))


def _radicands(k: float, omega: float, cp: float, cs: float) -> tuple[float, float]:
    # Shared by classify_zone and characteristic_roots so the cut-off
    # comparisons see bitwise-identical values.
    return k * k - (omega / cs) ** 2, k * k - (omega / cp) ** 2


def classify_zone(k: float, omega: float, cp: float, cs: float) -> Zone:
    """Place a wavenumber in the three-band structure of the iteration.

    [0, omega/cp) stagnates, (omega/cp, omega/cs) diverges, beyond
    omega/cs contracts; the two cut-offs themselves are BOUNDARY.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if not (cp > cs > 0):
        raise ValueError(f"need cp > cs > 0, got cp={cp}, cs={cs}")
    rad_s, rad_p = _radicands(k, omega, cp, cs)
    if rad_p == 0.0 or rad_s == 0.0:
        return Zone.BOUNDARY
    if rad_p < 0.0:
        return Zone.STAGNANT
    if rad_s < 0.0:
        return Zone.DIVERGENT
    return Zone.CONTRACTIVE


@dataclass(frozen=True)
class ModeSymbol:
    """Mode-wise characteristic data of the transformed elastic system.

    ``lambda1`` and ``lambda2`` are the decay roots attached to the shear
    and pressure speeds; ``x1`` and ``x2`` are the two auxiliary ratios
    that the interface iteration matrix is built from.
    """

    k: float
    omega: float
    lambda1: complex
    lambda2: complex
    x1: complex
    x2: complex
    zone: Zone


def characteristic_roots(medium: ElasticMedium, omega: float, k: float) -> ModeSymbol:
    """Decay roots and auxiliary ratios for one Fourier mode.

    Both roots take the principal branch (nonnegative real part, positive
    imaginary part on the negative real axis), so subdomain solutions decay
    or radiate outward.  Cut-off wavenumbers, where one root vanishes, are
    flagged as BOUNDARY.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    cp, cs = medium.cp, medium.cs
    rad_s, rad_p = _radicands(k, omega, cp, cs)
    lam1 = principal_sqrt(rad_s)
    lam2 = principal_sqrt(rad_p)
    prod = lam1 * lam2
    den = k * k - prod
    if abs(den) < _ROOT_PRODUCT_GUARD:
        raise ValueError(
            f"degenerate mode: |k^2 - lambda1*lambda2| = {abs(den):.3e} "
            f"at k={k}, omega={omega}"
        )
    return ModeSymbol(
        k=k,
        omega=omega,
        lambda1=lam1,
        lambda2=lam2,
        x1=(k * k + prod) / den,
        x2=-2j * k * lam2 / den,
        zone=classify_zone(k, omega, cp, cs),
    )


@dataclass(frozen=True)
class BasisMatrices:
    """Solution bases of the two subdomains evaluated at an abscissa x.

    Columns of ``m_x`` span the right-decaying solutions used on the left
    subdomain, columns of ``n_x`` the left-decaying ones of the right
    subdomain.
    """

    m_x: np.ndarray
    n_x: np.ndarray


def basis_matrices(sym: ModeSymbol, x: float) -> BasisMatrices:
    """Evaluate both 2x2 solution bases at abscissa ``x``.

    The eigenvector normalization divides by k, so k = 0 is rejected; the
    closed-form eigenvalue path (``eigenvalues_closed_form``) is regular
    there and should be used instead.
    """
    k = sym.k
    if k == 0:
        raise ValueError(
            "basis matrices are normalized by 1/k and undefined at k=0; "
            "use eigenvalues_closed_form, which is regular there"
        )
    l1, l2 = sym.lambda1, sym.lambda2
    ep1, ep2 = cmath.exp(l1 * x), cmath.exp(l2 * x)
    em1, em2 = cmath.exp(-l1 * x), cmath.exp(-l2 * x)
    m = np.array(
        [[ep1, (-1j * l2 / k) * ep2], [(1j * l1 / k) * ep1, ep2]], dtype=complex
    )
    n = np.array(
        [[em1, (1j * l2 / k) * em2], [(-1j * l1 / k) * em1, em2]], dtype=complex
    )
    return BasisMatrices(m_x=m, n_x=n)


@dataclass(frozen=True)
class IterationMatrix2:
    """Double-sweep interface iteration matrix with its spectral data."""

    r: np.ndarray
    r_plus: complex
    r_minus: complex
    rho_cla: float
    zone: Zone


def iteration_matrix(
    medium: ElasticMedium, omega: float, k: float, delta: float
) -> IterationMatrix2:
    """Closed-form 2x2 iteration matrix over one double Schwarz sweep.

    The entries are written in a cancelled form that stays finite at the
    pressure cut-off (lambda2 -> 0) and at k -> 0, where the raw
    eigenvector normalization would divide by zero.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    sym = characteristic_roots(medium, omega, k)
    l1, l2, k_ = sym.lambda1, sym.lambda2, sym.k
    prod = l1 * l2
    den = k_ * k_ - prod
    x1, x2 = sym.x1, sym.x2
    # x1*x2 * (l1/l2) with the l2 factor cancelled, finite at the cut-offs
    z = x1 * (-2j * k_ * l1) / den
    ea = cmath.exp(-delta * (l1 + l2))
    e1 = cmath.exp(-2.0 * delta * l1)
    e2 = cmath.exp(-2.0 * delta * l2)
    # diagonal uses x2^2 l1/l2 = 1 - x1^2 exactly, isolating the large-x1
    # cancellation inside the exponential differences (zero overlap is then
    # the identity matrix exactly)
    r = np.array(
        [
            [ea + x1 * x1 * (e1 - ea), x1 * x2 * (e1 - ea)],
            [z * (ea - e2), ea + x1 * x1 * (e2 - ea)],
        ],
        dtype=complex,
    )
    r_plus, r_minus = _eigenpair(sym, delta)
    return IterationMatrix2(
        r=r,
        r_plus=r_plus,
        r_minus=r_minus,
        rho_cla=max(abs(r_plus), abs(r_minus)),
        zone=sym.zone,
    )


def eigenvalues_closed_form(
    medium: ElasticMedium, omega: float, k: float, delta: float
) -> tuple[complex, complex]:
    """Eigenvalue pair of the double-sweep iteration matrix, closed form.

    Regular for every real k (including k = 0 and the cut-offs); at
    delta = 0 both eigenvalues equal 1 exactly.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    return _eigenpair(characteristic_roots(medium, omega, k), delta)


def _eigenpair(sym: ModeSymbol, delta: float) -> tuple[complex, complex]:
    l1, l2 = sym.lambda1, sym.lambda2
    x = sym.x1 * (cmath.exp(-l1 * delta) - cmath.exp(-l2 * delta))
    ea = cmath.exp(-delta * (l1 + l2))
    xsq = x * x
    s = cmath.sqrt(xsq * (xsq + 4.0 * ea))
    return 0.5 * xsq + ea + 0.5 * s, 0.5 * xsq + ea - 0.5 * s


def convergence_factor(
    medium: ElasticMedium, omega: float, k: float, delta: float
) -> float:
    """Modulus of the worst eigenvalue of the double-sweep iteration."""
    r_plus, r_minus = eigenvalues_closed_form(medium, omega, k, delta)
    return max(abs(r_plus), abs(r_minus))


@dataclass(frozen=True)
class SweepPoint:
    """One row of a wavenumber sweep."""

    k: float
    abs_r_plus: float
    abs_r_minus: float
    rho_cla: float
    zone: Zone


def sweep(
    medium: ElasticMedium, omega: float, delta: float, k_grid
) -> list[SweepPoint]:
    """Evaluate eigenvalue moduli and zone over an increasing wavenumber grid.

    Deterministic, one row per grid point; rows come back ordered by k no
    matter how the evaluation is scheduled.
    """
    ks = np.asarray(k_grid, dtype=float)
    if ks.size == 0:
        raise ValueError("k_grid must be nonempty")
    if np.any(ks < 0):
        raise ValueError("k_grid must be nonnegative")
    if ks.size > 1 and np.any(np.diff(ks) <= 0):
        raise ValueError("k_grid must be strictly increasing")
    rows = []
    for k in ks:
        r_plus, r_minus = eigenvalues_closed_form(medium, omega, float(k), delta)
        rows.append(
            SweepPoint(
                k=float(k),
                abs_r_plus=abs(r_plus),
                abs_r_minus=abs(r_minus),
                rho_cla=max(abs(r_plus), abs(r_minus)),
                zone=classify_zone(float(k), omega, medium.cp, medium.cs),
            )
        )
    return rows


def max_rho(
    medium: ElasticMedium, omega: float, delta: float, *, grid_points: int = 2001
) -> tuple[float, float]:
    """Maximize the convergence factor over the divergent band.

    Dense grid scan (>= 2000 interior points) followed by golden-section
    refinement to a relative wavenumber tolerance of 1e-10.  The grid stage
    guards against the kinks where the two eigenvalue moduli cross, which a
    derivative-based search would mishandle.
    """
    if not delta > 0:
        raise ValueError(
            "delta must be > 0: without overlap the factor is identically 1 "
            "and the maximum is meaningless"
        )
    if grid_points < 2000:
        raise ValueError(f"grid_points must be >= 2000, got {grid_points}")
    lo = omega / medium.cp
    hi = omega / medium.cs

    def rho(k: float) -> float:
        return convergence_factor(medium, omega, k, delta)

    ks = np.linspace(lo, hi, grid_points + 2)[1:-1]
    rhos = np.array([rho(float(k)) for k in ks])
    i = int(np.argmax(rhos))
    a = float(ks[i - 1]) if i > 0 else lo
    b = float(ks[i + 1]) if i < ks.size - 1 else hi

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = rho(c), rho(d)
    while (b - a) > 1e-10 * b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = rho(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = rho(d)
    k_star = 0.5 * (a + b)
    rho_star = rho(k_star)
    if rhos[i] > rho_star:  # refinement landed on the wrong side of a kink
        k_star, rho_star = float(ks[i]), float(rhos[i])
    return k_star, rho_star


def asymptotic_slope(cp: float, cs: float, omega: float) -> float:
    """Small-overlap growth rate of the band maximum of the factor.

    Returns the coefficient of delta in max_k rho = 1 + slope * delta as
    the overlap shrinks; the slope is linear in omega.
    """
    if not (cp > cs > 0):
        raise ValueError(f"need cp > cs > 0, got cp={cp}, cs={cs}")
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    s = math.sqrt(cp**4 + 8.0 * cs**4)
    rad = cp * cp * s - cp**4 - 2.0 * cs**4
    if rad <= 0.0:
        # positive for cp > cs > 0; numeric cancellation guard only
        raise ValueError(f"degenerate speeds cp={cp}, cs={cs}: radicand {rad:.3e}")
    return (
        math.sqrt(2.0)
        * cs
        * omega
        * (3.0 * cp * cp - s)
        * math.sqrt(rad)
        / (cp * (cp * cp + cs * cs) ** 1.5 * (s - cp * cp))
    )


def first_order_coefficient(medium: ElasticMedium, omega: float, k: float) -> float:
    """Coefficient of delta in the small-overlap expansion of rho at fixed k.

    Only defined strictly inside the divergent band, where the shear root
    is purely imaginary (its squared modulus enters as a positive real) and
    the pressure root is real positive.
    """
    cp, cs = medium.cp, medium.cs
    rad_s, rad_p = _radicands(k, omega, cp, cs)
    if not (rad_p > 0.0 and rad_s < 0.0):
        raise ValueError(
            f"k={k} is not strictly inside the divergent band "
            f"({omega / cp}, {omega / cs})"
        )
    shear_sq = -rad_s  # |lambda1|^2, positive here
    lam2 = math.sqrt(rad_p)
    return (
        2.0 * omega * omega * lam2 * shear_sq
        / (cp * cp * (k**4 + shear_sq * rad_p))
    )


def first_order_rho(
    medium: ElasticMedium, omega: float, k: float, delta: float
) -> float:
    """First-order-in-overlap value of the convergence factor at fixed k."""
    return 1.0 + first_order_coefficient(medium, omega, k) * delta
