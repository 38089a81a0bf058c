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
concurrently) in plain double precision.  A function of a wavenumber k
broadcasts over an array of k, and with it over arrays of frequencies and
of media (an `ElasticMedium` of arrays); scalars run the same code on
length-1 arrays and get Python scalars (complex, float, `Zone`), bit for bit
those of an array call of fewer than 16,384 entries (numpy evaluates longer
ones in place).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Zone",
    "DegenerateModeError",
    "ElasticMedium",
    "ModeSymbol",
    "BasisMatrices",
    "IterationMatrix2",
    "Sweep",
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


def wave_speeds(rho, lame_lambda, lame_mu):
    """Pressure and shear wave speeds of a homogeneous isotropic medium,
    or of each of a broadcast set of media.

    Parameters
    ----------
    rho : float or array
        Mass density, strictly positive.
    lame_lambda, lame_mu : float or array
        Lame coefficients, both strictly positive.

    Returns
    -------
    (cp, cs) : tuple of float (for scalars) or of broadcast arrays
        cp = sqrt((lambda + 2 mu) / rho), cs = sqrt(mu / rho); cp > cs.
    """
    for name, value in dict(rho=rho, lame_mu=lame_mu, lame_lambda=lame_lambda).items():
        if not np.greater(value, 0).all():
            raise ValueError(f"{name} must be > 0, got {value}")
    cp, cs = np.sqrt((lame_lambda + 2.0 * lame_mu) / rho), np.sqrt(lame_mu / rho)
    return (float(cp), float(cs)) if cp.ndim == 0 else (cp, cs)


@dataclass(frozen=True)
class ElasticMedium:
    """Material constants of a homogeneous isotropic elastic medium, or
    arrays of them, one medium per broadcast entry.

    ``cp`` and ``cs`` are the pressure and shear wave speeds, computed
    once by `wave_speeds` when the medium is built (arrays for arrays).
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


def _vector(x, dtype=float) -> np.ndarray:
    # A scalar runs as a length-1 array: numpy's 0-d scalar routines round
    # complex products differently from its array loops, and an array call
    # under 16,384 entries (see `_SWEEP_BLOCK`) equals its element-wise calls.
    return np.atleast_1d(np.asarray(x, dtype=dtype))


def _shaped(k, value, *inputs):
    """``value``, computed on ``_vector(k)`` and the inputs, in their broadcast
    shape: scalars alone give a Python scalar (complex, float, Zone) or one matrix."""
    if np.broadcast(k, *inputs).ndim:
        return value
    value = value[0]
    return value.item() if isinstance(value, np.generic) else value


def _modulus(z: np.ndarray) -> np.ndarray:
    # hypot, as Python's abs(complex): numpy's complex absolute value rounds
    # differently and turns more unimodular eigenvalues into 1 +- 1 ulp
    return np.hypot(z.real, z.imag)


def _stack_2x2(a00, a01, a10, a11) -> np.ndarray:
    """Stack of 2x2 matrices, shape (..., 2, 2), from their entries."""
    return np.stack([np.stack([a00, a01], -1), np.stack([a10, a11], -1)], -2)


def principal_sqrt(radicand):
    """Square root of a real number (or array) with the decay/radiation
    branch.

    Nonnegative input gives the nonnegative real root (spatial decay);
    negative input gives +i*sqrt(|x|) (outgoing oscillation).  This is the
    branch that keeps the half-plane solutions bounded at infinity.
    """
    x = _vector(radicand)
    root = np.sqrt(np.abs(x))
    return _shaped(radicand, np.where(x >= 0.0, root, 1j * root))


def _radicands(medium: ElasticMedium, omega, ks: np.ndarray):
    """k^2 - (omega/cs)^2 and k^2 - (omega/cp)^2, the squared shear and
    pressure decay roots, after checking omega > 0.  `classify_zone`,
    `characteristic_roots` and `first_order_coefficient` share them: one
    check, and cut-off comparisons that see bitwise-identical values."""
    if not np.greater(omega, 0).all():
        raise ValueError(f"omega must be > 0, got {omega}")
    return ks * ks - (omega / medium.cs) ** 2, ks * ks - (omega / medium.cp) ** 2


_ZONES = np.array(list(Zone), dtype=object)  # the Zone of each zone code


def classify_zone(medium: ElasticMedium, omega, k):
    """Place a wavenumber (or each of an array of them, broadcast with
    arrays of frequencies and of media) in the three-band structure of the
    iteration; the one place the module computes zones.

    [0, omega/cp) stagnates, (omega/cp, omega/cs) diverges, beyond
    omega/cs contracts; the two cut-offs themselves are BOUNDARY.  An
    array gives an object array of `Zone` members.
    """
    rad_s, rad_p = _radicands(medium, omega, _vector(k))
    # zone code 2 less the number of negative radicands (rad_s <= rad_p), 3 at a cut-off
    cut = (rad_p == 0.0) | (rad_s == 0.0)
    codes = np.where(cut, 3, 2 - (rad_s < 0.0) - (rad_p < 0.0))
    return _shaped(k, _ZONES[codes], omega, medium.cp)


class DegenerateModeError(ValueError):
    """A Fourier mode at which the closed form divides by zero."""


@dataclass(frozen=True)
class ModeSymbol:
    """Mode-wise characteristic data of the transformed elastic system.

    ``lambda1`` and ``lambda2`` are the decay roots attached to the shear
    and pressure speeds; ``x1`` and ``x2`` are the two auxiliary ratios
    that the interface iteration matrix is built from.  For arrays of
    inputs every field but ``omega`` is an array of their broadcast shape.
    The band of a mode is not part of it: `classify_zone` gives that.
    """

    k: float | np.ndarray
    omega: float | np.ndarray
    lambda1: complex | np.ndarray
    lambda2: complex | np.ndarray
    x1: complex | np.ndarray
    x2: complex | np.ndarray


def _root_gap(medium: ElasticMedium, omega, ks, prod) -> np.ndarray:
    # k^2 - lambda1*lambda2 cancels to nothing at large k.  Beyond omega/cs,
    # where both roots are real and positive, it equals
    # (k^2 (a + b) - a b) / (k^2 + lambda1*lambda2) with a = (omega/cs)^2
    # and b = (omega/cp)^2, taken here divided through by k^2 so that no
    # product of squares overflows.  Not below omega/cs: that denominator
    # vanishes at k^2 = a b / (a + b)
    a, b, k2 = (omega / medium.cs) ** 2, (omega / medium.cp) ** 2, ks * ks
    gap = k2 - prod
    far = k2 > a  # k2 has the shape of gap: callers broadcast ks
    a, b = (np.broadcast_to(x, far.shape)[far] if np.ndim(x) else x for x in (a, b))
    gap[far] = (a + b - a * (b / k2[far])) / (1.0 + prod[far] / k2[far])
    return gap


def characteristic_roots(medium: ElasticMedium, omega, k) -> ModeSymbol:
    """Decay roots and auxiliary ratios for one Fourier mode, or for each
    of an array of wavenumbers, broadcast with arrays of frequencies and
    of media (the symbol's ``k`` then has the broadcast shape).

    Both roots take the principal branch (nonnegative real part, positive
    imaginary part on the negative real axis), so subdomain solutions decay
    or radiate outward; at a cut-off wavenumber one root is zero.  A
    nonpositive omega raises ValueError (in `_radicands`).
    """
    rad_s, rad_p = _radicands(medium, omega, _vector(k))
    ks = np.broadcast_to(_vector(k), rad_s.shape)
    lam1 = principal_sqrt(rad_s)
    lam2 = principal_sqrt(rad_p)
    prod = lam1 * lam2
    den = _root_gap(medium, omega, ks, prod)
    degenerate = np.abs(den) < _ROOT_PRODUCT_GUARD
    if np.any(degenerate):
        i = int(np.argmax(degenerate))
        raise DegenerateModeError(
            f"degenerate mode: |k^2 - lambda1*lambda2| = {abs(den.flat[i]):.3e} "
            f"at k={ks.flat[i]}, omega={np.broadcast_to(omega, den.shape).flat[i]}"
        )
    x1, x2 = (ks * ks + prod) / den, -2j * ks * lam2 / den
    k_, *fields = (_shaped(k, f, omega, medium.cp) for f in (ks, lam1, lam2, x1, x2))
    return ModeSymbol(k_, omega, *fields)


@dataclass(frozen=True)
class BasisMatrices:
    """Solution bases of the two subdomains evaluated at an abscissa x.

    Columns of ``m_x`` span the right-decaying solutions used on the left
    subdomain, columns of ``n_x`` the left-decaying ones of the right
    subdomain.  Both are (..., 2, 2) stacks, one matrix per wavenumber.
    """

    m_x: np.ndarray
    n_x: np.ndarray


def basis_matrices(sym: ModeSymbol, x: float) -> BasisMatrices:
    """Evaluate both 2x2 solution bases at abscissa ``x``.

    The eigenvector normalization divides by k, so k = 0 is rejected; the
    closed-form eigenvalue path (``eigenvalues_closed_form``) is regular
    there and should be used instead.
    """
    k = _vector(sym.k)
    if np.any(k == 0):
        raise ValueError(
            "basis matrices are normalized by 1/k and undefined at k=0; "
            "use eigenvalues_closed_form, which is regular there"
        )
    l1, l2 = _vector(sym.lambda1, complex), _vector(sym.lambda2, complex)
    ep1, ep2 = np.exp(l1 * x), np.exp(l2 * x)
    em1, em2 = np.exp(-l1 * x), np.exp(-l2 * x)
    m = _stack_2x2(ep1, (-1j * l2 / k) * ep2, (1j * l1 / k) * ep1, ep2)
    n = _stack_2x2(em1, (1j * l2 / k) * em2, (-1j * l1 / k) * em1, em2)
    return BasisMatrices(m_x=_shaped(sym.k, m), n_x=_shaped(sym.k, n))


@dataclass(frozen=True)
class IterationMatrix2:
    """Double-sweep interface iteration matrix with its spectral data
    (a (..., 2, 2) stack and arrays for an array of wavenumbers); the band
    of the mode comes from `classify_zone`."""

    r: np.ndarray
    r_plus: complex | np.ndarray
    r_minus: complex | np.ndarray
    rho_cla: float | np.ndarray


def iteration_matrix(
    medium: ElasticMedium, omega: float, k, delta: float
) -> IterationMatrix2:
    """Closed-form 2x2 iteration matrix over one double Schwarz sweep.

    The entries are written in a cancelled form that stays finite at the
    pressure cut-off (lambda2 -> 0) and at k -> 0, where the raw
    eigenvector normalization would divide by zero.  Beyond omega/cs, at
    a fixed k delta, the entries grow like k^2 and the eigenvalues do not
    (0.13 k^2 against 0.42 and 0.043 for cp = 1, cs = 0.5, omega = 1 and
    delta = 1/k), so `np.linalg.eigvals` of ``r`` loses their digits: 1e-5
    off at k = 1e3, meaningless from k = 1e4.  ``r_plus`` and ``r_minus``
    are accurate.  A negative delta raises ValueError (in `_exp_gap`).
    """
    sym = characteristic_roots(medium, omega, _vector(k))
    g = _exp_gap(sym, medium, delta)
    l1, l2, k_, x1, x2 = sym.lambda1, sym.lambda2, sym.k, sym.x1, sym.x2
    den = _root_gap(medium, omega, k_, l1 * l2)
    # x1*x2 * (l1/l2) with the l2 factor cancelled, finite at the cut-offs
    z = x1 * (-2j * k_ * l1) / den
    ea = np.exp(-delta * (l1 + l2))
    e1 = np.exp(-2.0 * delta * l1)
    # diagonal uses x2^2 l1/l2 = 1 - x1^2 exactly, isolating the large-x1
    # cancellation inside the exponential differences e1 - ea = -e1 g and
    # ea - e^(-2 delta l2) = -ea g (zero overlap is then the identity
    # matrix exactly)
    r = _stack_2x2(
        ea - x1 * x1 * (e1 * g),
        -x1 * x2 * (e1 * g),
        -z * (ea * g),
        ea + x1 * x1 * (ea * g),
    )
    r_plus, r_minus = _eigenpair(sym, g, delta)
    rho_cla = np.maximum(_modulus(r_plus), _modulus(r_minus))
    fields = (r, r_plus, r_minus, rho_cla)
    return IterationMatrix2(*(_shaped(k, f, omega, medium.cp) for f in fields))


def eigenvalues_closed_form(medium: ElasticMedium, omega: float, k, delta: float):
    """Eigenvalue pair of the double-sweep iteration matrix, closed form.

    Regular for every real k (including k = 0 and the cut-offs); at
    delta = 0 both eigenvalues equal 1 exactly.  An array k gives a pair
    of arrays.
    """
    sym = characteristic_roots(medium, omega, _vector(k))
    r_plus, r_minus = _eigenpair(sym, _exp_gap(sym, medium, delta), delta)
    return _shaped(k, r_plus, omega, medium.cp), _shaped(k, r_minus, omega, medium.cp)


def _exp_gap(sym: ModeSymbol, medium: ElasticMedium, delta: float) -> np.ndarray:
    """g = e^((lambda1 - lambda2) delta) - 1, by expm1 of (lambda1 - lambda2)
    delta = -(a - b) delta / (lambda1 + lambda2), a = (omega/cs)^2 and
    b = (omega/cp)^2.  Every difference of two exponentials of the closed
    form is minus the larger one times g; Re(lambda2 - lambda1) >= 0 in
    every zone, so |g| <= 2 and nothing overflows, and beyond omega/cs,
    where the two agree to about (a - b) delta / 2k, g keeps the digits a
    subtraction would lose.  The module's one check that delta >= 0, made
    before its callers take any exponential of delta, which could overflow."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    a, b = (sym.omega / medium.cs) ** 2, (sym.omega / medium.cp) ** 2
    return np.expm1(-(a - b) * delta / (sym.lambda1 + sym.lambda2))


def _eigenpair(
    sym: ModeSymbol, g: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    l1, l2 = sym.lambda1, sym.lambda2
    # e^(-l1 delta) - e^(-l2 delta)
    x = -sym.x1 * (np.exp(-l1 * delta) * g)
    ea = np.exp(-delta * (l1 + l2))
    xsq = x * x
    s = np.sqrt(xsq * (xsq + 4.0 * ea))
    return 0.5 * xsq + ea + 0.5 * s, 0.5 * xsq + ea - 0.5 * s


def convergence_factor(medium: ElasticMedium, omega: float, k, delta: float):
    """Modulus of the worst eigenvalue of the double-sweep iteration."""
    r_plus, r_minus = eigenvalues_closed_form(medium, omega, _vector(k), delta)
    return _shaped(k, np.maximum(_modulus(r_plus), _modulus(r_minus)), omega, medium.cp)


@dataclass(frozen=True)
class Sweep:
    """A wavenumber sweep as columns, one entry per grid point in the order
    of k: both eigenvalue moduli, the convergence factor and the `Zone`
    (an object array)."""

    k: np.ndarray
    abs_r_plus: np.ndarray
    abs_r_minus: np.ndarray
    rho_cla: np.ndarray
    zone: np.ndarray


# wavenumbers per block of `sweep`, the last block taking the remainder.
# Not below 16,384: numpy evaluates a complex array expression of that many
# entries or more in place, with other last-bit rounding, so a shorter
# block would change the bits of a long grid.
_SWEEP_BLOCK = 65536


def sweep(medium: ElasticMedium, omega: float, delta: float, k_grid) -> Sweep:
    """Evaluate eigenvalue moduli and zone over an increasing wavenumber grid.

    The columns are filled in blocks of `_SWEEP_BLOCK` wavenumbers, so the
    temporaries of the closed form do not grow with the grid."""
    ks = np.array(k_grid, dtype=float)
    if ks.size == 0:
        raise ValueError("k_grid must be nonempty")
    if np.any(ks < 0):
        raise ValueError("k_grid must be nonnegative")
    if ks.size > 1 and np.any(np.diff(ks) <= 0):
        raise ValueError("k_grid must be strictly increasing")
    s = Sweep(ks, np.empty(ks.size), np.empty(ks.size), np.empty(ks.size),
              np.empty(ks.size, dtype=object))
    n_blocks = max(1, ks.size // _SWEEP_BLOCK)
    edges = [i * _SWEEP_BLOCK for i in range(n_blocks)] + [ks.size]
    for block in map(slice, edges, edges[1:]):
        r_plus, r_minus = eigenvalues_closed_form(medium, omega, ks[block], delta)
        s.abs_r_plus[block], s.abs_r_minus[block] = _modulus(r_plus), _modulus(r_minus)
        np.maximum(s.abs_r_plus[block], s.abs_r_minus[block], out=s.rho_cla[block])
        s.zone[block] = classify_zone(medium, omega, ks[block])
    return s


def max_rho(medium: ElasticMedium, omega: float, delta: float) -> tuple[float, float]:
    """Maximize the convergence factor over the divergent band.

    One array evaluation on 2001 interior points of the band, then rounds
    of one array evaluation each on the bracket [k - h, k + h] around the
    best point k so far (h the spacing that found it): the 63 interior
    points, k among them, of a 65-point grid over it, until the bracket is
    narrower than 1e-10 k.  The grid stage guards against the kinks where
    the two eigenvalue moduli cross, which a derivative-based search would
    mishandle, and as every round evaluates k again the result never drops
    below the grid maximum.
    """
    if not delta > 0:
        raise ValueError(
            "delta must be > 0: without overlap the factor is identically 1 "
            "and the maximum is meaningless"
        )
    lo, hi = omega / medium.cp, omega / medium.cs
    ks = np.linspace(lo, hi, 2003)[1:-1]
    step = (hi - lo) / 2002
    while True:
        rhos = convergence_factor(medium, omega, ks, delta)
        i = int(np.argmax(rhos))
        if 2.0 * step < 1e-10 * ks[i]:
            return float(ks[i]), float(rhos[i])
        step /= 32.0
        ks = ks[i] + step * np.arange(-31.0, 32.0)


def asymptotic_slope(medium: ElasticMedium, omega: float) -> float:
    """Small-overlap growth rate of the band maximum of the factor.

    Returns the coefficient of delta in max_k rho = 1 + slope * delta as
    the overlap shrinks; the slope is linear in omega.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    # in the speed ratio r = cs/cp < 1, where q = sqrt(1 + 8 r^4) < 3: no
    # power of a speed overflows and no difference cancels at small r
    r = medium.cs / medium.cp
    q = math.sqrt(1.0 + 8.0 * r**4)
    return (
        (omega / medium.cp)
        * (3.0 - q) ** 1.5
        * math.sqrt(q + 1.0)
        / (4.0 * r * (1.0 + r * r) ** 1.5)
    )


def first_order_coefficient(medium: ElasticMedium, omega: float, k):
    """Coefficient of delta in the small-overlap expansion of rho at fixed k.

    Only defined strictly inside the divergent band, where the shear root
    is purely imaginary (its squared modulus enters as a positive real) and
    the pressure root is real positive.
    """
    cp, cs = medium.cp, medium.cs
    ks = _vector(k)
    rad_s, rad_p = _radicands(medium, omega, ks)
    outside = ~((rad_p > 0.0) & (rad_s < 0.0))
    if np.any(outside):
        raise ValueError(
            f"k={ks[outside][0]} is not strictly inside the divergent band "
            f"({omega / cp}, {omega / cs})"
        )
    shear_sq = -rad_s  # |lambda1|^2, positive here
    lam2 = np.sqrt(rad_p)
    return _shaped(
        k,
        2.0 * omega * omega * lam2 * shear_sq
        / (cp * cp * (ks**4 + shear_sq * rad_p)),
    )
