"""Brute-force oracle for the interface iteration in coefficient space.

The double-sweep matrix is assembled here by explicit products and 2x2
inversions of the subdomain solution bases, with no use of the closed-form
eigenvalues, so it can serve as an independent cross-check of the
analysis module.  A normalized power iteration on the same recurrence
estimates the spectral radius directly.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import ModeSymbol, _shaped, _stack_2x2, basis_matrices

__all__ = [
    "SingularBasisError",
    "numeric_iteration_matrix",
    "numeric_iteration_matrix_inverse",
    "power_growth",
]

_DET_GUARD = 1e-250


class SingularBasisError(ValueError):
    """A subdomain solution basis that cannot be inverted."""


def _invert_2x2(m: np.ndarray, what: str) -> np.ndarray:
    # Explicit adjugate: deterministic, no pivoting ambiguity at this size.
    # An overflowed basis (a huge overlap or wavenumber) has a determinant
    # that is not finite, and counts as singular.
    with np.errstate(over="ignore", invalid="ignore"):
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    singular = ~np.isfinite(det) | (np.abs(det) < _DET_GUARD)
    if np.any(singular):
        i = int(np.argmax(singular))
        size = float(abs(np.ravel(det)[i]))
        largest = float(np.abs(m.reshape(-1, 2, 2)[i]).max())
        cond = largest * largest / size if 0 < size < math.inf else math.inf
        raise SingularBasisError(
            f"{what} is numerically singular (matrix {i} of the stack): "
            f"|det| = {size:.3e}, condition estimate ~ {cond:.3e}"
        )
    adjugate = _stack_2x2(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])
    return adjugate / det[..., None, None]


def _bases(sym: ModeSymbol, delta: float) -> list[np.ndarray]:
    # m_x, n_x at the overlap plane, then at the zero plane, as stacks with
    # a leading mode axis (one mode for a scalar k)
    shape = np.shape(np.atleast_1d(sym.k)) + (2, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # `_invert_2x2` rejects it
        pairs = [basis_matrices(sym, x) for x in (delta, 0.0)]
    return [m.reshape(shape) for pair in pairs for m in (pair.m_x, pair.n_x)]


def _half_sweeps(sym: ModeSymbol, delta: float) -> tuple[np.ndarray, np.ndarray]:
    # each side refits its coefficients to the other side's interface trace
    m_overlap, n_overlap, m_zero, n_zero = _bases(sym, delta)
    to_alpha = _invert_2x2(m_overlap, "left basis at the overlap plane") @ n_overlap
    to_beta = _invert_2x2(n_zero, "right basis at the zero plane") @ m_zero
    return to_alpha, to_beta


def numeric_iteration_matrix(
    sym: ModeSymbol, delta: float, *, subdomain: int = 1
) -> np.ndarray:
    """Double-sweep matrix assembled numerically from the solution bases:
    one 2x2 matrix, or a (..., 2, 2) stack for a symbol of a k array.

    ``subdomain=1`` tracks the left-subdomain coefficients, ``subdomain=2``
    the right ones; the two matrices are spectrally equivalent.
    """
    if subdomain not in (1, 2):
        raise ValueError(f"subdomain must be 1 or 2, got {subdomain}")
    left, right = _half_sweeps(sym, delta)
    return _shaped(sym.k, left @ right if subdomain == 1 else right @ left)


def numeric_iteration_matrix_inverse(sym: ModeSymbol, delta: float) -> np.ndarray:
    """Inverse of the left-subdomain double-sweep matrix, by the same route."""
    m_overlap, n_overlap, m_zero, n_zero = _bases(sym, delta)
    return _shaped(
        sym.k,
        _invert_2x2(m_zero, "left basis at the zero plane")
        @ n_zero
        @ _invert_2x2(n_overlap, "right basis at the overlap plane")
        @ m_overlap,
    )


def power_growth(sym: ModeSymbol, delta: float, n_iter: int, seed: int):
    """Spectral-radius estimate by normalized power iteration, for one mode
    or, at once, for each mode of a symbol of a k array.

    Runs ``n_iter`` double sweeps from a seeded random start (the same for
    every mode) and returns the geometric mean of the per-double-sweep
    norm growth over the last half of the run (the first half absorbs the
    transient of the non-normal matrix).  Reliable to about 1% when the
    two eigenvalue moduli are separated.  It iterates on the four entry
    arrays of the 2x2 matrices, one array operation per term for all modes.
    """
    if n_iter < 50:
        raise ValueError(f"n_iter must be >= 50, got {n_iter}")
    r = np.reshape(numeric_iteration_matrix(sym, delta), (-1, 4))
    r00, r01, r10, r11 = r.T.copy()
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v0, v1 = (np.full(len(r), z) for z in start / np.linalg.norm(start))
    tail_start = n_iter // 2
    log_sum = np.zeros(len(r))
    for n in range(n_iter):
        v0, v1 = r00 * v0 + r01 * v1, r10 * v0 + r11 * v1
        # |v|^2 summed as np.linalg.norm sums it, to keep the bits of r @ v
        g = np.sqrt((v0.conj() * v0).real + (v1.conj() * v1).real)
        if n >= tail_start:
            log_sum += np.log(g)
        scale = 1.0 / g  # v / g bit for bit, without a complex division
        v0 *= scale
        v1 *= scale
    growth = np.exp(log_sum / (n_iter - tail_start))
    return _shaped(sym.k, growth.reshape(np.shape(np.atleast_1d(sym.k))))
