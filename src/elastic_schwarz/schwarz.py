"""Two-subdomain overlapping Schwarz iteration on the finite-element
discretization, the restricted additive Schwarz (RAS) preconditioner, the
spectrum of the preconditioned operator, and preconditioned GMRES.

The parallel Schwarz sweep and the stationary RAS iteration are the same
algorithm: subdomain ownership is a disjoint {0,1} partition of unity
split at the overlap midline, each subdomain solves with Dirichlet data
injected from the previous glued iterate at its interface mesh line, and
the owned values are written back.  All Krylov and spectrum work happens
on the non-Dirichlet unknowns (the eliminated dofs carry a pinned unit
diagonal and would only pad the spectrum with ones).  All four run
through one operator, `RestrictedSolve`: each subdomain solves on its
interior and keeps the part it owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, splu
from scipy.sparse.linalg import gmres as scipy_gmres

from .fem import (
    AssembledSystem,
    StructuredMesh,
    direct_solve,
    dominant_mode,
    interface_mode_amplitudes,
)

__all__ = [
    "Subdomain",
    "Decomposition",
    "ErrorHistory",
    "GmresResult",
    "BudgetExceededError",
    "RestrictedSolve",
    "subdomain_columns",
    "decompose",
    "single_domain",
    "seeded_initial_guess",
    "schwarz_iterate",
    "ras_apply",
    "stationary_ras",
    "preconditioned_operator",
    "spectrum",
    "gmres",
]

SPECTRUM_BUDGET = 20000


class BudgetExceededError(RuntimeError):
    """Raised when a dense eigensolve request exceeds the unknown budget."""


@dataclass(frozen=True)
class Subdomain:
    """Index maps of one overlapping subdomain.

    ``interior_free`` are the dofs solved for (strictly inside the
    subdomain, not on the outer Dirichlet boundary), ``interface_free``
    the dofs on its internal interface line supplying Dirichlet data, and
    ``owned_free`` the dofs this subdomain contributes to the glued field
    (a subset of its interior).
    """

    nodes: np.ndarray
    interior_free: np.ndarray
    interface_free: np.ndarray
    owned_free: np.ndarray
    owned_in_interior: np.ndarray


@dataclass
class Decomposition:
    """Overlapping decomposition with a disjoint ownership partition."""

    mesh: StructuredMesh
    overlap_cells: int
    subdomains: list
    owner: np.ndarray
    midline_col: int | None

    @property
    def overlap_width(self) -> float:
        return self.overlap_cells * self.mesh.hx


def _free_dof_mask(mesh: StructuredMesh) -> np.ndarray:
    return ~np.repeat(mesh.boundary_node_mask(), 2)


def subdomain_columns(
    x_range: tuple[float, float], nx: int, overlap_cells: int
) -> tuple[int, int, int]:
    """Mesh columns (left interface, midline, right interface) of the
    two-subdomain split of ``nx`` columns over ``x_range``.

    ``overlap_cells`` must be even (so the ownership midline x = 0 is a
    mesh line) and small enough that both subdomains are proper subsets.
    A violation raises ValueError whose message starts with the name of
    the offending parameter and a colon.
    """
    if overlap_cells < 2 or overlap_cells % 2 != 0:
        raise ValueError(
            f"overlap_cells: must be even and >= 2, got {overlap_cells}; "
            "an asymmetric split is not supported"
        )
    mid = (0.0 - x_range[0]) / ((x_range[1] - x_range[0]) / nx)
    mid_col = round(mid)
    if abs(mid - mid_col) > 1e-9 or not 0 < mid_col < nx:
        raise ValueError(
            "x_range/nx: the ownership midline x = 0 must coincide with an "
            f"interior mesh line; x range {x_range} with nx={nx} does not allow it"
        )
    half = overlap_cells // 2
    if mid_col - half <= 0 or mid_col + half >= nx:
        raise ValueError(
            f"overlap_cells: {overlap_cells} cells do not leave both subdomains "
            f"proper subsets of the {nx}-column mesh"
        )
    return mid_col - half, mid_col, mid_col + half


def decompose(mesh: StructuredMesh, overlap_cells: int) -> Decomposition:
    """Split the rectangle into left/right subdomains overlapping by
    ``overlap_cells`` mesh columns, symmetric about the line x = 0; the
    interface planes land on mesh lines at +-overlap_cells/2 * hx (see
    `subdomain_columns` for the geometry requirements).
    """
    col_left, mid_col, col_right = subdomain_columns(
        mesh.x_range, mesh.nx, overlap_cells
    )
    cols = mesh.node_columns()
    free_node = ~mesh.boundary_node_mask()
    node_ids = np.arange(mesh.n_nodes)

    def dofs_of(node_sel: np.ndarray) -> np.ndarray:
        picked = node_ids[node_sel]
        return np.repeat(2 * picked, 2) + np.tile([0, 1], picked.size)

    subs = []
    for side in (0, 1):
        if side == 0:
            covered = cols <= col_right
            interior = (cols < col_right) & free_node
            interface = (cols == col_right) & free_node
            owned_nodes = (cols < mid_col) & free_node
        else:
            covered = cols >= col_left
            interior = (cols > col_left) & free_node
            interface = (cols == col_left) & free_node
            owned_nodes = (cols >= mid_col) & free_node
        interior_free = dofs_of(interior)
        owned_free = dofs_of(owned_nodes)
        subs.append(
            Subdomain(
                nodes=node_ids[covered],
                interior_free=interior_free,
                interface_free=dofs_of(interface),
                owned_free=owned_free,
                owned_in_interior=np.searchsorted(interior_free, owned_free),
            )
        )

    owner = np.where(np.repeat(cols, 2) < mid_col, 0, 1)
    return Decomposition(
        mesh=mesh,
        overlap_cells=overlap_cells,
        subdomains=subs,
        owner=owner,
        midline_col=mid_col,
    )


def single_domain(mesh: StructuredMesh) -> Decomposition:
    """Degenerate decomposition with one subdomain covering everything;
    RAS then reduces to the exact solve."""
    free = _free_dof_mask(mesh)
    all_free = np.flatnonzero(free)
    sub = Subdomain(
        nodes=np.arange(mesh.n_nodes),
        interior_free=all_free,
        interface_free=np.array([], dtype=np.int64),
        owned_free=all_free,
        owned_in_interior=np.arange(all_free.size),
    )
    return Decomposition(
        mesh=mesh,
        overlap_cells=0,
        subdomains=[sub],
        owner=np.zeros(2 * mesh.n_nodes, dtype=np.int64),
        midline_col=None,
    )


class RestrictedSolve:
    """The RAS subdomain solves of one system on one decomposition.

    Each subdomain is factored once, here.  Calling the object on a
    vector, or a block of columns, over the free (non-Dirichlet) unknowns
    solves every subdomain on its interior and keeps the part it owns;
    that is the RAS preconditioner.  Given ``previous`` (a free-unknown
    vector), each subdomain also takes Dirichlet data from it on its
    interface line, and dofs that no subdomain owns keep its value: that
    is one parallel Schwarz sweep.  Without it they come back zero.
    """

    def __init__(self, system: AssembledSystem, decomposition: Decomposition):
        self.system = system
        self.free = np.flatnonzero(~system.dirichlet_mask)
        pos = np.full(system.n_dofs, -1, dtype=np.int64)
        pos[self.free] = np.arange(self.free.size)
        matrix = system.matrix.tocsr()
        self._parts = []
        for sub in decomposition.subdomains:
            local = matrix[sub.interior_free][:, sub.interior_free].tocsc()
            coupling = matrix[sub.interior_free][:, sub.interface_free].tocsr()
            self._parts.append((
                pos[sub.interior_free],
                pos[sub.owned_free],
                sub.owned_in_interior,
                pos[sub.interface_free],
                splu(local),
                coupling,
            ))

    def __call__(
        self, v: np.ndarray, previous: np.ndarray | None = None
    ) -> np.ndarray:
        z = np.zeros_like(v) if previous is None else previous.copy()
        for interior, owned, keep, interface, lu, coupling in self._parts:
            # the right-hand side stays unnamed so it is freed before the
            # owned rows are copied out of the solution
            z[owned] = lu.solve(
                v[interior] if previous is None
                else v[interior] - coupling @ previous[interface]
            )[keep]
        return z


def seeded_initial_guess(
    system: AssembledSystem, seed: int, max_modulus: float = 0.789, noise: float = 0.2
) -> np.ndarray:
    """Documented start for the error experiments: a constant displacement
    background plus a seeded uniform perturbation of relative size
    ``noise``, zeroed on the Dirichlet boundary and rescaled so the nodal
    displacement modulus peaks at ``max_modulus``.

    The constant background puts order-one weight on the lowest interface
    modes, which is what the reported error levels of the reference
    experiment correspond to; the broadband part excites every mode so
    dominant-mode identification has content to latch onto at any
    frequency."""
    rng = np.random.default_rng(seed)
    x = 1.0 + noise * rng.uniform(-1.0, 1.0, system.n_dofs)
    x[system.dirichlet_mask] = 0.0
    peak = float(np.max(np.hypot(x[0::2], x[1::2])))
    if max_modulus == 0.0 or peak == 0.0:
        return np.zeros_like(x)
    return x * (max_modulus / peak)


@dataclass
class ErrorHistory:
    """Per-iteration error record of a Schwarz run (initial state included).

    ``err_max`` is the maximum nodal displacement modulus, ``err_l2`` the
    mesh-weighted l2 norm sqrt(hx*hy*sum |e|^2); the dominant interface
    mode is identified from the sine transform of the x-displacement trace
    along the overlap midline (that component vanishes at the strip walls,
    so it is sine-expandable), with its amplitude kept alongside.
    """

    err_max: np.ndarray
    err_l2: np.ndarray
    dominant_mode: np.ndarray
    mode_amplitude: np.ndarray

    def __len__(self) -> int:
        return self.err_max.size


def _record(mesh: StructuredMesh, midline_col, e: np.ndarray):
    ex, ey = e[0::2], e[1::2]
    modulus = np.hypot(ex, ey)
    err_max = float(modulus.max())
    err_l2 = float(math.sqrt(mesh.hx * mesh.hy * float(np.sum(modulus**2))))
    if midline_col is None:
        return err_max, err_l2, 0, 0.0
    trace_nodes = np.arange(mesh.ny + 1) * (mesh.nx + 1) + midline_col
    amps = interface_mode_amplitudes(ex[trace_nodes], mesh.ny)
    j = dominant_mode(amps)
    return err_max, err_l2, j, float(abs(amps[j - 1])) if j else 0.0


def schwarz_iterate(
    system: AssembledSystem,
    decomposition: Decomposition,
    initial: np.ndarray,
    n_iter: int,
) -> tuple[np.ndarray, ErrorHistory]:
    """Parallel Schwarz sweep: both subdomains solve simultaneously with
    interface data from the previous glued iterate.

    The error is measured against the exact discrete solution (zero for a
    zero load, a direct solve otherwise); divergence is a valid outcome.
    """
    x = np.asarray(initial, dtype=float).copy()
    x[system.dirichlet_mask] = 0.0
    b = system.rhs
    reference = (
        np.zeros_like(x) if not np.any(b) else direct_solve(system)
    )
    solve = RestrictedSolve(system, decomposition)
    free = solve.free
    b_free = b[free]

    err_max = np.empty(n_iter + 1)
    err_l2 = np.empty(n_iter + 1)
    modes = np.empty(n_iter + 1, dtype=np.int64)
    amps = np.empty(n_iter + 1)
    err_max[0], err_l2[0], modes[0], amps[0] = _record(
        system.mesh, decomposition.midline_col, x - reference
    )
    for n in range(n_iter):
        x[free] = solve(b_free, previous=x[free])
        err_max[n + 1], err_l2[n + 1], modes[n + 1], amps[n + 1] = _record(
            system.mesh, decomposition.midline_col, x - reference
        )
    return x, ErrorHistory(
        err_max=err_max, err_l2=err_l2, dominant_mode=modes, mode_amplitude=amps
    )


def ras_apply(solve: RestrictedSolve, residual: np.ndarray) -> np.ndarray:
    """Apply the RAS preconditioner to a full-length residual:
    ownership-weighted sum of subdomain solves of the restricted residual."""
    residual = np.asarray(residual, dtype=float)
    z = np.zeros_like(residual)
    z[solve.free] = solve(residual[solve.free])
    return z


def stationary_ras(
    solve: RestrictedSolve,
    rhs: np.ndarray,
    n_iter: int,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the RAS-preconditioned Richardson iteration, tracking the
    preconditioned relative residual (same quantity GMRES reports)."""
    system = solve.system
    x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=float).copy()
    x[system.dirichlet_mask] = 0.0
    rhs = np.where(system.dirichlet_mask, 0.0, np.asarray(rhs, dtype=float))
    z = ras_apply(solve, rhs - system.matrix @ x)
    norm0 = float(np.linalg.norm(z))
    history = np.empty(n_iter + 1)
    history[0] = 1.0
    if norm0 == 0.0:
        history[:] = 0.0
        history[0] = 1.0
        return x, history
    for n in range(n_iter):
        x = x + z
        z = ras_apply(solve, rhs - system.matrix @ x)
        history[n + 1] = float(np.linalg.norm(z)) / norm0
    return x, history


def preconditioned_operator(
    system: AssembledSystem, decomposition: Decomposition
) -> np.ndarray:
    """Dense matrix of the RAS-preconditioned operator on the non-Dirichlet
    unknowns, built by applying the preconditioner to the matrix columns."""
    if system.n_dofs > SPECTRUM_BUDGET:
        raise BudgetExceededError(
            f"{system.n_dofs} unknowns exceed the dense eigensolve budget "
            f"of {SPECTRUM_BUDGET}; use a coarser mesh"
        )
    free = np.flatnonzero(~system.dirichlet_mask)
    dense = system.matrix[free][:, free].toarray()
    return RestrictedSolve(system, decomposition)(dense)


def spectrum(
    system: AssembledSystem, decomposition: Decomposition
) -> np.ndarray:
    """All eigenvalues of the preconditioned operator on the free unknowns,
    via the dense nonsymmetric eigensolver, sorted by (re, im) so repeated
    runs emit identical tables."""
    eigs = np.linalg.eigvals(preconditioned_operator(system, decomposition))
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


@dataclass
class GmresResult:
    """Outcome of a preconditioned GMRES solve.

    ``history`` holds the preconditioned relative residual, entry 0 being
    the start; in-cycle values are SciPy's Givens-rotated residual
    estimates (exact up to roundoff), the last entry of each restart cycle
    is recomputed from the iterate.
    """

    x: np.ndarray
    history: np.ndarray
    converged: bool
    stagnated: bool
    iterations: int


def gmres(
    solve: RestrictedSolve,
    rhs: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 500,
    restart: int | None = None,
) -> GmresResult:
    """Left-preconditioned GMRES with RAS as the preconditioner:
    `scipy.sparse.linalg.gmres` on the operator v -> M^-1 A v over the
    free unknowns, one SciPy call per restart cycle.

    Restarted when ``restart`` is given, otherwise a single cycle capped at
    ``max_iter``.  A restart cycle that makes no progress flags stagnation
    and returns the partial result.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    system, free = solve.system, solve.free
    a = system.matrix[free][:, free].tocsr()
    b = np.asarray(rhs, dtype=float)[free]
    n = free.size
    x = np.zeros(n)
    b_pre = solve(b)
    b_norm = float(np.linalg.norm(b_pre))
    if b_norm == 0.0:
        history, converged = [0.0], True
    else:
        history, converged = [1.0], 1.0 < tol
    stagnated = False
    cycle_len = restart if restart is not None else max_iter
    operator = LinearOperator((n, n), matvec=lambda v: solve(a @ v), dtype=float)

    while len(history) <= max_iter and not converged and not stagnated:
        cycle_start = history[-1]
        x, _ = scipy_gmres(
            operator, b_pre, x0=x, rtol=tol, atol=0.0,
            restart=min(cycle_len, max_iter + 1 - len(history)), maxiter=1,
            callback=history.append, callback_type="pr_norm",
        )
        history[-1] = float(np.linalg.norm(solve(b - a @ x))) / b_norm
        converged = history[-1] < tol
        stagnated = not converged and history[-1] >= cycle_start * (1.0 - 1e-12)

    out = np.zeros(system.n_dofs)
    out[free] = x
    return GmresResult(
        x=out,
        history=np.asarray(history),
        converged=converged,
        stagnated=stagnated,
        iterations=len(history) - 1,
    )
