"""Two-subdomain overlapping Schwarz iteration on the finite-element
discretization, the restricted additive Schwarz (RAS) preconditioner, the
spectrum of the preconditioned operator, and preconditioned GMRES.

The parallel Schwarz sweep and the stationary RAS iteration are the same
algorithm (Efstathiou and Gander, BIT 2003): subdomain ownership is a
disjoint {0,1} partition of unity split at the overlap midline, and
solving each subdomain with Dirichlet data from the previous glued
iterate, then writing back the owned values, is the residual step
x + M^-1 (b - A x) of the RAS preconditioner M^-1.  So the sweep runs as
that step on the error equation (b = 0), e - M^-1 A e.  Every solver
index is a dof: one operator, `RestrictedSolve`, is M^-1 on full-length
vectors (each subdomain solves on its interior and keeps the part it owns,
zero on every dof no subdomain owns), which the sweep, stationary RAS and
GMRES apply only as `ras_apply`; the spectrum is taken on the free
unknowns (the pinned Dirichlet dofs would only pad it with ones).
Stationary RAS from zero and GMRES share their Krylov space, so the
first GMRES cycle's Arnoldi process also gives the stationary
iteration's first residuals (`GmresResult`, `stationary_ras`).

The RAS error propagator T = I - M^-1 A reads its argument only on the
interface unknowns S (`interface_unknowns`), so the spectrum of M^-1 A is
that of the |S| x |S| block T_SS = [[0, -B0], [-B1, 0]] plus ones, where
B_i maps the data on subdomain i's interface line through its solve to the
other interface line, which it owns.  That is the substructured Schwarz
iteration (Dolean, Jolivet and Nataf, SIAM 2015, ch. 2), the discrete form
of the interface iteration the mode analysis solves per Fourier mode.
`interface_block` builds it without factoring a subdomain: the matrix
couples only neighbouring mesh columns, so a subdomain's solve of its
interface columns is a block-tridiagonal Schur sweep across its mesh
columns, from the wall far from the S rows it owns, with the dense blocks
of one column's dofs.  Where the columns before the first kept one store
the same blocks, as on the homogeneous strip, their Schur complement
follows by doubling over them (block cyclic reduction, Buzbee, Golub and
Nielson 1970; Chu, Fan and Lin 2005), the probe A_i @ ones checking every
merge; elsewhere the sweep steps through every column.  On the symmetric
strip the point reflection P maps the second subdomain onto the first
(`_reflection`, the one place that decides it), so both share one factor
in `RestrictedSolve`, and B1 = P B0 P comes from the first one's sweep: S
is then reflection-invariant, as ownership is geometric and the Dirichlet
mask invariant.  There T_SS = -[[0, B0], [P B0 P, 0]] has the eigenvalues
+-mu of the eigenvalues mu of B0 P; `interface_block` returns the block
with the index of that |S|/2 x |S|/2 half, which `spectrum` then
diagonalizes (None on every other decomposition: the whole block).

`RestrictedSolve` factors each distinct subdomain once with SuperLU, its
unknowns in the nested-dissection order of its mesh nodes (`_dissection`;
George, SIAM J. Numer. Anal. 1973), which on the strip fills less than
SuperLU's minimum-degree ordering (6.68M against 6.96M at 320x160).

The scalar type of every solve, block and iterate is that of the assembled
matrix, promoted with the load's, so a complex matrix runs complex (the
histories and norms stay real); the exports and the CLI stay real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.sparse.linalg import splu

from .fem import (
    AssembledSystem,
    SingularSystemError,
    StructuredMesh,
    _l2_norm,
    _check_residual,
    _checked_solve,
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
    "interface_unknowns",
    "interface_block",
    "single_domain",
    "seeded_initial_guess",
    "schwarz_iterate",
    "ras_apply",
    "stationary_ras",
    "preconditioned_operator",
    "spectrum",
    "gmres",
]

MEMORY_BUDGET_BYTES = 2 * 1024**3


class BudgetExceededError(RuntimeError):
    """Raised when the subdomain LU factors and what the caller holds
    beside them, or the interface block and its sweep, would exceed the
    memory budget."""


@dataclass(frozen=True)
class Subdomain:
    """Index maps of one overlapping subdomain.

    ``interior_free`` are the dofs solved for (strictly inside the
    subdomain, not on the outer Dirichlet boundary), ``interface_free``
    the dofs on its internal interface line supplying Dirichlet data, and
    ``owned_free`` the dofs this subdomain contributes to the glued field
    (a subset of its interior).
    """

    interior_free: np.ndarray
    interface_free: np.ndarray
    owned_free: np.ndarray


@dataclass
class Decomposition:
    """Overlapping decomposition with a disjoint ownership partition."""

    subdomains: list
    midline_col: int | None


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

    def dofs_of(node_sel: np.ndarray) -> np.ndarray:
        return np.flatnonzero(np.repeat(node_sel, 2))

    subs = []
    for side in (0, 1):
        if side == 0:
            interior = (cols < col_right) & free_node
            interface = (cols == col_right) & free_node
            owned_nodes = (cols < mid_col) & free_node
        else:
            interior = (cols > col_left) & free_node
            interface = (cols == col_left) & free_node
            owned_nodes = (cols >= mid_col) & free_node
        subs.append(
            Subdomain(
                interior_free=dofs_of(interior),
                interface_free=dofs_of(interface),
                owned_free=dofs_of(owned_nodes),
            )
        )

    return Decomposition(subdomains=subs, midline_col=mid_col)


def single_domain(mesh: StructuredMesh) -> Decomposition:
    """Degenerate decomposition with one subdomain covering everything;
    RAS then reduces to the exact solve."""
    all_free = np.flatnonzero(~np.repeat(mesh.boundary_node_mask(), 2))
    sub = Subdomain(
        interior_free=all_free,
        interface_free=np.array([], dtype=np.int64),
        owned_free=all_free,
    )
    return Decomposition(subdomains=[sub], midline_col=None)


def interface_unknowns(
    system: AssembledSystem, decomposition: Decomposition
) -> np.ndarray:
    """The free dofs on either subdomain's interface line and those no
    subdomain owns (boundary dofs left free by a system without Dirichlet
    rows), as sorted dof indices.

    The RAS error propagator T = I - M^-1 A reads its argument only there:
    an owned dof gets minus its subdomain's solve of A[interior, interface]
    applied to the interface values, an unowned one keeps its value.  So
    T = T[:, S] R_S, and the eigenvalues of M^-1 A are those of its S x S
    block plus n - |S| exact ones.
    """
    read = np.zeros(system.n_dofs, dtype=bool)
    owned = np.zeros(system.n_dofs, dtype=bool)
    for sub in decomposition.subdomains:
        read[sub.interface_free] = True
        owned[sub.owned_free] = True
    return np.flatnonzero((read | ~owned) & ~system.dirichlet_mask)


def _rows_mirror(matrix, rows, first_rows, reflect) -> bool:
    """Whether ``matrix[rows]``, its columns reflected, equals
    ``matrix[first_rows]`` to 1e-12 max|A_1|, A_1 the interior block of
    ``first_rows``: the interior block and the entries outside the interior
    in one pass over the two row slices, without building either subdomain
    matrix.  A stored pattern (explicit zeros included) unlike the first
    rows' gives False."""
    mirrored = matrix[rows]
    mirrored.indices = reflect.astype(mirrored.indices.dtype)[mirrored.indices]
    mirrored.has_sorted_indices = False
    mirrored.sort_indices()
    first = matrix[first_rows]
    if not (np.array_equal(mirrored.indptr, first.indptr)
            and np.array_equal(mirrored.indices, first.indices)):
        return False
    inside = np.zeros(matrix.shape[1], dtype=bool)
    inside[first_rows] = True
    tol = 1e-12 * np.abs(first.data[inside[first.indices]]).max(initial=0.0)
    diff = np.subtract(mirrored.data, first.data, out=mirrored.data)
    return diff.size == 0 or np.abs(diff, out=diff).max() <= tol


def _reflection(system: AssembledSystem, decomposition: Decomposition) -> np.ndarray | None:
    """The point reflection of the strip's dofs (it reverses node ids) when
    the second of two subdomains mirrors the first, else None.  It mirrors
    when its interior is the reflection of the first one's, the Dirichlet
    mask is reflection-invariant and its rows of A equal the first one's
    under the reflection (`_rows_mirror`).  A subdomain with no interior
    unknown raises ValueError."""
    subs = decomposition.subdomains
    for i, sub in enumerate(subs):
        if sub.interior_free.size == 0:
            raise ValueError(f"subdomain {i} has no interior unknown: it needs an "
                             "interior node of the mesh")
    if len(subs) != 2:
        return None
    mask, first = system.dirichlet_mask, subs[0].interior_free
    reflect = np.arange(system.n_dofs).reshape(-1, 2)[::-1].ravel()
    if (np.array_equal(np.sort(reflect[first]), subs[1].interior_free)
            and np.array_equal(mask, mask[reflect])
            and _rows_mirror(system.matrix.tocsr(), reflect[first], first, reflect)):
        return reflect
    return None


def _dissection(mesh: StructuredMesh, dofs: np.ndarray) -> np.ndarray:
    """The nested-dissection order of the ``dofs`` (George 1973), as
    positions into ``dofs``.  Each of their nodes carries a box of grid
    columns and rows, at first the bounding box of all: a box splits at the
    middle line of its longer side, columns on a tie, and the node appends
    a base-3 digit to its key, 0 before the line, 1 after it, 2 on it.  A
    node stops on a separator or once its box holds one node, and appends 0
    from then on.  One mesh line separates, as the 7-point stencil couples
    only neighbouring columns and rows, so a stable sort of the keys gives
    each box's first half, its second half, then its separator; the dofs
    of one node share a key and keep their order."""
    nodes, of_dof = np.unique(dofs // 2, return_inverse=True)
    x, y = (nodes % (mesh.nx + 1)).astype(np.int32), (nodes // (mesh.nx + 1)).astype(np.int32)
    x0, x1 = np.full_like(x, x.min()), np.full_like(x, x.max())
    y0, y1 = np.full_like(y, y.min()), np.full_like(y, y.max())
    key = np.zeros(nodes.size, dtype=np.int64)
    active = np.arange(nodes.size)
    # about log2 of the node count levels, far below the 39 base-3 digits
    # an int64 holds
    while active.size:
        key *= 3
        wide = x1 - x0 >= y1 - y0
        at = np.where(wide, x, y)
        lo, hi = np.where(wide, x0, y0), np.where(wide, x1, y1)
        split = (lo + hi) >> 1
        before, after = at < split, at > split
        key[active] += after + 2 * (at == split)
        lo, hi = np.where(after, split + 1, lo), np.where(before, split - 1, hi)
        x0, x1 = np.where(wide, lo, x0), np.where(wide, hi, x1)
        y0, y1 = np.where(wide, y0, lo), np.where(wide, y1, hi)
        go = np.flatnonzero((before | after) & ((x0 < x1) | (y0 < y1)))
        active, x, y, x0, x1, y0, y1 = (a[go] for a in (active, x, y, x0, x1, y0, y1))
    return np.argsort(key[of_dof], kind="stable")


class RestrictedSolve:
    """The RAS subdomain solves of one system on one decomposition.

    The subdomains are factored once, here, and each factor must solve
    for ``A_i @ ones`` within the residual bound of `direct_solve`; a
    factor that fails this, or a singular subdomain matrix, raises
    `SingularSystemError`; a subdomain with no interior unknown raises
    ValueError before anything is factored.  ``beside`` is (bytes, phrase)
    of what the caller will hold beside the factors; before each
    factorization those bytes plus an upper estimate of all factors so far
    are checked against `MEMORY_BUDGET_BYTES` (`BudgetExceededError`,
    naming the factors and the phrase).  Calling
    the object on a vector, or a block of columns, with ``n_dofs`` rows
    solves every subdomain on its interior, reading no other row, and
    keeps the part it owns; that is the RAS preconditioner M^-1.  Every dof
    that no subdomain owns, the Dirichlet dofs among them, comes back zero.
    A complex vector on a real system is solved as its real and imaginary
    parts, columns of the same solve.

    When the second subdomain mirrors the first (`_reflection` is not
    None: its rows of A equal the first one's under the point reflection,
    in stored pattern and to 1e-12 max|A_1| in value, with a
    reflection-invariant Dirichlet mask), it shares the first one's factor
    and its own matrix is never built: it reads its interior in reflected
    order, and the right-hand sides of both are the columns of one solve.
    Otherwise (an x range not symmetric about the midline, a matrix that
    is not reflection-invariant, one subdomain) each subdomain has its own
    factor.

    Each factor's interior is read in the nested-dissection order of its
    mesh nodes (`_dissection`, George 1973), which SuperLU keeps as its
    column order; the mirrored subdomain reads the reflection of that
    order, and a solve gathers every interior in it.
    """

    def __init__(
        self, system: AssembledSystem, decomposition: Decomposition, beside=(0, "")
    ):
        matrix = system.matrix.tocsr()
        reflect = _reflection(system, decomposition)
        # per factor, the (interior, owned) of the subdomains it serves, a
        # mirrored interior dof for dof the reflection of the first one's
        if reflect is None:
            groups = [[(sub.interior_free, sub.owned_free)] for sub in decomposition.subdomains]
        else:
            first, second = decomposition.subdomains
            groups = [[(first.interior_free, first.owned_free),
                       (reflect[first.interior_free], second.owned_free)]]
        self.system = system
        local = np.full(system.n_dofs, -1, dtype=np.int64)
        # (factor, [(interior read, owned, owned within interior)])
        self._groups = []
        needed, phrase = beside  # what the caller holds; the factors add to it
        what = "the subdomain LU factors" + (f" and {phrase}" if phrase else "")
        for parts in groups:
            # L+U of n unknowns, a value and a 4-byte index per entry: the
            # fill measured at omega 5 is 7.5-9.1 n log2 n for n = 12,798
            # to 204,798, so 16 n log2 n bounds it
            n = parts[0][0].size
            needed += 16 * n * math.log2(max(n, 2)) * (matrix.dtype.itemsize + 4)
            _check_budget(what, int(needed))
            order = _dissection(system.mesh, parts[0][0])
            parts = [(read[order], owned) for read, owned in parts]
            interior = parts[0][0]
            a = matrix[interior][:, interior].tocsc()
            try:
                lu = splu(a, permc_spec="NATURAL")
            except RuntimeError as exc:
                raise SingularSystemError(f"subdomain factorization failed: {exc}") from exc
            _checked_solve(lu, a, a @ np.ones(a.shape[0]))
            served = []
            for read, owned in parts:
                local[read] = np.arange(n)
                served.append((read, owned, local[owned]))
            self._groups.append((lu, served))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(v) and not np.iscomplexobj(self.system.matrix):
            # a real factor solves the real and imaginary parts as columns
            return self(np.stack([v.real, v.imag], axis=-1)) @ np.array([1, 1j])
        z = np.zeros(v.shape, np.result_type(v, self.system.matrix.dtype))
        columns, out = v.reshape(v.shape[0], -1), z.reshape(z.shape[0], -1)
        width = columns.shape[1]
        for lu, parts in self._groups:
            # every part's right-hand sides as the columns of one solve
            x = lu.solve(np.hstack([columns[read] for read, _, _ in parts]))
            for i, (_, owned, keep) in enumerate(parts):
                out[owned] = x[keep, i * width:(i + 1) * width]
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
    modulus = np.hypot(abs(ex), abs(ey))
    err_max = float(modulus.max())
    err_l2 = _l2_norm(modulus, mesh.hx * mesh.hy)
    if midline_col is None:
        return err_max, err_l2, 0, 0.0
    trace_nodes = np.arange(mesh.ny + 1) * (mesh.nx + 1) + midline_col
    # an overflowing iterate gives an inf or nan record, which the caller checks
    with np.errstate(over="ignore", invalid="ignore"):
        amps = interface_mode_amplitudes(ex[trace_nodes], mesh.ny)
    j = dominant_mode(amps)
    return err_max, err_l2, j, float(abs(amps[j - 1])) if j else 0.0


def schwarz_iterate(
    system: AssembledSystem,
    decomposition: Decomposition,
    initial: np.ndarray,
    n_iter: int,
) -> tuple[np.ndarray, ErrorHistory]:
    """Parallel Schwarz sweep on the error equation of a system with zero
    load: both subdomains solve simultaneously with interface data from
    the previous glued error, run as the RAS step e <- e - M^-1 A e; dofs
    that no subdomain owns keep their value.

    The exact discrete solution is zero, so the iterate is its own error;
    divergence is a valid outcome.  A system with a nonzero load raises
    ValueError.  A run that overflows stops before the first iterate whose
    record is not finite: the history is then shorter than ``n_iter + 1``
    and the returned iterate is the last finite one.
    """
    if n_iter < 0:
        raise ValueError(f"n_iter must be >= 0, got {n_iter}")
    if np.any(system.rhs):
        raise ValueError("schwarz_iterate runs the error equation: the load must be zero")
    e = _promoted(initial, system).copy()
    e[system.dirichlet_mask] = 0.0
    solve = RestrictedSolve(system, decomposition)

    records = []
    iterate = e
    for n in range(n_iter + 1):
        if n:
            iterate = e - ras_apply(solve, system.matrix @ e)
        record = _record(system.mesh, decomposition.midline_col, iterate)
        if not all(math.isfinite(value) for value in record):
            break
        e = iterate
        records.append(record)
    err_max, err_l2, modes, amps = np.array(records, dtype=float).reshape(-1, 4).T
    return e, ErrorHistory(
        err_max=err_max, err_l2=err_l2, dominant_mode=modes.astype(np.int64),
        mode_amplitude=amps,
    )


def _promoted(v, system: AssembledSystem) -> np.ndarray:
    """``v`` as an array of its scalar type promoted with the matrix's."""
    return np.asarray(v, np.result_type(np.asarray(v), system.matrix.dtype))


def ras_apply(solve: RestrictedSolve, residual: np.ndarray) -> np.ndarray:
    """Apply the RAS preconditioner M^-1 to a full-length residual: the
    solve itself, the one step the sweep, stationary RAS and GMRES take."""
    return solve(np.asarray(residual))


def stationary_ras(
    solve: RestrictedSolve,
    rhs: np.ndarray,
    n_iter: int,
    start: GmresResult | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the RAS-preconditioned Richardson iteration from zero, tracking
    the preconditioned relative residual (same quantity GMRES reports).

    With ``start``, a `gmres` result on the same solve and load, it resumes
    from ``start.ras`` (`GmresResult`): the m <= ``n_iter`` shared steps
    (else ValueError), then the loop from x_m, z_m.

    A run that overflows stops before the first non-finite residual (among
    the shared steps, where their list ends with inf): the history is then
    shorter than ``n_iter + 1`` and ``x`` is the last iterate whose
    residual was finite; a non-finite initial residual gives an empty
    history."""
    if n_iter < 0:
        raise ValueError(f"n_iter must be >= 0, got {n_iter}")
    system = solve.system
    rhs = _promoted(rhs, system)
    if start is None:
        z = ras_apply(solve, rhs)
        x, norm0, shared = np.zeros_like(rhs), _l2_norm(z), [1.0]
    else:
        x, z, norm0, shared = start.ras
    m = len(shared) - 1 if math.isfinite(shared[-1]) else len(shared) - 2
    if m > n_iter:
        raise ValueError(f"n_iter: {n_iter} is below the {m} steps the start has "
                         f"taken; pass ras_iters={n_iter} to gmres")
    if not math.isfinite(norm0):
        return x, np.empty(0)
    history = np.zeros(n_iter + 1)
    history[: m + 1] = shared[: m + 1]
    if norm0 == 0.0:
        return x, history
    if len(shared) > m + 1:  # |z_(m+1)| = beta |y_(m+1)| is not finite
        return x, history[: m + 1]
    for n in range(m, n_iter):
        step = x + z
        z = ras_apply(solve, rhs - system.matrix @ step)
        history[n + 1] = _l2_norm(z) / norm0
        if not math.isfinite(history[n + 1]):
            return x, history[: n + 1]
        x = step
    return x, history


def _check_budget(what: str, needed: int) -> None:
    if needed > MEMORY_BUDGET_BYTES:
        raise BudgetExceededError(
            f"{what} need about {needed / 1024**3:.1f} GiB, over the budget "
            f"of {MEMORY_BUDGET_BYTES / 1024**3:.1f} GiB; use a coarser mesh"
        )


def preconditioned_operator(
    system: AssembledSystem, decomposition: Decomposition
) -> np.ndarray:
    """The dense n x n RAS-preconditioned operator M^-1 A on the free
    unknowns, the reference `spectrum` is tested against; its memory (its
    n_dofs x n right-hand sides and solutions, and its eigenproblem) is
    held beside the subdomain factors in the budget of `RestrictedSolve`."""
    free = np.flatnonzero(~system.dirichlet_mask)
    n = free.size
    held = system.matrix.dtype.itemsize * n * (2 * system.n_dofs + 4 * n)
    solve = RestrictedSolve(
        system, decomposition, (held, f"a dense {n} x {n} operator and its eigenproblem")
    )
    return solve(system.matrix[:, free].toarray())[free]


def interface_block(
    system: AssembledSystem, decomposition: Decomposition
) -> tuple[np.ndarray, tuple | None]:
    """(M^-1 A)[S, S] at the interface unknowns S (`interface_unknowns`),
    and the `np.ix_` index of its half block B0 P or None; it factors
    nothing.

    A subdomain's solve takes an S column of its own matrix to the unit
    vector, a 1 where the subdomain owns it.  Its other S columns, those of
    A[interior, S] outside the interior, go through a Schur sweep across the
    subdomain's mesh columns (`_schur_sweep`), which keeps only the S rows
    the subdomain owns; a subdomain that owns no S row is not swept.  On
    the homogeneous strip the mesh columns before the first kept one are
    alike, and the sweep takes them by doubling, in about log2 of their
    count solves of twice a column's order, each checked by the probe it
    carries; elsewhere it steps through every column.  When
    the second subdomain mirrors the first (`_reflection` is not None), S
    is reflection-invariant, as ownership is geometric and the Dirichlet
    mask invariant, and only the first is swept: the second one's rows are
    the first one's S rows at the reflected columns.  If every unknown of
    S is owned, then, the S rows the first subdomain owns taken first,
    (M^-1 A)[S, S] = [[I, B0], [P B0 P, I]], whose eigenvalues are 1 +- mu
    for the eigenvalues mu of B0 P: the half index takes the first one's S
    rows and, as columns, their reflections.

    The block, one copy of it for the caller's eigensolve and the column
    blocks of the largest sweep, its doubling's blocks included, are
    checked against `MEMORY_BUDGET_BYTES` before anything is allocated
    (`BudgetExceededError`).  A failed sweep probe, or a singular Schur
    complement or merge, raises `SingularSystemError`; a subdomain with no
    interior unknown raises ValueError.
    """
    matrix = system.matrix.tocsr()
    reflect = _reflection(system, decomposition)
    subs = decomposition.subdomains
    columns = interface_unknowns(system, decomposition)
    at = np.full(system.n_dofs, -1, dtype=np.int64)
    at[columns] = np.arange(columns.size)
    owned = [at[sub.owned_free][at[sub.owned_free] >= 0] for sub in subs]  # S rows
    dtype = np.result_type(matrix.dtype, np.float64)
    # per swept subdomain: its S rows and its sweep (interior order, column
    # bounds, first kept column, solved dofs, needed dofs), None if it owns
    # no S row
    sweeps, largest = [], 0
    dof_columns = np.repeat(system.mesh.node_columns(), 2)
    for sub, rows in zip(subs[:1] if reflect is not None else subs, owned):
        sweep = None
        if rows.size:
            solved = columns[np.isin(columns, sub.interior_free, invert=True)]
            order, bounds, keep = _sweep_order(sub.interior_free, dof_columns, columns[rows])
            sweep = order, bounds, keep, solved, columns[rows]
            width, kept = int(np.diff(bounds).max()), bounds.size - 1 - keep
            # the kept column blocks with their S_c and [U_c, g_c], the
            # Schur complement, right-hand sides and solution of one step,
            # and the doubling's blocks: [L, D, U], the 1-port, two chains,
            # a merge's system and a product, 12 of 2 * width + 1 columns
            largest = max(largest, width * (
                (kept + 3) * (width + 1 + solved.size) + kept * (2 * width + 1)
                + 12 * (2 * width + 1)
            ))
        sweeps.append((rows, sweep))
    m, n = columns.size, int(np.count_nonzero(~system.dirichlet_mask))
    _check_budget(
        f"a {m} x {m} interface block of {n} unknowns, its eigenproblem and the "
        "column blocks of its sweep", dtype.itemsize * (2 * m * m + largest),
    )

    block = np.zeros((m, m), dtype)
    for rows, sweep in sweeps:
        block[rows, rows] = 1.0
        if sweep is not None:
            block[np.ix_(rows, at[sweep[3]])] = _schur_sweep(matrix, *sweep)
    if reflect is None:
        return block, None
    first, second = owned
    mirror = at[reflect[columns]]
    block[second] = block[np.ix_(mirror[second], mirror)]
    if first.size + second.size != m:
        return block, None
    return block, np.ix_(first, mirror[first])


def _sweep_order(interior, dof_columns, needed):
    """The ``interior`` dofs grouped by mesh column (``dof_columns``, the
    column of every dof), the groups in sweep order: from the end of the
    subdomain farther from the ``needed`` dofs.  Returns the dofs in that
    order, the bounds of the groups, and the first group that holds a
    needed dof."""
    key = dof_columns[interior]
    ends = np.unique(key)
    near = np.searchsorted(ends, dof_columns[needed])
    if near.max() < ends.size - 1 - near.min():
        key, near = -key, ends.size - 1 - near
    by_column = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[by_column])) + 1
    return interior[by_column], np.concatenate([[0], bounds, [key.size]]), int(near.min())


def _schur_sweep(matrix, order, bounds, keep, solved, needed) -> np.ndarray:
    """A_i^-1 A[interior, solved] on the ``needed`` dofs, A_i the matrix of
    the interior ``order`` (`_sweep_order`), with no factorization: a
    block-tridiagonal Schur sweep across its column groups c = 0, 1, ...,
    each group's blocks dense, cut from the CSR rows: D_c, L_c and U_c
    couple it to itself and the groups before and after.

    S_0 = D_0, S_c = D_c - L_c S_(c-1)^-1 U_(c-1), and the right-hand sides
    G_c = F_c - L_c S_(c-1)^-1 G_(c-1), F = A[interior, solved], each
    solved column carried from the first group it touches; one LAPACK
    ``gesv`` per group solves S_c for [U_c, g_c, G_c] in place.  Then
    x_c = S_c^-1 (G_c - U_c x_(c+1)) from the last group back to group
    ``keep``, the first holding a needed dof; only groups from there on
    are kept.  g is the probe A_i @ ones carried along: g_c must equal
    S_c 1 + U_c 1, which checks each solve by the next group, and the
    probe's back-substituted x must satisfy S_c x_c + U_c x_(c+1) = g_c on
    the kept groups, which checks the last solve and the back
    substitution, each within the 1e-10 bound of `_check_residual`, else
    `SingularSystemError`, as is a singular S_c.  A nonzero entry coupling
    groups more than one apart raises ValueError.

    The groups before K, the first group kept or touched by a solved
    column, matter only through S_(K-1) and g_(K-1).  When they are alike
    (`_alike_band`: one order, the same stored D, L and U, group 0 without
    its L), as on the homogeneous strip, `_wall_complement` takes those by
    doubling, in about log2 K solves of order 2m, the probe checked after
    each; their entries are dropped, and the loop starts at group K from
    S_(K-1)^-1 [U_(K-1), g_(K-1)].  Otherwise it starts at group 0.
    """
    n, count = order.size, bounds.size - 1
    rows = matrix[order]
    rows.sum_duplicates()
    per_row, first_of = np.diff(rows.indptr), np.asarray(bounds, dtype=np.int32)
    # per entry, in int32 (`check_mesh` bounds the dofs), repeated from its
    # row: its row's group, its row in that group and the group's band
    # [lo, hi) of interior positions; taken from its column: the column's
    # interior position (-1 outside) and solved index (-1 else)
    of_row = np.repeat(np.arange(count, dtype=np.int32), np.diff(bounds))
    group = np.repeat(of_row, per_row)
    row = np.repeat(np.arange(n, dtype=np.int32) - first_of[of_row], per_row)
    lo = np.repeat(first_of[np.maximum(of_row - 1, 0)], per_row)
    hi = np.repeat(first_of[np.minimum(of_row + 2, count)], per_row)
    index = np.full(matrix.shape[1], -1, dtype=np.int32)
    index[order] = np.arange(n, dtype=np.int32)
    pos = index.take(rows.indices)
    where = index[needed]
    index[order] = -1
    index[solved] = np.arange(solved.size, dtype=np.int32)
    col = index.take(rows.indices)
    band = (pos >= lo) & (pos < hi)
    if np.any(rows.data[(pos >= 0) & ~band]):
        raise ValueError("the subdomain matrix couples mesh columns more than one "
                         "apart; the interface sweep needs it block tridiagonal")
    # the solved columns in the order of the first group they touch
    touch = (col >= 0) & (rows.data != 0)
    first = np.full(solved.size, count)
    np.minimum.at(first, col[touch], group[touch])
    by_touch = np.argsort(first, kind="stable")
    rank = np.empty(solved.size, dtype=np.int32)
    rank[by_touch] = np.arange(solved.size, dtype=np.int32)
    widths = np.searchsorted(first[by_touch], np.arange(count), side="right")
    # each kept entry's row and column in its group's [L_c, D_c, U_c, g_c, G_c]
    target = pos - lo
    target[touch] = (hi - lo + 1)[touch] + rank[col[touch]]
    del group, lo, hi, pos, col
    stored = np.flatnonzero(band | touch)
    starts = np.searchsorted(stored, rows.indptr[bounds])
    row, target, values = row[stored], target[stored], rows.data[stored]
    del rows, band, touch, stored
    dtype = np.result_type(matrix.dtype, np.float64)

    gesv = get_lapack_funcs("gesv", dtype=dtype)

    def solve(a, b, what):
        _, _, x, info = gesv(a, b, overwrite_a=True, overwrite_b=True)
        if info > 0:
            raise SingularSystemError(f"interface sweep: {what} is exactly singular")
        return x

    # K, the first group kept or touched by a solved column: from there on
    # the loop, before it doubling if those groups are alike
    start = min(keep, int(first.min(initial=keep)))
    band = _alike_band(bounds, starts, row, target, values, start, dtype)
    if band is None:
        start = 0
    else:
        # the loop reads only the groups from K on: drop the entries
        # before them, which the doubling need not hold
        rest = slice(starts[start], None)
        row, target, values = row[rest].copy(), target[rest].copy(), values[rest].copy()
        starts = starts - starts[start]
        port = _wall_complement(band, start, solve)
        m = band.shape[0]
        solution = solve(port[:, :m], port[:, m:],
                         f"the Schur complement of column {start - 1} of {count}")
    ones = np.ones(3 * int(np.diff(bounds).max()))
    bounds, widths = bounds.tolist(), widths.tolist()
    # of the kept groups S_c^-1 [U_c, g_c, G_c], S_c and [U_c, g_c]
    kept = []
    for c in range(start, count):
        r0, r1 = bounds[c], bounds[c + 1]
        lo, hi = bounds[max(c - 1, 0)], bounds[min(c + 2, count)]
        size, after = r1 - r0, hi - r1  # the order of S_c, the width of U_c
        # Fortran order: the right-hand sides are solved in place
        work = np.zeros((size, hi - lo + 1 + widths[c]), dtype, order="F")
        entries = slice(starts[c], starts[c + 1])
        work[row[entries], target[entries]] = values[entries]
        work[:, hi - lo] = work[:, :hi - lo] @ ones[:hi - lo]  # A_i @ ones
        schur, rhs = work[:, r0 - lo:r1 - lo], work[:, r1 - lo:]
        if c:
            product = work[:, :r0 - lo] @ solution
            schur = schur - product[:, :size]
            rhs[:, after:after + product.shape[1] - size] -= product[:, size:]
        expected = schur @ ones[:size] + rhs[:, :after] @ ones[:after]
        _check_residual(_l2_norm(rhs[:, after] - expected), _l2_norm(expected),
                        "interface sweep", f" at column {c} of {count}")
        if c >= keep:
            held = schur.copy(), rhs[:, :after + 1].copy()
        solution = solve(schur, rhs, f"the Schur complement of column {c} of {count}")
        if c >= keep:
            kept.append((solution, *held))

    # the probe's solution is column 0 of each step, its residual in
    # S_c x_c + U_c x_(c+1) = g_c summed over the kept groups
    x = np.zeros((needed.size, solved.size), dtype)
    width, deviation, scale = widths[-1], 0.0, 0.0
    for c in range(count - 1, keep - 1, -1):
        solution, schur, coupling = kept.pop()
        after = coupling.shape[1] - 1
        step = np.zeros((bounds[c + 1] - bounds[c], 1 + width), dtype)
        step[:, :1 + widths[c]] = solution[:, after:]
        residual = coupling[:, after].copy()
        if c < count - 1:
            step -= solution[:, :after] @ previous
            residual -= coupling[:, :after] @ previous[:, 0]
        residual -= schur @ step[:, 0]
        deviation = math.hypot(deviation, _l2_norm(residual))
        scale = math.hypot(scale, _l2_norm(coupling[:, after]))
        here = (where >= bounds[c]) & (where < bounds[c + 1])
        x[here, :width] = step[where[here] - bounds[c], 1:]
        previous = step
    _check_residual(deviation, scale, "interface sweep",
                    f" in the back substitution of columns {keep} to {count - 1}")
    return x[:, rank]


def _alike_band(bounds, starts, row, target, values, groups, dtype):
    """[L, D, U], m x 3m, of the first ``groups`` column groups of a sweep
    if they are alike, else None; their entries are ``row``, ``target``
    and ``values`` from ``starts`` on (`_schur_sweep`).  Alike: at least
    two groups, these and the next one of one order m, groups 1 to
    ``groups`` - 1 with the same stored entries and group 0 with those of
    group 1 outside L, whose columns would lie behind the wall."""
    if groups < 2:
        return None
    m, per = bounds[1] - bounds[0], starts[2] - starts[1]
    if (np.diff(bounds[:groups + 2]) != m).any() or (np.diff(starts[1:groups + 1]) != per).any():
        return None
    # group c against group c + 1 for c = 1 to groups - 2, in one comparison
    one, wall = slice(starts[1], starts[2]), slice(0, starts[1])
    before, after = slice(starts[1], starts[groups - 1]), slice(starts[2], starts[groups])
    outer = target[one] >= m
    if starts[1] != np.count_nonzero(outer):
        return None
    for entries, shift in ((values, 0), (row, 0), (target, m)):
        if not ((entries[before] == entries[after]).all()
                and (entries[wall] == entries[one][outer] - shift).all()):
            return None
    band = np.zeros((m, 3 * m), dtype)
    band[row[one], target[one]] = values[one]
    return band


def _wall_complement(band, groups, solve) -> np.ndarray:
    """[S, U, g] of the first ``groups`` column groups of a sweep, all alike:
    ``band`` is [L, D, U] of one group, m x 3m, and group 0 lacks its L.
    S is the Schur complement of the last of them, g its condensed probe
    A_i @ ones and ``solve`` the sweep's ``gesv``, which names a singular
    system.

    S_c = D - L S_(c-1)^-1 U from S_0 = D is the power of one map, so it
    follows by doubling, as in block cyclic reduction (Buzbee, Golub and
    Nielson, SIAM J. Numer. Anal. 1970) and the structure-preserving
    doubling algorithm (Chu, Fan and Lin, Linear Algebra Appl. 2005).  A
    chain of n groups is held as its 2-port [[P, Q, p], [R, T, t]], the
    Schur complement onto its first and last group with their condensed
    probes.  Two chains of n merge into one of 2n by one solve of order
    2m, for the last group of the first and the first of the second.
    Bit 0 of groups - 1 appends group 1 to the 1-port [S, U, g] of group
    0 as a column of the sweep, and each higher set bit its chain, by one
    solve of order 2m.  The probe rides along as one more right-hand
    side: after every merge p = P 1 + Q 1 + L 1 and t = R 1 + T 1 + U 1,
    after every append g = S 1 + U 1, each within the 1e-10 bound of
    `_check_residual`, else `SingularSystemError`.
    """
    m = band.shape[0]
    lower, diag, upper = band[:, :m], band[:, m:2 * m], band[:, 2 * m:]
    probe = band.sum(axis=1)
    edges = np.concatenate([lower.sum(axis=1), upper.sum(axis=1)])  # [L 1, U 1]
    # the probe column less the row sums: the probe's residual
    signs = np.full(2 * m + 1, -1.0)
    signs[-1] = 1.0

    def check(held, outside, what):
        _check_residual(_l2_norm(held @ signs - outside), _l2_norm(held[:, -1]),
                        "interface sweep", f" in {what}")

    port = np.empty((m, 2 * m + 1), band.dtype, order="F")
    port[:, :m], port[:, m:2 * m], port[:, -1] = diag, upper, probe - edges[:m]
    done = 1
    if groups - 1 & 1:
        work = port.copy(order="F")
        z = solve(work[:, :m], work[:, m:], "the append of column 1")
        port[:, :m], port[:, -1] = diag - lower @ z[:, :m], probe - lower @ z[:, -1]
        done = 2
        check(port, 0.0, "the append of column 1")
    chain, length = np.empty((2 * m, 2 * m + 1), band.dtype), 2
    chain[:m, :m], chain[:m, m:2 * m], chain[:m, -1] = diag, upper, probe
    chain[m:, :m], chain[m:, m:2 * m], chain[m:, -1] = lower, diag, probe
    while True:
        if groups - 1 & length:
            # [[S, U], [L, P]] for [[0, g], [Q, p]]
            work = np.zeros((2 * m, 3 * m + 1), band.dtype, order="F")
            work[:m, :2 * m], work[:m, -1], work[m:, :m] = port[:, :2 * m], port[:, -1], lower
            work[m:, m:] = chain[:m]
            what = f"the append of columns {done} to {done + length - 1}"
            z = solve(work[:, :2 * m], work[:, 2 * m:], what)
            port[:, :m] = chain[m:, m:2 * m] - chain[m:, :m] @ z[m:, :m]
            port[:, -1] = chain[m:, -1] - chain[m:, :m] @ z[m:, -1]
            done += length
            check(port, 0.0, what)
        if done == groups:
            return port
        # in the order (first of the second, last of the first), the
        # middle [[P, L], [U, T]] for [[0, Q, p], [R, 0, t]]
        work = np.empty((2 * m, 4 * m + 1), band.dtype, order="F")
        work[:, :2 * m], work[:, 2 * m:] = chain[:, :2 * m], chain
        work[:m, m:2 * m], work[m:, :m] = lower, upper
        work[:m, 2 * m:3 * m], work[m:, 3 * m:4 * m] = 0.0, 0.0
        length *= 2
        what = f"the merge into a chain of {length} columns"
        z = solve(work[:, :2 * m], work[:, 2 * m:], what)
        merged = chain.copy()
        merged[:m, m:2 * m], merged[m:, :m] = 0.0, 0.0
        merged[:m] -= chain[:m, m:2 * m] @ z[m:]
        merged[m:] -= chain[m:, :m] @ z[:m]
        chain = merged
        check(chain, edges, what)


def spectrum(
    system: AssembledSystem, decomposition: Decomposition
) -> np.ndarray:
    """All eigenvalues of the preconditioned operator on the free unknowns,
    sorted by (re, im) so repeated runs emit identical tables.

    Only the interface block (M^-1 A)[S, S] (`interface_block`, from a
    Schur sweep across mesh columns, with no subdomain factorization) is
    built; the other n - |S| eigenvalues are exactly one.  On a mirrored
    strip, where its eigenvalues are 1 +- mu for the eigenvalues mu of the
    half block B0 P, only that half of it is diagonalized; otherwise (an
    asymmetric strip, one subdomain, unowned unknowns in S) the whole
    block.  The dense ``eigvals(preconditioned_operator(system,
    decomposition))`` is the reference it agrees with.
    """
    n = int(np.count_nonzero(~system.dirichlet_mask))
    block, half = interface_block(system, decomposition)
    if half is None:
        interface = np.linalg.eigvals(block)
    else:
        mu = np.linalg.eigvals(block[half])
        interface = np.concatenate([1.0 + mu, 1.0 - mu])
    eigs = np.concatenate([interface, np.ones(n - block.shape[0])])
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


@dataclass
class GmresResult:
    """Outcome of a preconditioned GMRES solve.

    ``history`` holds the preconditioned relative residual, entry 0 being
    the start; in-cycle values are the Givens-rotated residual estimates
    (exact up to roundoff), the last entry of each restart cycle is
    recomputed from the iterate.  ``nonfinite`` marks a run stopped
    before its first non-finite residual: ``history`` then ends at the last
    finite one (it is empty when the initial residual is not finite) and
    ``x`` is the iterate the last complete finite cycle reached.

    The first cycle's Arnoldi process, M^-1 A V_j = V_(j+1) H over its j
    finite steps, builds the Krylov space of the stationary RAS iteration
    from zero too (`stationary_ras`): with beta = |M^-1 b|, its residuals
    are z_n = beta V y_n, y_0 = e_1, y_(n+1) = y_n - H y_n, for n <= j.
    ``ras`` = (x_m, z_m, beta, [|y_0|, ..., |y_m|]) is its state after m
    steps, x_m = beta V (y_0 + ... + y_(m-1)) and z_m = beta V y_m: m is
    the first cycle's finite steps, at most the ``ras_iters`` of `gmres`
    (0 before any cycle), and stops before an n whose beta |y_n| is not
    finite, whose entry then ends the list as inf.
    """

    x: np.ndarray
    history: np.ndarray
    converged: bool
    stagnated: bool
    iterations: int
    nonfinite: bool
    ras: tuple


def gmres(
    solve: RestrictedSolve,
    rhs: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 500,
    restart: int | None = None,
    ras_iters: int | None = None,
) -> GmresResult:
    """Left-preconditioned GMRES with RAS as the preconditioner, on the
    full-length operator v -> M^-1 A v (`ras_apply`, zero on every unowned
    dof) from zero.

    Restarted when ``restart`` is given, otherwise a single cycle capped at
    ``max_iter``; each cycle is `_gmres_cycle`, and its last history entry
    is the true preconditioned residual of its iterate, which the next
    cycle starts from.  A restart cycle that makes no progress flags
    stagnation and returns the partial result; one that meets a non-finite
    residual flags ``nonfinite`` and returns the iterate it started from.
    The result carries the stationary RAS state after at most
    ``ras_iters`` (None: all) steps of the first cycle (`GmresResult`).
    It runs on the load as given: `_l2_norm` keeps every norm finite and
    nonzero wherever it is, even where its squares over- or underflow.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if restart is not None and restart < 1:
        raise ValueError(f"restart must be >= 1 or None, got {restart}")
    if ras_iters is not None and ras_iters < 0:
        raise ValueError(f"ras_iters must be >= 0, got {ras_iters}")
    matrix = solve.system.matrix
    b = _promoted(rhs, solve.system)
    x = np.zeros_like(b)
    residual = ras_apply(solve, b)
    b_norm = _l2_norm(residual)
    nonfinite = not math.isfinite(b_norm)
    if nonfinite:
        history, converged = [], False
    elif b_norm == 0.0:
        history, converged = [0.0], True
    else:
        history, converged = [1.0], 1.0 < tol
    stagnated = False
    cycle_len = restart if restart is not None else max_iter
    # the stationary RAS state as long as no cycle has run
    ras = (x, residual, b_norm, [1.0])
    ras_iters = max_iter if ras_iters is None else ras_iters

    while len(history) <= max_iter and not (converged or stagnated or nonfinite):
        start = len(history)
        correction, estimates, state = _gmres_cycle(
            solve, residual, min(cycle_len, max_iter + 1 - start, b.size),
            tol * b_norm, b_norm, ras_iters if start == 1 else None,
        )
        history += estimates
        ras = state or ras
        if correction is None:
            nonfinite = True
            break
        candidate = x + correction
        residual = ras_apply(solve, b - matrix @ candidate)
        relres = _l2_norm(residual) / b_norm
        if not math.isfinite(relres):
            nonfinite = True
            break
        history[-1] = relres
        x = candidate
        converged = history[-1] < tol
        stagnated = not converged and history[-1] >= history[start - 1] * (1.0 - 1e-12)

    return GmresResult(
        x=x,
        history=np.asarray(history, dtype=float),
        converged=converged,
        stagnated=stagnated,
        iterations=max(len(history) - 1, 0),
        nonfinite=nonfinite,
        ras=ras,
    )


def _gmres_cycle(solve, residual, steps, ptol, b_norm, ras_iters):
    """One GMRES cycle of at most ``steps`` Arnoldi steps from an iterate
    whose preconditioned residual is ``residual``: modified
    Gram-Schmidt and Givens rotations as in SciPy 1.17's loop, with its
    breakdown test h1 <= eps h0.  It stops once the rotated residual is at
    most ``ptol`` or at a breakdown, and reports each as a ratio to ``b_norm``.
    Each step taken adds one basis vector (its `ras_apply` result,
    normalized in place) and one Hessenberg column, kept also rotated;
    vectors are updated in place by BLAS axpy.

    Returns (correction, estimates, ras).  The correction to the iterate
    is None when a step met a non-finite value; the estimates then end
    before it.  Given ``ras_iters`` (on the first cycle, from zero), ras
    is (x_m, z_m, beta, [|y_0|, ..., |y_m|]), the stationary RAS state of
    `GmresResult`; else None.
    """
    matrix, dtype = solve.system.matrix, residual.dtype
    dot = np.vdot if np.iscomplexobj(residual) else np.dot
    lartg = get_lapack_funcs("lartg", dtype=dtype)
    axpy = get_blas_funcs("axpy", dtype=dtype)
    eps = np.finfo(dtype).eps
    beta = _l2_norm(residual)
    basis = [residual * (1 / beta)]
    hessenberg, rotated = [], []  # column col has col + 2 entries; rotated, SciPy's h
    givens = np.zeros((steps, 2), dtype)
    g = np.zeros(steps + 1, dtype)  # beta e_1, rotated with the columns
    g[0] = beta
    estimates, finite = [], True
    # a non-finite solve makes the dot products warn; the check below stops the cycle
    with np.errstate(invalid="ignore"):
        for col in range(steps):
            w = ras_apply(solve, matrix @ basis[col])
            h0 = _l2_norm(w)
            column = np.zeros(col + 2, dtype)
            for k, v in enumerate(basis):
                column[k] = dot(v, w)
                w = axpy(v, w, a=-column[k])
            h1 = _l2_norm(w)
            breakdown = h1 <= eps * h0
            column[col + 1] = 0.0 if breakdown else h1
            if not breakdown:
                w *= 1 / h1
            basis.append(w)
            hessenberg.append(column)
            if not np.isfinite(column).all():
                finite = False
                break
            h = column.copy()
            rotated.append(h)
            for k in range(col):
                c, s = givens[k]
                h[k], h[k + 1] = c * h[k] + s * h[k + 1], -s.conj() * h[k] + c * h[k + 1]
            c, s, mag = lartg(h[col], h[col + 1])
            givens[col] = c, s
            h[col], h[col + 1] = mag, 0
            g[col], g[col + 1] = c * g[col], -np.conj(s) * g[col]
            presid = abs(g[col + 1])
            estimates.append(presid / b_norm)
            if presid <= ptol or breakdown:
                break
    done = col + 1 if finite else col  # the finite steps

    state = None
    if ras_iters is not None:
        # z_n = beta V y_n (Saad, Iterative Methods for Sparse Linear
        # Systems, 2003, ch. 6), x_m and z_m from V before it is dropped
        m = min(ras_iters, done)
        block = np.zeros((m + 1, m), dtype)  # the first m columns of H
        for j in range(m):
            block[: j + 2, j] = hessenberg[j]
        rows = np.zeros((m + 1, m + 1), dtype)  # y_0 .. y_m
        rows[0, 0] = 1.0
        norms = [1.0]
        for n in range(1, m + 1):
            # y_(n-1) lies in the first n entries, so y_n in the first n + 1
            rows[n, : n + 1] = rows[n - 1, : n + 1] - block[: n + 1, :n] @ rows[n - 1, :n]
            norms.append(_l2_norm(rows[n]))
            if not math.isfinite(beta * norms[-1]):
                m, norms[-1] = n - 1, math.inf
                break
        state = (beta * _combination(rows[:m].sum(axis=0), basis, axpy),
                 beta * _combination(rows[m], basis, axpy), beta, norms)
    if not finite:
        return None, estimates, state

    # back substitution on the rotated triangle, as SciPy's pseudo-solve
    # of a singular one
    if rotated[col][col] == 0:
        g[col] = 0
    y = g[: col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= rotated[k][k]
            y[:k] -= y[k] * rotated[k][:k]
    if y[0] != 0:
        y[0] /= rotated[0][0]
    return _combination(y, basis, axpy), estimates, state


def _combination(coefficients, vectors, axpy):
    """sum_k c_k v_k over the first len(c) vectors, by in-place ``axpy``."""
    total = np.zeros_like(vectors[0])
    for coefficient, vector in zip(coefficients, vectors):
        total = axpy(vector, total, a=coefficient)
    return total
