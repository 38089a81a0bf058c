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
B_i maps the data on subdomain i's interface line through its solve to
the other interface line, which it owns.  That is the substructured
Schwarz iteration (Dolean, Jolivet and Nataf, SIAM 2015, ch. 2), the
discrete form of the interface iteration the mode analysis solves per
Fourier mode.  Each factor solves its first subdomain's interface line
once, |S|/2 solves; on the symmetric strip the point reflection P maps the
second subdomain onto the first, so B1 = P B0 P comes from the same
solves.  There T_SS = -[[0, B0], [P B0 P, 0]] has the eigenvalues +-mu of
the eigenvalues mu of B0 P; `RestrictedSolve.interface_block` returns the
block with the index of that |S|/2 x |S|/2 half, which `spectrum` then
diagonalizes (None on every other decomposition: the whole block).

The scalar type of every solve, block and iterate is that of the assembled
matrix, promoted with the load's, so a complex matrix runs complex (the
histories and norms stay real); the exports and the CLI stay real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from .fem import (
    AssembledSystem,
    SingularSystemError,
    StructuredMesh,
    _l2_norm,
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
# interface columns per subdomain solve; each is dense over the interior
SPECTRUM_CHUNK = 8


class BudgetExceededError(RuntimeError):
    """Raised when the subdomain LU factors and what the caller holds
    beside them would exceed the memory budget."""


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


def _rows_mirror(matrix, rows, first_rows, reflect, tol) -> bool:
    """Whether ``matrix[rows]``, its columns reflected, equals
    ``matrix[first_rows]`` to ``tol``: the interior block and the entries
    outside the interior in one pass over the two row slices, without
    building either subdomain matrix.  A stored pattern (explicit zeros
    included) unlike the first rows' gives False."""
    mirrored = matrix[rows]
    mirrored.indices = reflect.astype(mirrored.indices.dtype)[mirrored.indices]
    mirrored.has_sorted_indices = False
    mirrored.sort_indices()
    first = matrix[first_rows]
    if not (np.array_equal(mirrored.indptr, first.indptr)
            and np.array_equal(mirrored.indices, first.indices)):
        return False
    diff = np.subtract(mirrored.data, first.data, out=mirrored.data)
    return diff.size == 0 or np.abs(diff, out=diff).max() <= tol


class RestrictedSolve:
    """The RAS subdomain solves of one system on one decomposition.

    The subdomains are factored once, here, and each factor must solve
    for ``A_i @ ones`` within the residual bound of `direct_solve`; a
    factor that fails this, or a singular subdomain matrix, raises
    `SingularSystemError`; a subdomain with no interior unknown raises
    ValueError before anything is factored.  ``beside`` is (bytes, phrase)
    of what the caller will hold beside the factors; before each
    factorization those bytes plus an upper estimate of all factors so far
    are checked against `MEMORY_BUDGET_BYTES`, the one budget check of the
    package (`BudgetExceededError`, naming the factors and the phrase).  Calling
    the object on a vector, or a block of columns, with ``n_dofs`` rows
    solves every subdomain on its interior, reading no other row, and
    keeps the part it owns; that is the RAS preconditioner M^-1.  Every dof
    that no subdomain owns, the Dirichlet dofs among them, comes back zero.
    A complex vector on a real system is solved as its real and imaginary
    parts, columns of the same solve.  ``interface`` holds the dof indices
    of the interface unknowns S of the decomposition
    (`interface_unknowns`), on which `interface_block` builds M^-1 A.

    A subdomain whose interior is the point reflection of the first one's
    (the reflection of the strip reverses node ids) is taken in reflected
    order, and it shares the first one's factor when its rows of A equal
    the first one's under the reflection, in stored pattern and to 1e-12
    max|A_1| in value: its interior block and its entries outside the
    interior, compared in one pass over the two row slices, with a
    reflection-invariant Dirichlet mask; its own matrix is never built.
    Its right-hand sides are then the first one's read through the
    reflection, and those of the subdomains a factor serves are the
    columns of one solve.
    Otherwise (an x range not symmetric about the midline, a matrix that
    is not reflection-invariant) each subdomain has its own factor.
    """

    def __init__(
        self, system: AssembledSystem, decomposition: Decomposition, beside=(0, "")
    ):
        for i, sub in enumerate(decomposition.subdomains):
            if sub.interior_free.size == 0:
                raise ValueError(f"subdomain {i} has no interior unknown: it needs an "
                                 "interior node of the mesh")
        self.system = system
        mask = system.dirichlet_mask
        self.interface = interface_unknowns(system, decomposition)
        local = np.full(system.n_dofs, -1, dtype=np.int64)
        matrix = system.matrix.tocsr()
        # the point reflection of the strip reverses node ids
        reflect = np.arange(system.n_dofs).reshape(-1, 2)[::-1].ravel()
        # (factor, [(interior, owned, owned within interior, reflection)]):
        # a shared part's reflection is ``reflect``, the factor's first
        # part has None
        self._groups = []
        first_interior = tol = None  # the first subdomain's interior and 1e-12 max|A_1|
        needed, phrase = beside  # what the caller holds; the factors add to it
        what = "the subdomain LU factors" + (f" and {phrase}" if phrase else "")

        for sub in decomposition.subdomains:
            interior, shared = sub.interior_free, False
            if first_interior is not None and np.array_equal(
                np.sort(reflect[first_interior]), interior
            ):
                interior = reflect[first_interior]
                shared = np.array_equal(mask, mask[reflect]) and _rows_mirror(
                    matrix, interior, first_interior, reflect, tol
                )
            local[interior] = np.arange(interior.size)
            part = (interior, sub.owned_free, local[sub.owned_free])
            if shared:
                self._groups[0][1].append(part + (reflect,))
                continue
            # L+U of n unknowns, a value and a 4-byte index per entry: the
            # fill measured at omega 5 is 7.7-9.5 n log2 n for n = 12,798
            # to 204,798, so 16 n log2 n bounds it
            n = interior.size
            needed += 16 * n * math.log2(max(n, 2)) * (matrix.dtype.itemsize + 4)
            _check_budget(what, int(needed))
            a = matrix[interior][:, interior].tocsc()
            # the subdomain matrices are symmetric: order on A^T + A
            try:
                lu = splu(a, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SingularSystemError(f"subdomain factorization failed: {exc}") from exc
            _checked_solve(lu, a, a @ np.ones(a.shape[0]))
            self._groups.append((lu, [part + (None,)]))
            if first_interior is None:
                first_interior, tol = interior, 1e-12 * abs(a).max()

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(v) and not np.iscomplexobj(self.system.matrix):
            # a real factor solves the real and imaginary parts as columns
            return self(np.stack([v.real, v.imag], axis=-1)) @ np.array([1, 1j])
        z = np.zeros(v.shape, np.result_type(v, self.system.matrix.dtype))
        columns, out = v.reshape(v.shape[0], -1), z.reshape(z.shape[0], -1)
        width = columns.shape[1]
        for lu, parts in self._groups:
            # every part's right-hand sides as the columns of one solve
            x = lu.solve(np.hstack([columns[part[0]] for part in parts]))
            for i, (_, owned, keep, _) in enumerate(parts):
                out[owned] = x[keep, i * width:(i + 1) * width]
        return z

    def interface_block(self) -> tuple[np.ndarray, tuple | None]:
        """(M^-1 A)[S, S] at S = ``self.interface``, and the `np.ix_` index
        of its half block B0 P or None.  A subdomain solves an S column of
        its own matrix to the unit vector, so only the other S columns (its
        interface line, unowned dofs) are solved, and only the S rows it
        owns are kept.  Each factor solves those columns of its group's
        first subdomain, `SPECTRUM_CHUNK` at a time, once; a reflected
        subdomain writes its rows of the solves at the reflected columns,
        which are in S, as sharing needs mirrored subdomains and ownership
        is geometric.  The half applies when one factor serves both
        subdomains through the reflection P and every unknown of S is
        owned: then, the S rows the first subdomain owns taken first,
        (M^-1 A)[S, S] = [[I, B0], [P B0 P, I]], whose eigenvalues are
        1 +- mu for the eigenvalues mu of B0 P.  B0 P has those rows, and
        as columns their reflections, which must be the S rows the second
        subdomain owns."""
        columns = self.interface
        a = self.system.matrix.tocsr()[:, columns]
        at = np.full(self.system.n_dofs, -1, dtype=np.int64)
        at[columns] = np.arange(columns.size)
        block = np.zeros((columns.size, columns.size), a.dtype)
        for lu, parts in self._groups:
            solved = np.flatnonzero(np.isin(columns, parts[0][0], invert=True))
            targets = []
            for _, owned, keep, reflection in parts:
                rows = at[owned]
                keep, rows = keep[rows >= 0], rows[rows >= 0]
                block[rows, rows] = 1.0
                cols = solved if reflection is None else at[reflection[columns[solved]]]
                targets.append((rows, keep, cols))
            rhs = a[parts[0][0]]
            for start in range(0, solved.size, SPECTRUM_CHUNK):
                chunk = slice(start, start + SPECTRUM_CHUNK)
                x = lu.solve(rhs[:, solved[chunk]].toarray())
                for rows, keep, cols in targets:
                    block[np.ix_(rows, cols[chunk])] = x[keep]
                del x  # before the next chunk's right-hand sides are built
        if len(self._groups) > 1 or len(parts) != 2:
            return block, None
        (rows, _, _), (rows_right, _, _) = targets
        mirror = at[parts[1][3][columns[rows]]]
        if rows.size + rows_right.size != columns.size or not np.array_equal(
            np.sort(mirror), np.sort(rows_right)
        ):
            return block, None
        return block, np.ix_(rows, mirror)


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

    With ``start``, a `gmres` result on the same solve and load, its first
    ``start.ras_steps`` = m steps (m <= ``n_iter``, else ValueError) are
    read off that run's first cycle: entry n <= m is |y_n| (see
    `GmresResult`), and the iteration continues from its state x_m, z_m.

    A run that overflows stops before the first non-finite residual (from
    the first cycle, where beta |y_n| is not finite): the history is then
    shorter than ``n_iter + 1`` and ``x`` is the last iterate whose
    residual was finite; a non-finite initial residual gives an empty
    history."""
    system = solve.system
    rhs = _promoted(rhs, system)
    if start is None:
        x, z, m = np.zeros_like(rhs), ras_apply(solve, rhs), 0
        norm0 = _l2_norm(z)
    else:
        x, z, m, norm0 = start.ras_x, start.ras_z, start.ras_steps, start.beta
        if m > n_iter:
            raise ValueError(f"n_iter: {n_iter} is below the {m} steps the start has "
                             f"taken; pass ras_iters={n_iter} to gmres")
    if not math.isfinite(norm0):
        return x, np.empty(0)
    history = np.empty(n_iter + 1)
    history[0] = 1.0
    if norm0 == 0.0:
        history[1:] = 0.0
        return x, history
    if start is not None:
        reach = min(m + 1, n_iter, start.hessenberg.shape[1])
        _, shared = _ras_residuals(start.hessenberg, norm0, reach)
        history[: m + 1] = shared[: m + 1]
        if shared.size <= reach:  # |z_(m+1)| = beta |y_(m+1)| is not finite
            return x, history[: m + 1]
    for n in range(m, n_iter):
        step = x + z
        z = ras_apply(solve, rhs - system.matrix @ step)
        history[n + 1] = _l2_norm(z) / norm0
        if not math.isfinite(history[n + 1]):
            return x, history[: n + 1]
        x = step
    return x, history


def _ras_residuals(
    hessenberg: np.ndarray, beta: float, n_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """The stationary RAS residuals from zero in a GMRES cycle's Arnoldi
    basis: with z_0 = beta v_0 and M^-1 A V_j = V_(j+1) H (Saad, Iterative
    Methods for Sparse Linear Systems, 2003, ch. 6), H the unrotated
    (j+1) x j ``hessenberg``, z_n = (I - M^-1 A)^n z_0 = beta V y_n for
    n <= j, where y_0 = e_1 and y_(n+1) = y_n - H y_n.  Returns the rows
    y_0 .. y_m and |y_n| = |z_n| / |z_0|, for m = min(``n_iter``, j) or
    the last n before the first whose |z_n| = beta |y_n| is not finite."""
    steps = hessenberg.shape[1]
    y = np.zeros((min(n_iter, steps) + 1, steps + 1), hessenberg.dtype)
    y[0, 0] = 1.0
    norms = [1.0]
    for n in range(1, y.shape[0]):
        # y_(n-1) lies in the first n entries, so y_n in the first n + 1
        y[n, : n + 1] = y[n - 1, : n + 1] - hessenberg[: n + 1, :n] @ y[n - 1, :n]
        norms.append(_l2_norm(y[n]))
        if not math.isfinite(beta * norms[-1]):
            return y[:n], np.array(norms[:-1])
    return y, np.array(norms)


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


def spectrum(
    system: AssembledSystem, decomposition: Decomposition
) -> np.ndarray:
    """All eigenvalues of the preconditioned operator on the free unknowns,
    sorted by (re, im) so repeated runs emit identical tables.

    Only the interface block (M^-1 A)[S, S]
    (`RestrictedSolve.interface_block`) is built; the other n - |S|
    eigenvalues are exactly one.  On a mirrored strip, where its
    eigenvalues are 1 +- mu for the eigenvalues mu of the half block B0 P,
    only that half of it is diagonalized; otherwise (an asymmetric strip,
    one subdomain, unowned unknowns in S) the whole block.  The dense
    ``eigvals(preconditioned_operator(system, decomposition))`` is the
    reference it agrees with.  The whole block, LAPACK's copy of it and
    one chunk of right-hand sides and solutions are held beside the
    subdomain factors in the budget of `RestrictedSolve`, checked before
    each factorization.
    """
    n = int(np.count_nonzero(~system.dirichlet_mask))
    m = interface_unknowns(system, decomposition).size
    # the block, LAPACK's copy, one chunk of right-hand sides and solutions
    held = system.matrix.dtype.itemsize * (2 * m * m + 2 * SPECTRUM_CHUNK * n)
    beside = held, f"a {m} x {m} interface block of {n} unknowns and its eigenproblem"
    block, half = RestrictedSolve(system, decomposition, beside).interface_block()
    if half is None:
        interface = np.linalg.eigvals(block)
    else:
        mu = np.linalg.eigvals(block[half])
        interface = np.concatenate([1.0 + mu, 1.0 - mu])
    eigs = np.concatenate([interface, np.ones(n - m)])
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
    from zero too (`stationary_ras`): ``hessenberg`` is H, unrotated,
    (j+1) x j, and ``beta`` = |M^-1 b|, so that iteration's residuals are
    z_n = beta V y_n with y_0 = e_1, y_(n+1) = y_n - H y_n, for n <= j.
    ``ras_x`` and ``ras_z`` are its iterate x_m = beta V (y_0 + ... +
    y_(m-1)) and residual z_m = beta V y_m, taken from V before it is
    dropped, after ``ras_steps`` = m steps: the first cycle's finite steps,
    at most the ``ras_iters`` of `gmres`, and no further than the last n
    whose beta |y_n| is finite.
    """

    x: np.ndarray
    history: np.ndarray
    converged: bool
    stagnated: bool
    iterations: int
    nonfinite: bool
    hessenberg: np.ndarray
    beta: float
    ras_steps: int
    ras_x: np.ndarray
    ras_z: np.ndarray


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
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    matrix = solve.system.matrix
    b = _promoted(rhs, solve.system)
    x = np.zeros_like(b)
    residual = ras_apply(solve, b)
    b_norm = _l2_norm(residual)
    # the cycles take norms of the residual whose squares may overflow
    # though b_norm is finite: iterate on the problem scaled by a power of
    # two that brings b_norm into [0.5, 1) (exact, on the real and
    # imaginary parts), and scale x and the RAS state back
    exponent = math.frexp(b_norm)[1]

    def scaled(v, by):
        return np.ldexp(v.view(np.float64), by).view(v.dtype)

    b, residual = scaled(b, -exponent), scaled(residual, -exponent)
    nonfinite = not math.isfinite(b_norm)
    if nonfinite:
        history, converged = [], False
    elif b_norm == 0.0:
        history, converged = [0.0], True
    else:
        history, converged = [1.0], 1.0 < tol
    stagnated = False
    cycle_len = restart if restart is not None else max_iter
    scale = math.ldexp(b_norm, -exponent)
    # the stationary RAS state (H, m, x_m, z_m) as long as no cycle has run
    ras = (np.zeros((1, 0), b.dtype), 0, x, residual)
    ras_iters = max_iter if ras_iters is None else ras_iters

    while len(history) <= max_iter and not (converged or stagnated or nonfinite):
        start = len(history)
        correction, estimates, state = _gmres_cycle(
            solve, residual, min(cycle_len, max_iter + 1 - start, b.size),
            tol * scale, scale, (b_norm, ras_iters) if start == 1 else None,
        )
        history += estimates
        ras = state or ras
        if correction is None:
            nonfinite = True
            break
        candidate = x + correction
        residual = ras_apply(solve, b - matrix @ candidate)
        relres = _l2_norm(residual) / scale
        if not math.isfinite(relres):
            nonfinite = True
            break
        history[-1] = relres
        x = candidate
        converged = history[-1] < tol
        stagnated = not converged and history[-1] >= history[start - 1] * (1.0 - 1e-12)

    hessenberg, m, ras_x, ras_z = ras
    return GmresResult(
        x=scaled(x, exponent),
        history=np.asarray(history, dtype=float),
        converged=converged,
        stagnated=stagnated,
        iterations=max(len(history) - 1, 0),
        nonfinite=nonfinite,
        hessenberg=hessenberg,
        beta=b_norm,
        ras_steps=m,
        ras_x=scaled(ras_x, exponent),
        ras_z=scaled(ras_z, exponent),
    )


def _gmres_cycle(solve, residual, steps, ptol, scale, ras):
    """One GMRES cycle of at most ``steps`` Arnoldi steps from an iterate
    whose preconditioned residual is ``residual``: modified
    Gram-Schmidt and Givens rotations as in SciPy 1.17's loop, with its
    breakdown test h1 <= eps h0.  It stops once the rotated residual is at
    most ``ptol`` or at a breakdown, and reports each as a ratio to
    ``scale``.

    Returns (correction, estimates, ras).  The correction to the iterate
    is None when a step met a non-finite value; the estimates then end
    before it.  With ``ras`` = (beta, ras_iters) of the unscaled load, ras
    is (H, m, x_m, z_m): the unrotated Hessenberg matrix of the finite
    steps and the stationary RAS state of `GmresResult`, for this scaled
    cycle from zero; else None.
    """
    matrix = solve.system.matrix
    dtype, n = residual.dtype, residual.size
    dot = np.vdot if np.iscomplexobj(residual) else np.dot
    lartg = get_lapack_funcs("lartg", dtype=dtype)
    eps = np.finfo(dtype).eps
    # only the rows the cycle reaches are touched
    basis = np.empty((steps + 1, n), dtype)
    hessenberg = np.zeros((steps + 1, steps), dtype)
    rotated = np.zeros((steps, steps + 1), dtype)  # a row per column, as SciPy's h
    givens = np.zeros((steps, 2), dtype)
    basis[0] = residual
    beta = np.linalg.norm(basis[0])
    basis[0] *= 1 / beta
    g = np.zeros(steps + 1, dtype)  # beta e_1, rotated with the columns
    g[0] = beta
    estimates, finite = [], True
    # a non-finite solve makes the dot products warn; the check below stops the cycle
    with np.errstate(invalid="ignore"):
        for col in range(steps):
            w = ras_apply(solve, matrix @ basis[col])
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                hessenberg[k, col] = dot(basis[k], w)
                w -= hessenberg[k, col] * basis[k]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0
            hessenberg[col + 1, col] = 0.0 if breakdown else h1
            basis[col + 1] = w
            if not breakdown:
                basis[col + 1] *= 1 / h1
            if not np.isfinite(hessenberg[: col + 2, col]).all():
                finite = False
                break
            h = rotated[col]
            h[: col + 2] = hessenberg[: col + 2, col]
            for k in range(col):
                c, s = givens[k]
                h[k], h[k + 1] = c * h[k] + s * h[k + 1], -s.conj() * h[k] + c * h[k + 1]
            c, s, mag = lartg(h[col], h[col + 1])
            givens[col] = c, s
            h[col], h[col + 1] = mag, 0
            g[col], g[col + 1] = c * g[col], -np.conj(s) * g[col]
            presid = abs(g[col + 1])
            estimates.append(presid / scale)
            if presid <= ptol or breakdown:
                break
    done = col + 1 if finite else col  # the finite steps

    state = None
    if ras is not None:
        # the stationary RAS state after m steps, from V before it is dropped
        beta_load, ras_iters = ras
        h_bar = hessenberg[: done + 1, :done].copy()
        rows, _ = _ras_residuals(h_bar, beta_load, ras_iters)
        m = rows.shape[0] - 1
        used = basis[: done + 1]
        state = (h_bar, m, beta * (rows[:m].sum(axis=0) @ used), beta * (rows[m] @ used))
    if not finite:
        return None, estimates, state

    # back substitution on the rotated triangle, as SciPy's pseudo-solve
    # of a singular one
    if rotated[col, col] == 0:
        g[col] = 0
    y = g[: col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= rotated[k, k]
            y[:k] -= y[k] * rotated[k, :k]
    if y[0] != 0:
        y[0] /= rotated[0, 0]
    return y @ basis[: col + 1], estimates, state
