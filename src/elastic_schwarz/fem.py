"""P1 finite elements for time-harmonic elastic waves on a structured
triangulated rectangle.

The bilinear form is the grad:grad + (lambda+mu) div*div form obtained by
integrating the displacement operator by parts; with the homogeneous
Dirichlet condition on the whole outer boundary the boundary terms vanish,
so this matches the strong operator exactly.  Unknowns are interleaved per
node (u_x then u_y), the mass is the exact (consistent) P1 one, and the two
element matrices fold into the 2x2 blocks of a 7-point node stencil written
straight into int32 CSR, Dirichlet rows/columns eliminated with a unit diagonal.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .analysis import ElasticMedium

__all__ = [
    "StructuredMesh",
    "AssembledSystem",
    "SingularSystemError",
    "check_mesh",
    "build_mesh",
    "assemble_raw",
    "assemble",
    "direct_solve",
    "interface_mode_amplitudes",
    "dominant_mode",
    "atomic_write",
    "write_table",
    "export_solution_csv",
    "export_solution_binary",
    "read_solution_binary",
]

BINARY_MAGIC = b"ELSCHWZ1"
BINARY_VERSION = 1
# magic, version, nx, ny, node count
_BINARY_HEADER = struct.Struct("<8sIIII")


class SingularSystemError(RuntimeError):
    """Raised when the sparse factorization hits an exactly singular pivot
    (possible at a discrete Dirichlet resonance), the solve fails the
    residual contract or the assembled matrix is not finite."""


# a cell split along its lower-left to upper-right diagonal: the lower, then the
# upper counterclockwise triangle, by (di, dj) corner offsets from the lower left
_CELL_TRIANGLES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


@dataclass(frozen=True)
class StructuredMesh:
    """Uniform triangulation of a rectangle, a value of its four fields that
    builds its ``nodes`` and ``triangles`` arrays when they are first read.

    Nodes are ordered lexicographically with x fastest; every cell is split
    into the two triangles of `_CELL_TRIANGLES`, of area hx*hy/2."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int

    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The nx+1 node abscissae and ny+1 node ordinates."""
        return (np.linspace(*self.x_range, self.nx + 1),
                np.linspace(*self.y_range, self.ny + 1))

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """(n_nodes, 2) node coordinates, in node order."""
        gx, gy = np.meshgrid(*self._axes())  # row-major: y slow, x fast
        return np.column_stack([gx.ravel(), gy.ravel()])

    @functools.cached_property
    def triangles(self) -> np.ndarray:
        """(n_triangles, 3) int64 node ids, cell by cell in node order of
        their lower-left nodes, each cell's triangles as `_CELL_TRIANGLES`."""
        nx1 = self.nx + 1
        cells = np.arange(self.ny, dtype=np.int64)[:, None] * nx1 + np.arange(self.nx)
        corners = [[dj * nx1 + di for di, dj in tri] for tri in _CELL_TRIANGLES]
        return (cells.reshape(-1, 1, 1) + np.array(corners)).reshape(-1, 3)

    @property
    def hx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.nx

    @property
    def hy(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / self.ny

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_triangles(self) -> int:
        return 2 * self.nx * self.ny

    def node_columns(self) -> np.ndarray:
        """Column index i of every node, in node order."""
        return np.arange(self.n_nodes) % (self.nx + 1)

    def boundary_node_mask(self) -> np.ndarray:
        """True for nodes on the outer boundary of the rectangle."""
        i = self.node_columns()
        j = np.arange(self.n_nodes) // (self.nx + 1)
        return (i == 0) | (i == self.nx) | (j == 0) | (j == self.ny)


def check_mesh(
    x_range: tuple[float, float], y_range: tuple[float, float], nx: int, ny: int
) -> None:
    """Raise ValueError if `build_mesh` cannot build the mesh: a degenerate
    range or one wider than the largest double, fewer than one cell a side,
    or more than 153,391,689 dofs, whose up to 14 CSR entries a dof int32
    indices would not reach.  The message starts with the offending names
    (the config keys ``x_min/x_max`` for ``x_range``) and a colon."""
    for names, (lo, hi) in (("x_min/x_max", x_range), ("y_min/y_max", y_range)):
        if not hi > lo:
            raise ValueError(f"{names}: range ({lo}, {hi}) is degenerate")
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"{names}: range ({lo}, {hi}) is wider than the largest double")
    if nx < 1 or ny < 1:
        raise ValueError(f"nx/ny: must be >= 1, got nx={nx}, ny={ny}")
    n_dofs = 2 * (nx + 1) * (ny + 1)
    if 14 * n_dofs > np.iinfo(np.int32).max:
        raise ValueError(f"nx/ny: nx={nx}, ny={ny} give {n_dofs} dofs, "
                         "too many for int32 CSR indices")


def build_mesh(
    x_range: tuple[float, float], y_range: tuple[float, float], nx: int, ny: int
) -> StructuredMesh:
    """The structured triangulated rectangle (see `check_mesh`)."""
    check_mesh(x_range, y_range, nx, ny)
    return StructuredMesh(tuple(map(float, x_range)), tuple(map(float, y_range)), nx, ny)


@dataclass
class AssembledSystem:
    """Dirichlet-eliminated linear system over interleaved displacement dofs."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet_mask: np.ndarray
    mesh: StructuredMesh

    @property
    def n_dofs(self) -> int:
        return self.matrix.shape[0]


def _element_geometry(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas (nt,) and P1 basis gradients (nt, 3, 2) of the triangles with
    vertices ``pts`` (nt, 3, 2)."""
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    # P1 gradients: phi_i = (a_i + b_i x + c_i y) / (2 area)
    b = pts[:, [1, 2, 0], 1] - pts[:, [2, 0, 1], 1]
    c = pts[:, [2, 0, 1], 0] - pts[:, [1, 2, 0], 0]
    return area, np.stack([b, c], axis=2) / (2.0 * area)[:, None, None]


_STENCIL = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


def _stencil_blocks(mesh, medium, omega, body_force) -> tuple[np.ndarray, np.ndarray]:
    """The (ny+1, nx+1, 2, 7, 2) blocks of stiffness minus frequency-shifted
    mass, ``[j, i, a, k, b]`` joining component a of node (i, j) to component
    b of node (i + di, j + dj), (di, dj) = ``_STENCIL[k]``, and the load.
    Every triangle of the uniform mesh translates one of the two of the
    first cell, split as `_CELL_TRIANGLES`, so each corner pair of their
    element matrices adds a 2x2 block to one slot of every cell."""
    mu, lam, rho = medium.lame_mu, medium.lame_lambda, medium.rho
    nx, ny = mesh.nx, mesh.ny
    eye2 = np.eye(2)[None, None, :, None, :]
    mass3 = (np.ones((3, 3)) + np.eye(3)) / 12.0
    blocks = np.zeros((len(_STENCIL), 2, 2, ny + 1, nx + 1))  # contiguous cell slices
    # entries past the double range stay inf or nan, and `assemble` names them
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = mesh._axes()
        area, grads = _element_geometry(
            np.array([[(xs[di], ys[dj]) for di, dj in tri] for tri in _CELL_TRIANGLES]))
        area = area[:, None, None, None, None]
        ke = mu * area * (np.einsum("tid,tjd->tij", grads, grads)[:, :, None, :, None] * eye2)
        ke = ke + (lam + mu) * area * np.einsum("tia,tjb->tiajb", grads, grads)
        ke = ke - (rho * omega * omega) * area * (mass3[None, :, None, :, None] * eye2)
        for t, tri in enumerate(_CELL_TRIANGLES):
            for (a, (ai, aj)), (b, (bi, bj)) in itertools.product(enumerate(tri), repeat=2):
                k = _STENCIL.index((bi - ai, bj - aj))
                blocks[k, :, :, aj:aj + ny, ai:ai + nx] += ke[t, a, :, b, :, None, None]
    rhs = np.zeros(2 * mesh.n_nodes)
    if body_force is not None:
        pts = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
        area = _element_geometry(pts)[0]
        mids = 0.5 * (pts + np.roll(pts, -1, axis=1))  # edge midpoints 01, 12, 20
        force = np.stack([np.broadcast_to(np.asarray(f, dtype=float), mids.shape[:2])
                          for f in body_force(mids[..., 0], mids[..., 1])], axis=-1)
        # vertex i carries weight 1/2 on its incident edges i and i - 1
        load = 0.5 * (force + np.roll(force, 1, axis=1))  # (nt, 3, 2 components)
        load *= (area / 3.0)[:, None, None]
        np.add.at(rhs, (2 * mesh.triangles[:, :, None] + np.arange(2)).ravel(), load.ravel())
    return np.ascontiguousarray(blocks.transpose(3, 4, 1, 0, 2)), rhs


def _stencil_csr(blocks: np.ndarray, nodes: np.ndarray, keep) -> sp.csr_matrix:
    """The CSR matrix over interleaved node dofs of the entries of ``blocks``
    (`_stencil_blocks`) where ``keep`` (broadcast to their shape) that join a
    node to itself or two of the ``nodes`` ((ny+1, nx+1) bool), each row in
    stencil, which is column, order, with int32 indices bounded by `check_mesh`."""
    ny1, nx1 = nodes.shape
    n = 2 * ny1 * nx1
    padded = np.pad(nodes, 1)
    # repeated over the column component: NumPy broadcasts a last axis of 14 fast
    joins = np.stack([nodes & padded[1 + dj:1 + dj + ny1, 1 + di:1 + di + nx1] | (di == dj == 0)
                      for di, dj in _STENCIL for _ in (0, 1)], -1).reshape(ny1, nx1, 1, 7, 2)
    keep = np.broadcast_to(joins & keep, blocks.shape).reshape(n, -1)  # rows 2 node + a
    counts = np.einsum("rs->r", keep.view(np.uint8))
    indptr = np.cumsum(np.insert(counts, 0, 0), dtype=np.int32)
    step = [2 * (dj * nx1 + di) + b for di, dj in _STENCIL for b in (0, 1)]
    columns = (np.arange(n, dtype=np.int32) & ~1)[:, None] + np.array(step, np.int32)
    return sp.csr_matrix((blocks.reshape(n, -1)[keep], columns[keep], indptr), shape=(n, n))


def assemble_raw(
    mesh: StructuredMesh,
    medium: ElasticMedium,
    omega: float,
    body_force=None,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble stiffness minus frequency-shifted mass, no boundary
    handling: the node stencil blocks of all neighbouring nodes (exact
    zeros too), folded from the two element matrices straight into CSR.

    ``body_force``, if given, is a vectorized callable (x, y) -> (fx, fy);
    the load is integrated with the three-point edge-midpoint rule (exact
    for quadratics, leaving the P1 convergence order untouched).
    """
    blocks, rhs = _stencil_blocks(mesh, medium, omega, body_force)
    return _stencil_csr(blocks, np.ones(blocks.shape[:2], dtype=bool), True), rhs


def assemble(
    mesh: StructuredMesh,
    medium: ElasticMedium,
    omega: float,
    body_force=None,
) -> AssembledSystem:
    """Assemble and apply the homogeneous Dirichlet condition on the whole
    outer boundary by row/column elimination with a unit diagonal, straight
    into CSR: the nonzero stencil entries between interior nodes.  Raises
    `SingularSystemError` if a stored entry is not finite."""
    blocks, rhs = _stencil_blocks(mesh, medium, omega, body_force)
    boundary = mesh.boundary_node_mask().reshape(blocks.shape[:2])
    blocks[boundary, :, 3] = np.eye(2)
    matrix = _stencil_csr(blocks, ~boundary, blocks != 0)
    if not np.isfinite(matrix.data).all():
        raise SingularSystemError(
            "assembled matrix is not finite: rho, cp/cs or lame_lambda/lame_mu, omega "
            "and the mesh ranges x_min/x_max, y_min/y_max scale its entries past "
            "the largest double")
    mask = np.repeat(boundary.ravel(), 2)
    return AssembledSystem(matrix, np.where(mask, 0.0, rhs), mask, mesh)


def _l2_norm(v: np.ndarray, weight: float = 1.0) -> float:
    """sqrt(weight * sum |v|^2) of a vector (``np.linalg.norm`` for unit
    weight), finite and nonzero whenever that value is.  A sum that is not
    finite or below 2^-500 (its squares may have over- or underflowed) is
    recomputed from v 2^-e, with 2^(e-1) <= the largest |re| or |im| < 2^e
    (returned as is if not finite), and scaled back by 2^e; both scalings
    are exact on the real and imaginary parts, so normal-range norms keep
    their bits and _l2_norm(2^j v) = 2^j _l2_norm(v)."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(weight * float(np.vdot(v, v).real))
        if not 2.0**-500 <= norm < math.inf:
            peak = float(np.max(np.abs(v.view(np.float64)), initial=0.0))
            if not math.isfinite(peak):
                return peak
            e = math.frexp(peak)[1]
            w = np.ldexp(v.view(np.float64), -e).view(v.dtype)
            norm = float(np.ldexp(math.sqrt(weight * float(np.vdot(w, w).real)), e))
    return norm


def _check_residual(deviation: float, scale: float, what: str, where: str = "") -> None:
    """Raise `SingularSystemError` unless the residual ``deviation`` is at
    most 1e-10 of ``scale``, the bound of every checked solve; a deviation
    or scale that is not a number fails the check."""
    if not deviation <= 1e-10 * scale:
        raise SingularSystemError(
            f"{what} residual {deviation:.3e} exceeds 1e-10 of {scale:.3e}{where}; "
            "the matrix is numerically singular or badly scaled"
        )


def _checked_solve(lu, matrix, rhs: np.ndarray) -> np.ndarray:
    """``lu.solve(rhs)`` with the residual against ``matrix`` checked
    against 1e-10 of the load (`_check_residual`, so a load or residual
    that is not a number fails the check); raises `SingularSystemError` on
    failure."""
    x = lu.solve(rhs)
    _check_residual(_l2_norm(matrix @ x - rhs), _l2_norm(rhs), "direct solve")
    return x


def direct_solve(system: AssembledSystem) -> np.ndarray:
    """Solve the assembled system for its stored load vector: a SuperLU
    factorization (column approximate-minimum-degree ordering) and a
    `_checked_solve`."""
    try:
        lu = splu(system.matrix.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
    return _checked_solve(lu, system.matrix, system.rhs)


def interface_mode_amplitudes(trace: np.ndarray, ny: int) -> np.ndarray:
    """Discrete sine amplitudes of a trace on ny+1 equidistant nodes.

    Returns the coefficients a_j of sin(j*pi*y), j = 1..ny-1, so that a
    trace equal to sin(j*pi*y) at the nodes comes back as a unit a_j.
    The end values of the trace do not enter (the sine basis vanishes
    there), and for ny < 2 there is no mode.
    """
    if np.iscomplexobj(trace):  # those of the real part + i * the imaginary part
        amps = interface_mode_amplitudes(np.real(trace), ny).astype(complex)
        amps.imag = interface_mode_amplitudes(np.imag(trace), ny)
        return amps
    trace = np.asarray(trace, dtype=float)
    if trace.shape != (ny + 1,):
        raise ValueError(
            f"trace must have ny+1 = {ny + 1} samples, got shape {trace.shape}"
        )
    # DST-I, 2 sum_m trace_m sin(j m pi/ny): -Im of the FFT of the odd extension
    inner = trace[1:ny]
    odd = np.concatenate([[0.0], inner, [0.0], -inner[::-1]])
    return -np.fft.rfft(odd)[1:ny].imag / ny


def dominant_mode(amplitudes: np.ndarray) -> int:
    """Mode index j with the largest |a_j| (1-based); 0 if no a_j is nonzero."""
    magnitudes = np.abs(np.asarray(amplitudes))
    if not magnitudes.any():
        return 0
    return int(np.argmax(magnitudes)) + 1


def atomic_write(path, chunks) -> None:
    """Stream the bytes-like ``chunks`` into a temporary file as they come
    and rename it to ``path``, so a reader never sees a partly written
    file.  If a chunk or the write fails, the temporary file is removed,
    ``path`` keeps its old bytes and the error propagates."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# rows formatted and written per block by `write_table`
_TABLE_BLOCK_ROWS = 4096


def write_table(path, header_lines, columns) -> None:
    """Write the equal-length ``columns`` (name: values, in order) as a CSV
    table under ``# `` header lines: float columns with 17 significant
    digits (they read back to the same doubles), any other column with
    ``str``.  Rows are formatted and written in blocks of
    `_TABLE_BLOCK_ROWS`, so the memory the text takes does not grow with
    the row count."""
    names, columns = list(columns), [np.asarray(c) for c in columns.values()]
    if len({c.shape for c in columns}) > 1:
        raise ValueError(f"columns of unequal shapes {[c.shape for c in columns]}")
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    n_rows = len(columns[0]) if columns else 0

    def chunks():
        yield ("".join(f"# {line}\n" for line in header_lines)
               + ",".join(names) + "\n").encode()
        for start in range(0, n_rows, _TABLE_BLOCK_ROWS):
            block = (c[start:start + _TABLE_BLOCK_ROWS].tolist() for c in columns)
            yield "".join(row % values for values in zip(*block)).encode()

    atomic_write(path, chunks())


def _real_field(mesh: StructuredMesh, u) -> np.ndarray:
    """The dofs ``u`` of an export as float64; a complex field or a wrong
    length raises ValueError."""
    if np.iscomplexobj(u):
        raise ValueError("complex fields need a new binary format version and CSV columns")
    u = np.asarray(u, dtype=float)
    if u.shape != (2 * mesh.n_nodes,):
        raise ValueError(f"expected {2 * mesh.n_nodes} dofs, got shape {u.shape}")
    return u


def export_solution_csv(
    mesh: StructuredMesh, u: np.ndarray, path, header_lines=()
) -> None:
    """Write (node, x, y, u_x, u_y) rows with 17 significant digits."""
    u = _real_field(mesh, u)
    write_table(path, header_lines, {
        "node": np.arange(mesh.n_nodes), "x": mesh.nodes[:, 0], "y": mesh.nodes[:, 1],
        "u_x": u[0::2], "u_y": u[1::2]})


def export_solution_binary(mesh: StructuredMesh, u: np.ndarray, path) -> None:
    """Binary dump: magic 'ELSCHWZ1', u32 version, u32 nx, u32 ny,
    u32 node count, then (x, y, u_x, u_y) little-endian doubles per node."""
    u = _real_field(mesh, u)
    header = _BINARY_HEADER.pack(BINARY_MAGIC, BINARY_VERSION,
                                 mesh.nx, mesh.ny, mesh.n_nodes)
    table = np.column_stack([mesh.nodes, u[0::2], u[1::2]]).astype("<f8")
    atomic_write(path, (header, table))


def read_solution_binary(path) -> tuple[dict, np.ndarray]:
    """Read a binary dump back; returns (metadata, (n_nodes, 4) table).
    Raises ValueError on a bad magic, version or node count (not
    (nx+1)(ny+1)), or a length other than the header plus 32 bytes a node."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = _BINARY_HEADER.size
    if len(blob) < head:
        raise ValueError(f"expected at least a {head}-byte header, got {len(blob)} bytes")
    magic, version, nx, ny, n_nodes = _BINARY_HEADER.unpack_from(blob)
    if magic != BINARY_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != BINARY_VERSION:
        raise ValueError(f"unsupported version {version}")
    if n_nodes != (nx + 1) * (ny + 1):
        raise ValueError(f"{n_nodes} nodes do not make a {nx}x{ny} mesh")
    if len(blob) != head + 32 * n_nodes:
        raise ValueError(
            f"expected {head + 32 * n_nodes} bytes for {n_nodes} nodes, got {len(blob)}"
        )
    table = np.frombuffer(blob, dtype="<f8", offset=head).reshape(n_nodes, 4)
    return {"version": version, "nx": nx, "ny": ny, "n_nodes": n_nodes}, table
