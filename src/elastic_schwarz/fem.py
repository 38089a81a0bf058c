"""P1 finite elements for time-harmonic elastic waves on a structured
triangulated rectangle.

The bilinear form is the grad:grad + (lambda+mu) div*div form obtained by
integrating the displacement operator by parts; under the homogeneous
Dirichlet condition applied on the whole outer boundary the boundary terms
vanish, so this matches the strong operator exactly.  Unknowns are
interleaved per node (u_x then u_y), the mass term uses the exact
(consistent) P1 mass matrix, and Dirichlet rows/columns are eliminated
with a unit diagonal.
"""

from __future__ import annotations

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
    (possible at a discrete Dirichlet resonance) or the solve fails the
    residual contract."""


@dataclass(frozen=True)
class StructuredMesh:
    """Uniform triangulation of a rectangle.

    Nodes are ordered lexicographically with x fastest; every cell is split
    along its lower-left to upper-right diagonal into two counterclockwise
    triangles of area hx*hy/2.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    nodes: np.ndarray
    triangles: np.ndarray

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
    range, fewer than one cell a side, or more dofs than the int32 indices
    of assembly hold.  The message starts with the offending names (the
    config keys ``x_min/x_max`` for ``x_range``) and a colon."""
    for names, (lo, hi) in (("x_min/x_max", x_range), ("y_min/y_max", y_range)):
        if not hi > lo:
            raise ValueError(f"{names}: range ({lo}, {hi}) is degenerate")
    if nx < 1 or ny < 1:
        raise ValueError(f"nx/ny: must be >= 1, got nx={nx}, ny={ny}")
    n_dofs = 2 * (nx + 1) * (ny + 1)
    if n_dofs > np.iinfo(np.int32).max:
        raise ValueError(
            f"nx/ny: nx={nx}, ny={ny} give {n_dofs} dofs, more than int32 indices hold"
        )


def build_mesh(
    x_range: tuple[float, float], y_range: tuple[float, float], nx: int, ny: int
) -> StructuredMesh:
    """Build the structured triangulated rectangle (see `check_mesh`)."""
    check_mesh(x_range, y_range, nx, ny)
    x_min, x_max = float(x_range[0]), float(x_range[1])
    y_min, y_max = float(y_range[0]), float(y_range[1])
    xs = np.linspace(x_min, x_max, nx + 1)
    ys = np.linspace(y_min, y_max, ny + 1)
    gx, gy = np.meshgrid(xs, ys)  # row-major: y slow, x fast
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    ll = (jj * (nx + 1) + ii).ravel()
    lr = ll + 1
    ul = ll + (nx + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return StructuredMesh(
        x_range=(x_min, x_max),
        y_range=(y_min, y_max),
        nx=nx,
        ny=ny,
        nodes=nodes,
        triangles=triangles,
    )


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


def assemble_raw(
    mesh: StructuredMesh,
    medium: ElasticMedium,
    omega: float,
    body_force=None,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble stiffness minus frequency-shifted mass, no boundary handling.

    Every lower (upper) triangle of the uniform mesh is a translate of the
    first (second) one, so their two element matrices are tiled over the cells.

    ``body_force``, if given, is a vectorized callable (x, y) -> (fx, fy);
    the load is integrated with the three-point edge-midpoint rule (exact
    for quadratics, leaving the P1 convergence order untouched).
    """
    area, grads = _element_geometry(mesh.nodes[mesh.triangles[:2]])
    mu, lam, rho = medium.lame_mu, medium.lame_lambda, medium.rho
    eye2 = np.eye(2)
    gg = np.einsum("tid,tjd->tij", grads, grads)
    gout = np.einsum("tia,tjb->tiajb", grads, grads)
    mass3 = (np.ones((3, 3)) + np.eye(3)) / 12.0

    ke = mu * area[:, None, None, None, None] * (
        gg[:, :, None, :, None] * eye2[None, None, :, None, :]
    )
    ke = ke + (lam + mu) * area[:, None, None, None, None] * gout
    ke = ke - (rho * omega * omega) * area[:, None, None, None, None] * (
        mass3[None, :, None, :, None] * eye2[None, None, :, None, :]
    )

    nt = mesh.n_triangles
    corners = mesh.triangles.astype(np.int32)
    dofs = (2 * corners[:, :, None] + np.arange(2, dtype=np.int32)).reshape(nt, 6)
    n = 2 * mesh.n_nodes
    data = np.tile(ke.ravel(), nt // 2)  # triangles alternate lower, upper
    rows, cols = np.repeat(dofs.ravel(), 6), np.tile(dofs, 6).ravel()
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    rhs = np.zeros(n)
    if body_force is not None:
        pts = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
        area = _element_geometry(pts)[0]
        mids = 0.5 * (pts + np.roll(pts, -1, axis=1))  # edge midpoints 01, 12, 20
        force = np.stack(
            [np.broadcast_to(np.asarray(f, dtype=float), (nt, 3))
             for f in body_force(mids[..., 0], mids[..., 1])],
            axis=-1,
        )  # (nt, 3 edges, 2 components)
        # vertex i carries weight 1/2 on its incident edges i and i - 1
        load = 0.5 * (force + np.roll(force, 1, axis=1))
        load *= (area / 3.0)[:, None, None]
        np.add.at(rhs, dofs.reshape(-1), load.reshape(-1))
    return matrix, rhs


def assemble(
    mesh: StructuredMesh,
    medium: ElasticMedium,
    omega: float,
    body_force=None,
) -> AssembledSystem:
    """Assemble and apply the homogeneous Dirichlet condition on the whole
    outer boundary by row/column elimination with a unit diagonal."""
    matrix, rhs = assemble_raw(mesh, medium, omega, body_force)
    mask = np.repeat(mesh.boundary_node_mask(), 2)
    # every raw row stores its diagonal, so pinning it adds no entry
    matrix.data[np.repeat(mask, np.diff(matrix.indptr)) | mask[matrix.indices]] = 0.0
    pinned = np.flatnonzero(mask)
    matrix[pinned, pinned] = 1.0
    matrix.eliminate_zeros()
    rhs = np.where(mask, 0.0, rhs)
    return AssembledSystem(
        matrix=matrix, rhs=rhs, dirichlet_mask=mask, mesh=mesh
    )


def _l2_norm(v: np.ndarray, weight: float = 1.0) -> float:
    """sqrt(weight * sum |v|^2) of a vector (``np.linalg.norm`` for unit
    weight), finite whenever that value is: only when the squares
    overflow is it recomputed from v / max|v|, so finite sums keep their
    bits."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(weight * float(np.vdot(v, v).real))
    if not math.isfinite(norm):  # overflowing complex squares give nan
        peak = float(np.max(np.abs(v)))
        if math.isfinite(peak):
            scaled = v / peak
            norm = peak * math.sqrt(weight * float(np.vdot(scaled, scaled).real))
    return norm


def _checked_solve(lu, matrix, rhs: np.ndarray) -> np.ndarray:
    """``lu.solve(rhs)`` with the relative residual against ``matrix``
    checked against 1e-10 (a residual that is not a number fails the
    check); raises `SingularSystemError` on failure."""
    x = lu.solve(rhs)
    rhs_norm = _l2_norm(rhs)
    if rhs_norm > 0.0:
        rel = _l2_norm(matrix @ x - rhs) / rhs_norm
        if not rel <= 1e-10:
            raise SingularSystemError(
                f"direct solve residual {rel:.3e} exceeds 1e-10; "
                "the system is numerically singular or badly scaled"
            )
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


def write_table(path, header_lines, names, columns) -> None:
    """Write equal-length columns as a CSV table under ``# `` header lines:
    float columns with 17 significant digits (they read back to the same
    doubles), any other column with ``str``.  Rows are formatted and
    written in blocks of `_TABLE_BLOCK_ROWS`, so the memory the text takes
    does not grow with the row count."""
    columns = [np.asarray(column) for column in columns]
    if len(names) != len(columns) or len({c.shape for c in columns}) > 1:
        raise ValueError(
            f"{len(names)} names for columns of shapes {[c.shape for c in columns]}"
        )
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
    write_table(
        path, header_lines, ["node", "x", "y", "u_x", "u_y"],
        [np.arange(mesh.n_nodes), mesh.nodes[:, 0], mesh.nodes[:, 1], u[0::2], u[1::2]],
    )


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
    Raises ValueError on a bad magic or version, or on a file whose length
    is not the header plus 32 bytes per node."""
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
    if len(blob) != head + 32 * n_nodes:
        raise ValueError(
            f"expected {head + 32 * n_nodes} bytes for {n_nodes} nodes, got {len(blob)}"
        )
    table = np.frombuffer(blob, dtype="<f8", offset=head).reshape(n_nodes, 4)
    return {"version": version, "nx": nx, "ny": ny, "n_nodes": n_nodes}, table
