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

import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .analysis import ElasticMedium

__all__ = [
    "StructuredMesh",
    "AssembledSystem",
    "SingularSystemError",
    "build_mesh",
    "assemble_raw",
    "assemble",
    "factorize",
    "direct_solve",
    "interface_mode_amplitudes",
    "dominant_mode",
    "atomic_write",
    "export_solution_csv",
    "export_solution_binary",
    "read_solution_binary",
]

BINARY_MAGIC = b"ELSCHWZ1"
BINARY_VERSION = 1


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

    def node_index(self, i: int, j: int) -> int:
        """Node id of grid position (column i, row j)."""
        return j * (self.nx + 1) + i

    def node_columns(self) -> np.ndarray:
        """Column index i of every node, in node order."""
        return np.arange(self.n_nodes) % (self.nx + 1)

    def boundary_node_mask(self) -> np.ndarray:
        """True for nodes on the outer boundary of the rectangle."""
        i = self.node_columns()
        j = np.arange(self.n_nodes) // (self.nx + 1)
        return (i == 0) | (i == self.nx) | (j == 0) | (j == self.ny)


def build_mesh(
    x_range: tuple[float, float], y_range: tuple[float, float], nx: int, ny: int
) -> StructuredMesh:
    """Build the structured triangulated rectangle."""
    x_min, x_max = float(x_range[0]), float(x_range[1])
    y_min, y_max = float(y_range[0]), float(y_range[1])
    if not (x_max > x_min and y_max > y_min):
        raise ValueError(f"degenerate ranges x={x_range}, y={y_range}")
    if nx < 1 or ny < 1:
        raise ValueError(f"need nx, ny >= 1, got nx={nx}, ny={ny}")
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
    _lu: object = field(default=None, repr=False, compare=False)

    @property
    def n_dofs(self) -> int:
        return self.matrix.shape[0]


def assemble_raw(
    mesh: StructuredMesh,
    medium: ElasticMedium,
    omega: float,
    body_force=None,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble stiffness minus frequency-shifted mass, no boundary handling.

    ``body_force``, if given, is a vectorized callable (x, y) -> (fx, fy);
    the load is integrated with the three-point edge-midpoint rule (exact
    for quadratics, leaving the P1 convergence order untouched).
    """
    pts = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
    nt = pts.shape[0]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    # P1 gradients: phi_i = (a_i + b_i x + c_i y) / (2 area)
    b = np.stack(
        [
            pts[:, 1, 1] - pts[:, 2, 1],
            pts[:, 2, 1] - pts[:, 0, 1],
            pts[:, 0, 1] - pts[:, 1, 1],
        ],
        axis=1,
    )
    c = np.stack(
        [
            pts[:, 2, 0] - pts[:, 1, 0],
            pts[:, 0, 0] - pts[:, 2, 0],
            pts[:, 1, 0] - pts[:, 0, 0],
        ],
        axis=1,
    )
    grads = np.stack([b, c], axis=2) / (2.0 * area)[:, None, None]  # (nt, 3, 2)

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

    dofs = (2 * mesh.triangles[:, :, None] + np.arange(2)).reshape(nt, 6)
    rows = np.broadcast_to(dofs[:, :, None], (nt, 6, 6)).ravel()
    cols = np.broadcast_to(dofs[:, None, :], (nt, 6, 6)).ravel()
    n = 2 * mesh.n_nodes
    matrix = sp.coo_matrix(
        (ke.reshape(-1), (rows, cols)), shape=(n, n)
    ).tocsr()

    rhs = np.zeros(n)
    if body_force is not None:
        mids = 0.5 * (pts + np.roll(pts, -1, axis=1))  # edge midpoints 01, 12, 20
        fx, fy = body_force(mids[..., 0], mids[..., 1])
        fx = np.broadcast_to(np.asarray(fx, dtype=float), (nt, 3))
        fy = np.broadcast_to(np.asarray(fy, dtype=float), (nt, 3))
        load = np.zeros((nt, 3, 2))
        for comp, f in enumerate((fx, fy)):
            # each vertex carries weight 1/2 on its two incident edges
            load[:, 0, comp] = 0.5 * (f[:, 0] + f[:, 2])
            load[:, 1, comp] = 0.5 * (f[:, 0] + f[:, 1])
            load[:, 2, comp] = 0.5 * (f[:, 1] + f[:, 2])
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
    node_mask = mesh.boundary_node_mask()
    mask = np.repeat(node_mask, 2)
    keep = sp.diags((~mask).astype(float))
    pin = sp.diags(mask.astype(float))
    eliminated = (keep @ matrix @ keep + pin).tocsr()
    eliminated.sum_duplicates()
    rhs = np.where(mask, 0.0, rhs)
    return AssembledSystem(
        matrix=eliminated, rhs=rhs, dirichlet_mask=mask, mesh=mesh
    )


def factorize(system: AssembledSystem):
    """Sparse LU of the system matrix, cached on the system for reuse.

    Uses SuperLU with its column approximate-minimum-degree ordering."""
    if system._lu is None:
        try:
            system._lu = splu(system.matrix.tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
    return system._lu


def direct_solve(system: AssembledSystem) -> np.ndarray:
    """Solve the assembled system for its stored load vector.

    The factorization is kept on the system object so repeated subdomain
    solves reuse it; the relative residual is checked against 1e-10.
    """
    lu = factorize(system)
    x = lu.solve(system.rhs)
    rhs_norm = float(np.linalg.norm(system.rhs))
    if rhs_norm > 0.0:
        rel = float(np.linalg.norm(system.matrix @ x - system.rhs)) / rhs_norm
        if rel > 1e-10:
            raise SingularSystemError(
                f"direct solve residual {rel:.3e} exceeds 1e-10; "
                "the system is numerically singular or badly scaled"
            )
    return x


def interface_mode_amplitudes(trace: np.ndarray, ny: int) -> np.ndarray:
    """Discrete sine amplitudes of a trace on ny+1 equidistant nodes.

    Returns the coefficients a_j of sin(j*pi*y), j = 1..ny-1, so that a
    trace equal to sin(j*pi*y) at the nodes comes back as a unit a_j.
    The end values of the trace do not enter (the sine basis vanishes
    there).
    """
    trace = np.asarray(trace, dtype=float)
    if trace.shape != (ny + 1,):
        raise ValueError(
            f"trace must have ny+1 = {ny + 1} samples, got shape {trace.shape}"
        )
    m = np.arange(1, ny)
    j = np.arange(1, ny)
    sines = np.sin(np.pi * np.outer(j, m) / ny)
    return (2.0 / ny) * (sines @ trace[1:ny])


def dominant_mode(amplitudes: np.ndarray) -> int:
    """Mode index j with the largest |a_j| (1-based); 0 for an empty set."""
    amplitudes = np.asarray(amplitudes)
    if amplitudes.size == 0:
        return 0
    return int(np.argmax(np.abs(amplitudes))) + 1


def atomic_write(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temporary file and a rename,
    so a reader never sees a partly written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def export_solution_csv(
    mesh: StructuredMesh, u: np.ndarray, path, header_lines=()
) -> None:
    """Write (node, x, y, u_x, u_y) rows with 17 significant digits."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2 * mesh.n_nodes,):
        raise ValueError(f"expected {2 * mesh.n_nodes} dofs, got shape {u.shape}")
    lines = [f"# {line}" for line in header_lines]
    lines.append("node,x,y,u_x,u_y")
    for n in range(mesh.n_nodes):
        x, y = mesh.nodes[n]
        lines.append(
            f"{n},{x:.17g},{y:.17g},{u[2 * n]:.17g},{u[2 * n + 1]:.17g}"
        )
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def export_solution_binary(mesh: StructuredMesh, u: np.ndarray, path) -> None:
    """Binary dump: magic 'ELSCHWZ1', u32 version, u32 nx, u32 ny,
    u32 node count, then (x, y, u_x, u_y) little-endian doubles per node."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2 * mesh.n_nodes,):
        raise ValueError(f"expected {2 * mesh.n_nodes} dofs, got shape {u.shape}")
    header = struct.pack(
        "<8sIIII", BINARY_MAGIC, BINARY_VERSION, mesh.nx, mesh.ny, mesh.n_nodes
    )
    table = np.column_stack([mesh.nodes, u[0::2], u[1::2]]).astype("<f8")
    atomic_write(path, header + table.tobytes())


def read_solution_binary(path) -> tuple[dict, np.ndarray]:
    """Read a binary dump back; returns (metadata, (n_nodes, 4) table)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, nx, ny, n_nodes = struct.unpack_from("<8sIIII", blob, 0)
    if magic != BINARY_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != BINARY_VERSION:
        raise ValueError(f"unsupported version {version}")
    table = np.frombuffer(blob, dtype="<f8", offset=struct.calcsize("<8sIIII"))
    table = table.reshape(n_nodes, 4)
    return {"version": version, "nx": nx, "ny": ny, "n_nodes": n_nodes}, table
