import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elastic_schwarz import fem
from elastic_schwarz.fem import (
    assemble,
    assemble_raw,
    build_mesh,
    direct_solve,
    dominant_mode,
    interface_mode_amplitudes,
)

PI = math.pi


def manufactured_force(medium, omega):
    lam, mu, rho = medium.lame_lambda, medium.lame_mu, medium.rho

    def body_force(x, y):
        fx = (PI**2 * (lam + 3 * mu) - rho * omega**2) * np.sin(PI * x) * np.sin(PI * y)
        fy = -(lam + mu) * PI**2 * np.cos(PI * x) * np.cos(PI * y)
        return fx, fy

    return body_force


def manufactured_error(medium, omega, nx):
    mesh = build_mesh((0.0, 1.0), (0.0, 1.0), nx, nx)
    system = assemble(mesh, medium, omega, manufactured_force(medium, omega))
    u = direct_solve(system)
    ex = u[0::2] - np.sin(PI * mesh.nodes[:, 0]) * np.sin(PI * mesh.nodes[:, 1])
    ey = u[1::2]
    return math.sqrt(mesh.hx * mesh.hy * float(np.sum(ex**2 + ey**2)))


def reference_assemble_raw(mesh, medium, omega, body_force=None):
    """Per-triangle P1 assembly through COO triplets: the oracle of
    `assemble_raw`, which folds the two element matrices of the uniform
    mesh into a node stencil instead.  It reads the cell split from
    ``mesh.triangles``, which `assemble_raw` does not read, and
    `TestBuildMesh` pins those to an explicit construction, so it checks
    the split of assembly independently."""
    pts = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
    nt = pts.shape[0]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
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
    matrix = sp.coo_matrix((ke.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()

    rhs = np.zeros(n)
    if body_force is not None:
        mids = 0.5 * (pts + np.roll(pts, -1, axis=1))
        fx, fy = body_force(mids[..., 0], mids[..., 1])
        fx = np.broadcast_to(np.asarray(fx, dtype=float), (nt, 3))
        fy = np.broadcast_to(np.asarray(fy, dtype=float), (nt, 3))
        load = np.zeros((nt, 3, 2))
        for comp, f in enumerate((fx, fy)):
            load[:, 0, comp] = 0.5 * (f[:, 0] + f[:, 2])
            load[:, 1, comp] = 0.5 * (f[:, 0] + f[:, 1])
            load[:, 2, comp] = 0.5 * (f[:, 1] + f[:, 2])
        load *= (area / 3.0)[:, None, None]
        np.add.at(rhs, dofs.reshape(-1), load.reshape(-1))
    return matrix, rhs


def reference_assemble(mesh, medium, omega, body_force=None):
    """`reference_assemble_raw` and Dirichlet elimination through two
    sparse products: the oracle of `assemble`."""
    matrix, rhs = reference_assemble_raw(mesh, medium, omega, body_force)
    mask = np.repeat(mesh.boundary_node_mask(), 2)
    keep = sp.diags((~mask).astype(float))
    pin = sp.diags(mask.astype(float))
    eliminated = (keep @ matrix @ keep + pin).tocsr()
    eliminated.sum_duplicates()
    return eliminated, np.where(mask, 0.0, rhs)


def explicit_nodes_and_triangles(x_range, y_range, nx, ny):
    """The node and triangle arrays built out corner by corner: x fastest,
    each cell's lower triangle (ll, lr, ur) before its upper one (ll, ur, ul)."""
    gx, gy = np.meshgrid(np.linspace(*x_range, nx + 1), np.linspace(*y_range, ny + 1))
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    ll = (jj * (nx + 1) + ii).ravel()
    lr, ul = ll + 1, ll + (nx + 1)
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ul + 1])
    triangles[1::2] = np.column_stack([ll, ul + 1, ul])
    return nodes, triangles


class TestBuildMesh:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (3, 2), (40, 20)])
    def test_arrays_match_the_explicit_construction(self, nx, ny):
        mesh = build_mesh((-1.0, 0.7), (0.1, 1.3), nx, ny)
        nodes, triangles = explicit_nodes_and_triangles((-1.0, 0.7), (0.1, 1.3), nx, ny)
        for got, want in ((mesh.nodes, nodes), (mesh.triangles, triangles)):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        assert mesh.triangles.shape == (mesh.n_triangles, 3)
        assert mesh.nodes.shape == (mesh.n_nodes, 2)

    def test_mesh_is_a_value(self):
        mesh = build_mesh((-1, 1), (0, 1), 40, 20)
        same = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        assert mesh == same and hash(mesh) == hash(same)
        assert mesh != build_mesh((-1.0, 1.0), (0.0, 1.0), 41, 20)
        assert [f.name for f in dataclasses.fields(mesh)] == ["x_range", "y_range", "nx", "ny"]
        assert mesh.nodes.size and mesh.triangles.size  # built, but not compared
        assert mesh == same and hash(mesh) == hash(same)

    def test_building_allocates_no_array(self):
        # the node and triangle arrays of this mesh would take about 128 MB
        tracemalloc.start()
        try:
            mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 2000, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert mesh.n_nodes == 2001 * 1001

    def test_assembly_builds_no_array(self, medium):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        assemble(mesh, medium, 5.0)
        assert "nodes" not in mesh.__dict__ and "triangles" not in mesh.__dict__

    def test_reference_mesh_counts(self):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 80, 40)
        assert mesh.n_nodes == 3321
        assert mesh.n_triangles == 6400
        assert 2 * mesh.n_nodes == 6642

    def test_unit_cell(self):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 1, 1)
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2

    def test_square_cells(self):
        mesh = build_mesh((0.0, 2.0), (0.0, 1.0), 2, 1)
        assert mesh.hx == 1.0 and mesh.hy == 1.0
        assert mesh.n_triangles == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_mesh((0.0, 0.0), (0.0, 1.0), 4, 4)
        with pytest.raises(ValueError, match="nx"):
            build_mesh((0.0, 1.0), (0.0, 1.0), 0, 4)

    @pytest.mark.parametrize("args, field", [
        (((0.0, 0.0), (0.0, 1.0), 4, 4), "x_min/x_max"),
        (((0.0, 1.0), (1.0, 1.0), 4, 4), "y_min/y_max"),
        (((0.0, 1.0), (0.0, 1.0), 0, 4), "nx/ny"),
        (((0.0, 1.0), (0.0, 1.0), 4, -1), "nx/ny"),
        (((0.0, 1.0), (0.0, 1.0), 40_000, 30_000), "nx/ny"),
    ])
    def test_check_mesh_names_the_field(self, args, field):
        with pytest.raises(ValueError) as exc_info:
            fem.check_mesh(*args)
        assert str(exc_info.value).startswith(f"{field}: ")

    def test_rejects_dofs_past_int32_before_allocating(self):
        # 2 * 50001**2 dofs: their matrix alone would take hundreds of GB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="nx=50000, ny=50000"):
                build_mesh((0.0, 1.0), (0.0, 1.0), 50_000, 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_size_limit_at_its_edge(self):
        # at most 14 CSR entries a dof: 14 * 153,370,098 fits int32, 14 *
        # 153,405,128 does not; arithmetic only, nothing is allocated
        fem.check_mesh((0.0, 1.0), (0.0, 1.0), 8756, 8756)
        with pytest.raises(ValueError) as exc_info:
            fem.check_mesh((0.0, 1.0), (0.0, 1.0), 8757, 8757)
        assert str(exc_info.value).startswith("nx/ny: nx=8757, ny=8757 give 153405128 dofs")

    @given(
        nx=st.integers(1, 8),
        ny=st.integers(1, 8),
        x0=st.floats(-2.0, 0.0),
        width=st.floats(0.5, 3.0),
    )
    @settings(max_examples=40)
    def test_geometry_invariants(self, nx, ny, x0, width):
        mesh = build_mesh((x0, x0 + width), (0.0, 1.0), nx, ny)
        pts = mesh.nodes[mesh.triangles]
        twice_area = (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1]) - (
            pts[:, 2, 0] - pts[:, 0, 0]
        ) * (pts[:, 1, 1] - pts[:, 0, 1])
        assert np.all(twice_area > 0)  # counterclockwise
        np.testing.assert_allclose(twice_area, mesh.hx * mesh.hy, rtol=1e-12)
        assert np.sum(twice_area) / 2.0 == pytest.approx(width * 1.0, rel=1e-12)


class TestAssemble:
    @given(
        nx=st.integers(1, 12),
        ny=st.integers(1, 12),
        x0=st.floats(-2.0, 0.0),
        width=st.floats(0.5, 3.0),
        y0=st.floats(-2.0, 0.0),
        height=st.floats(0.5, 3.0),
        omega=st.sampled_from([0.0, 1.0, 5.0]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_per_triangle_oracle(self, medium, nx, ny, x0, width, y0, height, omega):
        # the raw matrix stores the exact zeros of the triplet sum, the
        # eliminated one drops them; summation order moves the last bits
        mesh = build_mesh((x0, x0 + width), (y0, y0 + height), nx, ny)
        force = manufactured_force(medium, omega)
        system = assemble(mesh, medium, omega, force)
        for (got, got_rhs), reference in (
            (assemble_raw(mesh, medium, omega, force), reference_assemble_raw),
            ((system.matrix, system.rhs), reference_assemble),
        ):
            want, want_rhs = reference(mesh, medium, omega, force)
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max() <= 1e-13 * np.abs(want.data).max()
            np.testing.assert_array_equal(got_rhs, want_rhs)

    @pytest.mark.parametrize("omega", [0.0, 5.0])
    @pytest.mark.parametrize("nx, ny", [(1, 1), (2, 5), (40, 20)])
    def test_matrix_is_canonical_csr(self, medium, nx, ny, omega):
        # `schwarz._rows_mirror` compares stored patterns: sorted,
        # duplicate-free int32 indices and no stored zero (omega 0 sums some)
        matrix = assemble(build_mesh((-1.0, 1.0), (0.0, 1.0), nx, ny), medium, omega).matrix
        assert matrix.has_canonical_format
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        assert np.all(matrix.data != 0.0)

    @pytest.mark.parametrize("omega", [0.0, 5.0])
    def test_broadcast_load_matches_per_triangle_oracle(self, medium, omega):
        # a force returning scalars or one component per triangle is
        # broadcast over the edge midpoints before the vertex weights
        mesh = build_mesh((-1.0, 0.5), (0.0, 1.0), 7, 5)

        def force(x, y):
            return 2.5, np.cos(x[:, :1] + y[:, :1])

        _, want_rhs = reference_assemble(mesh, medium, omega, force)
        np.testing.assert_array_equal(assemble(mesh, medium, omega, force).rhs, want_rhs)

    def test_peak_memory_is_a_few_matrices(self, medium):
        # the per-triangle assembly peaked at 14.0 times the returned CSR
        # arrays at this size, the tiled COO one at 7.26, the node stencil 2.21
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 160, 80)
        tracemalloc.start()
        try:
            matrix = assemble(mesh, medium, 5.0).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert peak <= 3.0 * size

    def test_symmetry_before_elimination(self, medium):
        matrix, _ = assemble_raw(build_mesh((0.0, 1.0), (0.0, 1.0), 8, 8), medium, 1.0)
        dev = np.abs((matrix - matrix.T).toarray()).max()
        assert dev < 1e-12 * np.abs(matrix.toarray()).max()

    def test_positive_definite_at_omega_zero(self, medium):
        system = assemble(build_mesh((0.0, 1.0), (0.0, 1.0), 6, 6), medium, 0.0)
        free = ~system.dirichlet_mask
        dense = system.matrix[free][:, free].toarray()
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert eigs.min() > 0.0

    def test_dirichlet_rows_are_pinned(self, medium):
        system = assemble(build_mesh((0.0, 1.0), (0.0, 1.0), 5, 5), medium, 1.0)
        dense = system.matrix.toarray()
        for dof in np.flatnonzero(system.dirichlet_mask):
            row = dense[dof].copy()
            col = dense[:, dof].copy()
            assert row[dof] == 1.0
            row[dof] = 0.0
            col[dof] = 0.0
            assert not row.any() and not col.any()
        assert not system.rhs[system.dirichlet_mask].any()

    def test_constant_field_residual_is_local_to_boundary(self, medium):
        # at omega=0 stiffness annihilates constants, so A @ const is
        # nonzero only where the eliminated boundary columns broke it
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 8, 8)
        system = assemble(mesh, medium, 0.0)
        residual = system.matrix @ np.ones(system.n_dofs)
        i = np.repeat(np.arange(mesh.n_nodes) % (mesh.nx + 1), 2)
        j = np.repeat(np.arange(mesh.n_nodes) // (mesh.nx + 1), 2)
        layer = np.minimum(np.minimum(i, mesh.nx - i), np.minimum(j, mesh.ny - j))
        deep = layer >= 2
        assert np.abs(residual[deep]).max() < 1e-12
        assert np.abs(residual[layer == 1]).max() > 1e-3

    def test_galerkin_energy_consistency(self, medium):
        # nodal interpolant energy approaches the continuous bilinear form
        # of u = (sin(pi x) sin(pi y), 0) at second order
        exact = (
            medium.lame_mu * PI**2 / 2.0
            + (medium.lame_lambda + medium.lame_mu) * PI**2 / 4.0
        )
        errs = []
        for nx in (8, 16, 32):
            mesh = build_mesh((0.0, 1.0), (0.0, 1.0), nx, nx)
            matrix, _ = assemble_raw(mesh, medium, 0.0)
            v = np.zeros(2 * mesh.n_nodes)
            v[0::2] = np.sin(PI * mesh.nodes[:, 0]) * np.sin(PI * mesh.nodes[:, 1])
            errs.append(abs(v @ (matrix @ v) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_manufactured_solution_order_two(self, medium):
        errs = [manufactured_error(medium, 1.0, nx) for nx in (10, 20, 40)]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


class TestDirectSolve:
    def test_identity_system_returns_rhs(self, medium):
        import scipy.sparse as sp

        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
        rhs = np.arange(2.0 * mesh.n_nodes)
        system = fem.AssembledSystem(
            matrix=sp.identity(2 * mesh.n_nodes, format="csr"),
            rhs=rhs,
            dirichlet_mask=np.zeros(2 * mesh.n_nodes, dtype=bool),
            mesh=mesh,
        )
        np.testing.assert_array_equal(direct_solve(system), rhs)

    def test_manufactured_residual(self, medium):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 20, 20)
        system = assemble(mesh, medium, 1.0, manufactured_force(medium, 1.0))
        x = direct_solve(system)
        rel = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(
            system.rhs
        )
        assert rel < 1e-10

    def test_fully_clamped_single_cell(self, medium):
        # every node Dirichlet: the eliminated system is the identity
        system = assemble(build_mesh((0.0, 1.0), (0.0, 1.0), 1, 1), medium, 0.0)
        assert system.dirichlet_mask.all()
        np.testing.assert_array_equal(direct_solve(system), np.zeros(8))

    def test_residual_check_survives_overflowing_norms(self, monkeypatch):
        # the squares of a load scaled by 1e200 overflow; a factor that
        # returns half the answer must still fail the residual check
        class HalfSolve:
            def solve(self, b):
                return 0.5 * b

        monkeypatch.setattr(fem, "splu", lambda matrix: HalfSolve())
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
        for scale in (1.0, 1e200):
            system = fem.AssembledSystem(
                matrix=sp.identity(2 * mesh.n_nodes, format="csr"),
                rhs=scale * np.arange(1.0, 2.0 * mesh.n_nodes + 1.0),
                dirichlet_mask=np.zeros(2 * mesh.n_nodes, dtype=bool),
                mesh=mesh,
            )
            with pytest.raises(fem.SingularSystemError, match="residual"):
                direct_solve(system)

    def test_nan_residual_fails_the_check(self, monkeypatch):
        # a factor that returns NaN, and the real factor on a load holding
        # one NaN (a body force that is NaN on part of the mesh)
        class NanSolve:
            def solve(self, b):
                return np.full_like(b, np.nan)

        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
        nan_load = np.ones(2 * mesh.n_nodes)
        nan_load[3] = np.nan
        for factor, load in ((NanSolve, np.ones(2 * mesh.n_nodes)), (None, nan_load)):
            system = fem.AssembledSystem(
                matrix=sp.identity(2 * mesh.n_nodes, format="csr"),
                rhs=load,
                dirichlet_mask=np.zeros(2 * mesh.n_nodes, dtype=bool),
                mesh=mesh,
            )
            with monkeypatch.context() as patch:
                if factor is not None:
                    patch.setattr(fem, "splu", lambda matrix: factor())
                with pytest.raises(fem.SingularSystemError, match="residual"):
                    direct_solve(system)

    def test_failed_factorization_is_singular(self, medium, monkeypatch):
        def fail(matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(fem, "splu", fail)
        system = assemble(build_mesh((0.0, 1.0), (0.0, 1.0), 2, 2), medium, 1.0)
        with pytest.raises(fem.SingularSystemError, match="sparse factorization failed"):
            direct_solve(system)

    def test_replaced_matrix_solves_its_own_system(self, medium):
        # a system copied with another matrix must not solve with the
        # factor of the original one
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 6, 6)
        system = assemble(mesh, medium, 1.0, manufactured_force(medium, 1.0))
        u = direct_solve(system)
        doubled = dataclasses.replace(system, matrix=2.0 * system.matrix)
        np.testing.assert_allclose(direct_solve(doubled), 0.5 * u, rtol=1e-12, atol=0.0)


class TestInterfaceModeAmplitudes:
    def test_pure_mode_recovered(self):
        ny = 40
        trace = np.sin(PI * np.linspace(0.0, 1.0, ny + 1))
        amps = interface_mode_amplitudes(trace, ny)
        assert amps[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(amps[1:]).max() < 1e-12
        assert dominant_mode(amps) == 1

    def test_second_mode(self):
        ny = 40
        trace = np.sin(2.0 * PI * np.linspace(0.0, 1.0, ny + 1))
        amps = interface_mode_amplitudes(trace, ny)
        assert amps[1] == pytest.approx(1.0, abs=1e-12)
        assert dominant_mode(amps) == 2

    def test_zero_trace(self):
        amps = interface_mode_amplitudes(np.zeros(11), 10)
        assert not amps.any()
        assert dominant_mode(amps) == 0

    @given(
        coeffs=arrays(
            np.float64,
            7,
            elements=st.floats(-2.0, 2.0, allow_nan=False),
        )
    )
    def test_synthesis_round_trip(self, coeffs):
        ny = 8
        y = np.linspace(0.0, 1.0, ny + 1)
        trace = sum(
            c * np.sin((j + 1) * PI * y) for j, c in enumerate(coeffs)
        )
        amps = interface_mode_amplitudes(trace, ny)
        np.testing.assert_allclose(amps, coeffs, rtol=0, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="samples"):
            interface_mode_amplitudes(np.zeros(10), 10)

    @pytest.mark.parametrize("ny", [2, 3, 40, 160])
    def test_matches_dense_sine_sum(self, ny):
        # the dense formula (2/ny) sum_m sin(j m pi/ny) trace_m; j m is
        # reduced mod 2 ny first, so the oracle's own sines are exact to
        # roundoff (unreduced, they lose about 1e-14 at ny = 160)
        trace = np.random.default_rng(ny).standard_normal(ny + 1)
        m = np.arange(1, ny)
        sines = np.sin(PI * (np.outer(m, m) % (2 * ny)) / ny)
        dense = (2.0 / ny) * (sines @ trace[1:ny])
        amps = interface_mode_amplitudes(trace, ny)
        assert np.abs(amps - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_complex_trace_is_real_plus_i_imaginary(self):
        ny, j = 40, 3
        trace = (1 + 2j) * np.sin(j * PI * np.linspace(0.0, 1.0, ny + 1))
        amps = interface_mode_amplitudes(trace, ny)
        assert amps.dtype == np.complex128
        assert amps[j - 1] == pytest.approx(1 + 2j, abs=1e-12)
        assert np.abs(np.delete(amps, j - 1)).max() < 1e-12
        np.testing.assert_array_equal(amps.real, interface_mode_amplitudes(trace.real, ny))
        np.testing.assert_array_equal(amps.imag, interface_mode_amplitudes(trace.imag, ny))

    @pytest.mark.parametrize("ny", [2, 3, 40, 160])
    def test_real_trace_keeps_its_bits(self, ny):
        # against the former real-only transform
        trace = np.random.default_rng(ny).standard_normal(ny + 1)
        inner = trace[1:ny]
        odd = np.concatenate([[0.0], inner, [0.0], -inner[::-1]])
        amps = interface_mode_amplitudes(trace, ny)
        assert amps.dtype == np.float64
        np.testing.assert_array_equal(amps, -np.fft.rfft(odd)[1:ny].imag / ny)

    @pytest.mark.parametrize("ny", [0, 1])
    def test_no_interior_node_gives_no_modes(self, ny):
        amps = interface_mode_amplitudes(np.ones(ny + 1), ny)
        assert amps.shape == (0,)
        assert dominant_mode(amps) == 0


class TestExports:
    def test_binary_round_trip(self, tmp_path, medium):
        mesh = build_mesh((0.0, 1.0), (0.0, 2.0), 3, 2)
        u = np.linspace(-1.0, 1.0, 2 * mesh.n_nodes)
        path = tmp_path / "field.bin"
        fem.export_solution_binary(mesh, u, path)
        meta, table = fem.read_solution_binary(path)
        assert meta == {"version": 1, "nx": 3, "ny": 2, "n_nodes": 12}
        np.testing.assert_array_equal(table[:, 0], mesh.nodes[:, 0])
        np.testing.assert_array_equal(table[:, 2], u[0::2])
        np.testing.assert_array_equal(table[:, 3], u[1::2])

    def test_csv_round_trip(self, tmp_path):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
        u = np.pi * np.linspace(-1.0, 1.0, 2 * mesh.n_nodes)
        path = tmp_path / "field.csv"
        fem.export_solution_csv(mesh, u, path, header_lines=["key=value"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# key=value"
        assert lines[1] == "node,x,y,u_x,u_y"
        parsed = [line.split(",") for line in lines[2:]]
        ux = np.array([float(p[3]) for p in parsed])
        np.testing.assert_array_equal(ux, u[0::2])  # 17 digits round-trip

    @pytest.mark.parametrize("export", ["export_solution_csv", "export_solution_binary"])
    def test_complex_field_is_refused(self, tmp_path, export):
        # the CSV columns and the binary version hold real fields only
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
        path = tmp_path / "field"
        with pytest.raises(ValueError, match="complex fields"):
            getattr(fem, export)(mesh, np.zeros(2 * mesh.n_nodes, dtype=complex), path)
        assert not path.exists()

    def test_dropping_an_imaginary_part_fails_a_test(self):
        # the test configuration makes numpy's ComplexWarning an error
        with pytest.raises(np.exceptions.ComplexWarning):
            np.asarray(np.array([1j]), dtype=float)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_write_table_matches_per_value_format(self, tmp_path_factory, data):
        kinds = data.draw(
            st.lists(st.sampled_from(["int", "float", "str"]), min_size=1, max_size=5)
        )
        values = {
            "int": st.integers(-(2**63), 2**63 - 1)
            | st.sampled_from([2**53 + 1, 2**63 - 1, -(2**63)]),
            "float": st.floats(allow_subnormal=True)
            | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310]),
            "str": st.text("abcxyz_-.", max_size=6),
        }
        dtypes = {"int": np.int64, "float": np.float64, "str": str}
        lists = [data.draw(st.lists(values[kind], min_size=12, max_size=12)) for kind in kinds]
        names = [f"c{i}" for i in range(len(kinds))]
        path = tmp_path_factory.mktemp("table") / "table.csv"

        def fmt(v):
            return f"{v:.17g}" if isinstance(v, float) else str(v)

        # blocks of 3 rows, so these row counts end on and across block edges
        for n_rows in (0, 1, 2, 3, 4, 5, 7, 12):
            rows = [col[:n_rows] for col in lists]
            columns = [np.array(col, dtype=dtypes[kind]) for kind, col in zip(kinds, rows)]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fem, "_TABLE_BLOCK_ROWS", 3)
                fem.write_table(path, ["a=1", "b=x"], dict(zip(names, columns)))
            expected = ["# a=1", "# b=x", ",".join(names)]
            expected += [",".join(fmt(v) for v in row) for row in zip(*rows)]
            assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_write_table_without_rows_or_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        fem.write_table(path, ["a=1"], {"x": np.zeros(0), "n": np.zeros(0, dtype=int)})
        assert path.read_bytes() == b"# a=1\nx,n\n"
        fem.write_table(path, ["a=1"], {})
        assert path.read_bytes() == b"# a=1\n\n"

    def test_write_table_rejects_unequal_columns(self, tmp_path, monkeypatch):
        def no_write(path, chunks):
            raise AssertionError("a file was opened before the columns were checked")

        monkeypatch.setattr(fem, "atomic_write", no_write)
        with pytest.raises(ValueError, match="unequal shapes"):
            fem.write_table(tmp_path / "t.csv", [], {"a": np.zeros(3), "b": np.zeros(2)})
        assert list(tmp_path.iterdir()) == []

    def test_failed_stream_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")

        def chunks():
            yield b"new\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            fem.atomic_write(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "edit, size",
        [(lambda blob: blob[:10], 10), (lambda blob: blob[:-5], 403),
         (lambda blob: blob + bytes(8), 416)],
        ids=["short", "truncated", "padded"],
    )
    def test_binary_rejects_wrong_length(self, tmp_path, edit, size):
        mesh = build_mesh((0.0, 1.0), (0.0, 2.0), 3, 2)
        path = tmp_path / "field.bin"
        fem.export_solution_binary(mesh, np.zeros(2 * mesh.n_nodes), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=f"expected .*, got {size}"):
            fem.read_solution_binary(path)

    @pytest.mark.parametrize(
        "offset, field, message",
        [(0, b"ELSCHWZ0", "bad magic b'ELSCHWZ0'"),
         (8, (2).to_bytes(4, "little"), "unsupported version 2"),
         (20, (4).to_bytes(4, "little"), "4 nodes do not make a 3x2 mesh"),
         (12, bytes(12), "0 nodes do not make a 0x0 mesh")],
        ids=["magic", "version", "node-count", "empty"],
    )
    def test_binary_rejects_wrong_header(self, tmp_path, offset, field, message):
        # the file keeps the length its header's node count asks for
        mesh = build_mesh((0.0, 1.0), (0.0, 2.0), 3, 2)
        path = tmp_path / "field.bin"
        fem.export_solution_binary(mesh, np.zeros(2 * mesh.n_nodes), path)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(field)] = field
        n_nodes = int.from_bytes(blob[20:24], "little")
        path.write_bytes(bytes(blob[:24 + 32 * n_nodes]))
        with pytest.raises(ValueError, match=message):
            fem.read_solution_binary(path)

    def test_rejects_wrong_length(self, tmp_path):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 2, 2)
        with pytest.raises(ValueError, match="dofs"):
            fem.export_solution_binary(mesh, np.zeros(5), tmp_path / "x.bin")
