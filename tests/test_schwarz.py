import dataclasses
import gc
import math
import os
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from elastic_schwarz import fem, schwarz
from elastic_schwarz.fem import _l2_norm, assemble, build_mesh
from elastic_schwarz.schwarz import (
    BudgetExceededError,
    RestrictedSolve,
    decompose,
    gmres,
    interface_unknowns,
    preconditioned_operator,
    ras_apply,
    schwarz_iterate,
    seeded_initial_guess,
    single_domain,
    spectrum,
    stationary_ras,
)


@pytest.fixture(scope="module")
def small_setup(medium):
    """40x20 mesh of the reference rectangle, 4-cell overlap, omega=1."""
    mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
    system = assemble(mesh, medium, 1.0)
    return system, decompose(mesh, 4)


class TestDecompose:
    def test_reference_geometry(self):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 80, 40)
        dec = decompose(mesh, 4)
        xs = mesh.nodes[:, 0]
        left, right = dec.subdomains
        assert xs[left.interior_free // 2].max() < 0.05
        assert xs[left.interface_free // 2] == pytest.approx(0.05, abs=1e-12)
        assert xs[right.interior_free // 2].min() > -0.05
        assert xs[right.interface_free // 2] == pytest.approx(-0.05, abs=1e-12)

    def test_minimal_overlap(self):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 4)
        dec = decompose(mesh, 2)
        xs = mesh.nodes[:, 0]
        left, right = dec.subdomains
        assert xs[left.interface_free // 2] == pytest.approx(0.25, abs=1e-12)
        assert xs[right.interface_free // 2] == pytest.approx(-0.25, abs=1e-12)

    def test_rejects_odd_overlap(self):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 4)
        with pytest.raises(ValueError, match="even"):
            decompose(mesh, 3)

    def test_rejects_whole_domain_overlap(self):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 4)
        with pytest.raises(ValueError, match="proper subset"):
            decompose(mesh, 16)

    def test_rejects_mesh_without_midline(self):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 8, 4)
        with pytest.raises(ValueError, match="midline"):
            decompose(mesh, 2)

    def test_partition_of_unity(self, small_setup):
        system, dec = small_setup
        cover = np.zeros(system.n_dofs, dtype=int)
        for sub in dec.subdomains:
            assert np.isin(sub.owned_free, sub.interior_free).all()
            cover[sub.owned_free] += 1
        free = ~system.dirichlet_mask
        assert (cover[free] == 1).all()  # disjoint and complete


class TestSchwarzIterate:
    def test_zero_start_is_fixed_point(self, small_setup):
        system, dec = small_setup
        final, history = schwarz_iterate(system, dec, np.zeros(system.n_dofs), 5)
        assert not final.any()
        assert not history.err_max.any()
        assert len(history) == 6

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        half_nx=st.integers(4, 10),
        ny=st.integers(3, 8),
        half_overlap=st.integers(1, 3),
        omega=st.floats(0.5, 5.0),
        one_domain=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_stationary_ras(
        self, medium, half_nx, ny, half_overlap, omega, one_domain, seed
    ):
        # the glued parallel sweep and the preconditioned Richardson update
        # are the same algorithm: Richardson from zero towards x* runs the
        # sweep's error from -x*
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 2 * half_nx, ny)
        system = assemble(mesh, medium, omega)
        dec = (
            single_domain(mesh) if one_domain
            else decompose(mesh, 2 * min(half_overlap, half_nx - 1))
        )
        exact = seeded_initial_guess(system, seed=seed)
        iterate, history = schwarz_iterate(system, dec, -exact, 8)
        x, _ = stationary_ras(RestrictedSolve(system, dec), system.matrix @ exact, 8)
        error = x - exact
        scale = max(1.0, float(np.abs(iterate).max()))
        assert np.abs(error - iterate).max() < 1e-10 * scale
        mods = np.hypot(error[0::2], error[1::2])
        assert history.err_max[-1] == pytest.approx(mods.max(), rel=1e-10)

    def test_rejects_a_loaded_system(self, small_setup):
        # the sweep iterates the error equation, whose load is zero
        system, dec = small_setup
        loaded = dataclasses.replace(system, rhs=np.ones(system.n_dofs))
        with pytest.raises(ValueError, match="load must be zero"):
            schwarz_iterate(loaded, dec, np.zeros(system.n_dofs), 2)

    def test_unowned_dofs_keep_their_value(self, small_setup):
        # without Dirichlet rows the boundary dofs are free but no
        # subdomain owns them: M^-1 is zero there, so the sweep keeps them
        import scipy.sparse as sp

        system, dec = small_setup
        identity = fem.AssembledSystem(
            matrix=sp.identity(system.n_dofs, format="csr"),
            rhs=np.zeros(system.n_dofs),
            dirichlet_mask=np.zeros(system.n_dofs, dtype=bool),
            mesh=system.mesh,
        )
        start = np.random.default_rng(6).standard_normal(system.n_dofs)
        final, _ = schwarz_iterate(identity, dec, start, 2)
        owned = np.zeros(system.n_dofs, dtype=bool)
        for sub in dec.subdomains:
            owned[sub.owned_free] = True
        assert not final[owned].any()
        np.testing.assert_array_equal(final[~owned], start[~owned])

    def test_decomposition_does_not_keep_the_system_alive(self, medium):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 4)
        dec = decompose(mesh, 2)
        system = assemble(mesh, medium, 1.0)
        schwarz_iterate(system, dec, seeded_initial_guess(system, seed=1), 2)
        preconditioned_operator(system, dec)
        ras_apply(RestrictedSolve(system, dec), system.rhs)
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_history_lengths(self, small_setup):
        system, dec = small_setup
        _, history = schwarz_iterate(
            system, dec, seeded_initial_guess(system, seed=1), 3
        )
        for field in (history.err_max, history.err_l2,
                      history.dominant_mode, history.mode_amplitude):
            assert field.shape == (4,)

    def test_stops_before_nonfinite_iterate(self, medium):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        start = seeded_initial_guess(system, seed=1, max_modulus=1e300)
        final, history = schwarz_iterate(system, decompose(mesh, 4), start, 25)
        assert 0 < len(history) < 26
        for field in (history.err_max, history.err_l2, history.mode_amplitude):
            assert field.shape == (len(history),) and np.isfinite(field).all()
        # past 1e154 the squares in err_l2 overflow; the norm does not
        assert history.err_l2[-1] > 1e300
        assert np.isfinite(final).all()
        assert np.hypot(final[0::2], final[1::2]).max() == history.err_max[-1]

    def test_overflowing_record_warns_nothing(self, medium):
        # the record of an overflowing iterate is not finite, which ends
        # the run; computing it must not warn
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        dec = decompose(mesh, 4)
        start = seeded_initial_guess(system, seed=1, max_modulus=1e300)
        _, quiet = schwarz_iterate(system, dec, start, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = schwarz_iterate(system, dec, start, 25)
        assert len(history) < 26
        for name in ("err_max", "err_l2", "dominant_mode", "mode_amplitude"):
            np.testing.assert_array_equal(getattr(history, name), getattr(quiet, name))

    def test_divergence_is_a_valid_outcome(self, medium):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        dec = decompose(mesh, 4)
        _, history = schwarz_iterate(
            system, dec, seeded_initial_guess(system, seed=1), 15
        )
        assert history.err_max[-1] > history.err_max[0]


class TestSeededInitialGuess:
    def test_scaling_and_boundary(self, small_setup):
        system, _ = small_setup
        start = seeded_initial_guess(system, seed=5)
        assert not start[system.dirichlet_mask].any()
        peak = np.max(np.hypot(start[0::2], start[1::2]))
        assert peak == pytest.approx(0.789, rel=1e-12)

    def test_deterministic(self, small_setup):
        system, _ = small_setup
        a = seeded_initial_guess(system, seed=5)
        b = seeded_initial_guess(system, seed=5)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - seeded_initial_guess(system, seed=6)).max() > 0

    def test_zero_amplitude(self, small_setup):
        system, _ = small_setup
        assert not seeded_initial_guess(system, seed=5, max_modulus=0.0).any()


class TestStationaryRas:
    def test_stops_before_nonfinite_residual(self, medium):
        # from 1e150 the residual grows ~3.3x per step and passes the
        # largest double after about 300 steps
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        rhs = system.matrix @ seeded_initial_guess(system, seed=1, max_modulus=1e150)
        x, history = stationary_ras(RestrictedSolve(system, decompose(mesh, 4)), rhs, 400)
        assert 51 < history.size < 401
        assert np.isfinite(history).all() and np.isfinite(x).all()

    def test_nonfinite_initial_residual_gives_empty_history(self, small_setup):
        system, dec = small_setup
        rhs = np.zeros(system.n_dofs)
        rhs[np.flatnonzero(~system.dirichlet_mask)[0]] = np.inf
        _, history = stationary_ras(RestrictedSolve(system, dec), rhs, 5)
        assert history.size == 0


class TestL2Norm:
    def test_plain_norm_bits_when_finite(self):
        v = np.random.default_rng(0).standard_normal(1000)
        assert _l2_norm(v) == np.linalg.norm(v)
        assert _l2_norm(v, 0.25) == math.sqrt(0.25 * float(np.dot(v, v)))

    def test_rescaled_when_the_squares_overflow(self):
        v = np.full(100, 1e200)
        assert _l2_norm(v) == pytest.approx(1e201, rel=1e-15)
        assert _l2_norm(v, 0.01) == pytest.approx(1e200, rel=1e-15)

    def test_rescaling_raises_no_overflow_warning(self, medium):
        # the preconditioned load of `gmres --nx 40 --ny 20 --omega 5
        # --initial-error 1e300`: its squares overflow, its norm does not
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        solve = RestrictedSolve(system, decompose(mesh, 4))
        target = seeded_initial_guess(system, seed=1870, max_modulus=1e300)
        b_pre = solve((system.matrix @ target)[solve.free])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _l2_norm(b_pre)
        assert 1e300 < norm < math.inf

    def test_rescaled_real_norm_bits(self):
        # the squares overflow: the bits of the former real sum np.dot(v, v)
        v = 1e200 * np.random.default_rng(1).standard_normal(1001)
        peak = np.abs(v).max()
        former = peak * math.sqrt(0.5 * float(np.dot(v / peak, v / peak)))
        assert _l2_norm(v, 0.5) == former

    def test_complex_input_is_the_modulus_norm(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
        assert _l2_norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-15)
        # the squares overflow: the rescaled branch
        assert _l2_norm(1e200 * v) == pytest.approx(1e200 * np.linalg.norm(v), rel=1e-14)

    def test_infinite_only_when_the_norm_is(self):
        assert _l2_norm(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2.0) * 1e308)
        assert _l2_norm(np.array([1.5e308, 1.5e308])) == math.inf
        assert _l2_norm(np.array([1.0, np.inf])) == math.inf


@pytest.fixture
def solved_columns(monkeypatch):
    """The width of each solve the subdomain factors of `schwarz` make
    (1 for a vector), in order."""
    counts = []
    original = schwarz.splu

    class Counting:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            counts.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return self.lu.solve(rhs)

    monkeypatch.setattr(
        schwarz, "splu", lambda *args, **kwargs: Counting(original(*args, **kwargs))
    )
    return counts


def raw_system(medium, scale=1.0):
    """The 40x20 strip at omega 1 without Dirichlet rows, its boundary dofs
    free and unowned; ``scale`` multiplies the coupling of one interior row
    that only the right subdomain holds to a dof on the wall x = 1."""
    mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
    matrix, _ = fem.assemble_raw(mesh, medium, 1.0)
    node = 10 * (mesh.nx + 1) + mesh.nx - 1  # next to the wall, mid-height
    assert matrix[2 * node, 2 * node + 2] != 0.0
    matrix[2 * node, 2 * node + 2] *= scale
    n = matrix.shape[0]
    system = fem.AssembledSystem(
        matrix=matrix, rhs=np.zeros(n), dirichlet_mask=np.zeros(n, dtype=bool), mesh=mesh
    )
    return system, decompose(mesh, 4)


def matched_deviation(a, b):
    """Largest |a_i - b_j| over the pairing of two multisets of
    eigenvalues that minimizes the total deviation."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    return cost[linear_sum_assignment(cost)].max()


def assert_pairs_about_one(eigs):
    """The spectrum of [[I, B0], [P B0 P, I]]: its eigenvalues come in
    pairs 1 +- mu."""
    assert matched_deviation(eigs - 1.0, 1.0 - eigs) < 1e-13


def reference_solve(system, dec, v, previous=None):
    """`RestrictedSolve` rebuilt from one `spsolve` per subdomain."""
    free = np.flatnonzero(~system.dirichlet_mask)
    pos = np.full(system.n_dofs, -1)
    pos[free] = np.arange(free.size)
    matrix = system.matrix.tocsr()
    z = np.zeros_like(v) if previous is None else previous.copy()
    for sub in dec.subdomains:
        rows = matrix[sub.interior_free]
        rhs = v[pos[sub.interior_free]]
        if previous is not None:
            rhs = rhs - rows[:, sub.interface_free] @ previous[pos[sub.interface_free]]
        x = spsolve(rows[:, sub.interior_free].tocsc(), rhs)
        z[pos[sub.owned_free]] = x[np.searchsorted(sub.interior_free, sub.owned_free)]
    return z


class TestSharedFactor:
    def test_mirrored_strip_factors_once(self, small_setup, factor_calls):
        RestrictedSolve(*small_setup)
        assert len(factor_calls) == 1

    @pytest.mark.parametrize(
        "case",
        [
            "asymmetric", "single_domain", "perturbed", "perturbed_offdiagonal",
            "perturbed_outside", "unreflected_mask", "stored_zero",
        ],
    )
    def test_fallback_factors_every_subdomain(self, medium, factor_calls, case):
        if case == "asymmetric":
            mesh = build_mesh((-1.0, 1.5), (0.0, 1.0), 50, 20)
        else:
            mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 1.0)
        dec = single_domain(mesh) if case == "single_domain" else decompose(mesh, 4)
        if case in ("perturbed", "perturbed_offdiagonal"):
            # a diagonal entry that only the right subdomain holds, or the
            # coupling of a right-interior dof to its left neighbour
            if case == "perturbed":
                row = col = dec.subdomains[1].interior_free[-1]
            else:
                col = 2 * (10 * (mesh.nx + 1) + 30)
                row = col + 2
                assert {row, col} <= set(dec.subdomains[1].interior_free)
            matrix = system.matrix.tocsr(copy=True)
            assert abs(matrix[row, col]) > 1e-3 * abs(matrix).max()
            matrix[row, col] *= 1.0 + 1e-9
            system = dataclasses.replace(system, matrix=matrix)
        if case == "perturbed_outside":
            # a coupling of a right-interior dof to a pinned dof on the wall
            # x = 1: on the Dirichlet strip the one kind of entry outside
            # the interior that no subdomain's interior block holds
            wall = 2 * (10 * (mesh.nx + 1) + mesh.nx)
            assert system.dirichlet_mask[wall]
            assert wall - 2 in dec.subdomains[1].interior_free
            matrix = system.matrix.tolil(copy=True)
            matrix[wall - 2, wall] = 1e-9 * abs(system.matrix).max()
            system = dataclasses.replace(system, matrix=matrix.tocsr())
        if case == "stored_zero":
            # an explicitly stored zero coupling two right-interior dofs:
            # the values mirror, the stored patterns do not
            row, col = dec.subdomains[1].interior_free[[0, -1]]
            coo = system.matrix.tocoo()
            assert system.matrix.tocsr()[row, col] == 0.0
            matrix = csr_matrix(
                (np.append(coo.data, 0.0), (np.append(coo.row, row), np.append(coo.col, col))),
                shape=coo.shape,
            )
            assert matrix.nnz == system.matrix.nnz + 1
            system = dataclasses.replace(system, matrix=matrix)
        if case == "unreflected_mask":
            # a free dof on the wall x = -1 whose reflection stays pinned
            mask = system.dirichlet_mask.copy()
            mask[2 * 10 * (mesh.nx + 1)] = False
            system = dataclasses.replace(system, dirichlet_mask=mask)
        solve = RestrictedSolve(system, dec)
        assert len(factor_calls) == len(dec.subdomains)
        v = np.random.default_rng(3).standard_normal(solve.free.size)
        want = reference_solve(system, dec, v)
        assert np.abs(solve(v) - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    def test_mirror_path_matches_subdomain_spsolve(self, medium, factor_calls, omega):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, omega)
        dec = decompose(mesh, 4)
        solve = RestrictedSolve(system, dec)
        assert len(factor_calls) == 1
        rng = np.random.default_rng(4)
        n = solve.free.size

        def close(got, want):
            return np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

        v = rng.standard_normal(n)
        assert close(solve(v), reference_solve(system, dec, v))
        block = rng.standard_normal((n, 3))
        assert close(solve(block), reference_solve(system, dec, block))
        start = seeded_initial_guess(system, seed=5)
        x, _ = schwarz_iterate(system, dec, start, 1)
        want = start.copy()
        want[solve.free] = reference_solve(
            system, dec, system.rhs[solve.free], previous=start[solve.free]
        )
        assert close(x, want)

    @pytest.mark.parametrize("x_max", [1.0, 1.5])
    def test_vector_is_a_column_of_the_block(self, medium, factor_calls, x_max):
        # one shared factor on the mirrored strip, two on the asymmetric one
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), 40, 20)
        solve = RestrictedSolve(assemble(mesh, medium, 5.0), decompose(mesh, 4))
        assert len(factor_calls) == (1 if x_max == 1.0 else 2)
        block = np.random.default_rng(6).standard_normal((solve.free.size, 4))
        got = solve(block)
        for j in range(block.shape[1]):
            want = got[:, j]
            assert np.abs(solve(block[:, j]) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_entries_outside_the_interior_decide_sharing(
        self, medium, factor_calls, scale
    ):
        # equal interior blocks, but the perturbed right subdomain's
        # right-hand sides are no longer the left one's reflected
        system, dec = raw_system(medium, scale)
        columns = interface_unknowns(system, dec)
        block, _ = RestrictedSolve(system, dec).interface_block()
        n_factors = len(factor_calls)
        dense = preconditioned_operator(system, dec)[np.ix_(columns, columns)]
        np.testing.assert_allclose(block, dense, rtol=0, atol=1e-12)
        assert n_factors == (1 if scale == 1.0 else 2)

    @pytest.mark.parametrize("case", ["symmetric", "asymmetric", "single_domain"])
    def test_interface_block_solves_once_per_factor(self, medium, solved_columns, case):
        # one shared factor solves the left interface line only, |S|/2
        if case == "single_domain":
            # without Dirichlet rows the unowned boundary dofs make up S
            system, dec = raw_system(medium)
            dec = single_domain(system.mesh)
        else:
            x_max = 1.5 if case == "asymmetric" else 1.0
            mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
            system, dec = assemble(mesh, medium, 1.0), decompose(mesh, 4)
        solve = RestrictedSolve(system, dec)
        solved_columns.clear()
        solve.interface_block()
        assert solve.interface.size > 0
        assert sum(solved_columns) == solve.interface.size // (
            2 if case == "symmetric" else 1
        )


class TestFactorCheck:
    @pytest.mark.parametrize("case", ["shared", "asymmetric"])
    def test_wrong_factor_is_singular(self, medium, monkeypatch, wrong_factor, case):
        x_max = 1.5 if case == "asymmetric" else 1.0
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), 40, 20)
        setup = (assemble(mesh, medium, 1.0), decompose(mesh, 4))
        monkeypatch.setattr(schwarz, "splu", wrong_factor(1e-6))
        with pytest.raises(fem.SingularSystemError, match="residual"):
            RestrictedSolve(*setup)

    def test_exactly_singular_subdomain(self, small_setup):
        system, dec = small_setup
        matrix = system.matrix.tolil()
        dof = dec.subdomains[0].interior_free[0]
        matrix[dof, :] = 0.0
        matrix[:, dof] = 0.0
        system = dataclasses.replace(system, matrix=matrix.tocsr())
        with pytest.raises(fem.SingularSystemError, match="exactly singular"):
            RestrictedSolve(system, dec)

    def test_roundoff_passes(self, small_setup, monkeypatch, wrong_factor):
        monkeypatch.setattr(schwarz, "splu", wrong_factor(1e-13))
        RestrictedSolve(*small_setup)

    @pytest.mark.parametrize("split", ["single", "two"])
    def test_subdomain_without_interior_is_named(self, medium, factor_calls, split):
        # one row of cells: every node is on the outer boundary
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 1)
        dec = single_domain(mesh) if split == "single" else decompose(mesh, 4)
        with pytest.raises(ValueError, match="subdomain 0 has no interior unknown"):
            RestrictedSolve(assemble(mesh, medium, 1.0), dec)
        assert factor_calls == []


class TestRasApply:
    def test_zero_residual(self, small_setup):
        system, dec = small_setup
        solve = RestrictedSolve(system, dec)
        assert not ras_apply(solve, np.zeros(system.n_dofs)).any()

    def test_single_domain_is_exact_solve(self, medium):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 6, 6)
        system = assemble(mesh, medium, 1.0)
        dec = single_domain(mesh)
        rng = np.random.default_rng(0)
        residual = rng.standard_normal(system.n_dofs)
        residual[system.dirichlet_mask] = 0.0
        increment = ras_apply(RestrictedSolve(system, dec), residual)
        free = ~system.dirichlet_mask
        direct = np.zeros_like(residual)
        dense = system.matrix[free][:, free].toarray()
        direct[free] = np.linalg.solve(dense, residual[free])
        np.testing.assert_allclose(increment, direct, atol=1e-11)

    def test_single_domain_stationary_converges_in_one_step(self, medium):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 6, 6)
        system = assemble(mesh, medium, 1.0)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(system.n_dofs)
        rhs[system.dirichlet_mask] = 0.0
        solve = RestrictedSolve(system, single_domain(mesh))
        _, history = stationary_ras(solve, rhs, 3)
        assert history[1] < 1e-12


class TestSpectrum:
    def test_single_domain_all_ones(self, medium):
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 6, 6)
        system = assemble(mesh, medium, 1.0)
        eigs = spectrum(system, single_domain(mesh))
        assert np.abs(eigs - 1.0).max() < 1e-8

    def test_count_and_reproducibility(self, small_setup):
        system, dec = small_setup
        eigs = spectrum(system, dec)
        n_free = int((~system.dirichlet_mask).sum())
        assert eigs.shape == (n_free,)
        np.testing.assert_allclose(
            eigs, spectrum(system, dec), rtol=0, atol=1e-8
        )

    def test_invariant_under_dof_permutation(self, small_setup):
        system, dec = small_setup
        op = preconditioned_operator(system, dec)
        rng = np.random.default_rng(2)
        perm = rng.permutation(op.shape[0])
        permuted = op[np.ix_(perm, perm)]
        a = np.sort_complex(np.linalg.eigvals(op))
        b = np.sort_complex(np.linalg.eigvals(permuted))
        assert np.abs(a - b).max() < 1e-8

    def test_consistent_with_iteration_rate(self, small_setup):
        # spectral radius of the error propagator against the observed
        # tail decay of the sweep, iterations 15..25
        system, dec = small_setup
        op = preconditioned_operator(system, dec)
        radius = np.abs(np.linalg.eigvals(np.eye(op.shape[0]) - op)).max()
        _, history = schwarz_iterate(
            system, dec, seeded_initial_guess(system, seed=1870), 25
        )
        observed = (history.err_l2[25] / history.err_l2[15]) ** 0.1
        assert observed == pytest.approx(radius, rel=2e-2)

    def test_budget_guard(self, medium):
        # tall and thin: cheap to assemble, but 15,996 interface unknowns
        # make the 15,996 x 15,996 eigenproblem alone exceed the budget
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 4000)
        system = assemble(mesh, medium, 1.0)
        with pytest.raises(BudgetExceededError, match="coarser"):
            spectrum(system, decompose(mesh, 4))

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    def test_matches_dense_oracle(self, medium, omega):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, omega)
        dec = decompose(mesh, 4)
        eigs = spectrum(system, dec)
        dense = np.sort_complex(
            np.linalg.eigvals(preconditioned_operator(system, dec))
        )
        assert np.abs(eigs - dense).max() < 1e-8
        n_interface = interface_unknowns(system, dec).size
        assert n_interface == 76  # 2 interface lines x 19 nodes x 2 dofs
        # at least: 1 +- mu rounds to 1 where mu is below half an ulp of 1
        assert np.count_nonzero(eigs == 1.0) >= eigs.size - n_interface
        assert_pairs_about_one(eigs)

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    @pytest.mark.parametrize("nx", [40, 80])
    def test_mirrored_spectrum_is_the_full_block(self, medium, nx, omega):
        # the half block B0 P against the full interface block, and at
        # 40x20 against the dense n x n operator
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), nx, nx // 2)
        system = assemble(mesh, medium, omega)
        dec = decompose(mesh, 4)
        eigs = spectrum(system, dec)
        columns = interface_unknowns(system, dec)
        full = np.linalg.eigvals(RestrictedSolve(system, dec).interface_block()[0])
        want = np.concatenate([full, np.ones(eigs.size - columns.size)])
        assert matched_deviation(eigs, want) < 1e-13
        if nx == 40:
            # the dense eigensolve blurs the n - |S| defective ones into a
            # ball of radius about 1e-8 around 1; outside it the two agree
            dense = np.linalg.eigvals(preconditioned_operator(system, dec))

            def far(x):
                return x[np.abs(x - 1.0) > 1e-6]

            assert far(eigs).size == far(dense).size > 0
            assert matched_deviation(far(eigs), far(dense)) < 1e-13
        assert_pairs_about_one(eigs)

    def test_mirrored_spectrum_solves_half_in_narrow_chunks(
        self, small_setup, solved_columns
    ):
        # the half block B0 P is read off the |S|/2 interface solves, which
        # are made a few columns at a time
        spectrum(*small_setup)
        check, *widths = solved_columns  # the factor check solves a vector
        assert check == 1 and sum(widths) == 38
        assert max(widths) <= schwarz.SPECTRUM_CHUNK == 8

    @pytest.mark.parametrize(
        "case", ["mirrored", "asymmetric", "single_domain", "identity", "raw"]
    )
    def test_eigensolve_size(self, medium, monkeypatch, case):
        # the half block on the mirrored Dirichlet strip only; every other
        # case diagonalizes the whole |S| x |S| block
        import scipy.sparse as sp

        x_max = 1.5 if case == "asymmetric" else 1.0
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
        if case in ("single_domain", "raw"):
            system, dec = raw_system(medium)
        else:
            system, dec = assemble(mesh, medium, 5.0), decompose(mesh, 4)
        if case == "single_domain":
            dec = single_domain(mesh)
        if case == "identity":
            system = fem.AssembledSystem(
                matrix=sp.identity(system.n_dofs, format="csr"),
                rhs=np.zeros(system.n_dofs),
                dirichlet_mask=np.zeros(system.n_dofs, dtype=bool),
                mesh=mesh,
            )
        shapes = []
        eigvals = np.linalg.eigvals

        def recording(a):
            shapes.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        spectrum(system, dec)
        n_interface = interface_unknowns(system, dec).size
        assert n_interface > 0
        want = (38, 38) if case == "mirrored" else (n_interface, n_interface)
        assert shapes == [want]
        block, half = RestrictedSolve(system, dec).interface_block()
        if case == "mirrored":
            assert block[half].shape == (38, 38)
        else:
            assert half is None

    @pytest.mark.parametrize("x_max", [1.0, 1.5])
    def test_interface_block_is_the_operator_block(self, medium, x_max):
        # shared factor (symmetric strip) and one factor per subdomain
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
        system = assemble(mesh, medium, 5.0)
        dec = decompose(mesh, 4)
        columns = interface_unknowns(system, dec)
        block, _ = RestrictedSolve(system, dec).interface_block()
        dense = preconditioned_operator(system, dec)[np.ix_(columns, columns)]
        assert block.shape == (76, 76)
        np.testing.assert_allclose(block, dense, rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        half_nx=st.integers(3, 8),
        ny=st.integers(2, 7),
        half_overlap=st.integers(1, 3),
        omega=st.floats(0.5, 5.0),
        kind=st.sampled_from(["decompose", "single_domain", "identity", "asymmetric"]),
        extra=st.integers(1, 3),
    )
    def test_reduced_equals_dense_property(
        self, medium, half_nx, ny, half_overlap, omega, kind, extra
    ):
        import scipy.sparse as sp
        from scipy.optimize import linear_sum_assignment

        # the asymmetric strip [-1, 1 + extra h] keeps x = 0 on a mesh line
        extra = extra if kind == "asymmetric" else 0
        mesh = build_mesh(
            (-1.0, 1.0 + extra / half_nx), (0.0, 1.0), 2 * half_nx + extra, ny
        )
        system = assemble(mesh, medium, omega)
        if kind == "identity":
            # no Dirichlet rows: the boundary dofs are free and unowned
            system = fem.AssembledSystem(
                matrix=sp.identity(system.n_dofs, format="csr"),
                rhs=np.zeros(system.n_dofs),
                dirichlet_mask=np.zeros(system.n_dofs, dtype=bool),
                mesh=mesh,
            )
        dec = (
            single_domain(mesh) if kind == "single_domain"
            else decompose(mesh, 2 * min(half_overlap, half_nx - 1))
        )
        eigs = spectrum(system, dec)
        dense = np.linalg.eigvals(preconditioned_operator(system, dec))
        scale = max(1.0, float(np.abs(dense).max()))
        assert eigs.shape == dense.shape
        # as multisets: eigenvalues tied on Re = 1 may come in either order
        cost = np.abs(eigs[:, None] - dense[None, :])
        assert cost[linear_sum_assignment(cost)].max() < 1e-8 * scale
        n_interface = interface_unknowns(system, dec).size
        assert np.count_nonzero(eigs == 1.0) >= eigs.size - n_interface


class TestGmres:
    def test_identity_converges_in_one_iteration(self, medium):
        import scipy.sparse as sp

        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 4, 4)
        n = 2 * mesh.n_nodes
        system = fem.AssembledSystem(
            matrix=sp.identity(n, format="csr"),
            rhs=np.zeros(n),
            dirichlet_mask=np.zeros(n, dtype=bool),
            mesh=mesh,
        )
        rng = np.random.default_rng(3)
        solve = RestrictedSolve(system, single_domain(mesh))
        result = gmres(solve, rng.standard_normal(n))
        assert result.converged
        assert result.iterations == 1

    def test_converges_and_residual_monotone(self, small_setup):
        system, dec = small_setup
        rhs = system.matrix @ seeded_initial_guess(system, seed=11)
        solve = RestrictedSolve(system, dec)
        result = gmres(solve, rhs, tol=1e-8, max_iter=300)
        assert result.converged
        assert result.history[-1] < 1e-8
        diffs = np.diff(result.history)
        assert diffs.max() <= 1e-10  # non-increasing within the single cycle
        residual = rhs - system.matrix @ result.x
        z = ras_apply(solve, residual)
        z0 = ras_apply(solve, rhs)
        assert np.linalg.norm(z) / np.linalg.norm(z0) < 1e-8

    def test_restarted_variant_converges(self, small_setup):
        system, dec = small_setup
        rhs = system.matrix @ seeded_initial_guess(system, seed=11)
        solve = RestrictedSolve(system, dec)
        result = gmres(solve, rhs, tol=1e-6, max_iter=400, restart=10)
        assert result.converged
        assert result.history[-1] < 1e-6

    def test_rejects_nonpositive_tol(self, small_setup):
        system, dec = small_setup
        with pytest.raises(ValueError, match="tol"):
            gmres(RestrictedSolve(system, dec), system.rhs, tol=0.0)

    def test_zero_rhs(self, small_setup):
        system, dec = small_setup
        result = gmres(RestrictedSolve(system, dec), np.zeros(system.n_dofs))
        assert result.converged and result.iterations == 0
        assert not result.x.any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stops_before_nonfinite_residual(self, medium, poisoned_solve):
        # the preconditioner breaks down after the load and three Krylov
        # steps: the fourth residual estimate is not finite
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        rhs = system.matrix @ seeded_initial_guess(system, seed=1)
        result = gmres(poisoned_solve(4)(system, decompose(mesh, 4)), rhs)
        assert result.nonfinite and not (result.converged or result.stagnated)
        assert result.history.size >= 1 and np.isfinite(result.history).all()
        assert np.isfinite(result.x).all()

    def test_huge_finite_load_runs_like_a_unit_load(self, medium):
        # the preconditioned load norm is about 4e301: finite, but its
        # squares overflow, so GMRES must run on a scaled copy of it
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        solve = RestrictedSolve(system, decompose(mesh, 4))
        target = seeded_initial_guess(system, seed=1)
        unit = gmres(solve, system.matrix @ target)
        huge = gmres(solve, system.matrix @ (2.0**997 * target))
        assert huge.converged and not huge.nonfinite
        assert huge.iterations == unit.iterations
        # only the norm of the load differs in its last bits: it is
        # recomputed from the rescaled vector when its squares overflow
        np.testing.assert_allclose(huge.history, unit.history, rtol=1e-14)
        np.testing.assert_array_equal(huge.x, 2.0**997 * unit.x)

    def test_nonfinite_initial_residual_gives_empty_history(self, small_setup):
        system, dec = small_setup
        rhs = np.zeros(system.n_dofs)
        rhs[np.flatnonzero(~system.dirichlet_mask)[0]] = np.inf
        result = gmres(RestrictedSolve(system, dec), rhs)
        assert result.nonfinite and result.history.size == 0
        assert result.iterations == 0 and not result.x.any()

    def test_finite_run_is_not_flagged(self, small_setup):
        system, dec = small_setup
        rhs = system.matrix @ seeded_initial_guess(system, seed=11)
        assert not gmres(RestrictedSolve(system, dec), rhs).nonfinite

    def test_divergent_frequency_stationary_grows(self, medium):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        dec = decompose(mesh, 4)
        rhs = system.matrix @ seeded_initial_guess(system, seed=11)
        _, history = stationary_ras(RestrictedSolve(system, dec), rhs, 20)
        assert history[-1] > 1.0
        op = preconditioned_operator(system, dec)
        radius = np.abs(np.linalg.eigvals(np.eye(op.shape[0]) - op)).max()
        assert radius > 1.0

    def test_golden_iteration_count_reference_setup(self, medium):
        # recorded on the first verified run of the reference configuration;
        # small band absorbs BLAS rounding differences across builds
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 80, 40)
        system = assemble(mesh, medium, 1.0)
        dec = decompose(mesh, 4)
        rhs = system.matrix @ seeded_initial_guess(system, seed=1870)
        result = gmres(RestrictedSolve(system, dec), rhs, tol=1e-6, max_iter=500)
        assert result.converged
        assert abs(result.iterations - 16) <= 2

    def test_restart_one_stagnates_at_divergent_frequency(self, medium):
        # GMRES(1) at omega=5 on the reference mesh makes no progress in
        # some cycle before the iteration cap and flags it
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 80, 40)
        system = assemble(mesh, medium, 5.0)
        rhs = system.matrix @ seeded_initial_guess(system, seed=1870)
        solve = RestrictedSolve(system, decompose(mesh, 4))
        result = gmres(solve, rhs, tol=1e-6, max_iter=40, restart=1)
        assert result.stagnated and not result.converged
        assert result.iterations < 40
        assert result.history[-1] >= result.history[-2] * (1.0 - 1e-12)


PHASE = np.exp(1j * np.pi / 3)


@pytest.fixture(
    scope="module",
    params=[(1.0, 1.0), (1.0, 5.0), (1.5, 5.0)],
    ids=["mirrored-omega1", "mirrored-omega5", "asymmetric-omega5"],
)
def phase_pair(request, medium):
    """A strip (50x20 on x in (-1, 1.5), else 40x20), its system, the same
    system with matrix and load times e^{i pi/3}, and a load.  M^-1 A does
    not change, nor do the RAS iteration and the spectrum."""
    x_max, omega = request.param
    mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
    real = assemble(mesh, medium, omega)
    rotated = dataclasses.replace(real, matrix=PHASE * real.matrix, rhs=PHASE * real.rhs)
    load = real.matrix @ seeded_initial_guess(real, seed=1870)
    return real, rotated, decompose(mesh, 4), load, x_max == 1.0


class TestComplexMatrix:
    """The solver core runs in the scalar type of the matrix: a real system
    rotated by a unit phase gives the real run's results."""

    def test_interface_block_and_shared_factor(self, phase_pair, factor_calls):
        real, rotated, dec, load, mirrored = phase_pair
        solve = RestrictedSolve(real, dec)
        block, half = solve.interface_block()
        calls = len(factor_calls)
        rotated_solve = RestrictedSolve(rotated, dec)
        rotated_block, rotated_half = rotated_solve.interface_block()
        assert len(factor_calls) - calls == calls == (1 if mirrored else 2)
        # a real vector through a complex factor: M^-1 scales by 1 / PHASE
        z = solve(load[solve.free])
        rotated_z = rotated_solve(load[solve.free])
        assert np.abs(PHASE * rotated_z - z).max() < 1e-12 * np.abs(z).max()
        assert rotated_block.dtype == np.complex128
        assert np.abs(rotated_block - block).max() < 1e-11
        if mirrored:
            assert half is not None and rotated_half is not None
            for index, rotated_index in zip(half, rotated_half):
                np.testing.assert_array_equal(index, rotated_index)
        else:
            assert half is None and rotated_half is None

    def test_spectrum(self, phase_pair):
        # matched as multisets: the sort order of near-conjugate pairs
        # flips under roundoff
        real, rotated, dec, _, _ = phase_pair
        assert matched_deviation(spectrum(real, dec), spectrum(rotated, dec)) < 1e-11

    def test_gmres(self, phase_pair):
        real, rotated, dec, load, _ = phase_pair
        result = gmres(RestrictedSolve(real, dec), load)
        rotated_result = gmres(RestrictedSolve(rotated, dec), PHASE * load)
        assert result.converged and rotated_result.converged
        assert rotated_result.iterations == result.iterations
        assert rotated_result.history.dtype == np.float64
        assert np.abs(rotated_result.history - result.history).max() < 1e-12
        scale = np.abs(result.x).max()
        assert np.abs(rotated_result.x - result.x).max() < 1e-10 * scale

    def test_stationary_ras(self, phase_pair):
        real, rotated, dec, load, _ = phase_pair
        _, history = stationary_ras(RestrictedSolve(real, dec), load, 30)
        rotated_solve = RestrictedSolve(rotated, dec)
        _, rotated_history = stationary_ras(rotated_solve, PHASE * load, 30)
        assert rotated_history.size == history.size == 31
        np.testing.assert_allclose(rotated_history, history, rtol=1e-10, atol=0)
        # a zero load returns the start, in the matrix's scalar type
        x, _ = stationary_ras(rotated_solve, np.zeros(real.n_dofs), 3)
        assert x.dtype == np.complex128 and not x.any()

    def test_schwarz_iterate(self, phase_pair):
        # the rotated run starts from the rotated start: the moduli and the
        # mode amplitudes |a_j| do not change
        real, rotated, dec, _, _ = phase_pair
        start = seeded_initial_guess(real, seed=1870)
        (_, history), (e, rotated_history) = (
            schwarz_iterate(dataclasses.replace(system, rhs=0 * system.rhs), dec, x0, 25)
            for system, x0 in ((real, start), (rotated, PHASE * start))
        )
        assert e.dtype == np.complex128 and len(rotated_history) == len(history) == 26
        np.testing.assert_allclose(rotated_history.err_max, history.err_max, rtol=1e-10)
        np.testing.assert_allclose(rotated_history.err_l2, history.err_l2, rtol=1e-10)
        np.testing.assert_array_equal(rotated_history.dominant_mode, history.dominant_mode)
        np.testing.assert_allclose(
            rotated_history.mode_amplitude, history.mode_amplitude, rtol=1e-10
        )

    @pytest.mark.parametrize(
        "budgeted, nx, ny", [("spectrum", 8, 400), ("preconditioned_operator", 40, 20)]
    )
    def test_budget_counts_the_item_size(self, medium, monkeypatch, budgeted, nx, ny):
        # a complex entry takes 16 bytes, so the complex need is twice the
        # real one; the 8x400 strip's interface block outweighs its factor
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), nx, ny)
        real = assemble(mesh, medium, 1.0)
        rotated = dataclasses.replace(real, matrix=PHASE * real.matrix)
        dec = decompose(mesh, 4)
        n = int(np.count_nonzero(~real.dirichlet_mask))
        m = interface_unknowns(real, dec).size
        real_need = {
            "spectrum": 8 * (2 * m * m + 2 * schwarz.SPECTRUM_CHUNK * n),
            "preconditioned_operator": 48 * n * n,
        }[budgeted]
        monkeypatch.setattr(schwarz, "MEMORY_BUDGET_BYTES", 3 * real_need // 2)
        run = getattr(schwarz, budgeted)
        run(real, dec)
        with pytest.raises(BudgetExceededError, match="coarser"):
            run(rotated, dec)


@pytest.fixture(scope="module")
def complex_load(small_setup):
    """A complex load on the real 40x20 system of `small_setup`."""
    system, _ = small_setup
    re, im = (system.matrix @ seeded_initial_guess(system, seed) for seed in (1870, 11))
    return re + 1j * im


class TestComplexLoad:
    """A complex load on a real system: the real factors solve its real
    and imaginary parts."""

    def test_call_solves_both_parts(self, small_setup, complex_load):
        solve = RestrictedSolve(*small_setup)
        block = np.stack([complex_load, 2j * complex_load], axis=1)
        for v in (complex_load[solve.free], block[solve.free]):
            z = solve(v)
            reference = solve(v.real) + 1j * solve(v.imag)
            assert z.dtype == np.complex128 and z.shape == v.shape
            assert np.abs(z - reference).max() <= 1e-14 * np.abs(reference).max()

    def test_ras_apply_and_stationary_ras(self, small_setup, complex_load):
        solve = RestrictedSolve(*small_setup)
        re, im = complex_load.real, complex_load.imag
        z = ras_apply(solve, complex_load)
        reference = ras_apply(solve, re) + 1j * ras_apply(solve, im)
        assert np.abs(z - reference).max() <= 1e-14 * np.abs(reference).max()
        # the iteration is linear in the load
        x, history = stationary_ras(solve, complex_load, 10)
        (x_re, _), (x_im, _) = (stationary_ras(solve, part, 10) for part in (re, im))
        assert x.dtype == np.complex128 and history.size == 11
        assert np.abs(x - (x_re + 1j * x_im)).max() <= 1e-12 * np.abs(x).max()

    def test_gmres(self, small_setup, complex_load):
        system, dec = small_setup
        solve = RestrictedSolve(system, dec)
        result = gmres(solve, complex_load)
        assert result.converged and result.x.dtype == np.complex128
        residual = ras_apply(solve, complex_load - system.matrix @ result.x)
        assert _l2_norm(residual) < 1e-6 * _l2_norm(ras_apply(solve, complex_load))


ASYMMETRIC_STRIP = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts",
    "asymmetric_strip.cfg",
)


class TestSolveSharesNoState:
    """The iterations on one `RestrictedSolve` keep nothing between calls, so
    `gmres` and `stationary_ras` may run in either order, or side by side."""

    @pytest.fixture(scope="class", params=[None, ASYMMETRIC_STRIP],
                    ids=["mirrored", "asymmetric"])
    def gmres_problem(self, request):
        """The `gmres` command's solve and load at omega 5: the mirrored
        40x20 strip (one shared factor) and the asymmetric strip (two)."""
        from elastic_schwarz import cli

        overrides = {"omega": 5.0} if request.param else {"nx": 40, "ny": 20, "omega": 5.0}
        cfg = cli.load_config(request.param, overrides)
        system, dec = cli._problem(cfg)
        return RestrictedSolve(system, dec), cli.experiment_load(cfg, system)

    def test_order_of_the_iterations(self, gmres_problem):
        # RAS before GMRES, GMRES, then both again on the same solve
        solve, rhs = gmres_problem
        runs = [(stationary_ras(solve, rhs, 50), gmres(solve, rhs)) for _ in range(2)]
        ((x_first, ras_first), gmres_first), ((x_after, ras_after), gmres_after) = runs
        assert ras_first.size == 51 and gmres_first.converged
        np.testing.assert_array_equal(ras_after, ras_first)
        np.testing.assert_array_equal(x_after, x_first)
        np.testing.assert_array_equal(gmres_after.history, gmres_first.history)
        np.testing.assert_array_equal(gmres_after.x, gmres_first.x)

    def test_solve_leaves_its_input(self, gmres_problem):
        solve, rhs = gmres_problem
        v = rhs[solve.free]
        for load in (v, np.stack([v, -v], axis=1), v + 0.5j * v[::-1]):
            kept = load.copy()
            first = solve(load)
            np.testing.assert_array_equal(load, kept)
            np.testing.assert_array_equal(solve(load), first)


class TestFactorBudget:
    @pytest.mark.parametrize("nx, fill", [(160, 1.34e6), (320, 6.96e6), (640, 34.2e6)])
    def test_estimate_bounds_the_measured_fill(self, monkeypatch, nx, fill):
        # the L+U fill measured at omega 5 (MMD_AT_PLUS_A), 12 bytes an
        # entry; the check runs on an identity system, whose one shared
        # factor is never built, so the 640x320 strip costs no factor
        import scipy.sparse as sp

        class NotFactored(Exception):
            pass

        needs = []
        check = schwarz._check_budget

        def recording(what, needed):
            needs.append(needed)
            check(what, needed)

        def refuse(*args, **kwargs):
            raise NotFactored

        monkeypatch.setattr(schwarz, "_check_budget", recording)
        monkeypatch.setattr(schwarz, "splu", refuse)
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), nx, nx // 2)
        mask = np.repeat(mesh.boundary_node_mask(), 2)
        system = fem.AssembledSystem(
            matrix=sp.identity(mask.size, format="csr"),
            rhs=np.zeros(mask.size), dirichlet_mask=mask, mesh=mesh,
        )
        with pytest.raises(NotFactored):
            RestrictedSolve(system, decompose(mesh, 4))
        assert needs and 12 * fill < needs[0] <= schwarz.MEMORY_BUDGET_BYTES

    def test_complex_entries_count_16_bytes(self, small_setup, monkeypatch):
        # a value and a 4-byte index per entry: 20 bytes complex, 12 real
        needs = []
        monkeypatch.setattr(schwarz, "_check_budget", lambda what, needed: needs.append(needed))
        system, dec = small_setup
        RestrictedSolve(system, dec)
        RestrictedSolve(dataclasses.replace(system, matrix=PHASE * system.matrix), dec)
        assert needs[1] == pytest.approx(20 / 12 * needs[0], abs=2)  # whole bytes

    def test_factor_over_budget_is_never_built(self, small_setup, factor_calls, monkeypatch):
        monkeypatch.setattr(schwarz, "MEMORY_BUDGET_BYTES", 1024)
        with pytest.raises(BudgetExceededError, match="subdomain LU factors"):
            RestrictedSolve(*small_setup)
        assert factor_calls == []

    def test_budget_sums_the_block_and_the_factors(
        self, medium, monkeypatch, factor_calls
    ):
        # the 8x400 strip at omega 1: a 41.5 MB interface block and a
        # 9.2 MB factor, each under 45 MB, together over it
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 400)
        system = assemble(mesh, medium, 1.0)
        dec = decompose(mesh, 4)
        n = int(np.count_nonzero(~system.dirichlet_mask))
        m = interface_unknowns(system, dec).size
        budget = 45 * 10**6
        assert 8 * (2 * m * m + 2 * schwarz.SPECTRUM_CHUNK * n) < budget
        monkeypatch.setattr(schwarz, "MEMORY_BUDGET_BYTES", budget)
        match = "LU factors and a 1596 x 1596 .*coarser"
        with pytest.raises(BudgetExceededError, match=match):
            spectrum(system, dec)
        assert factor_calls == []
