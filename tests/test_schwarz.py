import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
        assert dec.overlap_width == pytest.approx(0.1, rel=1e-12)
        xs = mesh.nodes[:, 0]
        left, right = dec.subdomains
        assert xs[left.interior_free // 2].max() < 0.05
        assert xs[left.interface_free // 2] == pytest.approx(0.05, abs=1e-12)
        assert xs[right.interior_free // 2].min() > -0.05
        assert xs[right.interface_free // 2] == pytest.approx(-0.05, abs=1e-12)

    def test_minimal_overlap(self):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 4)
        dec = decompose(mesh, 2)
        assert dec.overlap_width == pytest.approx(2.0 / 8 * 2, rel=1e-12)

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
        # are the same algorithm
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 2 * half_nx, ny)
        system = assemble(mesh, medium, omega)
        dec = (
            single_domain(mesh) if one_domain
            else decompose(mesh, 2 * min(half_overlap, half_nx - 1))
        )
        start = seeded_initial_guess(system, seed=seed)
        iterate, history = schwarz_iterate(system, dec, start, 8)
        x, _ = stationary_ras(RestrictedSolve(system, dec), system.rhs, 8, x0=start)
        scale = max(1.0, float(np.abs(iterate).max()))
        assert np.abs(x - iterate).max() < 1e-10 * scale
        mods = np.hypot(x[0::2], x[1::2])
        assert history.err_max[-1] == pytest.approx(mods.max(), rel=1e-10)

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

    def test_infinite_only_when_the_norm_is(self):
        assert _l2_norm(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2.0) * 1e308)
        assert _l2_norm(np.array([1.5e308, 1.5e308])) == math.inf
        assert _l2_norm(np.array([1.0, np.inf])) == math.inf


@pytest.fixture
def factor_calls(monkeypatch):
    """Counts the subdomain factorizations `schwarz` makes."""
    calls = []
    original = schwarz.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(schwarz, "splu", counting)
    return calls


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

    @pytest.mark.parametrize("case", ["asymmetric", "single_domain", "perturbed"])
    def test_fallback_factors_every_subdomain(self, medium, factor_calls, case):
        if case == "asymmetric":
            mesh = build_mesh((-1.0, 1.5), (0.0, 1.0), 50, 20)
        else:
            mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 1.0)
        dec = single_domain(mesh) if case == "single_domain" else decompose(mesh, 4)
        if case == "perturbed":
            # a diagonal entry that only the right subdomain holds
            dof = dec.subdomains[1].interior_free[-1]
            matrix = system.matrix.tocsr(copy=True)
            matrix[dof, dof] *= 1.0 + 1e-9
            system = dataclasses.replace(system, matrix=matrix)
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
        assert np.count_nonzero(eigs == 1.0) == eigs.size - n_interface

    @pytest.mark.parametrize("x_max", [1.0, 1.5])
    def test_interface_block_is_the_operator_block(self, medium, x_max):
        # shared factor (symmetric strip) and one factor per subdomain
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
        system = assemble(mesh, medium, 5.0)
        dec = decompose(mesh, 4)
        columns = interface_unknowns(system, dec)
        block = RestrictedSolve(system, dec).interface_block(columns)
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
