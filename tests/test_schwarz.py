import dataclasses
import gc
import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import gmres as scipy_gmres
from scipy.sparse.linalg import spsolve

from elastic_schwarz import fem, schwarz
from elastic_schwarz.fem import _l2_norm, assemble, build_mesh
from elastic_schwarz.schwarz import (
    BudgetExceededError,
    RestrictedSolve,
    decompose,
    gmres,
    interface_block,
    interface_unknowns,
    preconditioned_operator,
    ras_apply,
    schwarz_iterate,
    seeded_initial_guess,
    single_domain,
    spectrum,
    stationary_ras,
)

ASYMMETRIC_STRIP = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts",
    "asymmetric_strip.cfg",
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
        b_pre = solve(system.matrix @ target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _l2_norm(b_pre)
        assert 1e300 < norm < math.inf

    def test_rescaled_real_norm_bits(self):
        # the squares overflow: the real sum np.dot(w, w) of w = v 2^-e,
        # with 2^(e-1) <= max|v| < 2^e, scaled back by 2^e
        v = 1e200 * np.random.default_rng(1).standard_normal(1001)
        e = math.frexp(np.abs(v).max())[1]
        w = np.ldexp(v, -e)
        assert _l2_norm(v, 0.5) == math.ldexp(math.sqrt(0.5 * float(np.dot(w, w))), e)

    @pytest.mark.parametrize("weight", [1.0, 0.5])
    @pytest.mark.parametrize("j", [-1000, -540, 997])
    def test_power_of_two_scaling_is_exact(self, j, weight):
        # the squares of 2^j v overflow (997) or underflow (-540, -1000);
        # those of v give the plain sum's bits
        v = np.random.default_rng(1).standard_normal(1001)
        assert _l2_norm(2.0**j * v, weight) == 2.0**j * _l2_norm(v, weight)

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

    def test_complex_overflow_is_inf_and_nan_stays_nan(self):
        # the moduli of these entries overflow or are not finite
        assert _l2_norm(np.array([1.5e308 + 1.5e308j])) == math.inf
        assert _l2_norm(np.array([1 + 0j, np.inf])) == math.inf
        assert math.isnan(_l2_norm(np.array([1 + 0j, np.nan])))


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
    matrix = system.matrix.tocsr()
    z = np.zeros_like(v) if previous is None else previous.copy()
    for sub in dec.subdomains:
        rows = matrix[sub.interior_free]
        rhs = v[sub.interior_free]
        if previous is not None:
            rhs = rhs - rows[:, sub.interface_free] @ previous[sub.interface_free]
        x = spsolve(rows[:, sub.interior_free].tocsc(), rhs)
        z[sub.owned_free] = x[np.searchsorted(sub.interior_free, sub.owned_free)]
    return z


def refined(solve, a, rhs, steps=2):
    """``a^-1 rhs`` to a few ulps: ``solve``, an approximate inverse of the
    sparse ``a``, and ``steps`` steps of iterative refinement whose
    residuals are taken in long double (80-bit extended on x86-64).  A
    SuperLU solve alone is up to 3.5e-12 off on the asymmetric strip at
    omega 5, which would blur a 1e-12 comparison."""
    wide = a.astype(np.result_type(a.dtype, np.longdouble))
    x = solve(rhs)
    for _ in range(steps):
        residual = rhs.astype(wide.dtype) - wide @ x.astype(wide.dtype)
        x = x + solve(residual.astype(x.dtype))
    return x


def refined_operator(system, dec):
    """The dense M^-1 A on the free unknowns, like `preconditioned_operator`,
    from a dense LU solve of each subdomain matrix, `refined`."""
    from scipy.linalg import lu_factor, lu_solve

    matrix = system.matrix.tocsr()
    free = np.flatnonzero(~system.dirichlet_mask)
    a = matrix[:, free]
    z = np.zeros((system.n_dofs, free.size), np.result_type(matrix.dtype, np.float64))
    for sub in dec.subdomains:
        interior = sub.interior_free
        local = matrix[interior][:, interior]
        factor = lu_factor(local.toarray())
        x = refined(lambda rhs: lu_solve(factor, rhs), local, a[interior].toarray())
        z[sub.owned_free] = x[np.searchsorted(interior, sub.owned_free)]
    return z[free]


def reference_interface_block(system, dec):
    """`interface_block` from the SuperLU factors of `RestrictedSolve`, as
    it was built before the Schur sweep, the solves `refined`: each factor
    solves the S columns outside its first subdomain's interior, and every
    subdomain it serves keeps the S rows it owns, a mirrored one
    (`_reflection`) at the reflected columns."""
    solve = RestrictedSolve(system, dec)
    reflect = schwarz._reflection(system, dec)
    columns = interface_unknowns(system, dec)
    matrix = system.matrix.tocsr()
    a = matrix[:, columns]
    at = np.full(system.n_dofs, -1, dtype=np.int64)
    at[columns] = np.arange(columns.size)
    block = np.zeros((columns.size, columns.size), a.dtype)
    for lu, parts in solve._groups:
        solved = np.flatnonzero(np.isin(columns, parts[0][0], invert=True))
        interior = parts[0][0]
        x = refined(
            lu.solve, matrix[interior][:, interior], a[interior][:, solved].toarray()
        ) if solved.size else None
        targets = []
        for mirrored, (_, owned, keep) in enumerate(parts):
            rows = at[owned]
            keep, rows = keep[rows >= 0], rows[rows >= 0]
            block[rows, rows] = 1.0
            cols = at[reflect[columns[solved]]] if mirrored else solved
            if x is not None:
                block[np.ix_(rows, cols)] = x[keep]
            targets.append(rows)
    if reflect is None:
        return block, None
    rows, rows_right = targets
    mirror = at[reflect[columns[rows]]]
    if rows.size + rows_right.size != columns.size or not np.array_equal(
        np.sort(mirror), np.sort(rows_right)
    ):
        return block, None
    return block, np.ix_(rows, mirror)


def assert_block_matches_reference(system, dec):
    """`interface_block` against `reference_interface_block`: the block to
    1e-12 and the same half index."""
    block, half = interface_block(system, dec)
    want, want_half = reference_interface_block(system, dec)
    assert block.dtype == want.dtype
    np.testing.assert_allclose(block, want, rtol=0, atol=1e-12)
    assert (half is None) == (want_half is None)
    for index, want_index in zip(half or (), want_half or ()):
        np.testing.assert_array_equal(index, want_index)
    return block, half


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments (matrix, order, bounds, keep, solved, needed) of every
    Schur sweep `interface_block` runs, in order."""
    calls = []
    original = schwarz._schur_sweep

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(schwarz, "_schur_sweep", recording)
    return calls


@pytest.fixture
def doublings(monkeypatch):
    """The count of column groups every sweep takes by doubling
    (`_wall_complement`), in order."""
    groups = []
    original = schwarz._wall_complement

    def recording(band, count, solve):
        groups.append(count)
        return original(band, count, solve)

    monkeypatch.setattr(schwarz, "_wall_complement", recording)
    return groups


@pytest.fixture
def gesv_calls(monkeypatch):
    """The order of the system of every `gesv` call of the sweeps, in
    order."""
    from scipy.linalg import get_lapack_funcs

    orders = []

    def patched(name, *args, **kwargs):
        found = get_lapack_funcs(name, *args, **kwargs)
        if name != "gesv":
            return found

        def gesv(a, b, **flags):
            orders.append(a.shape[0])
            return found(a, b, **flags)

        return gesv

    monkeypatch.setattr(schwarz, "get_lapack_funcs", patched)
    return orders


def strip_with_unlike_column(system, dec, group, coupling=False, scale=1.0 + 1e-3):
    """``system`` with one symmetric pair of entries of the first
    subdomain's column group ``group`` from its wall scaled, and the
    mirror image of that pair: two dofs of the group, or with
    ``coupling`` a dof of the group and its neighbour in the next.  The
    strip stays symmetric, block tridiagonal and mirrored."""
    interior = dec.subdomains[0].interior_free
    dof_columns = np.repeat(system.mesh.node_columns(), 2)[interior]
    columns = np.unique(dof_columns)
    dofs = interior[dof_columns == columns[group]]
    # its lowest node's x dof and that of the node above or to the right
    i = dofs[0]
    j = interior[dof_columns == columns[group + 1]][0] if coupling else dofs[2]
    reflect = schwarz._reflection(system, dec)
    matrix = system.matrix.tolil(copy=True)
    for a, b in ((i, j), (reflect[i], reflect[j])):
        assert matrix[a, b] != 0.0 and matrix[a, b] == matrix[b, a]
        matrix[a, b] *= scale
        matrix[b, a] *= scale
    system = dataclasses.replace(system, matrix=matrix.tocsr())
    assert schwarz._reflection(system, dec) is not None
    return system


def scattered(system, values):
    """``values`` over the free unknowns as full-length dofs, zero on the
    Dirichlet ones."""
    v = np.zeros((system.n_dofs,) + values.shape[1:], values.dtype)
    v[~system.dirichlet_mask] = values
    return v


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
    def test_fallback_factors_every_subdomain(self, medium, factor_calls, sweeps, case):
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
        n = int(np.count_nonzero(~system.dirichlet_mask))
        v = scattered(system, np.random.default_rng(3).standard_normal(n))
        want = reference_solve(system, dec, v)
        assert np.abs(solve(v) - want).max() <= 1e-10 * np.abs(want).max()
        # the interface block falls back too: a sweep per subdomain that
        # owns an S row, none on the one subdomain, and the whole block
        _, half = assert_block_matches_reference(system, dec)
        assert half is None
        assert len(sweeps) == (0 if case == "single_domain" else 2)

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    def test_mirror_path_matches_subdomain_spsolve(self, medium, factor_calls, omega):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, omega)
        dec = decompose(mesh, 4)
        solve = RestrictedSolve(system, dec)
        assert len(factor_calls) == 1
        rng = np.random.default_rng(4)
        n = int(np.count_nonzero(~system.dirichlet_mask))

        def close(got, want):
            return np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

        v = scattered(system, rng.standard_normal(n))
        assert close(solve(v), reference_solve(system, dec, v))
        block = scattered(system, rng.standard_normal((n, 3)))
        assert close(solve(block), reference_solve(system, dec, block))
        start = seeded_initial_guess(system, seed=5)
        x, _ = schwarz_iterate(system, dec, start, 1)
        want = reference_solve(system, dec, system.rhs, previous=start)
        assert close(x, want)

    @pytest.mark.parametrize("x_max", [1.0, 1.5])
    def test_vector_is_a_column_of_the_block(self, medium, factor_calls, x_max):
        # one shared factor on the mirrored strip, two on the asymmetric one
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), 40, 20)
        solve = RestrictedSolve(assemble(mesh, medium, 5.0), decompose(mesh, 4))
        assert len(factor_calls) == (1 if x_max == 1.0 else 2)
        n = int(np.count_nonzero(~solve.system.dirichlet_mask))
        block = scattered(solve.system, np.random.default_rng(6).standard_normal((n, 4)))
        got = solve(block)
        for j in range(block.shape[1]):
            want = got[:, j]
            assert np.abs(solve(block[:, j]) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_entries_outside_the_interior_decide_sharing(
        self, medium, factor_calls, sweeps, scale
    ):
        # equal interior blocks, but the perturbed right subdomain's
        # right-hand sides are no longer the left one's reflected
        system, dec = raw_system(medium, scale)
        columns = interface_unknowns(system, dec)
        block, _ = interface_block(system, dec)
        assert len(sweeps) == (1 if scale == 1.0 else 2)
        assert factor_calls == []
        dense = preconditioned_operator(system, dec)[np.ix_(columns, columns)]
        assert len(factor_calls) == (1 if scale == 1.0 else 2)
        np.testing.assert_allclose(block, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["symmetric", "asymmetric", "single_domain"])
    def test_interface_block_sweeps_once_per_distinct_subdomain(
        self, medium, sweeps, case
    ):
        # the mirrored right subdomain is read off the left one's sweep,
        # whose right-hand sides are the right interface line, |S|/2; a
        # subdomain that owns no S row is not swept
        if case == "single_domain":
            # without Dirichlet rows the unowned boundary dofs make up S
            system, dec = raw_system(medium)
            dec = single_domain(system.mesh)
        else:
            x_max = 1.5 if case == "asymmetric" else 1.0
            mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
            system, dec = assemble(mesh, medium, 1.0), decompose(mesh, 4)
        columns = interface_unknowns(system, dec)
        block, _ = interface_block(system, dec)
        assert columns.size > 0
        solved = [args[4].size for args in sweeps]
        assert solved == {"symmetric": [38], "asymmetric": [38, 38], "single_domain": []}[case]
        if case == "single_domain":
            assert not block.any()  # M^-1 is zero on the unowned rows


class TestInterfaceBlock:
    """The Schur sweep's block against the SuperLU-built one."""

    @pytest.mark.parametrize("case", [
        "mirrored-omega1", "mirrored-omega5", "asymmetric-omega1", "asymmetric-omega5",
        "raw", "raw-perturbed", "identity", "single_domain", "single_domain-raw",
    ])
    def test_matches_the_superlu_block(self, medium, factor_calls, case):
        import scipy.sparse as sp

        x_max = 1.5 if case.startswith("asymmetric") else 1.0
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
        system = assemble(mesh, medium, 5.0 if case.endswith("omega5") else 1.0)
        dec = decompose(mesh, 4)
        if case.startswith("raw") or case == "single_domain-raw":
            system, dec = raw_system(medium, 1.5 if case == "raw-perturbed" else 1.0)
        if case == "identity":
            system = fem.AssembledSystem(
                matrix=sp.identity(system.n_dofs, format="csr"),
                rhs=np.zeros(system.n_dofs),
                dirichlet_mask=np.zeros(system.n_dofs, dtype=bool),
                mesh=mesh,
            )
        if case.startswith("single_domain"):
            dec = single_domain(mesh)
        factor_calls.clear()
        block, half = interface_block(system, dec)
        assert factor_calls == []
        assert_block_matches_reference(system, dec)
        assert (half is not None) == case.startswith("mirrored")
        if case == "identity":
            # A[interior, S] vanishes outside the interior: the owned rows
            # of the unit matrix
            assert block.size and not (block - np.diag(np.diag(block))).any()

    @pytest.mark.parametrize("x_max, overlap, omega, groups", [
        (1.0, 2, 5.0, [18]), (1.0, 4, 1.0, [17]), (1.0, 4, 5.0, [17]),
        (1.0, 6, 5.0, [16]), (1.0, 8, 5.0, [15]), (1.5, 4, 1.0, [17, 27]),
        (1.5, 4, 5.0, [17, 27]),
    ])
    def test_alike_columns_are_doubled(
        self, medium, sweeps, doublings, gesv_calls, x_max, overlap, omega, groups
    ):
        # every column before the first kept one, K = 19 - overlap / 2 on
        # the 40x20 strip, goes through the doubling, each sweep in fewer
        # solves than it has columns: K - 1 = 17, 16, 15, 14, 16 and 26
        # take the append of one column and the chains of 2, 4, 8 and 16
        # in every mix
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
        system, dec = assemble(mesh, medium, omega), decompose(mesh, overlap)
        assert_block_matches_reference(system, dec)
        assert doublings == groups
        assert len(gesv_calls) < sum(args[2].size - 1 for args in sweeps)

    @pytest.mark.parametrize("group, coupling", [
        (0, False), (8, False), (16, False), (8, True), (16, True),
    ], ids=["wall", "middle", "last", "middle-coupling", "last-coupling"])
    def test_unlike_column_takes_the_recurrence(
        self, small_setup, sweeps, doublings, gesv_calls, group, coupling
    ):
        # one column group before the first kept one, 17, no longer like
        # the others, in its own block or its coupling to the next: the
        # sweep steps through all 21 columns, one solve each
        system, dec = small_setup
        interface_block(system, dec)
        assert doublings == [17] and len(gesv_calls) == 9
        del sweeps[:], doublings[:], gesv_calls[:]
        system = strip_with_unlike_column(system, dec, group, coupling)
        assert_block_matches_reference(system, dec)
        assert [args[2].size - 1 for args in sweeps] == [21]
        assert doublings == [] and gesv_calls == [38] * 21

    def test_cavity_peak(self, medium, monkeypatch, doublings):
        # omega 8.2 on the 80x40 strip, a cavity peak: the double-sweep
        # radius r^2 is 1.4e5 and the subdomain matrix's condition number
        # 4.5e6, 71 times that at omega 5, so roundoff in any direct solve
        # moves the block by up to about 5e-10 of its largest entry (46.6).
        # The refined reference keeps its digits; the sweep, unrefined,
        # cannot meet the 1e-12 of the other tests: the doubling is
        # 1.4e-11 of that entry off, the column recurrence 5.5e-12.  Both
        # are held to 1e-10 of it.
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 80, 40)
        system, dec = assemble(mesh, medium, 8.2), decompose(mesh, 4)
        want, want_half = reference_interface_block(system, dec)
        block, half = interface_block(system, dec)
        assert doublings == [37]
        monkeypatch.setattr(schwarz, "_alike_band", lambda *args: None)
        recurrence, _ = interface_block(system, dec)
        scale = np.abs(want).max()
        assert scale > 40.0
        mu = np.linalg.eigvals(block[half])
        assert 1e5 < np.abs(mu).max() ** 2 < 2e5
        for got in (block, recurrence):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)
        for index, want_index in zip(half, want_half):
            np.testing.assert_array_equal(index, want_index)


class TestSweepCheck:
    """The sweep's counterpart of the factor check: the probe A_i @ ones
    carried through it, and singular Schur complements."""

    @staticmethod
    def wrong_gesv(monkeypatch, error=0.0, info=0, calls=None):
        """Make the sweep's `gesv` off by a relative ``error``, or report
        an exactly singular pivot ``info``, on the calls numbered in
        ``calls`` (from 0, counted across sweeps), or on every call."""
        from scipy.linalg import get_lapack_funcs

        made = []

        def patched(name, *args, **kwargs):
            found = get_lapack_funcs(name, *args, **kwargs)
            if name != "gesv":
                return found

            def gesv(a, b, **flags):
                lu, piv, x, status = found(a, b, **flags)
                made.append(None)
                if calls is not None and len(made) - 1 not in calls:
                    return lu, piv, x, status
                return lu, piv, (1.0 + error) * x, info or status

            return gesv

        monkeypatch.setattr(schwarz, "get_lapack_funcs", patched)

    @pytest.mark.parametrize("x_max", [1.0, 1.5])
    def test_wrong_solve_fails_the_probe(self, medium, monkeypatch, x_max):
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
        system = assemble(mesh, medium, 5.0)
        self.wrong_gesv(monkeypatch, error=1e-6)
        with pytest.raises(fem.SingularSystemError, match="interface sweep residual"):
            interface_block(system, decompose(mesh, 4))

    @pytest.mark.parametrize("call", [0, 10, 19, 20])
    @pytest.mark.parametrize("error", [1e-6, np.nan])
    def test_one_wrong_solve_fails_the_probe(self, small_setup, monkeypatch, call, error):
        # the column recurrence: the one sweep of the mirrored strip with an
        # unlike column group, 8, solves its 21 columns in turn: the next
        # column's probe checks a solve, the back substitution's residual
        # the last one, 20
        system = strip_with_unlike_column(*small_setup, 8)
        self.wrong_gesv(monkeypatch, error=error, calls={call})
        where = "back substitution" if call == 20 else f"at column {call + 1} of 21"
        with pytest.raises(fem.SingularSystemError, match=f"interface sweep residual .* {where}"):
            interface_block(system, small_setup[1])

    # the doubled sweep of the mirrored 40x20 strip: K - 1 = 16 alike
    # columns after column 0 in three merges and one append of order 2m =
    # 76, the solve of S_16 that hands over to the loop, and the kept
    # columns 17 to 20; each is checked where its error first shows
    DOUBLED = [
        ("the merge into a chain of 4 columns", "in the merge into a chain of 4 columns"),
        ("the merge into a chain of 8 columns", "in the merge into a chain of 8 columns"),
        ("the merge into a chain of 16 columns", "in the merge into a chain of 16 columns"),
        ("the append of columns 1 to 16", "in the append of columns 1 to 16"),
        ("the Schur complement of column 16 of 21", "at column 17 of 21"),
        ("the Schur complement of column 17 of 21", "at column 18 of 21"),
        ("the Schur complement of column 18 of 21", "at column 19 of 21"),
        ("the Schur complement of column 19 of 21", "at column 20 of 21"),
        ("the Schur complement of column 20 of 21", "in the back substitution of columns 17 to 20"),
    ]

    def test_doubled_sweep_solves(self, small_setup, gesv_calls):
        interface_block(*small_setup)
        assert gesv_calls == [76] * 4 + [38] * 5

    @pytest.mark.parametrize("call", range(9))
    @pytest.mark.parametrize("error", [1e-6, np.nan])
    def test_one_wrong_doubled_solve_fails_the_probe(
        self, small_setup, monkeypatch, call, error
    ):
        # each merge, the append, the hand-over and every kept column
        self.wrong_gesv(monkeypatch, error=error, calls={call})
        where = self.DOUBLED[call][1]
        with pytest.raises(fem.SingularSystemError, match=f"interface sweep residual .* {where};"):
            interface_block(*small_setup)

    @pytest.mark.parametrize("call", range(9))
    def test_singular_doubled_solve_is_named(self, small_setup, monkeypatch, call):
        self.wrong_gesv(monkeypatch, info=1, calls={call})
        what = self.DOUBLED[call][0]
        with pytest.raises(fem.SingularSystemError, match=f"^interface sweep: {what} is exactly singular$"):
            interface_block(*small_setup)

    def test_roundoff_passes(self, small_setup, monkeypatch):
        self.wrong_gesv(monkeypatch, error=1e-14)
        interface_block(*small_setup)

    def test_singular_schur_complement(self, small_setup):
        # a dof of the first swept column without row and column: its
        # Schur complement, the column's own block, is exactly singular
        system, dec = small_setup
        matrix = system.matrix.tolil()
        dof = dec.subdomains[0].interior_free[0]
        matrix[dof, :] = 0.0
        matrix[:, dof] = 0.0
        system = dataclasses.replace(system, matrix=matrix.tocsr())
        with pytest.raises(fem.SingularSystemError, match="column 0 of 21 is exactly singular"):
            interface_block(system, dec)

    def test_far_coupling_is_refused(self, small_setup):
        # the sweep needs a matrix block tridiagonal across mesh columns
        system, dec = small_setup
        interior = dec.subdomains[0].interior_free
        matrix = system.matrix.tolil()
        matrix[interior[0], interior[4]] = 1.0  # mesh columns 1 and 3
        system = dataclasses.replace(system, matrix=matrix.tocsr())
        with pytest.raises(ValueError, match="block tridiagonal"):
            interface_block(system, dec)

    @pytest.mark.parametrize("failure", ["probe", "singular"])
    def test_cli_exits_3(self, tmp_path, monkeypatch, capsys, failure):
        from elastic_schwarz.cli import main

        if failure == "probe":
            self.wrong_gesv(monkeypatch, error=1e-6)
        else:
            self.wrong_gesv(monkeypatch, info=1)
        assert main(["spectrum", "--out", str(tmp_path), "--nx", "40", "--ny", "20"]) == 3
        shown = {"probe": "interface sweep residual", "singular": "exactly singular"}[failure]
        err = capsys.readouterr().err
        assert err.startswith("solver error: interface sweep") and shown in err
        assert os.listdir(tmp_path) == []


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

    @pytest.mark.parametrize("config, overrides", [
        (None, {}), (ASYMMETRIC_STRIP, {}), (None, {"single_domain": True}),
        (None, {"identity_system": True}),
    ], ids=["mirrored", "asymmetric", "single_domain", "identity_system"])
    def test_reads_only_interiors_and_writes_only_owned(self, config, overrides):
        # the solve gathers the subdomain interiors of a full-length
        # residual itself: nothing outside them reaches a solve, and
        # nothing comes back where no subdomain owns
        from elastic_schwarz import cli

        size = {} if config else {"nx": 40, "ny": 20}
        system, dec = cli._problem(cli.load_config(config, {**size, **overrides}))
        solve = RestrictedSolve(system, dec)
        inside = np.zeros(system.n_dofs, dtype=bool)
        owned = np.zeros(system.n_dofs, dtype=bool)
        for sub in dec.subdomains:
            inside[sub.interior_free] = True
            owned[sub.owned_free] = True
        residual = np.random.default_rng(7).standard_normal(system.n_dofs)
        z = ras_apply(solve, residual)
        assert (~inside).any() and (~owned).any() and np.isfinite(z).all()
        assert ras_apply(solve, np.where(inside, residual, np.nan)).tobytes() == z.tobytes()
        assert not z[~owned].any()

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
        full = np.linalg.eigvals(interface_block(system, dec)[0])
        want = np.concatenate([full, np.ones(eigs.size - columns.size)])
        assert matched_deviation(eigs, want) < 1e-13
        if nx == 40:
            # the dense eigensolve blurs the n - |S| defective ones into a
            # ball of radius about 1e-8 around 1; outside it the two agree
            # (the eigenvalues of `preconditioned_operator`, from SuperLU
            # solves alone, are 1.9e-13 off at omega 5)
            dense = np.linalg.eigvals(refined_operator(system, dec))

            def far(x):
                return x[np.abs(x - 1.0) > 1e-6]

            assert far(eigs).size == far(dense).size > 0
            assert matched_deviation(far(eigs), far(dense)) < 1e-13
        assert_pairs_about_one(eigs)

    def test_mirrored_spectrum_sweeps_the_left_subdomain_once(
        self, small_setup, factor_calls, sweeps
    ):
        # the half block B0 P is read off one sweep of the left subdomain's
        # 21 mesh columns, whose right-hand sides are the |S|/2 = 38 dofs of
        # the right interface line; it keeps and back-substitutes only the
        # 4 columns from its own interface line x = -0.05 on, where the S
        # rows it owns lie
        spectrum(*small_setup)
        assert factor_calls == []
        [(_, order, bounds, keep, solved, needed)] = sweeps
        assert order.size == 21 * 38 and bounds.size - 1 == 21
        assert solved.size == needed.size == 38
        assert bounds.size - 1 - keep == 4

    @pytest.mark.parametrize("x_max", [1.0, 1.5])
    def test_spectrum_factors_nothing(self, medium, factor_calls, x_max):
        mesh = build_mesh((-1.0, x_max), (0.0, 1.0), round(20 * (1 + x_max)), 20)
        spectrum(assemble(mesh, medium, 5.0), decompose(mesh, 4))
        assert factor_calls == []

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
        block, half = interface_block(system, dec)
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
        block, _ = interface_block(system, dec)
        at = np.searchsorted(np.flatnonzero(~system.dirichlet_mask), columns)
        dense = refined_operator(system, dec)[np.ix_(at, at)]
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
        assert_block_matches_reference(system, dec)
        dense = np.linalg.eigvals(preconditioned_operator(system, dec))
        scale = max(1.0, float(np.abs(dense).max()))
        assert eigs.shape == dense.shape
        # as multisets: eigenvalues tied on Re = 1 may come in either order
        cost = np.abs(eigs[:, None] - dense[None, :])
        assert cost[linear_sum_assignment(cost)].max() < 1e-8 * scale
        columns = interface_unknowns(system, dec)
        assert np.count_nonzero(eigs == 1.0) >= eigs.size - columns.size
        # S, sorted and free of Dirichlet dofs: the interface lines and the
        # free dofs no subdomain owns
        lines = np.concatenate([sub.interface_free for sub in dec.subdomains])
        owned = np.concatenate([sub.owned_free for sub in dec.subdomains])
        unowned = np.setdiff1d(np.flatnonzero(~system.dirichlet_mask), owned)
        assert (np.diff(columns) > 0).all() and not system.dirichlet_mask[columns].any()
        np.testing.assert_array_equal(columns, np.union1d(lines, unowned))


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

    @pytest.mark.parametrize(
        "name, run",
        [("ras_iters", lambda system, dec, solve, load: gmres(solve, load, ras_iters=-1)),
         ("max_iter", lambda system, dec, solve, load: gmres(solve, load, max_iter=-1)),
         ("n_iter", lambda system, dec, solve, load: stationary_ras(solve, load, -1)),
         ("n_iter", lambda system, dec, solve, load: schwarz_iterate(
             system, dec, seeded_initial_guess(system, seed=1), -1))],
        ids=["gmres", "gmres-max_iter", "stationary_ras", "schwarz_iterate"],
    )
    def test_rejects_negative_counts(self, small_setup, name, run):
        system, dec = small_setup
        load = system.matrix @ seeded_initial_guess(system, seed=11)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
            run(system, dec, RestrictedSolve(system, dec), load)

    @pytest.mark.parametrize("restart", [0, -2])
    def test_rejects_restart_below_one(self, small_setup, restart):
        system, dec = small_setup
        load = system.matrix @ seeded_initial_guess(system, seed=11)
        with pytest.raises(ValueError, match=f"^restart must be >= 1 or None, got {restart}$"):
            gmres(RestrictedSolve(system, dec), load, restart=restart)

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

    @pytest.mark.parametrize("j", [997, -600, -1000])
    def test_huge_finite_load_runs_like_a_unit_load(self, medium, j):
        # a load 2^j times a unit one: at 997 the preconditioned load norm
        # is about 4e301, finite though its squares overflow, and at -600
        # and -1000 its squares underflow; `_l2_norm` scales its norms
        # exactly by 2^j, so GMRES runs on the load as given
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        solve = RestrictedSolve(system, decompose(mesh, 4))
        target = seeded_initial_guess(system, seed=1)
        unit = gmres(solve, system.matrix @ target)
        huge = gmres(solve, system.matrix @ (2.0**j * target))
        assert huge.converged and not huge.nonfinite
        assert huge.iterations == unit.iterations
        # the histories may differ in their last bits, where the scaled
        # vectors reach subnormal values
        np.testing.assert_allclose(huge.history, unit.history, rtol=1e-14)
        np.testing.assert_array_equal(huge.x, 2.0**j * unit.x)

    def test_cycle_memory_follows_its_steps(self, medium):
        # a cycle holds an n-vector and a Hessenberg column per step it
        # takes, not per step it may take: 500 allowed, 18 taken
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        solve = RestrictedSolve(system, decompose(mesh, 4))
        rhs = system.matrix @ seeded_initial_guess(system, seed=1)
        tracemalloc.start()
        try:
            result = gmres(solve, rhs, max_iter=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak <= (result.iterations + 16) * 8 * system.n_dofs

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

    def test_interface_block_and_shared_factor(self, phase_pair, factor_calls, doublings):
        real, rotated, dec, load, mirrored = phase_pair
        block, half = assert_block_matches_reference(real, dec)
        rotated_block, rotated_half = assert_block_matches_reference(rotated, dec)
        # both sweep through the doubling, the asymmetric strip's two
        # subdomains from different columns
        assert doublings == ([17] if mirrored else [17, 27]) * 2
        del factor_calls[:]
        solve = RestrictedSolve(real, dec)
        calls = len(factor_calls)
        rotated_solve = RestrictedSolve(rotated, dec)
        assert len(factor_calls) - calls == calls == (1 if mirrored else 2)
        # a real vector through a complex factor: M^-1 scales by 1 / PHASE
        z = solve(load)
        rotated_z = rotated_solve(load)
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
        # real one
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), nx, ny)
        real = assemble(mesh, medium, 1.0)
        rotated = dataclasses.replace(real, matrix=PHASE * real.matrix)
        dec = decompose(mesh, 4)
        n = int(np.count_nonzero(~real.dirichlet_mask))
        m = interface_unknowns(real, dec).size
        if budgeted == "spectrum":
            # the one need `interface_block` checks, on the real system
            needs, check = [], schwarz._check_budget
            with monkeypatch.context() as patch:
                patch.setattr(schwarz, "_check_budget",
                              lambda what, needed: needs.append(needed) or check(what, needed))
                spectrum(real, dec)
            [real_need] = needs
            assert real_need > 8 * 2 * m * m  # the block and LAPACK's copy
        else:
            # the reserve of `preconditioned_operator`: its n_dofs x n
            # right-hand sides and solutions, the operator and its eigenproblem
            real_need = 8 * n * (2 * real.n_dofs + 4 * n)
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
        for v in (complex_load, block):
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


def cli_problem(config, overrides):
    """A `gmres` command's system, decomposition and load."""
    from elastic_schwarz import cli

    cfg = cli.load_config(config, overrides)
    system, dec = cli._problem(cfg)
    return system, dec, cli.experiment_load(cfg, system)


@pytest.fixture(scope="module", params=[None, ASYMMETRIC_STRIP],
                ids=["mirrored", "asymmetric"])
def gmres_problem(request):
    """The `gmres` command's system, decomposition and load at omega 5: the
    mirrored 40x20 strip (one shared factor) and the asymmetric strip (two)."""
    overrides = {"omega": 5.0} if request.param else {"nx": 40, "ny": 20, "omega": 5.0}
    return cli_problem(request.param, overrides)


class TestSharedRasHistory:
    """`stationary_ras` from a `gmres` result reads its first steps off the
    first GMRES cycle and continues from their state; history and iterate
    agree with the direct iteration within 1e-10, relative, and the history
    within 1e-13 of the initial residual where it is near zero: each
    iteration's roundoff is relative to its unit start."""

    @staticmethod
    def counted_applies(monkeypatch) -> list:
        """Records a 1 for each `ras_apply` call until ``monkeypatch.undo``."""
        applied = []
        apply = schwarz.ras_apply
        monkeypatch.setattr(schwarz, "ras_apply", lambda *a: applied.append(1) or apply(*a))
        return applied

    @staticmethod
    def assert_shared_is_direct(solve, rhs, n_iter, result, direct_solve=None):
        x, history = stationary_ras(solve, rhs, n_iter, start=result)
        x_direct, direct = stationary_ras(direct_solve or solve, rhs, n_iter)
        assert history.size == direct.size
        np.testing.assert_allclose(history, direct, rtol=1e-10, atol=1e-13)
        assert _l2_norm(x - x_direct) <= 1e-10 * _l2_norm(x_direct)
        return history

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    @pytest.mark.parametrize("config", [None, ASYMMETRIC_STRIP], ids=["mirrored", "asymmetric"])
    def test_strips(self, config, omega):
        overrides = {"omega": omega} if config else {"nx": 40, "ny": 20, "omega": omega}
        system, dec, rhs = cli_problem(config, overrides)
        solve = RestrictedSolve(system, dec)
        result = gmres(solve, rhs, ras_iters=50)
        shared = result.ras[3]
        assert result.converged and len(shared) - 1 == result.iterations < 50
        assert np.isfinite(shared).all()
        history = self.assert_shared_is_direct(solve, rhs, 50, result)
        assert history.size == 51 and (history[-1] > 1.0) == (omega == 5.0)

    @pytest.fixture(scope="class")
    def divergent(self):
        """The 40x20 strip at omega 5 and its solve: GMRES takes 17 steps."""
        system, dec, rhs = cli_problem(None, {"nx": 40, "ny": 20, "omega": 5.0})
        return system, dec, RestrictedSolve(system, dec), rhs

    def test_restarted_run_shares_its_first_cycle(self, divergent):
        _, _, solve, rhs = divergent
        result = gmres(solve, rhs, restart=10, ras_iters=50)
        assert result.converged and result.iterations > 10
        assert len(result.ras[3]) == 11 and np.isfinite(result.ras[3]).all()
        self.assert_shared_is_direct(solve, rhs, 50, result)

    def test_fewer_steps_than_gmres_come_from_the_first_cycle(self, divergent, monkeypatch):
        _, _, solve, rhs = divergent
        result = gmres(solve, rhs, ras_iters=10)
        assert result.iterations == 17
        assert len(result.ras[3]) == 11 and np.isfinite(result.ras[3]).all()
        applied = self.counted_applies(monkeypatch)
        _, history = stationary_ras(solve, rhs, 10, start=result)
        assert history.size == 11 and not applied
        monkeypatch.undo()
        self.assert_shared_is_direct(solve, rhs, 10, result)
        with pytest.raises(ValueError, match="n_iter"):
            stationary_ras(solve, rhs, 9, start=result)

    def test_start_converged_before_any_cycle(self, divergent, monkeypatch):
        # at tol 2 GMRES stops at M^-1 b, so the iteration resumes from zero
        # and is the direct one, bit for bit: 1 + 50 applications
        _, _, solve, rhs = divergent
        applied = self.counted_applies(monkeypatch)
        result = gmres(solve, rhs, tol=2.0)
        x, history = stationary_ras(solve, rhs, 50, start=result)
        assert result.converged and result.iterations == 0 and len(applied) == 51
        monkeypatch.undo()
        x_direct, direct = stationary_ras(solve, rhs, 50)
        np.testing.assert_array_equal(history, direct)
        np.testing.assert_array_equal(x, x_direct)

    def test_zero_load_takes_one_application(self, divergent, monkeypatch):
        _, _, solve, rhs = divergent
        applied = self.counted_applies(monkeypatch)
        result = gmres(solve, np.zeros_like(rhs))
        x, history = stationary_ras(solve, np.zeros_like(rhs), 50, start=result)
        assert len(applied) == 1 and not x.any()
        np.testing.assert_array_equal(history, np.r_[1.0, np.zeros(50)])

    def test_overflow_stops_where_beta_y_is_not_finite(self, divergent):
        # the load of `--initial-error 1e300`: |z_13| passes the largest double
        system, _, solve, rhs = divergent
        result = gmres(solve, 1e300 / 0.789 * rhs)
        shared = result.ras[3]
        assert result.converged and len(shared) == 14
        assert np.isfinite(shared[:13]).all() and shared[13] == np.inf
        history = self.assert_shared_is_direct(solve, 1e300 / 0.789 * rhs, 50, result)
        assert history.size == 13

    def test_identity_system_breaks_down_happily(self):
        system, dec, rhs = cli_problem(None, {"nx": 40, "ny": 20, "identity_system": True})
        solve = RestrictedSolve(system, dec)
        result = gmres(solve, rhs)
        assert result.converged and result.iterations == 1
        np.testing.assert_array_equal(result.ras[3], [1.0, 0.0])
        self.assert_shared_is_direct(solve, rhs, 50, result)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_only_finite_arnoldi_steps_are_shared(self, divergent, poisoned_solve):
        # the solves break down after the load and three Krylov steps
        system, dec, _, rhs = divergent
        solve = poisoned_solve(4)(system, dec)
        result = gmres(solve, rhs, ras_iters=50)
        shared = result.ras[3]
        assert result.nonfinite and len(shared) == 4 and np.isfinite(shared).all()
        history = self.assert_shared_is_direct(
            solve, rhs, 50, result, direct_solve=poisoned_solve(4)(system, dec)
        )
        assert history.size == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_recomputed_residual(self, divergent, poisoned_solve):
        # max_iter 3 ends the cycle after three finite Arnoldi steps, and
        # the 5th M^-1 application, the recomputed residual, is not finite
        system, dec, _, rhs = divergent
        result = gmres(poisoned_solve(4)(system, dec), rhs, max_iter=3)
        assert result.nonfinite and not (result.converged or result.stagnated)
        np.testing.assert_allclose(result.history, [1.0, 0.98445, 0.38265, 0.098052],
                                   rtol=1e-4)
        assert not result.x.any() and len(result.ras[3]) == 4


class TestGmresDenseReference:
    def test_matches_scipy_on_the_dense_free_operator(self, gmres_problem):
        # the full-length operator v -> M^-1 A v of `gmres` against SciPy's
        # GMRES on the dense M^-1 A over the free unknowns, in one cycle
        system, dec, rhs = gmres_problem
        solve = RestrictedSolve(system, dec)
        result = gmres(solve, rhs, tol=1e-6, max_iter=500)
        free = np.flatnonzero(~system.dirichlet_mask)
        dense = preconditioned_operator(system, dec)
        b_pre = solve(rhs)[free]
        estimates = []
        scipy_gmres(dense, b_pre, rtol=1e-6, atol=0.0, restart=500, maxiter=1,
                    callback=estimates.append, callback_type="pr_norm")
        assert result.converged and result.iterations == len(estimates)
        np.testing.assert_allclose(result.history[1:-1], estimates[:-1], rtol=1e-8)
        own = np.linalg.norm(b_pre - dense @ result.x[free]) / np.linalg.norm(b_pre)
        assert result.history[-1] == pytest.approx(own, rel=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_triangle_takes_the_zero_correction(self):
        # M^-1 A is the nilpotent shift e_i -> e_(i+1) on 12 dofs and the
        # load e_10, so M^-1 b = e_11 and the first Arnoldi step maps it to
        # 0: the rotated triangle is singular, and its pseudo-solve, as
        # SciPy's, gives a zero correction where the estimate reads 0
        n = 12
        shift = np.eye(n, k=-1)

        class ShiftSolve:
            system = fem.AssembledSystem(csr_matrix(np.eye(n)), np.zeros(n),
                                         np.zeros(n, dtype=bool),
                                         build_mesh((0.0, 1.0), (0.0, 1.0), 1, 2))

            def __call__(self, v):
                return shift @ v

        load = np.eye(n)[10]
        result = gmres(ShiftSolve(), load)
        assert result.stagnated and not (result.converged or result.nonfinite)
        assert result.history.tolist() == [1.0, 1.0] and not result.x.any()
        estimates = []
        x, info = scipy_gmres(shift, shift @ load, rtol=1e-6, atol=0.0, restart=n, maxiter=1,
                              callback=estimates.append, callback_type="pr_norm")
        assert estimates == [0.0] and info == 1 and not x.any()
        assert result.iterations == len(estimates)


class TestSolveSharesNoState:
    """The iterations on one `RestrictedSolve` keep nothing between calls, so
    `gmres` and `stationary_ras` may run in either order, or side by side."""

    @pytest.fixture(scope="class")
    def solve_and_load(self, gmres_problem):
        system, dec, rhs = gmres_problem
        return RestrictedSolve(system, dec), rhs

    def test_order_of_the_iterations(self, solve_and_load):
        # RAS before GMRES, GMRES, then both again on the same solve
        solve, rhs = solve_and_load
        runs = [(stationary_ras(solve, rhs, 50), gmres(solve, rhs)) for _ in range(2)]
        ((x_first, ras_first), gmres_first), ((x_after, ras_after), gmres_after) = runs
        assert ras_first.size == 51 and gmres_first.converged
        np.testing.assert_array_equal(ras_after, ras_first)
        np.testing.assert_array_equal(x_after, x_first)
        np.testing.assert_array_equal(gmres_after.history, gmres_first.history)
        np.testing.assert_array_equal(gmres_after.x, gmres_first.x)

    def test_solve_leaves_its_input(self, solve_and_load):
        solve, v = solve_and_load
        for load in (v, np.stack([v, -v], axis=1), v + 0.5j * v[::-1]):
            kept = load.copy()
            first = solve(load)
            np.testing.assert_array_equal(load, kept)
            np.testing.assert_array_equal(solve(load), first)


def reference_dissection(mesh, dofs):
    """`schwarz._dissection` as a recursion over boxes: a box's nodes before
    its middle line, those after it, then those on it."""
    nodes = list(dict.fromkeys((dofs // 2).tolist()))
    column = {node: node % (mesh.nx + 1) for node in nodes}
    row = {node: node // (mesh.nx + 1) for node in nodes}

    def ordered(members, x0, x1, y0, y1):
        if not members or (x0 == x1 and y0 == y1):
            return members
        if x1 - x0 >= y1 - y0:
            at, split = column, (x0 + x1) // 2
            boxes = (x0, split - 1, y0, y1), (split + 1, x1, y0, y1)
        else:
            at, split = row, (y0 + y1) // 2
            boxes = (x0, x1, y0, split - 1), (x0, x1, split + 1, y1)
        before = [node for node in members if at[node] < split]
        after = [node for node in members if at[node] > split]
        return (ordered(before, *boxes[0]) + ordered(after, *boxes[1])
                + [node for node in members if at[node] == split])

    xs, ys = [column[node] for node in nodes], [row[node] for node in nodes]
    order = ordered(nodes, min(xs), max(xs), min(ys), max(ys))
    positions = {node: [] for node in nodes}
    for i, node in enumerate((dofs // 2).tolist()):
        positions[node].append(i)
    return np.array([i for node in order for i in positions[node]])


class TestDissection:
    @pytest.mark.parametrize("case", ["left", "right", "asymmetric", "single_domain", "scattered"])
    def test_matches_the_recursion(self, case):
        if case == "scattered":
            # a seeded random 30 % of the nodes of an 11x7 mesh
            mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 11, 7)
            nodes = np.flatnonzero(np.random.default_rng(9).random(mesh.n_nodes) < 0.3)
            dofs = np.stack([2 * nodes, 2 * nodes + 1], axis=1).ravel()
        elif case == "single_domain":
            mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 24, 10)
            dofs = single_domain(mesh).subdomains[0].interior_free
        else:
            mesh = build_mesh((-1.0, 1.5 if case == "asymmetric" else 1.0), (0.0, 1.0), 30, 12)
            dofs = decompose(mesh, 4).subdomains[case == "right"].interior_free
        np.testing.assert_array_equal(
            schwarz._dissection(mesh, dofs), reference_dissection(mesh, dofs))

    @pytest.mark.parametrize("config, overrides", [
        (None, {}), (ASYMMETRIC_STRIP, {}), (None, {"single_domain": True}),
    ], ids=["mirrored", "asymmetric", "single_domain"])
    def test_order_permutes_whole_nodes(self, config, overrides):
        from elastic_schwarz import cli

        size = {} if config else {"nx": 40, "ny": 20}
        system, dec = cli._problem(cli.load_config(config, {**size, **overrides}))
        for sub in dec.subdomains:
            order = schwarz._dissection(system.mesh, sub.interior_free)
            np.testing.assert_array_equal(np.sort(order), np.arange(sub.interior_free.size))
            read = sub.interior_free[order]
            assert (read[0::2] % 2 == 0).all() and (read[1::2] == read[0::2] + 1).all()
            np.testing.assert_array_equal(
                schwarz._dissection(system.mesh, sub.interior_free), order)

    def test_first_separator_comes_last(self):
        # the 7 x 3 interior nodes of the 8x4 mesh split at their middle
        # column 4, whose 3 nodes close the order, and each half's 3 x 3
        # box at its middle column, 2 and 6
        mesh = build_mesh((0.0, 1.0), (0.0, 1.0), 8, 4)
        dofs = single_domain(mesh).subdomains[0].interior_free
        nodes = dofs[schwarz._dissection(mesh, dofs)][0::2] // 2
        columns = mesh.node_columns()[nodes]
        np.testing.assert_array_equal(columns[-3:], 4)
        np.testing.assert_array_equal(columns[6:9], 2)
        np.testing.assert_array_equal(columns[15:18], 6)
        np.testing.assert_array_equal(np.sort(columns[:6]), [1, 1, 1, 3, 3, 3])

    def test_fill_below_minimum_degree(self, medium, monkeypatch):
        # 160x80 at omega 5: the shared factor's L+U against SuperLU's
        # MMD_AT_PLUS_A ordering of the same subdomain matrix
        from scipy.sparse.linalg import splu

        fills = []

        def counting(matrix, **kwargs):
            lu = splu(matrix, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(schwarz, "splu", counting)
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 160, 80)
        system = assemble(mesh, medium, 5.0)
        dec = decompose(mesh, 4)
        RestrictedSolve(system, dec)
        interior = dec.subdomains[0].interior_free
        mmd = splu(system.matrix[interior][:, interior].tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert len(fills) == 1 and fills[0] < mmd.L.nnz + mmd.U.nnz

    @pytest.mark.parametrize("config, calls", [(None, 1), (ASYMMETRIC_STRIP, 2)],
                             ids=["mirrored", "asymmetric"])
    def test_one_factor_per_distinct_subdomain(self, factor_calls, config, calls):
        system, dec, rhs = cli_problem(config, {} if config else {"nx": 40, "ny": 20})
        solve = RestrictedSolve(system, dec)
        assert len(factor_calls) == calls
        want = reference_solve(system, dec, rhs)
        assert np.abs(solve(rhs) - want).max() <= 1e-10 * np.abs(want).max()

    def test_single_domain_solves_the_system(self, medium):
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 40, 20)
        system = assemble(mesh, medium, 5.0)
        rhs = np.where(system.dirichlet_mask, 0.0,
                       np.random.default_rng(8).standard_normal(system.n_dofs))
        x = ras_apply(RestrictedSolve(system, single_domain(mesh)), rhs)
        free = ~system.dirichlet_mask
        residual = system.matrix[free][:, free] @ x[free] - rhs[free]
        assert _l2_norm(residual) <= 1e-10 * _l2_norm(rhs)


class TestFactorBudget:
    @pytest.mark.parametrize("nx, fill", [(160, 1.34e6), (320, 6.96e6), (640, 34.2e6)])
    def test_estimate_bounds_the_measured_fill(self, monkeypatch, nx, fill):
        # the L+U fill measured at omega 5 under SuperLU's MMD_AT_PLUS_A
        # ordering, above the nested-dissection fill of the factor (1.31e6,
        # 6.68e6 and 32.7e6), 12 bytes an entry; the check runs on an
        # identity system, whose one shared factor is never built, so the
        # 640x320 strip costs no factor
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

    def test_budget_sums_the_block_and_the_sweep(
        self, medium, monkeypatch, factor_calls, sweeps
    ):
        # the 8x400 strip at omega 1: a 1596 x 1596 interface block and its
        # copy take 40.8 MB, under 45 MB; the left subdomain's sweep adds
        # at least 6 column blocks of 798 x 1597 (61.2 MB), and it never
        # starts
        mesh = build_mesh((-1.0, 1.0), (0.0, 1.0), 8, 400)
        system = assemble(mesh, medium, 1.0)
        dec = decompose(mesh, 4)
        m = interface_unknowns(system, dec).size
        budget = 45 * 10**6
        assert 8 * 2 * m * m < budget < 8 * (2 * m * m + 6 * 798 * 1597)
        monkeypatch.setattr(schwarz, "MEMORY_BUDGET_BYTES", budget)
        match = "a 1596 x 1596 interface block .* column blocks of its sweep .*coarser"
        with pytest.raises(BudgetExceededError, match=match):
            spectrum(system, dec)
        assert factor_calls == [] and sweeps == []
