import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastic_schwarz import analysis, modesim
from elastic_schwarz.analysis import (
    DegenerateModeError,
    ElasticMedium,
    Zone,
    asymptotic_slope,
    basis_matrices,
    characteristic_roots,
    classify_zone,
    convergence_factor,
    eigenvalues_closed_form,
    first_order_coefficient,
    iteration_matrix,
    max_rho,
    principal_sqrt,
    sweep,
    wave_speeds,
)

# moderate parameter ranges: the invariants are exact algebra, but extreme
# magnitudes would only probe floating-point conditioning, not the math
media = st.builds(
    ElasticMedium,
    rho=st.floats(0.1, 10.0),
    lame_lambda=st.floats(0.1, 10.0),
    lame_mu=st.floats(0.1, 10.0),
)
omegas = st.floats(0.5, 5.0)
wavenumbers = st.floats(0.0, 20.0)
overlaps = st.floats(0.0, 0.3)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestArrayCalls:
    """An array of wavenumbers runs the scalar code once, element-wise."""

    @given(
        medium=media, omega=omegas, delta=overlaps,
        extra=st.lists(wavenumbers, max_size=12),
    )
    # the longest array numpy still evaluates out of place: 16,383 entries
    # (from 16,384 on, in place, the last bit may differ)
    @example(
        medium=ElasticMedium.from_speeds(rho=1.0, cp=1.0, cs=0.5), omega=5.0,
        delta=0.1, extra=np.linspace(0.0, 30.0, 16380).tolist(),
    )
    # one wavenumber in each zone: stagnant, boundary, divergent, contractive
    @example(
        medium=ElasticMedium.from_speeds(rho=1.0, cp=1.0, cs=0.5), omega=1.0,
        delta=0.1, extra=[1.5, 3.0],
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_array_call_equals_scalar_calls(self, medium, omega, delta, extra):
        # k = 0 and both cut-offs exactly, plus random wavenumbers
        grid = np.array([0.0, omega / medium.cp, omega / medium.cs, *extra])
        plus, minus = eigenvalues_closed_form(medium, omega, grid, delta)
        zones = classify_zone(grid, omega, medium.cp, medium.cs)
        sym = characteristic_roots(medium, omega, grid)
        assert zones[1] is zones[2] is Zone.BOUNDARY
        if extra == [1.5, 3.0]:
            assert list(zones) == [Zone.STAGNANT, *[Zone.BOUNDARY] * 2,
                                   Zone.DIVERGENT, Zone.CONTRACTIVE]
        # every entry of a short grid, 300 spread over a long one
        for i in np.unique(np.linspace(0, grid.size - 1, 300).astype(int)).tolist():
            k = grid[i].item()
            r_plus, r_minus = eigenvalues_closed_form(medium, omega, k, delta)
            assert type(r_plus) is complex and type(r_minus) is complex
            assert same_bits(r_plus, plus[i]) and same_bits(r_minus, minus[i])
            assert classify_zone(k, omega, medium.cp, medium.cs) is zones[i]
            one = characteristic_roots(medium, omega, k)
            assert one.zone is sym.zone[i]
            for name in ("lambda1", "lambda2", "x1", "x2"):
                assert same_bits(getattr(one, name), getattr(sym, name)[i])

    def test_scalar_calls_return_python_scalars(self, medium):
        assert type(principal_sqrt(-4.0)) is complex
        assert type(convergence_factor(medium, 1.0, 1.5, 0.1)) is float
        assert type(first_order_coefficient(medium, 1.0, 1.5)) is float
        it = iteration_matrix(medium, 1.0, 1.5, 0.1)
        assert it.r.shape == (2, 2) and type(it.rho_cla) is float
        assert it.zone is Zone.DIVERGENT

    def test_array_shapes(self, medium):
        ks = np.linspace(0.0, 3.0, 12).reshape(3, 4)
        assert convergence_factor(medium, 1.0, ks, 0.1).shape == (3, 4)
        assert classify_zone(ks, 1.0, 1.0, 0.5).shape == (3, 4)
        it = iteration_matrix(medium, 1.0, ks, 0.1)
        assert it.r.shape == (3, 4, 2, 2)
        np.testing.assert_array_equal(
            it.r[1, 2], iteration_matrix(medium, 1.0, float(ks[1, 2]), 0.1).r
        )
        # a scalar k broadcast with an array of frequencies
        omegas = np.array([1.0, 5.0])
        plus, _ = eigenvalues_closed_form(medium, omegas, 1.5, 0.1)
        assert plus.shape == (2,)
        assert plus[1] == eigenvalues_closed_form(medium, 5.0, 1.5, 0.1)[0]
        zones = classify_zone(1.5, omegas, 1.0, 0.5)
        assert list(zones) == [Zone.DIVERGENT, Zone.STAGNANT]
        assert characteristic_roots(medium, omegas, 1.5).k.shape == (2,)

    def test_degenerate_guard_names_first_offending_k(self, medium, monkeypatch):
        from elastic_schwarz import analysis

        # |k^2 - lambda1*lambda2| is 2.68, 1.98 and 1.93 on this grid
        monkeypatch.setattr(analysis, "_ROOT_PRODUCT_GUARD", 2.0)
        with pytest.raises(DegenerateModeError, match="at k=0.25,"):
            characteristic_roots(medium, 1.0, np.array([3.0, 0.25, 0.5]))
        # with an array of frequencies, the omega of the offending entry
        with pytest.raises(DegenerateModeError, match="at k=0.25, omega=0.5$"):
            characteristic_roots(
                medium, np.array([1.0, 0.5, 1.0]), np.array([3.0, 0.25, 0.5])
            )


class TestWaveSpeeds:
    def test_reference_values(self):
        assert wave_speeds(1.0, 0.5, 0.25) == (1.0, 0.5)
        assert all(type(c) is float for c in wave_speeds(1.0, 0.5, 0.25))

    def test_scaled_medium(self):
        assert wave_speeds(4.0, 2.0, 1.0) == (1.0, 0.5)
        # the reference and the scaled medium as one array of media
        rho, lam, mu = np.array([[1.0, 4.0], [0.5, 2.0], [0.25, 1.0]])
        cp, cs = wave_speeds(rho, lam, mu)
        assert cp.tolist() == [1.0, 1.0] and cs.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "rho,lam,mu,field",
        [
            (1.0, 0.0, 1.0, "lame_lambda"),
            (1.0, 0.5, 0.0, "lame_mu"),
            (0.0, 0.5, 0.25, "rho"),
            (1.0, -1.0, 0.25, "lame_lambda"),
            (np.array([1.0, 0.0]), 0.5, 0.25, "rho"),
            (1.0, 0.5, np.array([0.25, np.nan]), "lame_mu"),
        ],
    )
    def test_rejects_nonpositive(self, rho, lam, mu, field):
        with pytest.raises(ValueError, match=field):
            wave_speeds(rho, lam, mu)

    def test_from_speeds_round_trip(self, medium):
        assert medium.lame_lambda == pytest.approx(0.5, rel=1e-15)
        assert medium.lame_mu == pytest.approx(0.25, rel=1e-15)
        assert medium.cp == pytest.approx(1.0, rel=1e-12)
        assert medium.cs == pytest.approx(0.5, rel=1e-12)

    @given(rho=st.floats(0.1, 10.0), cs=st.floats(0.1, 5.0), ratio=st.floats(1.5, 4.0))
    def test_from_speeds_round_trip_random(self, rho, cs, ratio):
        cp = ratio * cs
        m = ElasticMedium.from_speeds(rho, cp, cs)
        assert m.cp == pytest.approx(cp, rel=1e-12)
        assert m.cs == pytest.approx(cs, rel=1e-12)

    def test_from_speeds_rejects_small_contrast(self):
        # cp <= sqrt(2) cs would force a nonpositive first Lame coefficient
        with pytest.raises(ValueError, match="Lame"):
            ElasticMedium.from_speeds(1.0, 1.0, 0.9)
        with pytest.raises(ValueError, match="cp > cs"):
            ElasticMedium.from_speeds(1.0, 0.5, 1.0)


def exact_ratios(medium: ElasticMedium, omega: float, k: float):
    """x1 = (k^2 + l1 l2) / (k^2 - l1 l2) and x2 = -2i k l2 / (k^2 - l1 l2)
    in 700-digit decimal arithmetic (k^2 and l1 l2 of k = 1e150 agree to
    300 digits) from the floats k^2 and (omega/c)^2 the code forms: the
    principal roots l = sqrt(r) of r >= 0 and i sqrt(-r) of r < 0, where
    r_s <= r_p."""
    with localcontext() as ctx:
        ctx.prec = 700
        k2 = Decimal(k * k)
        rad = [k2 - Decimal((omega / c) ** 2) for c in (medium.cs, medium.cp)]
        (m1, m2), (imag1, imag2) = (abs(r).sqrt() for r in rad), (r < 0 for r in rad)
        # l1 l2 is real (+-m1 m2) or, when only l1 is imaginary, i m1 m2
        re = Decimal(0) if imag1 and not imag2 else (-1 if imag2 else 1) * m1 * m2
        im = m1 * m2 if imag1 and not imag2 else Decimal(0)
        num, den = complex(k2 + re, im), complex(k2 - re, -im)
    lam2 = 1j * float(m2) if imag2 else float(m2)
    return num / den, -2j * k * lam2 / den


class TestCharacteristicRoots:
    def test_evanescent_mode(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        assert sym.lambda1 == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert sym.lambda2 == pytest.approx(math.sqrt(8.0), rel=1e-15)
        assert sym.zone is Zone.CONTRACTIVE

    def test_propagative_mode_k0(self, medium):
        sym = characteristic_roots(medium, 1.0, 0.0)
        assert sym.lambda1 == pytest.approx(2.0j, rel=1e-15)
        assert sym.lambda2 == pytest.approx(1.0j, rel=1e-15)
        assert sym.zone is Zone.STAGNANT

    def test_pressure_cutoff_is_boundary(self, medium):
        sym = characteristic_roots(medium, 1.0, 1.0)
        assert sym.lambda2 == 0
        assert sym.zone is Zone.BOUNDARY

    def test_shear_cutoff_is_boundary(self, medium):
        sym = characteristic_roots(medium, 1.0, 2.0)
        assert sym.lambda1 == 0
        assert sym.zone is Zone.BOUNDARY

    def test_rejects_nonpositive_omega(self, medium):
        with pytest.raises(ValueError, match="omega"):
            characteristic_roots(medium, 0.0, 1.0)

    @given(medium=media, omega=omegas, k=wavenumbers)
    def test_roots_square_back(self, medium, omega, k):
        sym = characteristic_roots(medium, omega, k)
        assert cmath.isclose(
            sym.lambda1**2, k * k - (omega / medium.cs) ** 2, abs_tol=1e-9
        )
        assert cmath.isclose(
            sym.lambda2**2, k * k - (omega / medium.cp) ** 2, abs_tol=1e-9
        )
        assert sym.lambda1.real >= 0 and sym.lambda2.real >= 0

    @given(medium=media, omega=omegas, k=wavenumbers)
    def test_auxiliary_ratios_definition(self, medium, omega, k):
        sym = characteristic_roots(medium, omega, k)
        x1, x2 = exact_ratios(medium, omega, k)
        # x1 passes through zero at k^2 = a b / (a + b) inside the
        # propagative band, where only an absolute bound holds
        assert cmath.isclose(sym.x1, x1, rel_tol=1e-12, abs_tol=1e-12)
        assert cmath.isclose(sym.x2, x2, abs_tol=1e-12)

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    @pytest.mark.parametrize("ratio", [1.5, 10.0, 1e4, 1e8, 6.75e7, 1e150])
    def test_ratios_keep_their_digits_at_large_k(self, medium, omega, ratio):
        # k^2 - lambda1*lambda2 by subtraction lost every digit here:
        # 6.75e7 omega/cs = 1.35e8 at omega = 1 gave a false degenerate mode
        k = ratio * omega / medium.cs
        sym = characteristic_roots(medium, omega, k)
        x1, x2 = exact_ratios(medium, omega, k)
        assert cmath.isclose(sym.x1, x1, rel_tol=1e-14)
        assert cmath.isclose(sym.x2, x2, rel_tol=1e-14)


class TestPrincipalSqrt:
    @given(x=st.floats(-1e6, 1e6))
    def test_branch(self, x):
        root = principal_sqrt(x)
        assert root.real >= 0.0
        if x < 0:
            assert root.real == 0.0 and root.imag > 0.0
        assert cmath.isclose(root * root, x, rel_tol=1e-12, abs_tol=1e-12)


class TestBasisMatrices:
    def test_left_basis_at_zero(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        m0 = basis_matrices(sym, 0.0).m_x
        expected = np.array(
            [
                [1.0, -1j * math.sqrt(8.0) / 3.0],
                [1j * math.sqrt(5.0) / 3.0, 1.0],
            ]
        )
        np.testing.assert_allclose(m0, expected, rtol=0, atol=1e-15)

    def test_right_basis_mirrors_left(self, medium):
        # at x=0 the two bases differ only by the sign of the off-diagonals
        sym = characteristic_roots(medium, 1.0, 3.0)
        pair = basis_matrices(sym, 0.0)
        np.testing.assert_allclose(
            pair.n_x, pair.m_x * np.array([[1, -1], [-1, 1]]), atol=1e-15
        )

    @given(medium=media, omega=omegas, k=st.floats(0.05, 20.0), x=st.floats(-0.5, 0.5))
    def test_determinant_formula(self, medium, omega, k, x):
        sym = characteristic_roots(medium, omega, k)
        m_x = basis_matrices(sym, x).m_x
        det = m_x[0, 0] * m_x[1, 1] - m_x[0, 1] * m_x[1, 0]
        expected = cmath.exp((sym.lambda1 + sym.lambda2) * x) * (
            1.0 - sym.lambda1 * sym.lambda2 / (k * k)
        )
        assert cmath.isclose(det, expected, rel_tol=1e-9, abs_tol=1e-12)

    def test_rejects_k_zero(self, medium):
        sym = characteristic_roots(medium, 1.0, 0.0)
        with pytest.raises(ValueError, match="k=0"):
            basis_matrices(sym, 0.1)


class TestIterationMatrix:
    def test_identity_without_overlap(self, medium):
        it = iteration_matrix(medium, 1.0, 3.0, 0.0)
        np.testing.assert_allclose(it.r, np.eye(2), atol=1e-13)
        assert it.r_plus == 1.0 and it.r_minus == 1.0

    def test_rejects_negative_overlap(self, medium):
        with pytest.raises(ValueError, match="delta"):
            iteration_matrix(medium, 1.0, 3.0, -0.1)

    def test_matches_numeric_product(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        numeric = modesim.numeric_iteration_matrix(sym, 0.1)
        closed = iteration_matrix(medium, 1.0, 3.0, 0.1).r
        np.testing.assert_allclose(closed, numeric, rtol=0, atol=1e-10)

    def test_finite_and_unimodular_at_k0(self, medium):
        it = iteration_matrix(medium, 1.0, 0.0, 0.1)
        assert np.all(np.isfinite(it.r))
        assert abs(abs(it.r_plus) - 1.0) < 1e-12
        assert abs(abs(it.r_minus) - 1.0) < 1e-12

    @given(medium=media, omega=omegas, k=wavenumbers, delta=overlaps)
    @settings(max_examples=60)
    def test_trace_and_determinant_match_eigenvalues(self, medium, omega, k, delta):
        it = iteration_matrix(medium, omega, k, delta)
        # both sides are built through intermediates of magnitude ~|x1|^2,
        # so that is the scale the 1e-12 agreement is relative to
        x1 = characteristic_roots(medium, omega, k).x1
        scale = max(1.0, float(np.abs(it.r).max()), abs(x1) ** 2)
        trace_dev = abs(it.r_plus + it.r_minus - np.trace(it.r))
        det_dev = abs(it.r_plus * it.r_minus - np.linalg.det(it.r))
        assert trace_dev / scale < 1e-12
        assert det_dev / max(1.0, scale * scale) < 1e-12


class TestEigenvaluesClosedForm:
    @given(medium=media, omega=omegas, k=wavenumbers)
    def test_stagnation_without_overlap(self, medium, omega, k):
        r_plus, r_minus = eigenvalues_closed_form(medium, omega, k, 0.0)
        assert abs(abs(r_plus) - 1.0) <= 1e-12
        assert abs(abs(r_minus) - 1.0) <= 1e-12

    def test_divergent_band_amplifies(self, medium):
        # frozen against this implementation; > 1 is the structural claim
        rho = convergence_factor(medium, 5.0, 2.0 * math.pi, 0.1)
        assert rho > 1.0
        assert rho == pytest.approx(1.5501665519987238, rel=1e-12)

    def test_evanescent_band_contracts(self, medium):
        rho = convergence_factor(medium, 1.0, math.pi, 0.1)
        assert rho < 1.0
        assert rho == pytest.approx(0.8316151576308061, rel=1e-12)

    @given(medium=media, omega=omegas, k=st.floats(0.1, 20.0), delta=overlaps)
    def test_even_in_wavenumber(self, medium, omega, k, delta):
        plus = eigenvalues_closed_form(medium, omega, k, delta)
        minus = eigenvalues_closed_form(medium, omega, -k, delta)
        assert plus == minus

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    @pytest.mark.parametrize("ratio", [1e6, 1e7, 1e8])
    def test_overlap_one_over_k_keeps_its_limit(self, medium, omega, ratio):
        # with delta = 1/k, x1 (e^(-l1 delta) - e^(-l2 delta)) tends to
        # x = 2 (a - b) / ((a + b) e) and e^(-(l1 + l2) delta) to e^-2, up
        # to O(a / k^2); the subtracted exponentials gave |r_plus| 0.416
        # for 0.422 at k = 1e7, omega = 1
        k = ratio * omega / medium.cs
        a, b = (omega / medium.cs) ** 2, (omega / medium.cp) ** 2
        x, ea = 2.0 * (a - b) / ((a + b) * math.e), math.exp(-2.0)
        limit = 0.5 * x * x + ea + 0.5 * math.sqrt(x * x * (x * x + 4.0 * ea))
        r_plus, _ = eigenvalues_closed_form(medium, omega, k, 1.0 / k)
        assert abs(r_plus) == pytest.approx(limit, rel=1e-10)
        assert iteration_matrix(medium, omega, k, 1.0 / k).r_plus == r_plus

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_overlap_matches_subtracted_exponentials(self, medium):
        # (omega/cs) delta = 1000: e^((l2 - l1) delta) overflows past the
        # shear cut-off, so the gap must factor out the larger exponential
        k = np.linspace(1.5, 3.0, 301)
        delta = 500.0
        sym = characteristic_roots(medium, 1.0, k)
        l1, l2, x1, x2 = sym.lambda1, sym.lambda2, sym.x1, sym.x2
        e1, e2 = np.exp(-2.0 * delta * l1), np.exp(-2.0 * delta * l2)
        ea = np.exp(-delta * (l1 + l2))
        x = x1 * (np.exp(-l1 * delta) - np.exp(-l2 * delta))
        s = np.sqrt(x * x * (x * x + 4.0 * ea))
        r_plus, r_minus = eigenvalues_closed_form(medium, 1.0, k, delta)
        assert np.all(np.isfinite(r_plus)) and np.all(np.isfinite(r_minus))
        np.testing.assert_allclose(r_plus, 0.5 * x * x + ea + 0.5 * s, rtol=0, atol=1e-14)
        np.testing.assert_allclose(r_minus, 0.5 * x * x + ea - 0.5 * s, rtol=0, atol=1e-14)
        r = iteration_matrix(medium, 1.0, k, delta).r
        subtracted = np.stack(
            [ea + x1 * x1 * (e1 - ea), x1 * x2 * (e1 - ea),
             x1 * x2 * (l1 / l2) * (ea - e2), ea + x1 * x1 * (e2 - ea)], axis=-1,
        ).reshape(-1, 2, 2)
        assert np.all(np.isfinite(r))
        np.testing.assert_allclose(r, subtracted, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    def test_high_frequency_decay_envelope(self, medium, omega):
        # evanescent contraction: rho is dominated by the pressure-root decay
        delta = 0.1
        for k in np.linspace(3.0 * omega / medium.cs, 10.0 * omega / medium.cs, 40):
            lam2 = math.sqrt(k * k - (omega / medium.cp) ** 2)
            rho = convergence_factor(medium, omega, float(k), delta)
            assert rho <= 1.5 * math.exp(-lam2 * delta)


class TestClassifyZone:
    @pytest.mark.parametrize(
        "k,omega,zone",
        [
            (0.0, 1.0, Zone.STAGNANT),
            (0.5, 1.0, Zone.STAGNANT),
            (1.0, 1.0, Zone.BOUNDARY),
            (1.5, 1.0, Zone.DIVERGENT),
            (2.0, 1.0, Zone.BOUNDARY),
            (3.0, 1.0, Zone.CONTRACTIVE),
            (7.0, 5.0, Zone.DIVERGENT),
        ],
    )
    def test_band_structure(self, k, omega, zone):
        assert classify_zone(k, omega, 1.0, 0.5) is zone

    def test_validation(self):
        with pytest.raises(ValueError, match="omega"):
            classify_zone(1.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="cp > cs"):
            classify_zone(1.0, 1.0, 0.5, 1.0)


class TestSweep:
    def test_reproduces_three_zones_omega1(self, medium):
        s = sweep(medium, 1.0, 0.1, np.arange(0.0, 6.0 + 1e-12, 0.05))
        assert all((s.zone == zone).any() for zone in Zone)
        assert np.max(np.abs(s.rho_cla[s.zone == Zone.STAGNANT] - 1.0)) < 1e-9
        assert np.all(s.rho_cla[s.zone == Zone.DIVERGENT] > 1.0)
        divergent_k = s.k[s.zone == Zone.DIVERGENT]
        assert np.all((1.0 < divergent_k) & (divergent_k < 2.0))
        assert np.all(s.rho_cla[s.zone == Zone.CONTRACTIVE] < 1.0)
        assert set(s.k[s.zone == Zone.BOUNDARY].tolist()) == {1.0, 2.0}

    def test_divergent_band_omega5(self, medium):
        s = sweep(medium, 5.0, 0.1, np.linspace(0.25, 30.0, 120))
        assert np.all(s.rho_cla[(5.0 < s.k) & (s.k < 10.0)] > 1.0)
        assert np.all(np.abs(s.rho_cla[s.k < 5.0] - 1.0) < 1e-9)

    def test_zero_overlap_flat(self, medium):
        s = sweep(medium, 1.0, 0.0, np.linspace(0.0, 6.0, 40))
        assert np.all(np.abs(s.abs_r_plus - 1.0) <= 1e-12)
        assert np.all(np.abs(s.abs_r_minus - 1.0) <= 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7])
    def test_blocks_equal_one_block(self, medium, monkeypatch, n):
        ks = np.linspace(0.0, 15.0, n)  # every zone when n = 7
        whole = sweep(medium, 5.0, 0.1, ks)
        monkeypatch.setattr(analysis, "_SWEEP_BLOCK", 3)
        blocked = sweep(medium, 5.0, 0.1, ks)
        for name in ("k", "abs_r_plus", "abs_r_minus", "rho_cla", "zone"):
            np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name))

    def test_grid_validation(self, medium):
        with pytest.raises(ValueError, match="nonempty"):
            sweep(medium, 1.0, 0.1, [])
        with pytest.raises(ValueError, match="nonnegative"):
            sweep(medium, 1.0, 0.1, [-1.0, 0.0])
        with pytest.raises(ValueError, match="increasing"):
            sweep(medium, 1.0, 0.1, [0.0, 0.0, 1.0])


def assert_band_maximum(medium, omega, delta, k, rho):
    """``rho`` is the factor at ``k`` and at least its value on the
    2001-point band grid and at k (1 +- 1e-6)."""
    assert convergence_factor(medium, omega, k, delta) == rho
    lo, hi = omega / medium.cp, omega / medium.cs
    grid = np.linspace(lo, hi, 2003)[1:-1]
    assert rho >= convergence_factor(medium, omega, grid, delta).max()
    near = k * np.array([1.0 - 1e-6, 1.0 + 1e-6])
    assert rho >= convergence_factor(medium, omega, near, delta).max()


class TestMaxRho:
    def test_matches_asymptotic_slope(self, medium):
        slope = asymptotic_slope(1.0, 0.5, 1.0)
        _, rho_star = max_rho(medium, 1.0, 1e-3)
        assert (rho_star - 1.0) / 1e-3 == pytest.approx(slope, rel=5e-2)

    def test_maximizer_inside_divergent_band(self, medium):
        k1, rho1 = max_rho(medium, 1.0, 0.1)
        assert 1.0 < k1 < 2.0 and rho1 > 1.0
        k5, rho5 = max_rho(medium, 5.0, 0.1)
        assert 5.0 < k5 < 10.0 and rho5 > 1.0
        # frozen value, regression guard; the maximizer itself is not
        # frozen: rho is flat to double precision over about 1e-8..1e-7
        # relative in k around it, so k records only the search path
        assert rho1 == pytest.approx(1.134133619821779, rel=1e-12)
        assert_band_maximum(medium, 1.0, 0.1, k1, rho1)

    @given(medium=media, omega=st.floats(0.1, 10.0), log_delta=st.floats(-4.0, 0.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_band_maximum_properties(self, medium, omega, log_delta):
        delta = 10.0**log_delta
        k, rho = max_rho(medium, omega, delta)
        assert omega / medium.cp < k < omega / medium.cs
        assert_band_maximum(medium, omega, delta, k, rho)

    def test_few_array_evaluations(self, medium, monkeypatch):
        calls = []
        original = analysis.convergence_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(analysis, "convergence_factor", counting)
        for omega in (1.0, 5.0):
            for delta in (1e-1, 1e-2, 1e-3, 1e-4):
                calls.clear()
                max_rho(medium, omega, delta)
                assert 1 <= len(calls) <= 8

    def test_rejects_zero_overlap(self, medium):
        with pytest.raises(ValueError, match="delta"):
            max_rho(medium, 1.0, 0.0)


def exact_slope(cp: float, cs: float, omega: float) -> float:
    """The slope in its speed form, sqrt(2) cs omega (3 cp^2 - s)
    sqrt(cp^2 s - cp^4 - 2 cs^4) / (cp (cp^2 + cs^2)^(3/2) (s - cp^2)) with
    s = sqrt(cp^4 + 8 cs^4), in 60-digit decimal arithmetic from the float
    speeds: no power overflows there and the differences keep their digits
    down to cs/cp = 1e-3."""
    with localcontext() as ctx:
        ctx.prec = 60
        cp, cs, omega = Decimal(cp), Decimal(cs), Decimal(omega)
        s = (cp**4 + 8 * cs**4).sqrt()
        rad = cp * cp * s - cp**4 - 2 * cs**4
        return float(
            Decimal(2).sqrt() * cs * omega * (3 * cp * cp - s) * rad.sqrt()
            / (cp * (cp * cp + cs * cs) * (cp * cp + cs * cs).sqrt() * (s - cp * cp))
        )


class TestAsymptoticSlope:
    @pytest.mark.parametrize(
        "cp,cs,omega",
        [(1.0, 0.5, 1.0), (1.0, 1e-3, 1.0), (3.7, 2.6, 0.3), (1e150, 5e149, 1.0),
         (1e150, 1e147, 5.0), (1e-100, 3e-101, 2.0)],
    )
    def test_matches_exact_slope(self, cp, cs, omega):
        # the speed form overflowed on cp**4 at cp = 1e150 and lost 5e-5
        # of the slope at cs/cp = 1e-3 to cancellation
        assert asymptotic_slope(cp, cs, omega) == pytest.approx(
            exact_slope(cp, cs, omega), rel=1e-14
        )

    @given(ratio=st.floats(1e-3, 0.707), cp=st.floats(0.1, 10.0), omega=st.floats(0.1, 20.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_exact_slope_property(self, ratio, cp, omega):
        cs = ratio * cp
        assert asymptotic_slope(cp, cs, omega) == pytest.approx(
            exact_slope(cp, cs, omega), rel=1e-14
        )

    def test_reference_value(self):
        slope = asymptotic_slope(1.0, 0.5, 1.0)
        # frozen from the finite-difference cross-check of max_rho
        assert slope == pytest.approx(1.262223483562828, rel=1e-12)
        assert slope == pytest.approx(1.2623, abs=5e-4)

    @given(omega=st.floats(0.1, 20.0))
    def test_linear_in_omega(self, omega):
        base = asymptotic_slope(1.0, 0.5, 1.0)
        assert asymptotic_slope(1.0, 0.5, omega) == pytest.approx(
            omega * base, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="cp > cs"):
            asymptotic_slope(0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="omega"):
            asymptotic_slope(1.0, 0.5, 0.0)


def first_order_rho(medium: ElasticMedium, omega: float, k, delta: float):
    """First-order-in-overlap value of the convergence factor at fixed k."""
    return 1.0 + first_order_coefficient(medium, omega, k) * delta


class TestFirstOrderRho:
    def test_zero_overlap_is_exactly_one(self, medium):
        assert first_order_rho(medium, 1.0, 1.5, 0.0) == 1.0

    def test_matches_finite_difference_omega1(self, medium):
        coef = first_order_coefficient(medium, 1.0, 1.5)
        fd = (convergence_factor(medium, 1.0, 1.5, 1e-4) - 1.0) / 1e-4
        assert coef == pytest.approx(fd, rel=1e-2)
        assert coef == pytest.approx(0.5397405462930527, rel=1e-12)

    def test_matches_finite_difference_omega5(self, medium):
        value = first_order_rho(medium, 5.0, 7.0, 1e-4)
        assert value > 1.0
        fd = (convergence_factor(medium, 5.0, 7.0, 1e-4) - 1.0) / 1e-4
        assert (value - 1.0) / 1e-4 == pytest.approx(fd, rel=1e-2)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 2.5])
    def test_rejects_outside_open_band(self, medium, k):
        with pytest.raises(ValueError, match="divergent"):
            first_order_rho(medium, 1.0, k, 1e-4)
