import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_schwarz import modesim
from elastic_schwarz.analysis import (
    ElasticMedium,
    ModeSymbol,
    _shaped,
    characteristic_roots,
    convergence_factor,
    eigenvalues_closed_form,
)


@dataclass(frozen=True)
class CoefficientState:
    """Coefficient pairs of both subdomains at one sweep index (shape
    (..., 2) for a stack of modes)."""

    alpha: np.ndarray
    beta: np.ndarray
    iteration: int


def interface_step(state: CoefficientState, sym: ModeSymbol, delta: float) -> CoefficientState:
    """One parallel sweep: each side refits its coefficients to the other
    side's previous interface trace, through the oracle's half sweeps."""
    to_alpha, to_beta = (_shaped(sym.k, h) for h in modesim._half_sweeps(sym, delta))
    return CoefficientState(
        alpha=(to_alpha @ state.beta[..., None])[..., 0],
        beta=(to_beta @ state.alpha[..., None])[..., 0],
        iteration=state.iteration + 1,
    )


def eig_sorted(matrix):
    eigs = np.linalg.eigvals(matrix)
    return eigs[np.lexsort((eigs.imag, eigs.real))]


class TestNumericIterationMatrix:
    def test_identity_without_overlap(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        numeric = modesim.numeric_iteration_matrix(sym, 0.0)
        assert np.abs(numeric - np.eye(2)).max() < 1e-14

    def test_eigenvalues_match_closed_form_on_grid(self, medium):
        for omega in (1.0, 5.0):
            for k in np.linspace(0.05, 4.0 * omega / medium.cs, 120):
                k = float(k)
                if min(abs(k - omega / medium.cp), abs(k - omega / medium.cs)) < 1e-6:
                    continue
                sym = characteristic_roots(medium, omega, k)
                eigs = eig_sorted(modesim.numeric_iteration_matrix(sym, 0.1))
                r_plus, r_minus = eigenvalues_closed_form(medium, omega, k, 0.1)
                closed = sorted(
                    (r_plus, r_minus), key=lambda z: (z.real, z.imag)
                )
                scale = max(1.0, abs(r_plus), abs(r_minus))
                for a, b in zip(eigs, closed):
                    assert abs(a - b) < 1e-10 * scale

    def test_eigenvalues_match_closed_form_far_beyond_shear_cutoff(self, medium):
        # the closed form divides by k^2 - l1 l2 in its rationalized form
        # there; overlap 1/k keeps the eigenvalues near 0.42 instead of
        # letting them underflow.  The oracle's own bases lose the digits
        # of 1 - l1 l2 / k^2, about 2e-10 at 10 omega/cs, so it cannot
        # judge further out
        for omega in (1.0, 5.0):
            for k in np.geomspace(1.01, 10.0, 30) * omega / medium.cs:
                sym = characteristic_roots(medium, omega, float(k))
                eigs = eig_sorted(modesim.numeric_iteration_matrix(sym, 1.0 / k))
                closed = eig_sorted(
                    np.diag(eigenvalues_closed_form(medium, omega, float(k), 1.0 / k))
                )
                assert np.abs(eigs - closed).max() < 1e-9

    def test_divergent_mode_spectral_radius(self, medium):
        sym = characteristic_roots(medium, 5.0, 7.0)
        radius = np.abs(np.linalg.eigvals(
            modesim.numeric_iteration_matrix(sym, 0.1)
        )).max()
        assert radius > 1.0
        assert radius == pytest.approx(1.3811601851733832, rel=1e-10)

    def test_both_subdomains_spectrally_equivalent(self, medium):
        for k in (0.7, 1.5, 3.0, 6.0):
            sym = characteristic_roots(medium, 1.0, k)
            first = eig_sorted(modesim.numeric_iteration_matrix(sym, 0.1))
            second = eig_sorted(
                modesim.numeric_iteration_matrix(sym, 0.1, subdomain=2)
            )
            np.testing.assert_allclose(first, second, rtol=0, atol=1e-10)

    def test_subdomain_argument_validated(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        with pytest.raises(ValueError, match="subdomain"):
            modesim.numeric_iteration_matrix(sym, 0.1, subdomain=3)

    def test_inverse_product_is_identity(self, medium):
        for omega in (1.0, 5.0):
            for k in np.linspace(0.3, 4.0 * omega / medium.cs, 60):
                sym = characteristic_roots(medium, omega, float(k))
                forward = modesim.numeric_iteration_matrix(sym, 0.1)
                backward = modesim.numeric_iteration_matrix_inverse(sym, 0.1)
                # residual scaled by the factor magnitudes, the honest
                # backward-error normalization for an inverse check
                scale = max(
                    1.0, float(np.abs(forward).max() * np.abs(backward).max())
                )
                assert np.abs(forward @ backward - np.eye(2)).max() < 1e-12 * scale

    def test_singular_basis_reports_condition(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="condition"):
            modesim._invert_2x2(singular, "test matrix")

    def test_singular_guard_names_the_matrix_of_a_stack(self):
        stack = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]], dtype=complex)
        with pytest.raises(modesim.SingularBasisError, match="matrix 1 of"):
            modesim._invert_2x2(stack, "test stack")


class TestInterfaceStep:
    def test_double_step_equals_matrix_action(self, medium):
        sym = characteristic_roots(medium, 5.0, 7.0)
        state = CoefficientState(
            alpha=np.array([1.0 + 0.5j, -0.25j]),
            beta=np.array([0.3 + 0.0j, 1.0 - 1.0j]),
            iteration=0,
        )
        stepped = interface_step(
            interface_step(state, sym, 0.1), sym, 0.1
        )
        assert stepped.iteration == 2
        expected = modesim.numeric_iteration_matrix(sym, 0.1) @ state.alpha
        assert np.abs(stepped.alpha - expected).max() < 1e-12


class TestPowerGrowth:
    def test_identity_recurrence(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        growth = modesim.power_growth(sym, 0.0, 200, seed=7)
        assert abs(growth - 1.0) < 1e-10

    def test_matches_divergent_factor(self, medium):
        sym = characteristic_roots(medium, 5.0, 2.0 * math.pi)
        growth = modesim.power_growth(sym, 0.1, 200, seed=7)
        rho = convergence_factor(medium, 5.0, 2.0 * math.pi, 0.1)
        assert growth == pytest.approx(rho, rel=1e-2)

    def test_contractive_mode_decays(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        growth = modesim.power_growth(sym, 0.1, 200, seed=7)
        assert growth < 1.0
        assert growth == pytest.approx(
            convergence_factor(medium, 1.0, 3.0, 0.1), rel=1e-2
        )

    def test_seed_invariance_when_moduli_separated(self, medium):
        sym = characteristic_roots(medium, 5.0, 2.0 * math.pi)
        values = [
            modesim.power_growth(sym, 0.1, 200, seed=s) for s in (1, 2, 3)
        ]
        assert max(values) - min(values) < 1e-2 * min(values)

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    def test_matches_the_stacked_matrix_vector_loop(self, medium, omega):
        # modesim's default grid: 600 modes in (0, 3 omega/cs], 200 sweeps
        ks = np.linspace(0.0, 3.0 * omega / medium.cs, 601)[1:]
        sym = characteristic_roots(medium, omega, ks)
        r = modesim.numeric_iteration_matrix(sym, 0.1)
        rng = np.random.default_rng(1870)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.repeat((v / np.linalg.norm(v))[None, :, None], len(ks), axis=0)
        log_sum = np.zeros(len(ks))
        for n in range(200):
            v = r @ v
            g = np.linalg.norm(v, axis=1, keepdims=True)
            if n >= 100:
                log_sum += np.log(g[:, 0, 0])
            v /= g
        expected = np.exp(log_sum / 100)
        growth = modesim.power_growth(sym, 0.1, 200, 1870)
        assert np.max(np.abs(growth - expected) / expected) < 1e-12

    def test_requires_enough_iterations(self, medium):
        sym = characteristic_roots(medium, 1.0, 3.0)
        with pytest.raises(ValueError, match="n_iter"):
            modesim.power_growth(sym, 0.1, 10, seed=0)


class TestStacks:
    """The oracle on a k array equals its per-mode calls bit for bit."""

    @given(
        rho=st.floats(0.1, 10.0), lam=st.floats(0.1, 10.0), mu=st.floats(0.1, 10.0),
        omega=st.floats(0.5, 5.0), delta=st.floats(0.0, 0.3),
        ks=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_batched_equals_per_mode(self, rho, lam, mu, omega, delta, ks, seed):
        medium = ElasticMedium(rho=rho, lame_lambda=lam, lame_mu=mu)
        sym = characteristic_roots(medium, omega, np.array(ks))
        stack = modesim.numeric_iteration_matrix(sym, delta)
        second = modesim.numeric_iteration_matrix(sym, delta, subdomain=2)
        inverse = modesim.numeric_iteration_matrix_inverse(sym, delta)
        growth = modesim.power_growth(sym, delta, 60, seed)
        assert stack.shape == (len(ks), 2, 2) and growth.shape == (len(ks),)
        for i, k in enumerate(ks):
            one = characteristic_roots(medium, omega, k)
            np.testing.assert_array_equal(
                modesim.numeric_iteration_matrix(one, delta), stack[i]
            )
            np.testing.assert_array_equal(
                modesim.numeric_iteration_matrix(one, delta, subdomain=2), second[i]
            )
            np.testing.assert_array_equal(
                modesim.numeric_iteration_matrix_inverse(one, delta), inverse[i]
            )
            value = modesim.power_growth(one, delta, 60, seed)
            assert type(value) is float and value == growth[i]

    def test_interface_step_on_a_stack(self, medium):
        ks = np.array([2.0, 7.0])
        sym = characteristic_roots(medium, 5.0, ks)
        state = CoefficientState(
            alpha=np.array([[1.0 + 0.5j, -0.25j], [0.5, 1.0j]]),
            beta=np.array([[0.3 + 0.0j, 1.0 - 1.0j], [1.0, 0.0]]),
            iteration=0,
        )
        stepped = interface_step(state, sym, 0.1)
        for i, k in enumerate(ks):
            one = interface_step(
                CoefficientState(state.alpha[i], state.beta[i], 0),
                characteristic_roots(medium, 5.0, float(k)), 0.1,
            )
            np.testing.assert_array_equal(one.alpha, stepped.alpha[i])
            np.testing.assert_array_equal(one.beta, stepped.beta[i])
