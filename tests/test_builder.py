"""Spectrum/level maps, partition functions, induced kernels, and
measurement-basis rotations."""

import numpy as np
import pytest

from ppoptics import builder, fock, kernels
from ppoptics.builder import GrandCanonicalSpec


class TestLevelsToSpectrum:
    def test_fermion_at_chemical_potential(self):
        spec = GrandCanonicalSpec(2.0, 0.4, np.array([0.4]), -1)
        assert builder.levels_to_spectrum(spec)[0] == pytest.approx(0.5)

    def test_fermion_deep_level_fills(self):
        spec = GrandCanonicalSpec(1e3, 0.0, np.array([-1.0]), -1)
        assert builder.levels_to_spectrum(spec)[0] == pytest.approx(1.0, abs=1e-10)

    def test_boson_log2_gap(self):
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([np.log(2.0)]), +1)
        assert builder.levels_to_spectrum(spec)[0] == pytest.approx(1.0)

    def test_boson_below_zeta_rejected(self):
        with pytest.raises(ValueError, match="chemical potential"):
            GrandCanonicalSpec(1.0, 0.5, np.array([0.2]), +1)

    def test_extreme_gaps_stable(self):
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([800.0, 1e6]), +1)
        lam = builder.levels_to_spectrum(spec)
        assert np.all(np.isfinite(lam))
        assert np.all(lam >= 0)


class TestSpectrumToLevels:
    def test_half_filling_at_zeta(self):
        spec = builder.spectrum_to_levels([0.5], beta=3.0, zeta=1.2, eta=-1)
        assert spec.nu[0] == pytest.approx(1.2)

    def test_boson_unit_occupation(self):
        spec = builder.spectrum_to_levels([1.0], beta=1.0, eta=+1)
        assert spec.nu[0] == pytest.approx(np.log(2.0))

    @pytest.mark.parametrize("eta", [-1, 1])
    def test_round_trip(self, eta):
        rng = np.random.default_rng(1 + eta)
        lam = rng.uniform(0.01, 0.99, 50) if eta == -1 else rng.uniform(0.05, 8.0, 50)
        spec = builder.spectrum_to_levels(lam, beta=0.8, zeta=0.3, eta=eta)
        back = builder.levels_to_spectrum(spec)
        assert np.abs(back - lam).max() < 1e-12

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            builder.spectrum_to_levels([1.0], beta=1.0, eta=-1)
        with pytest.raises(ValueError):
            builder.spectrum_to_levels([0.0], beta=1.0, eta=-1)

    def test_zero_temperature_limit_routine(self):
        # the endpoints are reached only as beta -> infinity: at beta = 1e3 every
        # level below zeta fills and every level above it empties
        nu = np.array([-2.0, -0.1, 0.3, 5.0])
        lam = builder.levels_to_spectrum(GrandCanonicalSpec(1e3, 0.0, nu, -1))
        assert np.abs(lam - [1.0, 1.0, 0.0, 0.0]).max() < 1e-40


class TestLogPartitionFunction:
    def test_fermion_single_level(self):
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([0.0]), -1)
        assert builder.log_partition_function(spec) == pytest.approx(np.log(2.0))

    def test_boson_geometric_sum(self):
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([np.log(2.0)]), +1)
        assert builder.log_partition_function(spec) == pytest.approx(np.log(2.0))

    def test_matches_fermionic_trace(self):
        rng = np.random.default_rng(2)
        nu = rng.uniform(-2, 2, 10)
        beta, zeta = 0.9, 0.15
        spec = GrandCanonicalSpec(beta, zeta, nu, -1)
        exact = fock.log_partition(fock.ModeSpec(10, 1, -1), nu, beta, zeta)
        assert abs(builder.log_partition_function(spec) - exact) < 1e-10

    def test_matches_bosonic_trace_within_tail(self):
        cutoff = 60
        x = 0.5
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([x]), +1)
        exact = fock.log_partition(fock.ModeSpec(1, cutoff, 1), np.array([x]), 1.0, 0.0)
        # truncating the geometric series shifts log Z by ~ -q^(cutoff+1)
        tail = np.exp(-x * (cutoff + 1))
        assert abs(builder.log_partition_function(spec) - exact) <= 2 * tail


class TestInducedKernel:
    def test_single_mode(self):
        base = kernels.hermite_projection_kernel(1)
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([0.7]), -1)
        kern = builder.induced_kernel(spec, base.basis, base.window)
        lam = 1.0 / (np.exp(0.7) + 1.0)
        x, y = 0.3, -0.8
        phi = kernels.hermite_functions(1, [x, y])[0]
        got = kernels.gram_matrix(kern, [x, y])[0, 1]
        assert got == pytest.approx(lam * phi[0] * np.conj(phi[1]))

    def test_zero_temperature_reproduces_projection(self):
        n_fill, n_levels = 4, 7
        nu = np.arange(n_levels) - (n_fill - 0.5)
        base = kernels.hermite_projection_kernel(n_levels)
        kern = builder.induced_kernel(
            GrandCanonicalSpec(1e3, 0.0, nu, -1), base.basis, base.window
        )
        lam = kern.eigenvalues
        assert np.abs(lam[:n_fill] - 1.0).max() < 1e-10
        assert np.abs(lam[n_fill:]).max() < 1e-10
        grid = np.linspace(-3, 3, 50)
        want = kernels.gram_matrix(kernels.hermite_projection_kernel(n_fill), grid)
        got = kernels.gram_matrix(kern, grid)
        assert np.abs(got - want).max() < 1e-8

    def test_basis_passes_through(self):
        base = kernels.hermite_projection_kernel(3)
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([0.5, 1.0, 1.5]), -1)
        assert builder.induced_kernel(spec, base.basis, base.window).basis is base.basis

    def test_window_passes_through(self):
        base = kernels.hermite_projection_kernel(3)
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([0.5, 1.0, 1.5]), -1)
        assert builder.induced_kernel(spec, base.basis, base.window).window is base.window

    def test_eta_propagates(self):
        base = kernels.hermite_projection_kernel(2)
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([1.0, 2.0]), +1)
        kern = builder.induced_kernel(spec, base.basis, base.window)
        assert kern.eta == +1

    def test_basis_length_mismatch(self):
        base = kernels.hermite_projection_kernel(3)
        spec = GrandCanonicalSpec(1.0, 0.0, np.array([1.0]), -1)
        with pytest.raises(ValueError, match="basis"):
            builder.induced_kernel(spec, base.basis, base.window)


class TestRotation:
    def test_identity_keeps_diagonal(self):
        lam = np.array([0.3, 0.6, 0.9])
        k = builder.rotate_measurement_basis(lam, np.eye(3))
        assert np.allclose(k, np.diag(lam))

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(0.05, 0.95, 8)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        k = builder.rotate_measurement_basis(lam, q)
        assert np.trace(k).real == pytest.approx(lam.sum(), abs=1e-10)
        assert np.allclose(np.sort(np.linalg.eigvalsh(k)), np.sort(lam), atol=1e-10)

    def test_two_mode_block_co_occurrence_invariant(self):
        rng = np.random.default_rng(4)
        lam = rng.uniform(0.05, 0.95, 6)
        diags = []
        for theta in np.linspace(0.1, 1.4, 12):
            v = builder.two_mode_unitary(
                np.cos(theta), np.sin(theta) * np.exp(0.7j), lam.size
            )
            k = builder.rotate_measurement_basis(lam, v)
            det2 = np.linalg.det(k[-2:, -2:])
            assert abs(det2 - lam[-2] * lam[-1]) < 1e-12
            assert abs(np.trace(k).real - lam.sum()) < 1e-12
            # marginal of mode N-1 mixes the two eigenvalues by |alpha|^2
            a2 = np.cos(theta) ** 2
            want = lam[-2] * a2 + lam[-1] * (1 - a2)
            assert k[-2, -2].real == pytest.approx(want, abs=1e-12)
            diags.append(k[-2, -2].real)
        assert np.ptp(diags) > 1e-3  # the first correlation genuinely varies

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            builder.rotate_measurement_basis(np.array([0.5, 0.5]), np.ones((2, 2)))

    def test_two_mode_unitary_normalization(self):
        with pytest.raises(ValueError, match="equal 1"):
            builder.two_mode_unitary(1.0, 0.5, 4)

