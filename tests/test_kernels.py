"""Closed-form kernels against direct evaluation and quadrature oracles."""

import numpy as np
import pytest
from scipy.special import eval_hermite, factorial

from ppoptics import kernels


class TestHermiteFunctions:
    def test_against_scipy_hermite_polynomials(self):
        x = np.linspace(-6, 6, 41)
        psi = kernels.hermite_functions(30, x)
        for k in [0, 1, 5, 12, 29]:
            norm = np.sqrt(2.0**k * factorial(k) * np.sqrt(np.pi))
            want = eval_hermite(k, x) * np.exp(-0.5 * x**2) / norm
            assert np.allclose(psi[k], want, atol=1e-10)

    def test_orthonormality_by_quadrature(self):
        # trapezoid rule on the window, nodes resolving the fastest oscillation
        # eight times over; it converges spectrally for these smooth functions
        kern = kernels.hermite_projection_kernel(20)
        a, b = kern.window.a, kern.window.b
        n_nodes = int(8.0 * (np.sqrt(2.0 * kern.rank) + 1.0) * (b - a) / np.pi) + 64
        x = np.linspace(a, b, n_nodes)
        w = np.full(n_nodes, x[1] - x[0])
        w[[0, -1]] *= 0.5
        f = kern.feature_matrix(x)
        gram = (f * w) @ f.conj().T
        assert np.abs(gram - np.eye(20)).max() < 1e-8

    def test_trace_of_projection(self):
        kern = kernels.hermite_projection_kernel(10)
        a, b = kern.window.a, kern.window.b
        x = np.linspace(a, b, 8192)
        f = kern.feature_matrix(x)
        # K(x, x) = sum_k lambda_k |phi_k(x)|^2
        trace = np.trapezoid(kern.eigenvalues @ np.abs(f) ** 2, x)
        assert trace == pytest.approx(10.0, abs=1e-6)

    def test_window_is_a_window(self):
        half_width = np.sqrt(2.0 * 10) + 10.0
        window = kernels.hermite_projection_kernel(10).window
        assert window == kernels.Window(-half_width, half_width)
        assert window.length == 2 * half_width

    def test_rank_one_is_gaussian(self):
        kern = kernels.hermite_projection_kernel(1)
        x = np.linspace(-3, 3, 31)
        want = np.pi**-0.25 * np.exp(-0.5 * x**2)
        assert np.allclose(kern.feature_matrix(x)[0], want)

    def test_mode_cap(self):
        with pytest.raises(ValueError):
            kernels.hermite_projection_kernel(0)
        with pytest.raises(ValueError):
            kernels.hermite_projection_kernel(201)

    def test_far_field_warning(self):
        with pytest.warns(UserWarning, match="underflow"):
            kernels.hermite_functions(3, np.array([45.0]))


class TestHermiteBasis:
    @pytest.mark.parametrize("n", [1, 2, 12, 50, 200])
    def test_rows_do_not_depend_on_the_count(self, n):
        # row k of the recurrence is the same whatever the number of rows, which
        # is what keeps one-pass features bit-identical to per-row evaluation
        x = np.linspace(-25.0, 25.0, 2001)
        rows = kernels.HermiteBasis(n)(x)
        for k in range(n):
            assert rows[k].tobytes() == kernels.hermite_functions(k + 1, x)[k].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, kernels.HERMITE_MAX_MODES])
    @pytest.mark.parametrize("size", [1, 3, 7, 1001])
    def test_recurrence_is_the_textbook_expression(self, n, size):
        # bit for bit, also on the odd tails that SIMD loops finish one by one
        x = np.random.default_rng(size).uniform(-30.0, 30.0, size)
        want = [np.pi ** -0.25 * np.exp(-0.5 * x**2)]
        if n > 1:
            want.append(np.sqrt(2.0) * x * want[0])
        for k in range(1, n - 1):
            want.append(
                x * np.sqrt(2.0 / (k + 1)) * want[k] - np.sqrt(k / (k + 1.0)) * want[k - 1]
            )
        assert kernels.hermite_functions(n, x).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_length_is_the_rank(self, n):
        kern = kernels.hermite_projection_kernel(n)
        assert len(kern.basis) == kern.rank == n

    def test_feature_matrix_is_real(self):
        kern = kernels.hermite_projection_kernel(6)
        f = kern.feature_matrix(np.linspace(-3, 3, 17))
        assert f.dtype == np.float64
        assert f.shape == (6, 17)

    def test_scalar_point(self):
        kern = kernels.hermite_projection_kernel(3)
        assert kern.feature_matrix(0.4).shape == (3, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="one basis function per eigenvalue"):
            kernels.SpectralKernel(np.ones(3), kernels.HermiteBasis(4), -1, kernels.Window(-5, 5))


class TestGramMatrix:
    def test_single_point(self):
        kern = kernels.hermite_projection_kernel(5)
        g = kernels.gram_matrix(kern, [0.3])
        assert g.shape == (1, 1)
        assert g[0, 0].real > 0

    def test_repeated_point_is_singular(self):
        kern = kernels.hermite_projection_kernel(5)
        g = kernels.gram_matrix(kern, [0.3, 0.3])
        assert abs(np.linalg.det(g)) < 1e-12

    def test_random_points_psd_and_hermitian(self):
        kern = kernels.hermite_projection_kernel(10)
        rng = np.random.default_rng(9)
        for _ in range(5):
            pts = rng.uniform(-3, 3, rng.integers(2, 21))
            g = kernels.gram_matrix(kern, pts)
            assert np.abs(g - g.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(g).min() >= -1e-10


class TestKernelFromSpec:
    def test_round_trip_names(self):
        kern = kernels.kernel_from_spec({"name": "hermite", "params": {"n_modes": 4}})
        assert kern.rank == 4

    def test_hermite_mode_alias(self):
        kern = kernels.kernel_from_spec({"name": "hermite", "params": {"N": 6}})
        assert kern.rank == 6

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.kernel_from_spec({"name": "nope", "params": {}})

    @pytest.mark.parametrize("name", ["lorentz", "analytic_lorentz", "fermi_sea_3d",
                                      "chiral_thermal"])
    def test_only_spectral_kernels_have_names(self, name):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.kernel_from_spec({"name": name, "params": {"sigma": 0.2, "omega": 60}})

    @pytest.mark.parametrize("n", [10.7, 0.5, float("inf"), float("-inf"), float("nan")])
    def test_mode_count_must_be_a_finite_integer(self, n):
        with pytest.raises(ValueError, match="finite integer"):
            kernels.kernel_from_spec({"name": "hermite", "params": {"N": n}})

    def test_huge_integer_mode_count(self):
        with pytest.raises(ValueError, match="n_modes must be in"):
            kernels.kernel_from_spec({"name": "hermite", "params": {"N": 10**400}})

    def test_integral_float_mode_count(self):
        kern = kernels.kernel_from_spec({"name": "hermite", "params": {"N": 7.0}})
        assert kern.rank == 7

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameter"):
            kernels.kernel_from_spec({"name": "hermite", "params": {}})

    def test_malformed(self):
        with pytest.raises(ValueError):
            kernels.kernel_from_spec({"params": {}})
