"""Field sampling: covariance reproduction, analytic-signal properties,
circular symmetry, and the Isserlis fourth moment."""

import numpy as np
import pytest

from ppoptics import gaussian_field as gf
from ppoptics import kernels
from ppoptics.gaussian_field import EmbeddingError


def white_noise_cov():
    return kernels.StationaryCovariance(
        lambda tau: np.where(np.abs(tau) < 1e-12, 1.0, 0.0), {"name": "white"}
    )


@pytest.fixture
def lorentz_env():
    # pure envelope, no carrier; the warning about omega is expected
    with pytest.warns(UserWarning):
        return kernels.lorentz_kernel(1.0, 0.0)


class TestGrid:
    def test_carrier_resolution_enforced(self):
        cov = kernels.analytic_lorentz_kernel(0.1, 1000.0)
        with pytest.raises(ValueError, match="carrier"):  # dt far above pi/(4*1000)
            gf.sample_complex_circular_gp(cov, 256, 1 / 256, 0)
        # the recursion never needs the carrier, but the grid must still resolve it
        with pytest.raises(ValueError, match="carrier"):
            gf._intensity_sampler(cov, 256, 1 / 256)


class TestStationaryGp:
    def test_white_noise_lag_one(self):
        n = 2**14
        x = gf.sample_stationary_gp(white_noise_cov(), n, 1.0, seed=0)
        lag1 = np.mean(x[:-1] * x[1:]) / np.var(x)
        assert abs(lag1) < 3.0 / np.sqrt(n)

    def test_lorentz_empirical_covariance(self, lorentz_env):
        # long window (2^16 nodes, dt=2^-8) so the per-trajectory average
        # decorrelates; the Monte Carlo band dominates at the longest lag
        n, dt = 2**16, 2.0**-8
        reps = 200
        lags_idx = (np.array([0.5, 1.0, 2.0, 3.0]) / dt).astype(int)
        per_rep = np.empty((reps, len(lags_idx)))
        var = 0.0
        for s in range(reps):
            x = gf.sample_stationary_gp(lorentz_env, n, dt, seed=s)
            var += np.mean(x * x)
            for i, k in enumerate(lags_idx):
                per_rep[s, i] = np.mean(x[:-k] * x[k:])
        acc = per_rep.mean(axis=0)
        stderr = per_rep.std(axis=0, ddof=1) / np.sqrt(reps)
        var /= reps
        want = np.exp(-lags_idx * dt)
        assert abs(var - 1.0) < 0.05
        assert np.all(np.abs(acc - want) <= np.maximum(0.05 * want, 4.0 * stderr))

    def test_determinism(self, lorentz_env):
        x1 = gf.sample_stationary_gp(lorentz_env, 1024, 1 / 128, seed=42)
        x2 = gf.sample_stationary_gp(lorentz_env, 1024, 1 / 128, seed=42)
        assert np.array_equal(x1, x2)

    def test_zero_mean(self, lorentz_env):
        n, reps = 2**12, 50
        m = np.mean([gf.sample_stationary_gp(lorentz_env, n, 1 / 64, seed=s).mean()
                     for s in range(reps)])
        assert abs(m) < 4.0 / np.sqrt(n * reps)

    def test_embedding_grows_until_nonnegative(self):
        cov = kernels.analytic_lorentz_kernel(0.1, 100.0)
        # 1024 nodes over 0.25 (2.5 sigma): m = 2048 wraps too early
        assert gf.embedding_spectrum(cov, 1024, 0.25 / 1024).size == 4096
        # 4096 nodes over 1.0: m = 2n is already nonnegative
        d = gf.embedding_spectrum(cov, 4096, 1 / 4096)
        assert d.size == 8192 and d.min() >= 0
        # a node count that is not a power of two starts at the next one up
        assert gf.embedding_spectrum(cov, 1229, 0.3 / 1229).size == 4096

    def test_embedding_error_on_a_short_window(self):
        # 1024 nodes over 0.001 = sigma / 100: the circulant doubles to
        # EMBEDDING_MAX_M and refuses; the permanental sampler takes the AR(1) path here
        cov = kernels.analytic_lorentz_kernel(0.1, 100.0)
        with pytest.raises(EmbeddingError, match="too negative"):
            gf.sample_complex_circular_gp(cov, 1024, 0.001 / 1024, 0)

    def test_embedding_error_for_invalid_covariance(self):
        # a boxcar "covariance" is not positive definite
        boxcar = kernels.StationaryCovariance(
            lambda tau: np.where(np.abs(tau) < 0.5, 1.0, 0.0), {}
        )
        with pytest.raises(EmbeddingError):
            gf.sample_stationary_gp(boxcar, 256, 1 / 64, 0)


class TestAnalyticSignal:
    def test_cosine_becomes_phasor(self):
        t = np.arange(256) / 256
        omega = 2 * np.pi * 8
        x = np.cos(omega * t)
        e = gf.analytic_signal(x)
        assert np.abs(e - np.exp(1j * omega * t)).max() < 1e-8

    def test_real_part_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(512)
        e = gf.analytic_signal(x)
        assert np.abs(e.real - x).max() < 1e-10

    def test_idempotent_on_analytic_input(self):
        rng = np.random.default_rng(4)
        e = gf.analytic_signal(rng.standard_normal(512))
        again = gf.analytic_signal(e)
        assert np.abs(again - e).max() < 1e-10

    def test_linear(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 256))
        lhs = gf.analytic_signal(2.0 * x - 3.0 * y)
        rhs = 2.0 * gf.analytic_signal(x) - 3.0 * gf.analytic_signal(y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_negative_spectral_mass(self, lorentz_env):
        n = 2**12
        x = gf.sample_stationary_gp(lorentz_env, n, 6.0 / n, seed=11)
        e = gf.analytic_signal(x)
        spec = np.abs(np.fft.fft(e)) ** 2
        neg = spec[n // 2 + 1 :].sum()
        assert neg < 1e-10 * spec.sum()

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            gf.analytic_signal(np.zeros(100))


class TestComplexCircularGp:
    def setup_method(self):
        self.cov = kernels.analytic_lorentz_kernel(0.5, 20.0)
        self.n, self.dt = 512, 1 / 128

    def draw(self, seed):
        return gf.sample_complex_circular_gp(self.cov, self.n, self.dt, seed)

    def test_pseudo_covariance_vanishes(self):
        reps = 10_000
        stats = np.array([
            np.mean(self.draw(s) ** 2)
            for s in range(reps)
        ])
        band = 3.0 * stats.std() / np.sqrt(reps)
        assert abs(stats.mean()) < band + 1e-12

    def test_covariance_at_zero_lag(self):
        reps = 400
        vals = [
            np.mean(np.abs(self.draw(s)) ** 2)
            for s in range(reps)
        ]
        assert np.mean(vals) == pytest.approx(2.0, rel=0.02)

    def test_isserlis_fourth_moment(self):
        # E|E(t)|^2 |E(s)|^2 = C(t,t) C(s,s) + |C(t,s)|^2 for the circular field
        reps = 4000
        k = 32  # lag index
        acc = 0.0
        for s in range(reps):
            v = self.draw(s)
            acc += np.mean(np.abs(v[:-k]) ** 2 * np.abs(v[k:]) ** 2)
        got = acc / reps
        c0 = self.cov.at_zero
        ck = self.cov(k * self.dt)
        want = c0**2 + abs(ck) ** 2
        assert got == pytest.approx(want, rel=0.05)

    def test_bedrosian_route_agrees_with_direct_route(self):
        # envelope of |covariance| from analytic_signal(real GP) vs direct sampling
        sigma, omega = 0.5, 40.0
        real_cov = kernels.lorentz_kernel(sigma, omega)
        ana_cov = kernels.analytic_lorentz_kernel(sigma, omega)
        n, dt = 2048, 1 / 256
        reps = 300
        lag = 64
        acc_route1 = 0.0
        acc_route2 = 0.0
        for s in range(reps):
            x = gf.sample_stationary_gp(real_cov, n, dt, seed=s)
            e1 = gf.analytic_signal(x)
            acc_route1 += np.mean(e1[lag:] * np.conj(e1[:-lag]))
            e2 = gf.sample_complex_circular_gp(ana_cov, n, dt, seed=10_000 + s)
            acc_route2 += np.mean(e2[lag:] * np.conj(e2[:-lag]))
        c1, c2 = acc_route1 / reps, acc_route2 / reps
        assert abs(c1) == pytest.approx(abs(c2), rel=0.05)
        assert abs(c2) == pytest.approx(abs(ana_cov(lag * dt)), rel=0.05)


class TestOrnsteinUhlenbeck:
    """The AR(1) recursion behind the analytic Lorentz intensity."""

    @pytest.mark.parametrize("n", [700, 1024])
    # blocks of 256, 128 and 2 cells, and of 1 cell when the spacing exceeds sigma
    @pytest.mark.parametrize("r", [1e-6, 2.4e-3, 0.5, 3.0, 50.0])
    def test_covariance_is_exact(self, r, n):
        # row j is the recursion of the unit vector e_j, so a = rows.T @ x, and the
        # complex envelope A = a_re + i a_im has E[A_j conj(A_k)] = 2 (rows.T rows)_jk
        rows = gf._ou_recursion(n, r)(np.eye(n))
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        assert np.abs(2.0 * rows.T @ rows - 2.0 * np.exp(-lag * r)).max() < 1e-12


def one_generator_field(cov, n, dt, seed):
    """The whole-circulant field as the plain complex expression of one generator's draws."""
    d = gf.embedding_spectrum(cov, n, dt)
    m = d.size
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    return np.fft.ifft(np.sqrt(d) * z) * np.sqrt(m)


class TestBlockedDraw:
    """The in-place field draw against the plain complex expression."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, dt", [(512, 1 / 128), (1000, 1 / 256)])
    def test_samplers_match_one_generator_expression(self, seed, n, dt):
        cov = kernels.analytic_lorentz_kernel(0.5, 20.0)
        want = one_generator_field(cov, n, dt, seed)
        assert np.array_equal(gf.sample_complex_circular_gp(cov, n, dt, seed), want[:n])
        real_cov = kernels.lorentz_kernel(0.5, 20.0)
        want = one_generator_field(real_cov, n, dt, seed)
        got = gf.sample_stationary_gp(real_cov, n, dt, seed)
        assert np.array_equal(got, np.sqrt(2.0) * want.real[:n])
