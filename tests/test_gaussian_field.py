"""Field sampling: covariance reproduction, analytic-signal properties,
circular symmetry, and the Isserlis fourth moment."""

import numpy as np
import pytest

from ppoptics import gaussian_field as gf
from ppoptics import kernels
from ppoptics.gaussian_field import ComplexTrajectory, EmbeddingError, TrajectoryGrid


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
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            TrajectoryGrid(0.0, 0.01, 1000)

    def test_positive_dt(self):
        with pytest.raises(ValueError):
            TrajectoryGrid(0.0, 0.0, 8)

    def test_for_window_covers(self):
        g = TrajectoryGrid.for_window(0.0, 1.0, margin=0.5, nodes_per_unit=4096)
        assert g.t0 == -0.5
        assert g.t0 + g.n * g.dt >= 1.5  # cells cover the margined window
        assert g.n & (g.n - 1) == 0

    def test_carrier_resolution_enforced(self):
        cov = kernels.analytic_lorentz_kernel(0.1, 1000.0)
        grid = TrajectoryGrid(0.0, 1 / 256, 256)  # dt far above pi/(4*1000)
        with pytest.raises(ValueError, match="carrier"):
            gf.sample_complex_circular_gp(cov, grid, 0)


class TestStationaryGp:
    def test_white_noise_lag_one(self):
        grid = TrajectoryGrid(0.0, 1.0, 2**14)
        x = gf.sample_stationary_gp(white_noise_cov(), grid, seed=0)
        lag1 = np.mean(x[:-1] * x[1:]) / np.var(x)
        assert abs(lag1) < 3.0 / np.sqrt(grid.n)

    def test_lorentz_empirical_covariance(self, lorentz_env):
        # long window (2^16 nodes, dt=2^-8) so the per-trajectory average
        # decorrelates; the Monte Carlo band dominates at the longest lag
        grid = TrajectoryGrid(0.0, 2.0**-8, 2**16)
        reps = 200
        lags_idx = (np.array([0.5, 1.0, 2.0, 3.0]) / grid.dt).astype(int)
        per_rep = np.empty((reps, len(lags_idx)))
        var = 0.0
        for s in range(reps):
            x = gf.sample_stationary_gp(lorentz_env, grid, seed=s)
            var += np.mean(x * x)
            for i, k in enumerate(lags_idx):
                per_rep[s, i] = np.mean(x[:-k] * x[k:])
        acc = per_rep.mean(axis=0)
        stderr = per_rep.std(axis=0, ddof=1) / np.sqrt(reps)
        var /= reps
        want = np.exp(-lags_idx * grid.dt)
        assert abs(var - 1.0) < 0.05
        assert np.all(np.abs(acc - want) <= np.maximum(0.05 * want, 4.0 * stderr))

    def test_determinism(self, lorentz_env):
        grid = TrajectoryGrid(0.0, 1 / 128, 1024)
        x1 = gf.sample_stationary_gp(lorentz_env, grid, seed=42)
        x2 = gf.sample_stationary_gp(lorentz_env, grid, seed=42)
        assert np.array_equal(x1, x2)

    def test_zero_mean(self, lorentz_env):
        grid = TrajectoryGrid(0.0, 1 / 64, 2**12)
        reps = 50
        m = np.mean([gf.sample_stationary_gp(lorentz_env, grid, seed=s).mean()
                     for s in range(reps)])
        assert abs(m) < 4.0 / np.sqrt(grid.n * reps)

    def test_embedding_error_for_invalid_covariance(self):
        # a boxcar "covariance" is not positive definite
        boxcar = kernels.StationaryCovariance(
            lambda tau: np.where(np.abs(tau) < 0.5, 1.0, 0.0), {}
        )
        grid = TrajectoryGrid(0.0, 1 / 64, 256)
        with pytest.raises(EmbeddingError):
            gf.sample_stationary_gp(boxcar, grid, 0)


class TestAnalyticSignal:
    def test_cosine_becomes_phasor(self):
        grid = TrajectoryGrid(0.0, 1 / 256, 256)
        omega = 2 * np.pi * 8
        x = np.cos(omega * grid.times)
        e = gf.analytic_signal(x)
        assert np.abs(e - np.exp(1j * omega * grid.times)).max() < 1e-8

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
        grid = TrajectoryGrid(0.0, 6.0 / 2**12, 2**12)
        x = gf.sample_stationary_gp(lorentz_env, grid, seed=11)
        e = gf.analytic_signal(x)
        spec = np.abs(np.fft.fft(e)) ** 2
        neg = spec[grid.n // 2 + 1 :].sum()
        assert neg < 1e-10 * spec.sum()

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            gf.analytic_signal(np.zeros(100))


class TestComplexCircularGp:
    def setup_method(self):
        self.cov = kernels.analytic_lorentz_kernel(0.5, 20.0)
        self.grid = TrajectoryGrid(0.0, 1 / 128, 512)

    def test_pseudo_covariance_vanishes(self):
        reps = 10_000
        stats = np.array([
            np.mean(gf.sample_complex_circular_gp(self.cov, self.grid, s).values ** 2)
            for s in range(reps)
        ])
        band = 3.0 * stats.std() / np.sqrt(reps)
        assert abs(stats.mean()) < band + 1e-12

    def test_covariance_at_zero_lag(self):
        reps = 400
        vals = [
            np.mean(np.abs(gf.sample_complex_circular_gp(self.cov, self.grid, s).values) ** 2)
            for s in range(reps)
        ]
        assert np.mean(vals) == pytest.approx(2.0, rel=0.02)

    def test_isserlis_fourth_moment(self):
        # E|E(t)|^2 |E(s)|^2 = C(t,t) C(s,s) + |C(t,s)|^2 for the circular field
        reps = 4000
        k = 32  # lag index
        acc = 0.0
        for s in range(reps):
            v = gf.sample_complex_circular_gp(self.cov, self.grid, s).values
            acc += np.mean(np.abs(v[:-k]) ** 2 * np.abs(v[k:]) ** 2)
        got = acc / reps
        c0 = self.cov.at_zero
        ck = self.cov(k * self.grid.dt)
        want = c0**2 + abs(ck) ** 2
        assert got == pytest.approx(want, rel=0.05)

    def test_bedrosian_route_agrees_with_direct_route(self):
        # envelope of |covariance| from analytic_signal(real GP) vs direct sampling
        sigma, omega = 0.5, 40.0
        real_cov = kernels.lorentz_kernel(sigma, omega)
        ana_cov = kernels.analytic_lorentz_kernel(sigma, omega)
        grid = TrajectoryGrid(0.0, 1 / 256, 2048)
        reps = 300
        lag = 64
        acc_route1 = 0.0
        acc_route2 = 0.0
        for s in range(reps):
            x = gf.sample_stationary_gp(real_cov, grid, seed=s)
            e1 = gf.analytic_signal(x)
            acc_route1 += np.mean(e1[lag:] * np.conj(e1[:-lag]))
            e2 = gf.sample_complex_circular_gp(ana_cov, grid, seed=10_000 + s).values
            acc_route2 += np.mean(e2[lag:] * np.conj(e2[:-lag]))
        c1, c2 = acc_route1 / reps, acc_route2 / reps
        assert abs(c1) == pytest.approx(abs(c2), rel=0.05)
        assert abs(c2) == pytest.approx(abs(ana_cov(lag * grid.dt)), rel=0.05)


class TestTrajectoryIo:
    def test_from_real(self):
        grid = TrajectoryGrid(0.0, 1 / 64, 256)
        x = np.cos(2 * np.pi * 4 * grid.times)
        tr = ComplexTrajectory.from_real(grid, x)
        assert np.abs(tr.values.real - x).max() < 1e-10
