"""The permanental intensity draw: its grid checks, the covariance of the
circular field it stands for, its moments, and the exact AR(1) recursion."""

import numpy as np
import pytest
from scipy.integrate import quad

from ppoptics import gaussian_field as gf


def lorentz_covariance(tau, sigma, omega):
    """2 exp(-|tau|/sigma) e^{i omega tau}: the covariance of the analytic signal of
    the Lorentz field, the factor 2 and the phase by Bedrosian's theorem."""
    return 2.0 * np.exp(-np.abs(tau) / sigma) * np.exp(1j * omega * tau)


class TestGrid:
    def test_sigma_resolution_enforced(self):
        draw = gf._intensity_sampler(0.1, 256, 0.1 / 4)
        # one row of intensities per replicate of the block
        assert draw(np.random.default_rng(0), 3).shape == (3, 256)
        with pytest.raises(ValueError, match=r"cell 0\.025641 .* sigma=0\.1: .* = 0\.025;"):
            gf._intensity_sampler(0.1, 256, 0.1 / 3.9)


class TestComplexCircularGp:
    """The circular complex field of the analytic Lorentz covariance, as the draw makes it."""

    def setup_method(self):
        self.sigma, self.omega = 0.5, 20.0
        self.n, self.dt = 512, 1 / 128

    def intensity(self, seed):
        (row,) = gf._intensity_sampler(self.sigma, self.n, self.dt)(np.random.default_rng(seed), 1)
        return row

    def test_pseudo_covariance_vanishes(self):
        # the envelope A the intensity is |A|^2 of: real parts, then imaginary parts
        recursion = gf._ou_recursion(self.n, self.dt / self.sigma)
        reps = 10_000
        stats = np.empty(reps, dtype=complex)
        for s in range(reps):
            a = recursion(np.random.default_rng(s).standard_normal((2, self.n)))
            stats[s] = np.mean((a[0] + 1j * a[1]) ** 2)
        band = 3.0 * stats.std() / np.sqrt(reps)
        assert abs(stats.mean()) < band + 1e-12

    def test_covariance_at_zero_lag(self):
        reps = 400
        vals = [np.mean(self.intensity(s)) for s in range(reps)]
        assert np.mean(vals) == pytest.approx(2.0, rel=0.02)

    def test_isserlis_fourth_moment(self):
        # E|E(t)|^2 |E(s)|^2 = C(t,t) C(s,s) + |C(t,s)|^2 for the circular field
        reps = 4000
        k = 32  # lag index
        acc = 0.0
        for s in range(reps):
            v = self.intensity(s)
            acc += np.mean(v[:-k] * v[k:])
        got = acc / reps
        # the analytic signal's factor 2: the covariance at zero lag
        c0 = 2.0
        ck = lorentz_covariance(k * self.dt, self.sigma, self.omega)
        want = c0**2 + abs(ck) ** 2
        assert got == pytest.approx(want, rel=0.05)

    def test_bedrosian_route_agrees_with_direct_route(self):
        # the analytic signal of the real Lorentz field exp(-|tau|/sigma) cos(omega tau)
        # has covariance R(tau) = (1/pi) int_0^inf [F(nu - omega) + F(nu + omega)]
        # e^{i nu tau} dnu, with F(u) = 2a / (a^2 + u^2) and a = 1/sigma: twice its
        # spectrum on the positive frequencies.  Its real part is exactly twice the
        # real covariance, and R is the sampled 2 exp(-|tau|/sigma) e^{i omega tau}
        # to within the Bedrosian error.  quad's oscillatory rule degrades at larger
        # sigma * omega
        sigma, omega = 0.5, 40.0
        a = 1.0 / sigma

        def spectrum(nu):
            return 2.0 * a / (a**2 + (nu - omega) ** 2) + 2.0 * a / (a**2 + (nu + omega) ** 2)

        for tau in np.linspace(0.05, 1.0, 20):
            re = quad(spectrum, 0.0, np.inf, weight="cos", wvar=tau)[0] / np.pi
            im = quad(spectrum, 0.0, np.inf, weight="sin", wvar=tau)[0] / np.pi
            envelope = 2.0 * np.exp(-tau / sigma)
            assert abs(re - envelope * np.cos(omega * tau)) < 1e-9
            assert abs(re + 1j * im - lorentz_covariance(tau, sigma, omega)) <= 0.05 * envelope


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
