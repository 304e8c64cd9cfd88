"""Estimator correctness: pcf normalization and binning; the sampled
intensity and count statistics, from plain numpy histograms and variances."""

import warnings

import numpy as np
import pytest

from ppoptics import estimators, kernels, samplers
from ppoptics.samplers import PointConfiguration, Window


def poisson_batch(lam, reps, seed, w=Window(0, 1)):
    return samplers.sample_poisson_batch(
        lambda t: np.full_like(t, lam), lam, w, reps, seed
    )


def binned_rate(batch, bins):
    """Per-bin rate across replicates and its stderr, from one `np.histogram` of
    each replicate over `bins` equal bins of the window."""
    w = batch[0].window
    edges = np.linspace(w.a, w.b, bins + 1)
    widths = np.diff(edges)
    counts = np.array([np.histogram(c.points, edges)[0] for c in batch], dtype=float)
    stderr = counts.std(axis=0, ddof=1) / np.sqrt(len(batch)) / widths
    return counts.mean(axis=0) / widths, stderr


def fano(batch):
    """Across-replicate count variance over mean."""
    counts = np.array([len(c) for c in batch], dtype=float)
    return np.var(counts, ddof=1) / counts.mean()


class TestIntensity:
    """The sampled intensity, at three seeds each."""

    def test_homogeneous_poisson(self):
        lam, reps = 50.0, 10_000
        for seed in (1, 2, 3):
            rate, stderr = binned_rate(poisson_batch(lam, reps, seed), bins=10)
            assert np.all(np.abs(rate - lam) <= 4 * stderr), seed
            assert np.all(np.abs(rate - lam) / lam < 0.05), seed

    def test_all_empty_batch_gives_zero(self):
        # a rate function that is 0 everywhere thins every proposed point away
        batch = samplers.sample_poisson_batch(np.zeros_like, 50.0, Window(0, 1), 5, seed=1)
        assert all(len(c) == 0 for c in batch)
        rate, stderr = binned_rate(batch, bins=4)
        assert np.all(rate == 0)
        assert np.all(stderr == 0)

    def test_permanental_intensity_is_scaled_diagonal(self):
        scale, reps = 25.0, 3000
        # the covariance at zero lag is 2, the analytic signal's factor 2
        want = scale * 2.0
        for seed in (2, 3, 4):
            batch = samplers.sample_permanental_batch(0.1, scale, Window(0, 1), reps, seed)
            rate, stderr = binned_rate(batch, bins=5)
            assert np.all(np.abs(rate - want) <= 4 * stderr), seed

    def test_inconsistent_windows_rejected(self):
        batch = [
            PointConfiguration([0.5], Window(0, 1)),
            PointConfiguration([0.5], Window(0, 2)),
        ]
        with pytest.raises(ValueError, match="window"):
            estimators.estimate_pcf(batch)


class TestPcf:
    def test_poisson_flat(self):
        batch = poisson_batch(50.0, 8000, seed=3)
        est = estimators.estimate_pcf(batch)
        assert np.all(np.abs(est.g_hat - 1.0) <= 4 * est.stderr)

    def test_permanental_tracks_closed_form(self):
        sigma = 0.1
        batch = samplers.sample_permanental_batch(sigma, 25.0, Window(0, 1), 8000, seed=4)
        est = estimators.estimate_pcf(batch)
        want = 1.0 + np.exp(-2 * est.r_mid / sigma)
        assert np.all(np.abs(est.g_hat - want) <= 4 * est.stderr)

    def test_pooling_consistency(self):
        half1 = poisson_batch(30.0, 2000, seed=5)
        half2 = poisson_batch(30.0, 2000, seed=6)
        pooled = estimators.estimate_pcf(half1 + half2)
        e1 = estimators.estimate_pcf(half1)
        e2 = estimators.estimate_pcf(half2)
        merged = 0.5 * (e1.g_hat + e2.g_hat)
        band = np.sqrt(e1.stderr**2 + e2.stderr**2)
        assert np.all(np.abs(pooled.g_hat - merged) <= np.maximum(band, 1e-3))

    def test_translation_invariance(self):
        batch = poisson_batch(30.0, 500, seed=7)
        shifted = [PointConfiguration(c.points + 5.0, Window(5.0, 6.0)) for c in batch]
        a = estimators.estimate_pcf(batch)
        b = estimators.estimate_pcf(shifted)
        assert np.allclose(a.g_hat, b.g_hat)
        assert np.allclose(a.stderr, b.stderr)

    def test_bins_beyond_window_rejected(self):
        batch = poisson_batch(10.0, 10, seed=8)
        with pytest.raises(ValueError, match="beyond"):
            estimators.estimate_pcf(batch, 4, 2.0)

    def test_count_table_cap_on_explicit_edges(self, monkeypatch):
        # a cap of 100 counts: 10 replicates fill it at 10 bins and pass it at 11
        monkeypatch.setattr(estimators, "_MAX_PCF_COUNTS", 100)
        batch = poisson_batch(10.0, 10, seed=8)
        assert estimators.estimate_pcf(batch, 10, 0.25).g_hat.size == 10
        with pytest.raises(ValueError, match="11 bins x 10 replicates = 110 pair counts, "
                                             "above the limit of 100"):
            estimators.estimate_pcf(batch, 11, 0.25)

    @pytest.mark.parametrize("bins, rmax, match", [
        (50, 1e-310, "too small for 50 bins"),
        (50, 5e-324, "too small for 50 bins"),
        # numpy scalars, whose own division would warn on the overflow
        (np.int64(50), np.float64(1e-310), "too small for 50 bins"),
        (50, 0.0, "positive and finite"),
        (50, -1.0, "positive and finite"),
        (50, np.nan, "positive and finite"),
        (50, np.inf, "positive and finite"),
        (50, 1.5, "beyond the window length"),
        (0, None, "at least 1"),
        (-1, None, "at least 1"),
        (2.5, None, "an integer"),
        # 2^24 bins x 2 replicates: refused before the edges exist
        (2**24, None, "above the limit"),
    ], ids=["rmax-1e-310", "rmax-5e-324", "numpy-scalars", "rmax-0", "rmax-negative",
            "rmax-nan", "rmax-inf", "rmax-beyond-window", "bins-0", "bins-negative",
            "bins-fractional", "count-cap"])
    def test_bad_bins_refused_without_a_warning(self, bins, rmax, match):
        batch = poisson_batch(10.0, 2, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                estimators.estimate_pcf(batch, bins, rmax)

    def test_estimate_is_nonnegative_and_sized(self):
        batch = poisson_batch(20.0, 200, seed=9)
        est = estimators.estimate_pcf(batch)
        assert est.g_hat.shape == (50,)
        assert np.all(est.g_hat >= 0)


class TestExpectedPcf:
    """The permanental bin expectation; `test_cli` checks it against quadrature."""

    def test_narrow_bins_give_the_pointwise_form(self):
        # bins 1e-3 sigma wide: the bin average is 1 + exp(-2r/sigma) at the midpoint
        # up to the midpoint rule's (4 / sigma^2) h^2 / 24, about 2e-7
        sigma = 0.1
        edges = np.linspace(0.0, 0.5, 5001)
        got = estimators.expected_pcf(edges, 2.0, sigma)
        r_mid = 0.5 * (edges[:-1] + edges[1:])
        np.testing.assert_allclose(got, 1.0 + np.exp(-2.0 * r_mid / sigma), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("sigma", [0.005, 0.1, 10.0])
    def test_bunched_and_decreasing(self, sigma):
        # 1 < g <= 2 for the permanental process, falling with the distance
        got = estimators.expected_pcf(np.linspace(0.0, 0.05, 51), 1.0, sigma)
        assert np.all((got > 1.0) & (got <= 2.0))
        assert np.all(np.diff(got) < 0)


class TestBinIndex:
    @pytest.mark.parametrize("edges", [
        np.linspace(0.0, 0.25, 51),  # the default pcf bins of a unit window
        np.linspace(0.0, 0.7, 13),
        np.linspace(0.0, 1e-3, 7),
        np.linspace(0.0, 1.0, 2),
        np.linspace(0.0, 3.0, 1001),
    ])
    def test_matches_the_search(self, edges):
        # every edge and its two neighbouring floats, values beyond both ends, and +-inf
        rng = np.random.default_rng(0)
        rmax = edges[-1]
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            rng.uniform(-rmax, 2 * rmax, 10_000),
            [-np.inf, np.inf, -1e12, 1e12],
        ])
        want = np.searchsorted(edges[:-1], values, side="right")
        assert np.array_equal(estimators._bin_index(edges)(values), want)


class TestCountStatistics:
    def test_poisson_fano_near_one(self):
        batch = poisson_batch(50.0, 10_000, seed=10)
        assert abs(fano(batch) - 1.0) < 0.05
        assert abs(np.mean([len(c) for c in batch]) - 50.0) < 1.0

    def test_permanental_over_dispersed(self):
        batch = samplers.sample_permanental_batch(0.1, 25.0, Window(0, 1), 2000, seed=11)
        assert fano(batch) > 1.5

    def test_projection_dpp_variance_exactly_zero(self):
        kern = kernels.hermite_projection_kernel(6)
        batch = samplers.sample_dpp_mixture_batch(kern, 200, seed=12, nodes_per_unit=512)
        assert np.var([len(c) for c in batch]) == 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            estimators.estimate_pcf([])


class TestPcfCsv:
    def test_round_trippable_columns(self, tmp_path):
        batch = poisson_batch(20.0, 100, seed=13)
        est = estimators.estimate_pcf(batch, 10, 0.25)
        path = tmp_path / "pcf.csv"
        estimators.pcf_to_csv(path, est, g_theory=np.ones(10), header="# test")
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "# test"
        assert rows[1] == "r_mid,g_hat,stderr,g_theory"
        assert len(rows) == 12
