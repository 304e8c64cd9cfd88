"""Point-process samplers: count laws, densities, dispersion direction,
cardinality, and serialization."""

import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, norm

from ppoptics import kernels, samplers
from ppoptics.samplers import CellGrid, PointConfiguration, RankLossError, Window


def batch_counts(batch):
    return np.array([len(c) for c in batch], dtype=float)


def lockstep_block(cells):
    """Replicates per lockstep block of the permanental batch on `cells` cells:
    its normals, 16 bytes per cell, within the block budget."""
    return samplers._COX_BLOCK_BYTES // (16 * cells)


def assert_simple_sorted(config):
    assert np.all(np.diff(config.points) > 0)
    if len(config):
        assert config.points[0] >= config.window.a
        assert config.points[-1] <= config.window.b


class TestPointConfiguration:
    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            PointConfiguration([0.5, 1.5], Window(0, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointConfiguration([0.5, 0.5], Window(0, 1))

    def test_sorts(self):
        c = PointConfiguration([0.9, 0.1, 0.5], Window(0, 1))
        assert np.array_equal(c.points, [0.1, 0.5, 0.9])

    @pytest.mark.parametrize("values", [[0.1, 0.5, 0.9], [0.9, 0.1, 0.5], [0.5]])
    def test_does_not_share_the_input_array(self, values):
        given = np.array(values)
        c = PointConfiguration(given, Window(0, 1))
        want = c.points.copy()
        given[:] = 0.75
        assert np.array_equal(c.points, want)
        assert not np.shares_memory(c.points, given)

    @pytest.mark.parametrize("values", [[np.nan], [0.1, np.nan], [np.nan, 0.1, 0.5], [0.1, 0.5, np.nan]])
    def test_nan_is_outside_the_window(self, values):
        with pytest.raises(ValueError, match="outside the window"):
            PointConfiguration(values, Window(0, 1))

    def test_window_is_the_kernels_window(self):
        # one window type: a kernel's window is the window its samples live on
        assert Window is kernels.Window
        kern = kernels.hermite_projection_kernel(3)
        (c,) = samplers.sample_dpp_mixture_batch(kern, 1, 0, nodes_per_unit=256)
        assert c.window is kern.window

    @pytest.mark.parametrize("a, b", [(0, np.inf), (-np.inf, 1), (np.nan, 1), (0, np.nan)])
    def test_window_needs_finite_endpoints(self, a, b):
        with pytest.raises(ValueError, match="window endpoints must be finite"):
            Window(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(-1.0, 2.0), max_size=20),
        a=st.floats(-0.5, 0.5),
        length=st.floats(0.1, 1.5),
    )
    def test_invariants(self, values, a, length):
        w = Window(a, a + length)
        inside = all(w.a <= v <= w.b for v in values)
        if not inside or len(set(values)) < len(values):
            with pytest.raises(ValueError):
                PointConfiguration(values, w)
            return
        c = PointConfiguration(values, w)
        assert len(c) == len(values)
        assert_simple_sorted(c)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 40),
        reps=st.integers(1, 5),
        a=st.floats(-10.0, 10.0),
        length=st.floats(0.01, 5.0),
    )
    def test_sampled_configurations_are_simple(self, seed, k, reps, a, length):
        w = Window(a, a + length)
        batch = samplers.sample_fock_pp_batch(np.ones_like, k, w, reps, seed, nodes_per_unit=16)
        assert len(batch) == reps
        for c in batch:
            assert len(c) == k
            assert_simple_sorted(c)


class TestCellGrid:
    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(-50.0, 50.0),
        length=st.floats(1e-3, 100.0),
        nodes_per_unit=st.integers(1, 8192),
    )
    def test_invariants(self, a, length, nodes_per_unit):
        w = Window(a, a + length)
        grid = CellGrid(w, nodes_per_unit)
        assert grid.n >= 1024
        # cell = length / n, so the product is the length up to two roundings
        assert grid.n * grid.cell == pytest.approx(w.length, rel=4 * np.finfo(float).eps)
        assert grid.centers.shape == (grid.n,)
        assert w.a < grid.centers[0] and grid.centers[-1] < w.b
        assert np.all(np.diff(grid.centers) > 0)

    @pytest.mark.parametrize("nodes_per_unit", [0, -5])
    def test_rejects_fewer_than_one_node_per_unit(self, nodes_per_unit):
        with pytest.raises(ValueError, match="nodes_per_unit"):
            CellGrid(Window(0, 1), nodes_per_unit)

    @pytest.mark.parametrize("window, nodes_per_unit", [
        # one cell over the cap: a grid built without the check takes about 128 MiB
        pytest.param((0.0, 1.0), samplers._GRID_MAX_CELLS + 1, id="one-over"),
        pytest.param((0.0, 0.5), 2 * samplers._GRID_MAX_CELLS + 1, id="half-cell-over"),
        # b - a overflows to inf
        pytest.param((-1e308, 1e308), 1, id="infinite-length"),
    ])
    def test_rejects_more_cells_than_the_cap(self, window, nodes_per_unit):
        with pytest.raises(ValueError, match="above the limit"):
            CellGrid(Window(*window), nodes_per_unit)


class TestPoisson:
    def test_zero_rate_is_empty(self):
        (c,) = samplers.sample_poisson_batch(lambda t: np.zeros_like(t), 1.0, Window(0, 1), 1, 0)
        assert len(c) == 0

    def test_homogeneous_count_law(self):
        lam, reps = 40.0, 10_000
        batch = samplers.sample_poisson_batch(
            lambda t: np.full_like(t, lam), lam, Window(0, 1), reps, seed=1
        )
        counts = batch_counts(batch)
        assert abs(counts.mean() - lam) < 3 * np.sqrt(lam / reps)
        assert 0.95 < counts.var(ddof=1) / counts.mean() < 1.05
        for c in batch[:50]:
            assert_simple_sorted(c)

    def test_linear_rate_expected_count(self):
        reps = 4000
        batch = samplers.sample_poisson_batch(
            lambda t: 2.0 * t, 2.0, Window(0, 1), reps, seed=2
        )
        counts = batch_counts(batch)
        assert abs(counts.mean() - 1.0) < 3 * np.sqrt(1.0 / reps)

    def test_scalar_rate_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            samplers.sample_poisson_batch(lambda t: 2.0, 2.0, Window(0, 1), 1, 0)

    @pytest.mark.parametrize("rate, why", [
        (np.nan, "is negative or NaN"),
        (-1.0, "is negative or NaN"),
        (np.inf, "exceeds rate_max = 5"),
    ], ids=["nan", "negative", "inf"])
    def test_rate_that_cannot_be_sampled_refused(self, rate, why):
        # a NaN or negative rate would thin every proposal away and leave empty replicates
        with pytest.raises(ValueError, match=rf"rate_fn\(0\.\d+\) = {rate:g} {why}"):
            samplers.sample_poisson_batch(lambda t: np.full_like(t, rate), 5.0, Window(0, 1), 3, 0)

    @pytest.mark.parametrize("rate_max", [np.nan, np.inf, 0.0, -1.0])
    def test_rate_max_that_cannot_be_sampled_refused(self, rate_max):
        why = f"rate_max must be positive and finite, got {rate_max}"
        with pytest.raises(ValueError, match=why):
            samplers.sample_poisson_batch(np.ones_like, rate_max, Window(0, 1), 3, 0)

    def test_rate_exceeding_bound_aborts(self):
        with pytest.raises(ValueError, match="exceeds rate_max"):
            samplers.sample_poisson_batch(lambda t: np.full_like(t, 3.0), 2.0, Window(0, 1), 1, 0)

    def test_mean_count_cap_refused_before_drawing(self, monkeypatch):
        # 5e9 expected points would need tens of GiB; nothing may be drawn
        def no_draw(seed, reps, block):
            raise AssertionError("drew before checking the mean count")

        monkeypatch.setattr(samplers, "_blocks", no_draw)
        rate = lambda t: np.full_like(t, 5.0)
        with pytest.raises(ValueError, match="expected points"):
            samplers.sample_poisson_batch(rate, 5.0, Window(0, 1e9), 1, 0)
        at_cap = samplers._MAX_MEAN_COUNT * (1 + 1e-9)
        with pytest.raises(ValueError, match="expected points"):
            samplers.sample_poisson_batch(rate, at_cap, Window(0, 1), 1, 0)

    def test_determinism(self):
        rate = lambda t: np.full_like(t, 20.0)
        a = samplers.sample_poisson_batch(rate, 20.0, Window(0, 1), 3, 7)
        b = samplers.sample_poisson_batch(rate, 20.0, Window(0, 1), 3, 7)
        assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))


class TestJoinedInverseCdf:
    """One search over a block's CDFs laid end to end finds the cells that one
    `_inverse_cdf` per row finds."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_per_row_search(self, seed):
        rng = np.random.default_rng(seed)
        masses = rng.exponential(size=(6, 40)) * rng.choice([1e-3, 1.0, 1e3], size=(6, 1))
        masses[1] = 0.0  # a row of total 0
        masses[2, :5] = 0.0  # first cells of zero mass
        masses[3, ::2] = 0.0
        cdfs = np.cumsum(masses, axis=1)
        totals = masses.sum(axis=1)
        counts = np.array([3, 2, 50, 0, 7, 1])
        u = rng.random(counts.sum())
        u[[0, 5, 10]] = 0.0  # exact ties with a zero-mass cell's cumulative mass
        want = np.concatenate([samplers._inverse_cdf(c, t, v) for c, t, v in
                               zip(cdfs, totals, np.split(u, np.cumsum(counts)[:-1]))])
        got = samplers._joined_inverse_cdf(cdfs, totals, counts, u)
        assert np.array_equal(got, want)


class TestPermanental:
    def test_intensity_matches_kernel_diagonal(self):
        scale, reps = 25.0, 2000
        batch = samplers.sample_permanental_batch(0.1, scale, Window(0, 1), reps, seed=3)
        counts = batch_counts(batch)
        # the kernel diagonal: scale times the covariance at zero lag, 2 (the analytic
        # signal's factor 2)
        want = scale * 2.0  # = 50
        stderr = counts.std(ddof=1) / np.sqrt(reps)
        assert abs(counts.mean() - want) < 3 * stderr

    def test_over_dispersion(self):
        batch = samplers.sample_permanental_batch(0.1, 25.0, Window(0, 1), 2000, seed=4)
        counts = batch_counts(batch)
        fano = counts.var(ddof=1) / counts.mean()
        assert fano > 1.5  # Cox bunching; theory ~6 here

    @pytest.mark.parametrize("seed", range(5))
    def test_fano_factor_closed_form(self, seed):
        # Var N = E N + scale^2 int int |C(x - y)|^2 dx dy on [0, L] (Isserlis), with
        # |C|^2 = 4 exp(-2|tau|/sigma): Fano = 1 + 4.75 = 5.75 at scale 25, sigma 0.1, L 1
        sigma, scale, length, reps = 0.1, 25.0, 1.0, 2000
        a = 2.0 / sigma
        pair_integral = 4.0 * (2.0 * length / a - 2.0 * -np.expm1(-a * length) / a**2)
        # C(0) = 2, the analytic signal's factor 2
        want = 1.0 + scale * pair_integral / (2.0 * length)
        batch = samplers.sample_permanental_batch(sigma, scale, Window(0, length), reps, seed)
        fanos = [b.var(ddof=1) / b.mean() for b in np.array_split(batch_counts(batch), 20)]
        stderr = np.std(fanos, ddof=1) / np.sqrt(len(fanos))
        assert abs(np.mean(fanos) - want) < 4 * stderr

    @pytest.mark.parametrize("length", [0.25, 0.3])
    def test_short_window_intensity(self, length):
        # the field covers the window only, here a grid at the 1024-cell floor
        scale, reps = 25.0, 2000
        batch = samplers.sample_permanental_batch(0.1, scale, Window(0, length), reps, seed=7)
        counts = batch_counts(batch)
        stderr = counts.std(ddof=1) / np.sqrt(reps)
        # C(0) = 2, the analytic signal's factor 2
        assert abs(counts.mean() - scale * 2.0 * length) < 3 * stderr

    @pytest.mark.parametrize("seed, reps, window, nodes_per_unit", [
        *(pytest.param(seed, 9, (0.5, 1.25), 2048, id=str(seed)) for seed in range(3)),
        pytest.param(3, 1, (0.5, 1.25), 2048, id="one-replicate"),
        # a grid at the 1024-cell floor: four blocks of 256 cells of the recursion
        pytest.param(4, 9, (0.0, 0.25), 2048, id="doubled-embedding"),
        # 1536 cells: three full lockstep blocks and part of a fourth
        pytest.param(5, 3 * lockstep_block(1536) + 3, (0.5, 1.25), 2048,
                     id="three-blocks-and-a-part"),
        # 24,576 cells, whose normals exceed the block budget: one replicate a block
        pytest.param(6, 3, (0.5, 1.25), 32768, id="one-replicate-blocks"),
    ])
    def test_matches_per_replicate_field_then_cox(self, seed, reps, window, nodes_per_unit):
        # block b, from child b of the seed: the AR(1) envelopes of all its replicates
        # from one draw of normals, real parts then imaginary parts, their counts from
        # one Poisson draw, then all their cell uniforms, then all their jitters
        sigma, scale = 0.1, 40.0
        w = Window(*window)
        grid = CellGrid(w, nodes_per_unit)
        rho = np.exp(-grid.cell / sigma)
        innovation = np.sqrt(1.0 - rho**2)
        block = lockstep_block(grid.n) or 1
        children = np.random.SeedSequence(seed).spawn(-(-reps // block))
        want = []
        for b, child in enumerate(children):
            rng = np.random.default_rng(child)
            size = min(block, reps - b * block)
            x = rng.standard_normal((size, 2, grid.n))
            a = np.empty_like(x)
            a[..., 0] = x[..., 0]
            for k in range(1, grid.n):
                a[..., k] = rho * a[..., k - 1] + innovation * x[..., k]
            masses = scale * (a[:, 0] ** 2 + a[:, 1] ** 2) * grid.cell
            totals = masses.sum(axis=1)
            counts = rng.poisson(totals)
            u = rng.random(counts.sum())
            jitter = rng.random(counts.sum())
            for r, start in enumerate(np.cumsum(counts) - counts):
                span = slice(start, start + counts[r])
                cdf = np.cumsum(masses[r])
                cells = np.minimum(np.searchsorted(cdf, u[span] * totals[r], side="right"),
                                   grid.n - 1)
                pts = grid.centers[cells] + (jitter[span] - 0.5) * grid.cell
                want.append(PointConfiguration(pts, w))
        got = samplers.sample_permanental_batch(sigma, scale, w, reps, seed, nodes_per_unit)
        assert [len(c) for c in got] == [len(c) for c in want]
        assert all(np.array_equal(a.points, b.points) for a, b in zip(got, want))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_sigma_refused(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            samplers.permanental_nodes_per_unit(sigma)
        # refused at an explicit grid too, before any draw
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            samplers.sample_permanental_batch(sigma, 25.0, Window(0, 1), 2, 0, nodes_per_unit=2048)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            samplers.sample_permanental_batch(0.1, -1.0, Window(0, 1), 2, 0)

    def test_nan_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            samplers.sample_permanental_batch(0.1, np.nan, Window(0, 1), 2, 0)

    def test_zero_scale_empty(self):
        batch = samplers.sample_permanental_batch(0.1, 0.0, Window(0, 1), 3, 0)
        assert [len(c) for c in batch] == [0, 0, 0]

    def test_default_grid_of_a_subnormal_sigma_refused(self):
        # 64 / sigma overflows to inf: no grid density, and a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="nodes per unit"):
            samplers.permanental_nodes_per_unit(1e-320)

    def test_default_grid_above_the_cap_names_sigma_and_the_rule(self):
        # ceil(64 / 1e-6) = 6.4e7 nodes per unit on [0, 1], above the 2^24-cell cap
        with pytest.raises(ValueError, match=r"sigma=1e-06 .* 6\.4e\+07 cells at the default "
                                             r"grid of 64 cells per sigma"):
            samplers.sample_permanental_batch(1e-6, 1.0, Window(0, 1), 2, 0)

    def test_mean_count_cap_refused_before_drawing(self, monkeypatch):
        # 2 * scale * length = 2e15 expected points: nothing may be drawn
        def no_draw(seed, reps, block):
            raise AssertionError("drew before checking the mean count")

        monkeypatch.setattr(samplers, "_blocks", no_draw)
        with pytest.raises(ValueError, match="expected points"):
            samplers.sample_permanental_batch(0.1, 1e15, Window(0, 1), 1, 0)
        at_cap = samplers._MAX_MEAN_COUNT / 2 * (1 + 1e-9)
        with pytest.raises(ValueError, match="expected points"):
            samplers.sample_permanental_batch(0.1, at_cap, Window(0, 1), 1, 0)
        # an infinite scale has no count at all
        with pytest.raises(ValueError, match="expected points"):
            samplers.sample_permanental_batch(0.1, np.inf, Window(0, 1), 1, 0)


class TestProjectionDpp:
    def test_cardinality_always_n(self):
        kern = kernels.hermite_projection_kernel(10)
        batch = samplers.sample_dpp_mixture_batch(kern, 300, seed=5)
        assert all(len(c) == 10 for c in batch)
        for c in batch[:20]:
            assert_simple_sorted(c)

    def test_rank_one_density_chi_square(self):
        # N=1 draws follow |phi_0|^2, a standard normal with sigma = 1/sqrt(2)
        kern = kernels.hermite_projection_kernel(1)
        reps = 4000
        batch = samplers.sample_dpp_mixture_batch(kern, reps, seed=6)
        pts = np.concatenate([c.points for c in batch])
        edges = np.array([-np.inf, -1.5, -1.0, -0.6, -0.3, 0.0, 0.3, 0.6, 1.0, 1.5, np.inf])
        observed, _ = np.histogram(pts, edges)
        cdf = norm.cdf(edges, scale=np.sqrt(0.5))
        expected = reps * np.diff(cdf)
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, len(expected) - 1)

    def test_zero_eigenvalues_drop_their_columns(self):
        # the unit-eigenvalue mask gives the same chain input, and so the same
        # samples, as a basis that holds only the kept functions
        class Rows:
            def __init__(self, rows):
                self.rows = rows

            def __len__(self):
                return len(self.rows)

            def __call__(self, x):
                return kernels.hermite_functions(4, x)[self.rows]

        full = kernels.hermite_projection_kernel(4)
        masked = kernels.SpectralKernel([1.0, 0.0, 1.0, 1.0], full.basis, -1, full.window)
        kept = kernels.SpectralKernel(np.ones(3), Rows([0, 2, 3]), -1, full.window)
        got = samplers.sample_dpp_mixture_batch(masked, 20, seed=4, nodes_per_unit=256)
        want = samplers.sample_dpp_mixture_batch(kept, 20, seed=4, nodes_per_unit=256)
        assert [len(c) for c in got] == [3] * 20
        for a, b in zip(got, want):
            assert a.points.tobytes() == b.points.tobytes()

    def test_all_zero_spectrum_is_empty(self):
        full = kernels.hermite_projection_kernel(3)
        empty = kernels.SpectralKernel(np.zeros(3), full.basis, -1, full.window)
        batch = samplers.sample_dpp_mixture_batch(empty, 4, seed=0)
        assert [len(c) for c in batch] == [0] * 4

    def test_chain_gets_kept_columns_and_unsnapped_spectrum(self, monkeypatch):
        # a lambda = 0 column is dropped; a spectrum near {0, 1} reaches the chain as it is
        seen = {}

        def chain(features_at, diag, lam, grid, reps, seed):
            cells = np.array([[0, 7, 7], [grid.n - 1, 3, 0]])
            seen.update(at=features_at(cells), centers=grid.centers[cells], lam=lam)
            return []

        monkeypatch.setattr(samplers, "_hkpv_chain", chain)
        full = kernels.hermite_projection_kernel(4)
        near = kernels.SpectralKernel([1.0, 0.0, 1.0 - 1e-12, 1e-12], full.basis, -1, full.window)
        samplers.sample_dpp_mixture_batch(near, 1, 0, nodes_per_unit=256)
        assert seen["at"].shape == (2, 3, 3)
        want = kernels.hermite_functions(4, seen["centers"].ravel())[[0, 2, 3]].T
        assert np.array_equal(seen["at"], want.reshape(2, 3, 3))
        assert seen["lam"].tolist() == [1.0, 1.0 - 1e-12, 1e-12]

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_law_hermite_2(self, seed):
        # GUE(2): the gap u = x1 - x2 has density ~ u^2 exp(-u^2 / 2), so
        # E[u^2] = 3 (Var u^2 = 6); independent draws from the same one-point
        # density K(x, x) / 2 (E[x^2] = 1) would give E[u^2] = 2
        kern = kernels.hermite_projection_kernel(2)
        reps = 4000
        batch = samplers.sample_dpp_mixture_batch(kern, reps, seed, nodes_per_unit=1024)
        gap2 = np.array([np.diff(c.points)[0] ** 2 for c in batch])
        se = gap2.std(ddof=1) / np.sqrt(reps)
        assert abs(gap2.mean() - 3.0) < 4 * se

    def test_memory_does_not_grow_with_reps(self):
        # the chain runs in blocks, so peak memory stays below what one (reps, rank,
        # rank) complex direction array for the whole batch would take
        kern = kernels.hermite_projection_kernel(40)
        peaks = {}
        for reps in (250, 2000):
            tracemalloc.start()
            try:
                batch = samplers.sample_dpp_mixture_batch(kern, reps, 0, nodes_per_unit=16)
                peaks[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(len(c) == 40 for c in batch)
        unblocked = 2000 * 40 * 40 * np.dtype(complex).itemsize
        assert peaks[2000] < unblocked / 2
        assert peaks[2000] < 1.5 * peaks[250]

    def test_grid_doubling_convergence(self):
        # empirical mean position is stable under doubling the grid density
        kern = kernels.hermite_projection_kernel(5)
        m1 = np.mean(
            [c.points.mean() for c in
             samplers.sample_dpp_mixture_batch(kern, 400, 7, nodes_per_unit=512)]
        )
        m2 = np.mean(
            [c.points.mean() for c in
             samplers.sample_dpp_mixture_batch(kern, 400, 7, nodes_per_unit=1024)]
        )
        assert abs(m1 - m2) < 0.1


class HermiteTimesPhase:
    """The first n Hermite functions times e^{ix}: a complex orthonormal basis."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __call__(self, x):
        return kernels.hermite_functions(self.n, x) * np.exp(1j * x)


class TestFeaturesOnDemand:
    """The chain evaluates the basis at each round's proposals; the grid keeps only
    the diagonal, yet every draw is the one the full (cells, rank) matrix gives."""

    @pytest.mark.parametrize("case", ["hermite-10", "mixture-with-zero", "complex-basis"])
    def test_chain_equals_full_matrix_chain(self, case):
        base = kernels.hermite_projection_kernel(10 if case == "hermite-10" else 6)
        lams, basis, nodes_per_unit = {
            "hermite-10": (np.ones(10), base.basis, 4096),
            "mixture-with-zero": ([1, 0.3, 0, 0.9, 0.5, 1], base.basis, 1024),
            "complex-basis": ([1, 0.6, 0, 1, 0.8, 1], HermiteTimesPhase(6), 1024),
        }[case]
        kern = kernels.SpectralKernel(np.asarray(lams, float), basis, -1, base.window)
        grid = CellGrid(kern.window, nodes_per_unit)
        features_at, diag, lam = samplers._projection_features(kern, grid)
        rows = kern.feature_matrix(grid.centers)[kern.eigenvalues > 0]
        assert rows.dtype == (complex if case == "complex-basis" else float)
        # the diagonal is summed over the (rank, cells) rows, never their transpose
        assert np.array_equal(diag, np.einsum("ki,ki->i", rows, rows.conj()).real)
        full = np.ascontiguousarray(rows.T)
        for seed in range(3):
            got = samplers._hkpv_chain(features_at, diag, lam, grid, 100, seed)
            want = samplers._hkpv_chain(lambda cells: full[cells], diag, lam, grid, 100, seed)
            assert [c.points.tobytes() for c in got] == [c.points.tobytes() for c in want]

    def test_peak_memory_below_a_quarter_of_the_feature_matrix(self):
        # Hermite-60 on its own window has 171,616 cells at 4096 nodes per unit,
        # so one float64 (cells, rank) matrix takes 82 MB
        kern = kernels.hermite_projection_kernel(60)
        matrix = CellGrid(kern.window, 4096).n * 60 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            batch = samplers.sample_dpp_mixture_batch(kern, 2, 0, nodes_per_unit=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(c) for c in batch] == [60, 60]
        assert peak < matrix / 4


class EightBlocks:
    """sqrt(8) times the columns of Q, constant on each of 8 blocks of [0, 1]:
    orthonormal on [0, 1] when Q (8, rank) has orthonormal columns."""

    def __init__(self, q):
        self.q = q

    def __len__(self):
        return self.q.shape[1]

    def __call__(self, x):
        return np.sqrt(8.0) * self.q[np.minimum((8 * x).astype(int), 7)].T


class TestChainLaw:
    """The exact law of the chain on the grid.  With a basis constant on 8
    blocks of [0, 1], and grid cells that split the blocks, the block set of a
    sample is the discrete DPP of K = Q diag(lam) Q^T on the 8 blocks:
    P(X = S) = |det(K - I_{S^c})|.  A chi-square test over all sets, the sets
    of fewer than 5 expected samples pooled, rejects at the 0.1% level."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("lams", [(1.0, 1.0, 1.0), (1.0, 0.5, 0.3)], ids=["projection", "mixture"])
    def test_block_sets_follow_the_discrete_dpp(self, lams, seed):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 3)))
        lam = np.asarray(lams)
        kern = kernels.SpectralKernel(lam, EightBlocks(q), -1, Window(0, 1))
        reps = 20_000
        batch = samplers.sample_dpp_mixture_batch(kern, reps, seed, nodes_per_unit=1024)
        blocks = [np.floor(8 * c.points).astype(int) for c in batch]
        # the kernel has rank 1 on a block, so no block holds two points
        assert all(np.unique(b).size == b.size for b in blocks)
        # set S is the integer with bit i set for each block i in S
        observed = np.bincount([np.sum(2 ** b) for b in blocks], minlength=256)
        big = (q * lam) @ q.T
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        p = np.abs(np.linalg.det(big - np.eye(8) * (1 - bits)[:, None, :]))
        assert abs(p.sum() - 1) < 1e-12
        possible = p > 1e-12
        assert observed[~possible].sum() == 0
        expected = reps * p[possible]
        pooled = expected < 5
        obs = np.append(observed[possible][~pooled], observed[possible][pooled].sum())
        exp = np.append(expected[~pooled], expected[pooled].sum())
        stat = np.sum((obs - exp) ** 2 / exp)
        assert stat < chi2.ppf(0.999, exp.size - 1)


class TestProjectionSamplerErrors:
    """Both failure exits of the chain's rejection loop, per replicate of a block."""

    def rows(self):
        grid = CellGrid(Window(0, 1), 1024)
        f = np.sqrt(2.0) * np.sin(np.pi * grid.centers)
        g = np.sqrt(2.0) * np.sin(2.0 * np.pi * grid.centers)  # orthonormal to f
        return grid, f, g

    def chain(self, rows, lam, grid, reps, seed):
        features = np.stack(rows, axis=1)
        diag = (features**2).sum(axis=1)
        return samplers._hkpv_chain(
            lambda cells: features[cells], diag, np.asarray(lam, float), grid, reps, seed
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_rows_lose_rank(self, seed):
        grid, f, _ = self.rows()
        with pytest.raises(RankLossError):
            self.chain([f, f], [1, 1], grid, 1, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_nearly_parallel_rows_stall(self, seed):
        # the second row leaves residual mass ~1e-10, above the rank-loss mass but far
        # too little for the rejection loop to accept within MAX_TRIES
        grid, f, g = self.rows()
        with pytest.raises(RuntimeError, match="stalled") as info:
            self.chain([f, f + 1e-5 * g], [1, 1], grid, 1, seed)
        assert not isinstance(info.value, RankLossError)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_loss_in_part_of_a_block(self, seed):
        # replicates that keep both copies of f lose rank at their third point;
        # the others ([f, g], rank 2) finish, and the block must still raise
        grid, f, g = self.rows()
        lam = np.array([1.0, 0.5, 1.0])
        reps = 20
        ((rng, _),) = samplers._blocks(seed, reps, reps)  # the block's keep masks come first
        lose = (rng.random((reps, 3)) < lam)[:, 1]
        assert 0 < lose.sum() < reps
        with pytest.raises(RankLossError):
            self.chain([f, f, g], lam, grid, reps, seed)


class TestOrthonormal:
    @pytest.mark.parametrize("seed", range(20))
    def test_second_pass_for_nearly_dependent_row(self, seed):
        # phi lies 1e-8 off the span of three orthonormal directions: one
        # Gram-Schmidt pass leaves a residual whose rounding error is ~1e-8 of
        # its own norm, and only the second pass makes it orthogonal
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        dirs, off = q[:, :3], q[:, 3:]
        phi = dirs @ rng.standard_normal(3) + 1e-8 * (off @ rng.standard_normal(3))
        e = samplers._orthonormal(
            phi[None], (phi @ dirs.conj())[None], np.vdot(phi, phi).real[None], dirs.conj()[None]
        )[0]
        assert np.abs(dirs.conj().T @ e).max() < 1e-12
        assert abs(np.vdot(e, e) - 1.0) < 1e-12


class TestDppMixture:
    def make_kernel(self, lams):
        base = kernels.hermite_projection_kernel(len(lams))
        return kernels.SpectralKernel(np.asarray(lams), base.basis, -1, base.window)

    def test_all_ones_has_fixed_cardinality(self):
        kern = self.make_kernel([1.0] * 6)
        batch = samplers.sample_dpp_mixture_batch(kern, 100, seed=8, nodes_per_unit=512)
        assert all(len(c) == 6 for c in batch)

    def test_all_zeros_empty(self):
        kern = self.make_kernel([0.0] * 6)
        batch = samplers.sample_dpp_mixture_batch(kern, 5, 0, nodes_per_unit=512)
        assert all(len(c) == 0 for c in batch)

    def test_mean_count_is_trace(self):
        lams = [0.9, 0.7, 0.5, 0.3, 0.1]
        kern = self.make_kernel(lams)
        reps = 4000
        batch = samplers.sample_dpp_mixture_batch(kern, reps, seed=9, nodes_per_unit=512)
        counts = batch_counts(batch)
        want = sum(lams)
        stderr = counts.std(ddof=1) / np.sqrt(reps)
        assert abs(counts.mean() - want) < 3 * stderr

    def assert_poisson_binomial_counts(self, lams, seed):
        reps = 4000
        kern = self.make_kernel(lams)
        batch = samplers.sample_dpp_mixture_batch(kern, reps, seed, nodes_per_unit=512)
        pmf = np.array([1.0])
        for lam in lams:
            pmf = np.convolve(pmf, [1.0 - lam, lam])
        support = pmf > 0
        observed = np.bincount([len(c) for c in batch], minlength=len(pmf))
        assert observed[~support].sum() == 0
        expected = reps * pmf[support]
        stat = np.sum((observed[support] - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, support.sum() - 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_count_law_is_poisson_binomial(self, seed):
        self.assert_poisson_binomial_counts([0.9, 0.7, 0.5, 0.3, 0.1], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_count_law_with_zero_and_unit_lambdas(self, seed):
        # lambda = 1 is kept by every replicate, and the lambda = 0 column, dropped
        # before sampling, by none
        self.assert_poisson_binomial_counts([0.1, 0.9, 1.0, 0.0, 0.5], seed)

    def test_invalid_spectrum_rejected(self):
        with pytest.raises(ValueError, match="Macchi-Soshnikov"):
            self.make_kernel([1.2, 0.5])


class TestFockPp:
    def test_exact_cardinality(self):
        env = lambda t: np.exp(-((t - 0.5) ** 2) / (4 * 0.15**2))
        batch = samplers.sample_fock_pp_batch(env, 7, Window(0, 1), 200, seed=10)
        assert all(len(c) == 7 for c in batch)

    def test_rank_one_density_chi_square(self):
        c0, s0 = 0.5, 0.2
        env = lambda t: np.exp(-((t - c0) ** 2) / (4 * s0**2))
        reps = 4000
        batch = samplers.sample_fock_pp_batch(env, 1, Window(0, 1), reps, seed=11)
        pts = np.concatenate([c.points for c in batch])
        edges = np.linspace(0.2, 0.8, 9)
        edges = np.concatenate([[0.0], edges, [1.0]])
        observed, _ = np.histogram(pts, edges)
        cdf = norm.cdf(edges, loc=c0, scale=s0)
        probs = np.diff(cdf) / (cdf[-1] - cdf[0])
        expected = reps * probs
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, len(expected) - 1)

    def test_pair_ratio_is_k_minus_one_over_k(self):
        # rho2 / (rho1 rho1) = (k-1)/k on disjoint intervals, near or far
        k, reps = 4, 6000
        env = lambda t: np.exp(-((t - 0.5) ** 2) / (4 * 0.2**2))
        batch = samplers.sample_fock_pp_batch(env, k, Window(0, 1), reps, seed=12)
        for a_iv, b_iv in [((0.30, 0.45), (0.45, 0.60)), ((0.15, 0.30), (0.70, 0.85))]:
            na = np.array([np.sum((c.points >= a_iv[0]) & (c.points < a_iv[1])) for c in batch])
            nb = np.array([np.sum((c.points >= b_iv[0]) & (c.points < b_iv[1])) for c in batch])
            per_batch = []
            for chunk in range(20):
                s = slice(chunk * reps // 20, (chunk + 1) * reps // 20)
                per_batch.append(np.mean(na[s] * nb[s]) / (np.mean(na[s]) * np.mean(nb[s])))
            per_batch = np.asarray(per_batch)
            se = per_batch.std(ddof=1) / np.sqrt(len(per_batch))
            assert abs(per_batch.mean() - (k - 1) / k) < 3 * se

    def test_zero_mass_error(self):
        with pytest.raises(ValueError, match="zero total mass"):
            samplers.sample_fock_pp_batch(lambda t: np.zeros_like(t), 3, Window(0, 1), 1, 0)

    @pytest.mark.parametrize("phi_plus, shape", [
        pytest.param(lambda t: 1.0, "()", id="scalar"),
        pytest.param(lambda t: np.ones(3), r"\(3,\)", id="three-values"),
        pytest.param(lambda t: np.ones((2, t.size)), r"\(2, 4096\)", id="two-rows"),
    ])
    def test_envelope_of_the_wrong_shape_refused(self, phi_plus, shape):
        with pytest.raises(ValueError, match=r"phi_plus must map times of shape \(4096,\) to "
                                             rf"amplitudes of the same shape, got {shape}"):
            samplers.sample_fock_pp_batch(phi_plus, 3, Window(0, 1), 2, 0)

    def test_point_count_cap_refused_before_drawing(self, monkeypatch):
        # 1e13 points a replicate would need about 80 TB: nothing may be drawn
        def no_draw(seed, reps, block):
            raise AssertionError("drew before checking the point count")

        monkeypatch.setattr(samplers, "_blocks", no_draw)
        for k in (10**13, int(samplers._MAX_MEAN_COUNT) + 1):
            with pytest.raises(ValueError, match="points per replicate"):
                samplers.sample_fock_pp_batch(np.ones_like, k, Window(0, 1), 1, 0)

    @pytest.mark.parametrize("std, share", [(1e-5, 0.5), (8e-4, 0.12), (1.2e-3, None), (3e-3, None)])
    def test_unresolved_envelope_refused(self, std, share):
        # |phi_plus|^2 is a normal density of this std centred on a cell edge, and
        # the cells are 1/4096 wide: the cell next to 0.5 holds 0.5, 0.12, 0.081 and
        # 0.032 of the mass; above 0.1 the grid does not resolve the envelope
        env = lambda t: np.exp(-((t - 0.5) ** 2) / (4 * std**2))
        if share is None:
            batch = samplers.sample_fock_pp_batch(env, 5, Window(0, 1), 20, seed=13)
            assert all(len(c) == 5 for c in batch)
            return
        with pytest.raises(ValueError, match="does not resolve the envelope") as info:
            samplers.sample_fock_pp_batch(env, 5, Window(0, 1), 20, seed=13)
        assert f"one cell holds {share:.2g}" in str(info.value)
        assert "the cell at 0.49987" in str(info.value)


class TestValidateKernel:
    """A spectral kernel checks at construction that its spectrum defines a process."""

    def base(self, lams, eta):
        basis = kernels.hermite_projection_kernel(len(lams)).basis
        return kernels.SpectralKernel(lams, basis, eta, Window(-10, 10))

    def test_valid_determinantal(self):
        assert list(self.base([0.5, 1.0, 0.0], -1).eigenvalues) == [0.5, 1.0, 0.0]

    def test_macchi_soshnikov_violation(self):
        with pytest.raises(ValueError, match=r"eigenvalue 0 = 1\.2 lies outside \[0, 1\]"):
            self.base([1.2, 0.5], -1)

    def test_permanental_allows_large_eigenvalues(self):
        assert list(self.base([3.7, 0.2], +1).eigenvalues) == [3.7, 0.2]

    def test_negative_eigenvalue_flagged(self):
        with pytest.raises(ValueError, match=r"eigenvalue 0 = -0\.1 lies outside \[0, inf\)"):
            self.base([-0.1, 0.5], +1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("eta", [-1, 1])
    def test_non_finite_eigenvalue_flagged(self, bad, eta):
        with pytest.raises(ValueError, match=f"eigenvalue 1 = {bad} lies outside"):
            self.base([0.5, bad, 0.5], eta)


class TestSerialization:
    def make_batch(self):
        w = Window(0, 1)
        return [
            PointConfiguration([0.25, 0.5], w),
            PointConfiguration([], w),
            PointConfiguration([0.125], w),
        ]

    def test_csv_round_trip(self, tmp_path):
        batch = self.make_batch()
        path = tmp_path / "batch.csv"
        samplers.save_batch_csv(path, batch, {"family": "test", "seed": 3})
        back, meta = samplers.load_batch_csv(path)
        assert meta["family"] == "test"
        assert len(back) == 3
        assert np.array_equal(back[0].points, batch[0].points)
        assert len(back[1]) == 0

    def test_save_writes_what_csv_writer_writes(self, tmp_path):
        # the bytes the per-row csv.writer rendering gave: JSON line, then CRLF rows
        w = Window(-1.5, 2.0)
        batch = samplers.sample_poisson_batch(lambda t: np.full_like(t, 9.0), 9.0, w, 6, 4)
        batch.insert(2, PointConfiguration([], w))
        batch.append(PointConfiguration([-1.5, -0.0, 1e-300, 1 / 3, 2.0], w))
        meta = {"family": "test", "seed": 4}
        path = tmp_path / "batch.csv"
        samplers.save_batch_csv(path, batch, meta)
        header = dict(meta, window=[w.a, w.b], n_replicates=len(batch))
        text = io.StringIO(newline="")
        text.write("# ppoptics-batch " + json.dumps(header, sort_keys=True) + "\n")
        writer = csv.writer(text)
        writer.writerow(["replicate_id", "t"])
        for r, config in enumerate(batch):
            for t in config.points:
                writer.writerow([r, repr(float(t))])
        assert path.read_bytes() == text.getvalue().encode()

    def test_load_accepts_lf_line_endings(self, tmp_path):
        batch = self.make_batch()
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        samplers.save_batch_csv(crlf, batch, {"seed": 0})
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        assert b"\r" not in lf.read_bytes()
        back, _ = samplers.load_batch_csv(lf)
        assert [c.points.tolist() for c in back] == [c.points.tolist() for c in batch]

    @pytest.mark.parametrize("rows, message", [
        (["0,0.25", "1"], "line 4 has 1 fields, expected 2"),
        (["0,0.25", "1,0.5,0.75", "1,0.5"], "line 4 has 3 fields, expected 2"),
        (["0,0.25", "", "1,0.5"], "line 4 has 0 fields, expected 2"),
        (["0,0.25", "0.5,0.5"], "invalid literal for int"),
        (["0,0.25", "1,x"], "could not convert string to float"),
        (["0,0.25", "2,0.5", "-1,0.5"], r"replicate id 2 outside \[0, 2\)"),
        (["0,0.25", "-1,0.5"], r"replicate id -1 outside \[0, 2\)"),
        # the first bad line is named even when a later line breaks the bulk parse
        (["3,0.5", "0,0.25,1"], r"replicate id 3 outside \[0, 2\)"),
    ])
    def test_load_names_the_first_bad_row(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        header = json.dumps({"n_replicates": 2, "window": [0.0, 1.0]})
        path.write_text("\n".join([f"# ppoptics-batch {header}", "replicate_id,t", *rows]) + "\n")
        with pytest.raises(ValueError, match=message):
            samplers.load_batch_csv(path)

    def test_save_refuses_an_empty_batch(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="batch must be nonempty"):
            samplers.save_batch_csv(path, [], {"seed": 0})
        assert not path.exists()

    @pytest.mark.parametrize("windows", [((0, 1), (0, 0.3)), ((0, 10), (0, 1))])
    def test_save_refuses_mixed_windows(self, tmp_path, windows):
        # one header window would reload every replicate on the first one's window
        batch = [PointConfiguration([0.25], Window(*w)) for w in windows]
        path = tmp_path / "mixed.csv"
        with pytest.raises(ValueError, match="all replicates must share the same window"):
            samplers.save_batch_csv(path, batch, {"seed": 0})
        assert not path.exists()

    def test_load_refuses_too_many_replicates(self, tmp_path):
        # refused before np.bincount(minlength=n) allocates 80 TB
        path = tmp_path / "huge.csv"
        header = json.dumps({"n_replicates": 10**13, "window": [0.0, 1.0]})
        path.write_text(f"# ppoptics-batch {header}\nreplicate_id,t\n0,0.5\n")
        with pytest.raises(ValueError, match=r"n_replicates = 10000000000000, above the limit"):
            samplers.load_batch_csv(path)

    def test_load_without_replicates(self, tmp_path):
        path = tmp_path / "none.csv"
        header = json.dumps({"n_replicates": 0, "window": [0.0, 1.0]})
        path.write_text(f"# ppoptics-batch {header}\nreplicate_id,t\n")
        back, meta = samplers.load_batch_csv(path)
        assert back == [] and meta["n_replicates"] == 0

    def test_load_groups_rows_by_replicate(self, tmp_path):
        path = tmp_path / "mixed.csv"
        header = json.dumps({"n_replicates": 3, "window": [0.0, 1.0]})
        rows = ["2,0.75", "0,0.5", "2,0.25", "0,0.125"]
        path.write_text("\n".join([f"# ppoptics-batch {header}", "replicate_id,t", *rows]) + "\n")
        back, _ = samplers.load_batch_csv(path)
        assert [c.points.tolist() for c in back] == [[0.125, 0.5], [], [0.25, 0.75]]

    def write(self, tmp_path, rows):
        path = tmp_path / "batch.csv"
        header = json.dumps({"n_replicates": 2, "window": [0.0, 1.0]})
        path.write_text("\n".join([f"# ppoptics-batch {header}", "replicate_id,t", *rows]) + "\n")
        return path

    def test_load_sorts_an_unsorted_replicate(self, tmp_path):
        path = self.write(tmp_path, ["0,0.5", "0,0.25", "1,0.125", "1,0.75"])
        back, _ = samplers.load_batch_csv(path)
        assert [c.points.tolist() for c in back] == [[0.25, 0.5], [0.125, 0.75]]

    @pytest.mark.parametrize("rows, message", [
        (["0,0.25", "1,0.5", "1,0.5"], "configuration must be simple"),
        (["0,0.25", "1,0.75", "1,0.5", "1,0.75"], "configuration must be simple"),
        (["0,0.25", "1,1.5"], "points outside the window"),
        (["0,-0.25", "1,0.5"], "points outside the window"),
        (["0,0.25", "1,nan"], "points outside the window"),
    ], ids=["duplicate", "unsorted-duplicate", "above", "below", "nan"])
    def test_load_refuses_what_the_constructor_refuses(self, tmp_path, rows, message):
        with pytest.raises(ValueError, match=message):
            samplers.load_batch_csv(self.write(tmp_path, rows))

    def test_loaded_replicates_share_no_memory(self, tmp_path):
        path = self.write(tmp_path, ["0,0.25", "0,0.5", "1,0.125", "1,0.75"])
        back, _ = samplers.load_batch_csv(path)
        assert not np.shares_memory(back[0].points, back[1].points)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        reps=st.integers(1, 6),
        rate=st.floats(0.1, 30.0),
        empty_at=st.integers(0, 6),
        a=st.floats(-10.0, 10.0),
        length=st.floats(0.01, 5.0),
    )
    def test_csv_round_trip_property(self, seed, reps, rate, empty_at, a, length):
        w = Window(a, a + length)
        batch = samplers.sample_poisson_batch(lambda t: np.full_like(t, rate), rate, w, reps, seed)
        batch.insert(min(empty_at, reps), PointConfiguration([], w))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.csv"
            samplers.save_batch_csv(path, batch, {"seed": seed})
            back, meta = samplers.load_batch_csv(path)
        assert meta["seed"] == seed
        assert len(back) == len(batch)
        for got, want in zip(back, batch):
            assert got.window == w
            assert np.array_equal(got.points, want.points)


# one small batch of each family at seed 11, by its replicate count
SAMPLE_FAMILIES = {
    "poisson": lambda reps: samplers.sample_poisson_batch(
        lambda t: 50.0 * np.sin(3 * t) ** 2, 50.0, Window(0, 1), reps, 11),
    "permanental": lambda reps: samplers.sample_permanental_batch(
        0.1, 25.0, Window(0, 1), reps, 11),
    "dpp-mixture": lambda reps: samplers.sample_dpp_mixture_batch(
        kernels.SpectralKernel([0.9, 0.5, 0.2], kernels.hermite_projection_kernel(3).basis,
                               -1, Window(-6, 6)), reps, 11, nodes_per_unit=256),
    "fock": lambda reps: samplers.sample_fock_pp_batch(
        lambda t: np.exp(-((t - 0.5) ** 2) / 0.09), 3, Window(0, 1), reps, 11),
}


def no_draw(seed, reps, block):
    raise AssertionError("spawned before checking the replicate count")


@pytest.mark.parametrize("family", ["poisson", "permanental", "dpp-mixture", "fock"])
@pytest.mark.parametrize("reps", [10**13, samplers._MAX_REPLICATES + 1, -1])
def test_replicate_cap_refused_before_drawing(family, reps, monkeypatch):
    # refused before the first block's child generator is spawned: nothing may be drawn
    monkeypatch.setattr(samplers, "_blocks", no_draw)
    why = "above the limit" if reps > 0 else "the count must be nonnegative"
    with pytest.raises(ValueError, match=f"{reps} replicates(,|:) {why}"):
        SAMPLE_FAMILIES[family](reps)


@pytest.mark.parametrize("family", sorted(SAMPLE_FAMILIES))
@pytest.mark.parametrize("reps", [2.5, 3.0, "3", None, True])
def test_replicate_count_must_be_an_integer(family, reps, monkeypatch):
    monkeypatch.setattr(samplers, "_blocks", no_draw)
    with pytest.raises(ValueError, match=rf"reps must be an integer, got {reps!r}"):
        SAMPLE_FAMILIES[family](reps)


@pytest.mark.parametrize("family", sorted(SAMPLE_FAMILIES))
def test_numpy_integer_replicate_count(family):
    assert len(SAMPLE_FAMILIES[family](np.int64(3))) == 3


@pytest.mark.parametrize("k", [2.5, 3.0, np.nan, "3", True])
def test_fock_point_count_must_be_an_integer(k):
    with pytest.raises(ValueError, match=rf"k must be a positive integer, got {k!r}"):
        samplers.sample_fock_pp_batch(np.ones_like, k, Window(0, 1), 2, 0)
    assert [len(c) for c in samplers.sample_fock_pp_batch(
        np.ones_like, np.int32(3), Window(0, 1), 2, 0)] == [3, 3]


@pytest.mark.parametrize("family, budget, replicate_bytes", [
    # 50 expected points, 32 bytes each
    ("poisson", "_COX_BLOCK_BYTES", 32 * 50),
    # 1024 cells of normals, 16 bytes each
    ("permanental", "_COX_BLOCK_BYTES", 16 * 1024),
    # five rank-3 by rank-3 float64 arrays
    ("dpp-mixture", "_CHAIN_BLOCK_BYTES", 5 * 3**2 * 8),
    # 3 points, 32 bytes each
    ("fock", "_COX_BLOCK_BYTES", 32 * 3),
], ids=["poisson", "permanental", "dpp-mixture", "fock"])
def test_blocks_regenerate_from_the_seed_alone(family, budget, replicate_bytes, monkeypatch):
    # block b draws from child b of the seed: every full block of a batch is the
    # same block of a longer batch at the same seed.  A budget of 4 replicates keeps
    # the batches small
    block = 4
    monkeypatch.setattr(samplers, budget, block * replicate_bytes)
    sample = SAMPLE_FAMILIES[family]
    short, long = sample(2 * block), sample(3 * block + 1)
    assert len(short) == 2 * block and len(long) == 3 * block + 1
    assert all(np.array_equal(a.points, b.points) for a, b in zip(short, long))
    # the third block differs from the first two: the children are distinct
    assert not all(np.array_equal(a.points, b.points)
                   for a, b in zip(long[2 * block:], long[:block]))


@pytest.mark.parametrize("family", sorted(SAMPLE_FAMILIES))
def test_sampled_replicates_share_no_memory(family):
    # each replicate's points are a buffer of their own, not a view into its block
    batch = SAMPLE_FAMILIES[family](12)
    assert sum(len(c) for c in batch) > 12
    for i, a in enumerate(batch):
        assert_simple_sorted(a)
        assert a.points.base is None or a.points.base.nbytes == a.points.nbytes
        assert not any(np.shares_memory(a.points, b.points) for b in batch[i + 1:])
