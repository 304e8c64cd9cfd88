"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest -s to see them inline).
Monte Carlo criteria use fixed seeds, so outcomes are reproducible.
"""

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist
from scipy.stats import poisson as poisson_dist

from ppoptics import builder, cli, estimators, fock, gaussian_field, kernels, samplers, wick
from ppoptics.samplers import PointConfiguration, Window


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def batched_fano(counts: np.ndarray, n_batches: int = 20):
    """Fano factor with a batch-means standard error."""
    batches = np.array_split(counts, n_batches)
    fanos = np.array([b.var(ddof=1) / b.mean() for b in batches])
    return fanos.mean(), fanos.std(ddof=1) / np.sqrt(n_batches)


def occupation(rho, mode: int) -> float:
    """<a^dag a> of one mode, by the exact trace."""
    ops = [fock.ladder(rho.spec, mode, kind) for kind in ("create", "annihilate")]
    return fock.expectation(rho, ops).real


def test_c01_wick_equivalence():
    """|wick - exact| <= 1e-9 (1 + |exact|) over >= 200 random Gaussian states."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(220):
        spec, nu, beta, zeta, ops = cli.random_gaussian_case(rng)
        check = fock.wick_verify(spec, nu, beta, zeta, ops)
        worst = max(worst, check.deviation / (1.0 + abs(check.exact)))
    report(1, worst <= 1e-9, f"max relative Wick deviation {worst:.3e} (tol 1e-9)")


def test_c02_contraction_combinatorics():
    """(N-1)!! contraction counts and the three displayed order-4 pairings."""
    sizes_ok = all(
        len(wick.enumerate_contractions(n)) == int(np.prod(np.arange(1, n, 2)))
        for n in (2, 4, 6, 8, 10)
    )
    cs4 = wick.enumerate_contractions(4)
    got4 = {tuple(map(tuple, pairs)): parity
            for pairs, parity in zip(cs4["pairs"].tolist(), cs4["parity"].tolist())}
    pairings_ok = got4 == {
        ((0, 1), (2, 3)): 1,
        ((0, 2), (1, 3)): -1,
        ((0, 3), (1, 2)): 1,
    }
    report(2, sizes_ok and pairings_ok,
           f"counts match (N-1)!! for N in 2..10: {sizes_ok}; "
           f"order-4 pairings exact: {pairings_ok}")


def test_c03_occupation_laws():
    """Mean occupations: fermions to 1e-12, bosons within the cutoff-60 tail."""
    rng = np.random.default_rng(103)
    spec_f = fock.ModeSpec(4, 1, -1)
    nu = rng.uniform(-2, 2, 4)
    beta, zeta = 1.3, 0.2
    rho = fock.gaussian_density_matrix(spec_f, nu, beta, zeta)
    dev_f = max(
        abs(occupation(rho, i) - 1.0 / (np.exp(beta * (nu[i] - zeta)) + 1.0))
        for i in range(4)
    )

    cutoff = 60
    spec_b = fock.ModeSpec(1, cutoff, 1)
    dev_b, bound_b = 0.0, 0.0
    for x in (0.5, 0.8, 2.0):
        rho = fock.gaussian_density_matrix(spec_b, np.array([x]), 1.0, 0.0)
        got = occupation(rho, 0)
        bound = np.exp(-x * (cutoff + 1)) * (cutoff + 2)
        dev_b = max(dev_b, abs(got - 1.0 / np.expm1(x)))
        bound_b = max(bound_b, bound)
    ok = dev_f <= 1e-12 and bound_b < 1e-8 and dev_b <= max(bound_b, 1e-13)
    report(3, ok, f"fermion dev {dev_f:.2e} (tol 1e-12); "
                  f"boson dev {dev_b:.2e} within tail bound {bound_b:.2e} (< 1e-8)")


REPS_PCF = 20_000


@pytest.fixture(scope="module")
def matched_batches():
    """Poisson / permanental / Hermite-10 DPP on [0,1] at equal mean intensity.

    The DPP is sampled on its natural domain, restricted to the central
    bulk (where its one-point density is flat to ~3%), and affinely
    mapped onto [0,1]; restriction and affine maps preserve DPP
    correlation structure exactly.
    """
    unit = Window(0.0, 1.0)
    kern = kernels.hermite_projection_kernel(10)
    raw = samplers.sample_dpp_mixture_batch(kern, REPS_PCF, seed=40)
    bulk = Window(-1.5, 1.5)
    dpp = []
    for c in raw:
        pts = c.points[(c.points >= bulk.a) & (c.points <= bulk.b)]
        dpp.append(PointConfiguration((pts - bulk.a) / bulk.length, unit))
    lam0 = np.mean([len(c) for c in dpp])

    poisson = samplers.sample_poisson_batch(
        lambda t: np.full_like(t, lam0), lam0, unit, REPS_PCF, seed=41
    )
    # E|E+|^2 = 2, the analytic signal's factor 2: scale lam0 / 2 gives lam0 points
    permanental = samplers.sample_permanental_batch(0.1, lam0 / 2.0, unit, REPS_PCF, seed=42)
    return {"poisson": poisson, "permanental": permanental, "dpp": dpp, "lam0": lam0}


def test_c04_pair_correlation_closed_forms(matched_batches):
    """Poisson flat, permanental 1+e^(-2r/sigma), DPP antibunched, all at 4*stderr."""
    means = {k: np.mean([len(c) for c in matched_batches[k]])
             for k in ("poisson", "permanental", "dpp")}
    spread = max(means.values()) - min(means.values())

    est_p = estimators.estimate_pcf(matched_batches["poisson"])
    dev_p = np.abs(est_p.g_hat - 1.0) - 4.0 * est_p.stderr
    ok_p = bool(np.all(dev_p <= 0))

    est_g = estimators.estimate_pcf(matched_batches["permanental"])
    want = estimators.expected_pcf(est_g.bin_edges, 1.0, 0.1)
    dev_g = np.abs(est_g.g_hat - want) - 4.0 * est_g.stderr
    # the first bin, sigma / 20 wide, expects 1.95, not the coincidence value 2
    ok_g = bool(np.all(dev_g <= 0)) and abs(est_g.g_hat[0] - want[0]) < 0.1

    est_d = estimators.estimate_pcf(matched_batches["dpp"])
    ok_d = est_d.g_hat[0] < 0.1 and bool(
        np.all(est_d.g_hat <= 1.0 + 4.0 * est_d.stderr)
    )

    ok = ok_p and ok_g and ok_d and spread < 0.25
    report(4, ok,
           f"mean intensities {means['poisson']:.2f}/{means['permanental']:.2f}/"
           f"{means['dpp']:.2f}; poisson worst excess {dev_p.max():.3f}; "
           f"permanental worst excess {dev_g.max():.3f}; "
           f"dpp g(0+)={est_d.g_hat[0]:.3f} (<0.1)")


def permanental_count_pmf(gamma: float, mean: float, size: int = 1024) -> np.ndarray:
    """P(N = k), k < size, for the permanental process of amplitude correlation
    exp(-|tau| / sigma) on a window of length gamma * sigma with `mean` expected points.

    The pgf is the Fredholm determinant det(I + (1 - z) K)^-1 (Macchi 1975), in
    closed form Q(1 - z) with Q(s) = e^gamma / (cosh(gamma y) + (y + 1/y) sinh(gamma y) / 2)
    and y = sqrt(1 + 2 s mean / gamma) (Slepian 1958; Mandel 1959), written here as
    4 y e^{gamma (1 - y)} / ((1 + y)^2 - (1 - y)^2 e^{-2 gamma y}), which does not
    overflow.  Q is even in y, so the branch of the root does not matter.  The pmf
    is the FFT of the pgf on `size` points of the unit circle.
    """
    s = 1.0 - np.exp(2j * np.pi * np.arange(size) / size)
    y = np.sqrt(1.0 + 2.0 * s * mean / gamma)
    pgf = 4.0 * y * np.exp(gamma * (1.0 - y)) / (
        (1.0 + y) ** 2 - (1.0 - y) ** 2 * np.exp(-2.0 * gamma * y)
    )
    return np.fft.fft(pgf).real / size


def pooled_chi2(counts: np.ndarray, pmf: np.ndarray):
    """(chi^2, degrees of freedom) of integer counts against pmf; the counts below the
    first cell expecting 5 or more are pooled into it, and those above the last such
    cell, beyond the table included, into that one."""
    expected = counts.size * pmf
    big = np.flatnonzero(expected >= 5)
    lo, hi = big[0], big[-1]
    observed = np.bincount(np.clip(counts, lo, hi) - lo, minlength=hi - lo + 1)
    want = expected[lo : hi + 1].copy()
    want[0] = expected[: lo + 1].sum()
    want[-1] = counts.size - expected[:hi].sum()
    return float(((observed - want) ** 2 / want).sum()), want.size - 1


def ou_cox_counts(scale, sigma, parts: int, reps: int, seed, cells: int = 256):
    """Point counts of `reps` Cox replicates on [0, 1] at rate scale * |X|^2, with X
    `parts` independent real Ornstein-Uhlenbeck components of correlation time sigma,
    each of variance 2 / parts, on `cells` cells: given the integrated intensity the
    count is Poisson.  At parts = 2 this is the permanental count law."""
    rng = np.random.default_rng(seed)
    recursion = gaussian_field._ou_recursion(cells, 1.0 / (cells * sigma))
    out = []
    for chunk in np.array_split(np.arange(reps), max(1, reps // 500)):
        a = recursion(rng.standard_normal((chunk.size, parts, cells)))
        out.append(rng.poisson(scale * (2.0 / parts) * (a**2).sum(axis=(1, 2)) / cells))
    return np.concatenate(out)


# 5% level of the count-law gate
COUNT_LAW_LEVEL = 0.05


@pytest.fixture(scope="module")
def thermal_counts():
    """Counts of test_c05's 10,000 permanental replicates: sigma 0.1 and scale 25 on
    [0, 1], so 50 points per replicate on average."""
    batch = samplers.sample_permanental_batch(0.1, 25.0, Window(0, 1), 10_000, seed=51)
    return np.array([len(c) for c in batch])


def count_law_chi2(counts, mean):
    """(chi^2, df, 5% critical value) of counts against the permanental count law at
    sigma 0.1 on [0, 1] with `mean` expected points."""
    stat, df = pooled_chi2(counts, permanental_count_pmf(10.0, mean))
    return stat, df, chi2_dist.ppf(1 - COUNT_LAW_LEVEL, df)


@pytest.mark.parametrize("batch", ["c04", "c05"])
def test_permanental_count_law(matched_batches, thermal_counts, batch):
    """The permanental counts of test_c04 (mean lam0) and of test_c05 (mean 50) against
    the closed-form count law, chi^2 at 5%."""
    if batch == "c04":
        counts = np.array([len(c) for c in matched_batches["permanental"]])
        mean = matched_batches["lam0"]
    else:
        counts, mean = thermal_counts, 50.0
    stat, df, crit = count_law_chi2(counts, mean)
    report(4, stat <= crit, f"{batch} count-law chi^2 {stat:.1f} on {df} df "
                            f"(5% critical {crit:.1f}), {counts.size} replicates")


@pytest.mark.parametrize("parts, sigma, rejected", [
    (2, 0.1, False),  # the permanental law itself: the gate passes it
    (1, 0.1, True),  # |X|^2 of a real OU process, same mean
    (2, 0.125, True),  # sigma off by 25%
], ids=["permanental", "real-ou", "sigma-x1.25"])
@pytest.mark.parametrize("batch", ["c04", "c05"])
def test_count_law_rejects_mutants(matched_batches, batch, parts, sigma, rejected):
    """The count-law gate has power: at each batch's mean and replicate count it
    rejects the mutants and passes the law it tests."""
    mean, reps = (matched_batches["lam0"], REPS_PCF) if batch == "c04" else (50.0, 10_000)
    counts = ou_cox_counts(mean / 2.0, sigma, parts, reps, seed=43)
    stat, df, crit = count_law_chi2(counts, mean)
    report(4, (stat > crit) == rejected,
           f"{batch}, {parts} OU part(s), sigma {sigma}: chi^2 {stat:.1f} on {df} df "
           f"(5% critical {crit:.1f}), rejected: {stat > crit}")


def test_c05_dispersion_ordering(thermal_counts):
    """Fano: mixture DPP < 1 < permanental at 3 sigma; projection variance 0."""
    base = kernels.hermite_projection_kernel(12)
    mixture = kernels.SpectralKernel(np.full(12, 0.55), base.basis, -1, base.window)
    counts_d = np.array([
        len(c) for c in samplers.sample_dpp_mixture_batch(
            mixture, 10_000, seed=50, nodes_per_unit=1024
        )
    ], dtype=float)
    fano_d, se_d = batched_fano(counts_d)

    fano_g, se_g = batched_fano(thermal_counts.astype(float))

    kern = kernels.hermite_projection_kernel(10)
    proj = samplers.sample_dpp_mixture_batch(kern, 300, seed=52, nodes_per_unit=1024)
    var_proj = np.var([len(c) for c in proj])

    ok = (fano_d + 3 * se_d < 1.0) and (fano_g - 3 * se_g > 1.0) and var_proj == 0.0
    report(5, ok,
           f"fano DPP {fano_d:.3f}+-{se_d:.3f} < 1 < permanental {fano_g:.2f}+-{se_g:.2f}; "
           f"projection count variance {var_proj}")


def test_c06_coherent_state_statistics():
    """Poisson photon numbers, eigenrelation, displacement relations."""
    alpha, cutoff = 1.5, 40
    state = fock.coherent_state(alpha, cutoff)
    pmf = poisson_dist.pmf(np.arange(cutoff + 1), alpha**2)
    pmf_dev = np.abs(np.abs(state) ** 2 - pmf)[:20].max()

    a = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1)
    eig_dev = abs(state.conj() @ (a @ state) - alpha)

    disp_small = fock.displacement_check(0.5, 40)
    disp_large = fock.displacement_check(1.5, 60)
    disp_dev = max(
        disp_small["action_dev"], disp_small["vacuum_dev"],
        disp_large["action_dev"], disp_large["vacuum_dev"],
    )
    ok = pmf_dev < 1e-10 and eig_dev < 1e-10 and disp_dev < 1e-8
    report(6, ok, f"pmf dev {pmf_dev:.2e} (<1e-10); <a> dev {eig_dev:.2e}; "
                  f"displacement dev {disp_dev:.2e} (<1e-8)")


def test_c07_builder_round_trip():
    """Spectrum/level inversion, partition function, and the beta->inf kernel."""
    rng = np.random.default_rng(107)
    worst_rt = 0.0
    for eta in (-1, 1):
        lam = rng.uniform(0.02, 0.98, 50) if eta == -1 else rng.uniform(0.05, 6.0, 50)
        spec = builder.spectrum_to_levels(lam, beta=1.1, eta=eta)
        worst_rt = max(worst_rt, np.abs(builder.levels_to_spectrum(spec) - lam).max())

    nu = rng.uniform(-2, 2, 10)
    beta, zeta = 0.8, 0.1
    gc = builder.GrandCanonicalSpec(beta, zeta, nu, -1)
    logz_dev = abs(
        builder.log_partition_function(gc)
        - fock.log_partition(fock.ModeSpec(10, 1, -1), nu, beta, zeta)
    )

    n_fill, n_levels = 6, 9
    levels = np.arange(n_levels) - (n_fill - 0.5)
    base = kernels.hermite_projection_kernel(n_levels)
    induced = builder.induced_kernel(
        builder.GrandCanonicalSpec(1e3, 0.0, levels, -1), base.basis, base.window
    )
    grid = np.linspace(-4, 4, 50)
    kernel_dev = np.abs(
        kernels.gram_matrix(induced, grid)
        - kernels.gram_matrix(kernels.hermite_projection_kernel(n_fill), grid)
    ).max()

    ok = worst_rt <= 1e-12 and logz_dev <= 1e-10 and kernel_dev <= 1e-8
    report(7, ok, f"round trip {worst_rt:.2e} (1e-12); logZ {logz_dev:.2e} (1e-10); "
                  f"projection kernel {kernel_dev:.2e} (1e-8)")


def test_c08_gue_oracle_equivalence():
    """KS distance between GUE(8) eigenvalues and the Hermite-8 DPP."""
    rep = cli.suite_gue(n=8, reps=5000, seed=108)
    ks = rep["checks"][0]["value"]
    report(8, ks < 0.02, f"two-sample KS distance {ks:.4f} (< 0.02), "
                         f"5000 matrices vs 5000 samples")


def test_c09_basis_rotation_invariants():
    """Trailing-block determinant and trace invariant, diagonal moving."""
    rng = np.random.default_rng(109)
    lam = rng.uniform(0.02, 0.98, 20)
    worst_det, worst_trace, diags = 0.0, 0.0, []
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 20):
        v = builder.two_mode_unitary(np.cos(theta), np.sin(theta) * np.exp(0.4j), 20)
        k = builder.rotate_measurement_basis(lam, v)
        worst_det = max(worst_det, abs(np.linalg.det(k[-2:, -2:]) - lam[-2] * lam[-1]))
        worst_trace = max(worst_trace, abs(np.trace(k).real - lam.sum()))
        diags.append(k[-2, -2].real)
    varies = np.ptp(diags) > 1e-3
    ok = worst_det <= 1e-12 and worst_trace <= 1e-12 and varies
    report(9, ok, f"co-occurrence det dev {worst_det:.2e} (1e-12); "
                  f"trace dev {worst_trace:.2e}; diagonal range {np.ptp(diags):.3f}")


def test_c10_fock_state_process():
    """Cardinality exactly k and rho2/rho1^2 = (k-1)/k at 3 sigma."""
    env = lambda t: np.exp(-((t - 0.5) ** 2) / (4 * 0.2**2))
    intervals = (((0.30, 0.45), (0.45, 0.60)), ((0.15, 0.30), (0.70, 0.85)))
    details = []
    ok = True
    for k in (2, 5, 10):
        batch = samplers.sample_fock_pp_batch(env, k, Window(0, 1), 6000, seed=60 + k)
        ok &= all(len(c) == k for c in batch)
        for (a1, a2), (b1, b2) in intervals:
            na = np.array([np.sum((c.points >= a1) & (c.points < a2)) for c in batch])
            nb = np.array([np.sum((c.points >= b1) & (c.points < b2)) for c in batch])
            ratios = []
            for chunk in np.array_split(np.arange(len(batch)), 20):
                ratios.append(
                    np.mean(na[chunk] * nb[chunk])
                    / (np.mean(na[chunk]) * np.mean(nb[chunk]))
                )
            ratios = np.asarray(ratios)
            se = ratios.std(ddof=1) / np.sqrt(len(ratios))
            dev = abs(ratios.mean() - (k - 1) / k)
            ok &= dev < 3 * se
            details.append(f"k={k}: {ratios.mean():.3f} vs {(k-1)/k:.3f} (3se={3*se:.3f})")
    report(10, ok, "; ".join(details[:3]) + " ...")
