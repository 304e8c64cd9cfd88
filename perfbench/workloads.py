"""The three benchmark workloads: one closed-loop job each, plus its checks.

Every job takes its inputs from a job seed derived from the workload seed,
goes through the public `ppoptics.cli.main(argv)` in-process (plus direct
`ppoptics.wick` and `ppoptics.fock` calls for `oracle`), and writes its outputs into its own
directory.  Per-job checks are exact (exit codes and counts); the pooled
statistical checks run once per run over the output of all jobs.

- thermal: permanental samples (circulant-embedding field draw and Cox step)
  written to CSV, then `pcf` on that CSV.  Exposes ROADMAP item 2.
- fermion: Hermite projection DPP plus `pcf`, then a DPP mixture.  Never
  draws a Gaussian field; exposes ROADMAP item 3 (sequential sampler and
  mixture set-up) and the Hermite feature matrix.
- oracle: `verify` suites, fixed-shape Wick expansions against the exact
  Fock trace, Ryser permanents and an alpha-determinant.  Never samples;
  exposes ROADMAP item 4.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import ks_2samp

from ppoptics import cli, estimators, fock, samplers, wick


def job_seed(seed: int, index: int, stream: int = 0) -> int:
    """Seed of job `index`: stream 0 the timed jobs, 1 the warm-up, 2 reference draws."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def run_cli(argv) -> int:
    """One `ppoptics` command in-process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def digest(paths, extra=b"") -> str:
    h = hashlib.sha256(extra)
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def batched_fano(counts: np.ndarray, n_batches: int = 20):
    """Fano factor with a batch-means standard error."""
    fanos = np.array([b.var(ddof=1) / b.mean() for b in np.array_split(counts, n_batches)])
    return fanos.mean(), fanos.std(ddof=1) / np.sqrt(n_batches)


def pcf_rows(path) -> int:
    """Data rows of a pcf CSV (after the JSON header line and the column row)."""
    lines = Path(path).read_text().splitlines()
    if not lines[0].startswith("# ppoptics-pcf ") or not lines[1].startswith("r_mid,"):
        return -1
    return len(lines) - 2


class Thermal:
    name = "thermal"
    items = "replicates"
    reps = 250
    sigma = 0.1
    bins = 50  # the `pcf` default

    def run(self, seed, out: Path):
        batch = out / "batch.csv"
        return {
            "codes": [
                run_cli(["sample", "--family", "permanental", "--sigma", self.sigma,
                         "--omega", 100, "--scale", 25, "--reps", self.reps,
                         "--seed", seed, "--out", batch]),
                run_cli(["pcf", "--batch", batch, "--out", out / "pcf.csv"]),
            ]
        }

    def outputs(self, out: Path):
        return [out / "batch.csv", out / "pcf.csv"]

    def check(self, result, out: Path):
        """(exact failures, work items, data for the pooled check)."""
        fails = [] if result["codes"] == [0, 0] else [f"exit codes {result['codes']}"]
        batch, meta = samplers.load_batch_csv(out / "batch.csv")
        if len(batch) != self.reps or meta["n_replicates"] != self.reps:
            fails.append(f"{len(batch)} replicates, expected {self.reps}")
        if pcf_rows(out / "pcf.csv") != self.bins:
            fails.append("pcf CSV does not have one row per bin")
        return fails, len(batch), batch

    def pooled(self, pool, seed):
        batch = [c for b in pool for c in b]
        est = estimators.estimate_pcf(batch)
        want = 1.0 + np.exp(-2.0 * est.r_mid / self.sigma)
        excess = float((np.abs(est.g_hat - want) - 4.0 * est.stderr).max())
        return [
            ("g_hat_within_4se_of_theory", excess <= 0,
             f"worst excess over 4*stderr {excess:.4f} ({len(batch)} replicates)"),
            ("g_at_0_near_2", abs(est.g_hat[0] - 2.0) < 0.1, f"g(0+) = {est.g_hat[0]:.4f}"),
        ]


class Fermion:
    name = "fermion"
    items = "replicates"
    reps = 200
    n_proj = 10
    lambdas = [0.55] * 12
    bins = 50

    def run(self, seed, out: Path):
        proj, mix = out / "proj.csv", out / "mix.csv"
        lam = ",".join(str(x) for x in self.lambdas)
        return {
            "codes": [
                run_cli(["sample", "--family", "projection-dpp",
                         "--kernel", f"hermite:N={self.n_proj}", "--window-from-kernel",
                         "--reps", self.reps, "--seed", seed, "--out", proj]),
                run_cli(["pcf", "--batch", proj, "--out", out / "proj_pcf.csv"]),
                run_cli(["sample", "--family", "dpp-mixture",
                         "--kernel", f"hermite:N={len(self.lambdas)}", "--lambdas", lam,
                         "--window-from-kernel", "--nodes-per-unit", 1024,
                         "--reps", self.reps, "--seed", seed, "--out", mix]),
            ]
        }

    def outputs(self, out: Path):
        return [out / "proj.csv", out / "proj_pcf.csv", out / "mix.csv"]

    def check(self, result, out: Path):
        fails = [] if result["codes"] == [0, 0, 0] else [f"exit codes {result['codes']}"]
        proj, _ = samplers.load_batch_csv(out / "proj.csv")
        mix, _ = samplers.load_batch_csv(out / "mix.csv")
        counts = {len(c) for c in proj}
        if len(proj) != self.reps or counts != {self.n_proj}:
            fails.append(f"projection replicates {len(proj)}, point counts {sorted(counts)}")
        if len(mix) != self.reps:
            fails.append(f"{len(mix)} mixture replicates, expected {self.reps}")
        if pcf_rows(out / "proj_pcf.csv") != self.bins:
            fails.append("pcf CSV does not have one row per bin")
        pooled = (np.concatenate([c.points for c in proj]), [len(c) for c in mix])
        return fails, len(proj) + len(mix), pooled

    def pooled(self, pool, seed):
        points = np.concatenate([p for p, _ in pool])
        counts = np.array([n for _, m in pool for n in m], dtype=float)
        gue = cli.gue_eigenvalues(self.n_proj, points.size // self.n_proj,
                                  job_seed(seed, 0, stream=2))
        ks = float(ks_2samp(gue, points).statistic)
        mean_target = float(np.sum(self.lambdas))
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        fano, fano_se = batched_fano(counts)
        return [
            ("ks_projection_vs_gue", ks < 0.02, f"KS distance {ks:.4f} (< 0.02)"),
            ("mixture_mean_count", abs(counts.mean() - mean_target) <= 4 * se,
             f"mean {counts.mean():.4f} vs {mean_target:.2f} (4 SE = {4 * se:.4f})"),
            ("mixture_fano_below_1", fano + 3 * fano_se < 1.0,
             f"Fano {fano:.4f} +- {fano_se:.4f} (3 SE below 1)"),
        ]


class Oracle:
    name = "oracle"
    items = "checks"
    # `verify wick` draws a random mode count per case, and a three-mode bosonic
    # case costs ~100x a light one; one case per job keeps that lottery out of
    # the job latency, and the fixed-shape cases below carry the dense work.
    cases = 1
    suites = ("wick", "builder", "ccr", "coherent")

    @staticmethod
    def alpha_sign(seed) -> float:
        return 1.0 if seed % 2 == 0 else -1.0

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.uniform(-1.0, 1.0, (16, 16)), 1) + np.eye(16)
        m8 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))

        def ops(n_ops, n_modes):
            # one creation and one annihilation on each of n_ops/2 distinct modes: the
            # expectation is not trivially 0, and no mode is pushed far enough up the
            # bosonic ladder for the cutoff-8 truncation to reach the 1e-9 tolerance
            modes = [int(m) for m in rng.permutation(n_modes)[: n_ops // 2]]
            seq = [("create", m) for m in modes] + [("annihilate", m) for m in modes]
            return [seq[i] for i in rng.permutation(n_ops)]

        # the largest shape `verify wick` can draw, so it also fixes the peak RSS;
        # the level gaps of cli.random_gaussian_case keep the cutoff-8 tail negligible
        boson = (fock.ModeSpec(3, 8, 1), rng.uniform(3.5, 7.0, 3), 1.0, 0.0, ops(6, 3))
        fermion = (fock.ModeSpec(6, 1, -1), rng.uniform(-2.0, 2.0, 6),
                   float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.5, 0.5)), ops(6, 6))
        return upper, m8, (boson, fermion)

    def run(self, seed, out: Path):
        upper, m8, cases = self.inputs(seed)
        codes = []
        for suite in self.suites:
            argv = ["verify", suite, "--out", out / f"{suite}.json"]
            if suite != "coherent":
                argv += ["--seed", seed]
            if suite == "wick":
                argv += ["--cases", self.cases]
            codes.append(run_cli(argv))
        wick_checks = [fock.wick_verify(*case) for case in cases]
        return {
            "codes": codes,
            "seed": seed,
            "wick_rel_dev": [c.deviation / (1.0 + abs(c.exact)) for c in wick_checks],
            "perm_ones_14": wick.permanent(np.ones((14, 14))),
            "perm_upper_16": wick.permanent(upper),
            # both signs cost the same enumeration; the seed picks one per job
            "alpha_8": wick.alpha_determinant(m8, self.alpha_sign(seed)),
        }

    def outputs(self, out: Path):
        return [out / f"{suite}.json" for suite in self.suites]

    def check(self, result, out: Path):
        fails = [] if result["codes"] == [0] * len(self.suites) else [
            f"exit codes {result['codes']}"]
        items = 5  # two fixed-shape Wick cases, two permanents, one alpha-determinant
        for suite in self.suites:
            report = json.loads((out / f"{suite}.json").read_text())
            if not report["pass"]:
                fails.append(f"verify {suite} failed")
            items += len(report["checks"]) + len(report.get("cases", []))
        return fails, items, result

    def pooled(self, pool, seed):
        def rel(a, b):
            return abs(a - b) / max(1.0, abs(b))

        worst = {"wick": 0.0, "ones": 0.0, "upper": 0.0, "plus": 0.0, "minus": 0.0}
        for result in pool:
            _, m8, _ = self.inputs(result["seed"])
            worst["wick"] = max(worst["wick"], *result["wick_rel_dev"])
            worst["ones"] = max(worst["ones"], rel(result["perm_ones_14"], math.factorial(14)))
            worst["upper"] = max(worst["upper"], rel(result["perm_upper_16"], 1.0))
            if self.alpha_sign(result["seed"]) > 0:
                worst["plus"] = max(worst["plus"], rel(result["alpha_8"], wick.permanent(m8)))
            else:
                worst["minus"] = max(worst["minus"], rel(result["alpha_8"], wick.determinant(m8)))
        # ones(14) is rank one, where Ryser cancels heavily: a loose bound
        return [
            ("fixed_shape_wick_vs_trace", worst["wick"] <= 1e-9,
             f"relative deviation {worst['wick']:.2e} (<= 1e-9)"),
            ("permanent_ones_14_is_factorial", worst["ones"] <= 1e-8,
             f"relative error {worst['ones']:.2e} (<= 1e-8)"),
            ("permanent_unit_upper_16_is_1", worst["upper"] <= 1e-9,
             f"error {worst['upper']:.2e} (<= 1e-9)"),
            ("alpha_det_plus_1_is_permanent", worst["plus"] <= 1e-9,
             f"relative error {worst['plus']:.2e} (<= 1e-9)"),
            ("alpha_det_minus_1_is_determinant", worst["minus"] <= 1e-9,
             f"relative error {worst['minus']:.2e} (<= 1e-9)"),
        ]


WORKLOADS = {w.name: w for w in (Thermal(), Fermion(), Oracle())}
