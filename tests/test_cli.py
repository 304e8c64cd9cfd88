"""Command-line surface: sampling runs, pcf gating, verify suites,
byte-exact reproducibility."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from ppoptics import cli, estimators, fock, kernels, samplers
from ppoptics.samplers import load_batch_csv


def run(argv):
    return cli.main(argv)


class TestSample:
    def test_poisson_batch(self, tmp_path):
        out = tmp_path / "poisson.csv"
        code = run([
            "sample", "--family", "poisson", "--rate", "50", "--window", "0", "1",
            "--reps", "100", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        batch, meta = load_batch_csv(out)
        assert meta["rate"] == 50.0
        assert meta["seed"] == 7
        counts = [len(c) for c in batch]
        assert abs(np.mean(counts) - 50.0) < 3 * np.sqrt(50.0 / 100)

    @pytest.mark.parametrize("family_args", [
        ["poisson", "--rate", "20"],
        ["permanental", "--scale", "25"],
        ["projection-dpp", "--kernel", "hermite:n_modes=6", "--window-from-kernel"],
        ["dpp-mixture", "--kernel", "hermite:n_modes=6", "--lambdas", "0.9,0.7,0.5,0.5,0.3,0.1",
         "--window-from-kernel"],
        ["fock", "--k", "5"],
    ], ids=lambda a: a[0])
    def test_byte_identical_rerun(self, family_args, tmp_path):
        args = ["sample", "--family", *family_args, "--reps", "10", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("family_args", [
        ["permanental", "--scale", "25"],
        ["projection-dpp", "--kernel", "hermite:n_modes=6", "--window-from-kernel"],
        ["dpp-mixture", "--kernel", "hermite:n_modes=2", "--lambdas", "0.9,0.1",
         "--window-from-kernel"],
        ["fock", "--k", "5"],
    ], ids=lambda a: a[0])
    def test_header_records_nodes_per_unit(self, family_args, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["sample", "--family", *family_args, "--reps", "2",
                    "--nodes-per-unit", "1024", "--out", str(out)]) == 0
        assert load_batch_csv(out)[1]["nodes_per_unit"] == 1024

    def test_projection_dpp_fixed_rows(self, tmp_path):
        out = tmp_path / "dpp.csv"
        code = run([
            "sample", "--family", "projection-dpp", "--kernel", "hermite:n_modes=10",
            "--window-from-kernel", "--reps", "50", "--seed", "1",
            "--nodes-per-unit", "1024", "--out", str(out),
        ])
        assert code == 0
        batch, _ = load_batch_csv(out)
        assert all(len(c) == 10 for c in batch)

    def test_window_without_flag_samples_the_kernel_on_it(self, tmp_path):
        # the data rows equal, byte for byte, those of the kernel rebuilt on --window
        out, want = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert run(["sample", "--family", "projection-dpp", "--kernel", "hermite:N=10",
                    "--window", "-8", "8", "--reps", "20", "--seed", "5",
                    "--out", str(out)]) == 0
        kern = kernels.SpectralKernel(
            np.ones(10), kernels.HermiteBasis(10), -1, kernels.Window(-8, 8)
        )
        samplers.save_batch_csv(want, samplers.sample_dpp_mixture_batch(kern, 20, 5), {})
        rows = out.read_bytes().split(b"\n", 1)[1]
        assert rows == want.read_bytes().split(b"\n", 1)[1]
        assert rows.count(b"\r\n") == 1 + 20 * 10

    def test_invalid_kernel_spec_json_error(self, tmp_path, capsys):
        code = run([
            "sample", "--family", "projection-dpp", "--kernel", "unknown:n=2",
            "--reps", "5", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_json_error(self, reps, tmp_path, capsys):
        code = run([
            "sample", "--family", "poisson", "--rate", "5", "--reps", reps,
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "--reps" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "x.csv").exists()

    def test_mixture_lambda_count_mismatch(self, tmp_path):
        code = run([
            "sample", "--family", "dpp-mixture", "--kernel", "hermite:n_modes=4",
            "--lambdas", "0.5,0.5", "--reps", "5", "--seed", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_fock_family(self, tmp_path):
        out = tmp_path / "fock.csv"
        code = run([
            "sample", "--family", "fock", "--k", "5", "--reps", "30",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        batch, _ = load_batch_csv(out)
        assert all(len(c) == 5 for c in batch)

    @pytest.mark.parametrize("envelope", [["--width", "1e200"], ["--width", "1e300"],
                                          ["--center", "1e308", "--width", "1e308"]],
                             ids=["width-1e200", "width-1e300", "center-and-width-1e308"])
    def test_fock_flat_envelope_samples_uniformly(self, envelope, tmp_path, capsys):
        # an envelope far wider than the window is flat on it: no overflow, no warning
        out = tmp_path / "fock.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--family", "fock", *envelope, "--reps", "200",
                        "--seed", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        batch, _ = load_batch_csv(out)
        pts = np.concatenate([c.points for c in batch])
        assert pts.size == 5 * 200
        # uniform on [0, 1]: mean 1/2, standard error 0.289 / sqrt(1000)
        assert abs(pts.mean() - 0.5) < 4 * 0.289 / np.sqrt(pts.size)

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DEFAULT_OUTDIR_ENV, str(tmp_path))
        code = run([
            "sample", "--family", "poisson", "--rate", "5", "--reps", "10",
            "--seed", "0", "--out", "rel.csv",
        ])
        assert code == 0
        assert (tmp_path / "rel.csv").exists()

    def test_permanental_short_window(self, tmp_path):
        # window [0, 0.001] = sigma / 100, at the 1024-cell floor: the AR(1) draw
        # needs no room outside the window; the mean count is scale * C(0) * L
        out = tmp_path / "out.csv"
        scale, length, reps = 10_000.0, 0.001, 400
        assert run(["sample", "--family", "permanental", "--window", "0", str(length),
                    "--scale", str(scale), "--reps", str(reps), "--out", str(out)]) == 0
        batch, meta = load_batch_csv(out)
        assert meta["nodes_per_unit"] == 640
        counts = np.array([len(c) for c in batch], dtype=float)
        stderr = counts.std(ddof=1) / np.sqrt(reps)
        assert abs(counts.mean() - scale * 2.0 * length) < 3 * stderr

    @pytest.mark.parametrize("sigma, omega, nodes", [
        ("0.1", "100", 640),
        # refused at an explicit 4096 nodes per unit: see permanental-unresolved-sigma
        ("0.000326", "3068", 196320),
    ])
    def test_permanental_default_grid_follows_sigma(self, sigma, omega, nodes, tmp_path):
        # ceil(64 / sigma) nodes per unit, recorded in the header; the rows equal, byte
        # for byte, the library's at that density and at its own default
        out, want = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert run(["sample", "--family", "permanental", "--sigma", sigma, "--omega", omega,
                    "--scale", "25", "--reps", "5", "--seed", "2", "--out", str(out)]) == 0
        assert load_batch_csv(out)[1]["nodes_per_unit"] == nodes == math.ceil(64 / float(sigma))
        rows = out.read_bytes().split(b"\n", 1)[1]
        assert rows.count(b"\r\n") > 5
        for nodes_per_unit in (nodes, None):
            batch = samplers.sample_permanental_batch(
                float(sigma), 25.0, kernels.Window(0, 1), 5, 2, nodes_per_unit
            )
            samplers.save_batch_csv(want, batch, {})
            assert want.read_bytes().split(b"\n", 1)[1] == rows

    def test_carrier_does_not_change_the_samples(self, tmp_path):
        # |E|^2 never sees the carrier, so a grid far too coarse for it samples too
        outs = []
        for omega in ("100", "100000"):
            out = tmp_path / f"omega{omega}.csv"
            assert run(["sample", "--family", "permanental", "--omega", omega, "--scale", "25",
                        "--reps", "20", "--seed", "3", "--out", str(out)]) == 0
            header, rows = out.read_bytes().split(b"\n", 1)
            assert json.loads(header.split(b" ", 2)[2])["omega"] == float(omega)
            outs.append(rows)
        assert outs[0] == outs[1] and outs[0].count(b"\r\n") > 20

    @pytest.mark.parametrize("family_args, key, want", [
        (["fock", "--center", "-1e-3"], "center", -1e-3),
        (["permanental", "--omega", "-1e5"], "omega", -1e5),
        (["permanental", "--omega", "-1E5"], "omega", -1e5),
        (["poisson", "--rate", "5", "--window", "-1e-3", "1"], "window", [-1e-3, 1.0]),
        (["poisson", "--rate", "5", "--window", "-.5e-2", "1"], "window", [-0.5e-2, 1.0]),
    ], ids=["center", "omega", "omega-capital-e", "window", "window-leading-point"])
    def test_negative_values_in_exponent_form(self, family_args, key, want, tmp_path):
        # argparse alone would take '-1e-3' for an option and miss the value
        out = tmp_path / "batch.csv"
        assert run(["sample", "--family", *family_args, "--reps", "5",
                    "--out", str(out)]) == 0
        assert load_batch_csv(out)[1][key] == want


class TestPcf:
    def test_poisson_flat_exit_zero(self, tmp_path):
        batch = tmp_path / "batch.csv"
        run([
            "sample", "--family", "poisson", "--rate", "40", "--reps", "2000",
            "--seed", "5", "--out", str(batch),
        ])
        out = tmp_path / "pcf.csv"
        code = run([
            "pcf", "--batch", str(batch), "--bins", "25", "--theory", "poisson",
            "--out", str(out),
        ])
        assert code == 0
        header, cols = out.read_text().splitlines()[:2]
        assert header.startswith("# ppoptics-pcf ")
        assert cols == "r_mid,g_hat,stderr,g_theory"

    def test_permanental_theory_exit_zero(self, tmp_path):
        batch = tmp_path / "batch.csv"
        run([
            "sample", "--family", "permanental", "--sigma", "0.1", "--omega", "100",
            "--scale", "25", "--reps", "2000", "--seed", "6", "--out", str(batch),
        ])
        code = run([
            "pcf", "--batch", str(batch), "--bins", "25",
            "--theory", "permanental:sigma=0.1", "--out", str(tmp_path / "pcf.csv"),
        ])
        assert code == 0

    def test_permanental_theory_bin_width_sigma_exit_zero(self, tmp_path):
        # bins one sigma wide: the curve at the bin midpoint is 6.2 stderr below
        # the first bin, its bin expectation within 1.8 stderr of every bin.  An
        # explicit grid of 20 cells per sigma: the default, 64, costs 3 times as much
        batch = tmp_path / "batch.csv"
        assert run([
            "sample", "--family", "permanental", "--sigma", "0.005", "--omega", "1000",
            "--scale", "25", "--reps", "4000", "--seed", "0", "--nodes-per-unit", "4096",
            "--out", str(batch),
        ]) == 0
        assert run(["pcf", "--batch", str(batch), "--theory", "permanental:sigma=0.005",
                    "--out", str(tmp_path / "pcf.csv")]) == 0

    @pytest.mark.parametrize("sigma", [0.005, 0.03, 0.1, 0.5, 10.0])
    @pytest.mark.parametrize("bins, rmax", [(7, 0.1), (50, 0.25), (200, 1.0)])
    def test_theory_curve_equals_per_bin_closed_form(self, sigma, bins, rmax):
        # the estimator's bin expectation of 1 + exp(-2r/sigma), weighted by (L - r),
        # against quadrature bin by bin, with rmax at the CLI default L / 4 and at L
        edges = np.linspace(0.0, rmax, bins + 1)
        for length in (4.0 * rmax, rmax):
            want = [
                1.0 + quad(lambda r: (length - r) * np.exp(-2.0 * r / sigma), r1, r2,
                           epsabs=0.0, epsrel=1e-13)[0] / quad(lambda r: length - r, r1, r2)[0]
                for r1, r2 in zip(edges[:-1], edges[1:])
            ]
            got = estimators.expected_pcf(edges, length, sigma)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sigma, g", [(5e-324, 1.0), (1e300, 2.0)])
    def test_theory_curve_at_extreme_sigma(self, sigma, g):
        # 1 + exp(-2r/sigma) is 1 past r = 0 at the smallest sigma and 2 at a huge one,
        # and no step of the closed form overflows or cancels on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimators.expected_pcf(np.linspace(0.0, 0.25, 51), 1.0, sigma)
        np.testing.assert_allclose(got, g, rtol=1e-15, atol=0.0)

    def test_theory_column_is_the_estimators_bin_expectation(self, tmp_path):
        # `--theory permanental:sigma=s` writes estimators.expected_pcf on the pcf's
        # own bins, each value as its repr
        batch, out = tmp_path / "batch.csv", tmp_path / "pcf.csv"
        assert run(["sample", "--family", "permanental", "--scale", "25", "--reps", "20",
                    "--seed", "1", "--out", str(batch)]) == 0
        # exit 0 or 1, as the 20 replicates fall: only the column is checked
        run(["pcf", "--batch", str(batch), "--bins", "9", "--rmax", "0.2",
             "--theory", "permanental:sigma=0.05", "--out", str(out)])
        rows = out.read_text().splitlines()[2:]
        want = estimators.expected_pcf(np.linspace(0.0, 0.2, 10), 1.0, 0.05)
        assert [row.split(",")[3] for row in rows] == [repr(float(g)) for g in want]

    def test_missing_batch(self, tmp_path, capsys):
        code = run([
            "pcf", "--batch", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_not_a_batch_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("replicate_id,t\n0,0.5\n")
        code = run(["pcf", "--batch", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "not a batch file" in json.loads(capsys.readouterr().err)["error"]


class TestUserErrors:
    """Every user error prints one JSON line on stderr, exits 2 and writes nothing."""

    @pytest.fixture
    def batches(self, tmp_path):
        paths = {"batch": tmp_path / "batch.csv", "empty": tmp_path / "empty.csv"}
        for name, rate in (("batch", "20"), ("empty", "1e-9")):
            assert run(["sample", "--family", "poisson", "--rate", rate, "--reps", "5",
                        "--seed", "0", "--out", str(paths[name])]) == 0
        # hand-written malformed batch files
        window = [0.0, 1.0]
        rows = {"no_replicates": ({"n_replicates": 0, "window": window}, []),
                "id_too_large": ({"n_replicates": 2, "window": window}, ["0,0.25", "2,0.5"]),
                "id_negative": ({"n_replicates": 2, "window": window}, ["0,0.25", "-1,0.5"]),
                "no_window": ({"n_replicates": 1}, ["0,0.25"]),
                "count_not_int": ({"n_replicates": "2", "window": window}, ["0,0.25"]),
                "count_bool": ({"n_replicates": True, "window": window}, ["0,0.25"]),
                "count_huge": ({"n_replicates": 10**13, "window": window}, ["0,0.25"]),
                "one_field": ({"n_replicates": 2, "window": window}, ["0,0.25", "1"]),
                "blank_line": ({"n_replicates": 1, "window": window}, ["0,0.25", "", "0,0.5"]),
                "nan_point": ({"n_replicates": 1, "window": window}, ["0,nan"]),
                "three_fields": ({"n_replicates": 2, "window": window}, ["0,0.25", "1,0.5,0.75"]),
                "id_not_int": ({"n_replicates": 2, "window": window}, ["0,0.25", "1.0,0.5"]),
                "window_infinite": ({"n_replicates": 1, "window": [0.0, float("inf")]},
                                    ["0,0.5", "0,1.5"])}
        for name, (meta, lines) in rows.items():
            paths[name] = tmp_path / f"{name}.csv"
            header = json.dumps(meta)
            paths[name].write_text("\n".join(
                [f"# ppoptics-batch {header}", "replicate_id,t", *lines]) + "\n")
        paths["directory"] = tmp_path / "directory"
        paths["directory"].mkdir()
        return paths

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "poisson", "--rate", "5", "--window", "1", "0"],
        # an explicit grid: cells of 2.4e-4 against sigma / 4 = 8.2e-5
        ["sample", "--family", "permanental", "--sigma", "0.000326", "--omega", "3068",
         "--nodes-per-unit", "4096"],
        ["sample", "--family", "projection-dpp", "--kernel", "lorentz:sigma=1,omega=3"],
        ["sample", "--family", "dpp-mixture", "--kernel", "lorentz:sigma=1,omega=3",
         "--lambdas", "0.5"],
        ["sample", "--family", "projection-dpp", "--kernel", "hermite:N=inf",
         "--window-from-kernel"],
        ["sample", "--family", "projection-dpp", "--kernel", "hermite:n_modes=1e400",
         "--window-from-kernel"],
        ["sample", "--family", "projection-dpp", "--kernel", "hermite:N=10.7",
         "--window-from-kernel", "--reps", "2", "--nodes-per-unit", "256"],
        ["sample", "--family", "dpp-mixture", "--kernel", "hermite:N=3",
         "--lambdas", "nan,0.5,0.5", "--window-from-kernel", "--reps", "2",
         "--nodes-per-unit", "256"],
        ["pcf", "--batch", "{batch}", "--rmax", "2"],
        ["pcf", "--batch", "{batch}", "--bins", "0"],
        # 5 replicates x 1e11 bins: refused before np.linspace builds the edges
        ["pcf", "--batch", "{batch}", "--bins", "100000000000"],
        ["pcf", "--batch", "{batch}", "--theory", "bogus"],
        ["pcf", "--batch", "{batch}", "--theory", "permanental"],
        ["pcf", "--batch", "{empty}"],
        ["pcf", "--batch", "{no_replicates}"],
        ["pcf", "--batch", "{id_too_large}"],
        ["pcf", "--batch", "{id_negative}"],
        ["pcf", "--batch", "{no_window}"],
        ["pcf", "--batch", "{count_not_int}"],
        ["pcf", "--batch", "{count_bool}"],
        # refused before np.bincount(minlength=n_replicates) allocates 80 TB
        ["pcf", "--batch", "{count_huge}"],
        ["pcf", "--batch", "{one_field}"],
        ["pcf", "--batch", "{blank_line}"],
        ["pcf", "--batch", "{nan_point}"],
        ["pcf", "--batch", "{three_fields}"],
        ["pcf", "--batch", "{id_not_int}"],
        ["pcf", "--batch", "{window_infinite}"],
        ["sample", "--family", "projection-dpp", "--kernel", "hermite:N=3",
         "--lambdas", "0.1,0.1,0.1", "--window-from-kernel", "--reps", "2"],
        ["sample", "--family", "poisson", "--rate", "5", "--lambdas", "0.5"],
        ["sample", "--family", "poisson", "--rate", "5", "--window", "0", "inf"],
        ["verify", "gue", "--n", "0"],
        # small --reps: a regression that draws the matrices first stays small
        ["verify", "gue", "--n", "300", "--reps", "2"],
        ["verify", "gue", "--reps", "0"],
        # 4e9 matrix entries, 30 GiB of normals: refused before any draw
        ["verify", "gue", "--n", "200", "--reps", "100000"],
        ["verify", "wick", "--cases", "0"],
        ["verify", "wick", "--cases", "-1"],
        ["sample", "--family", "permanental", "--sigma", "nan"],
        ["sample", "--family", "permanental", "--sigma", "inf"],
        ["sample", "--family", "permanental", "--omega", "nan"],
        ["sample", "--family", "permanental", "--omega", "inf"],
        ["sample", "--family", "permanental", "--omega=-inf"],
        ["sample", "--family", "permanental", "--scale", "nan"],
        ["sample", "--family", "permanental", "--nodes-per-unit", "-5"],
        ["sample", "--family", "fock", "--nodes-per-unit", "0"],
        ["pcf", "--batch", "{batch}", "--theory", "permanental:sigma=0"],
        ["pcf", "--batch", "{batch}", "--rmax", "nan"],
        ["pcf", "--batch", "{batch}", "--rmax", "-1"],
        ["pcf", "--batch", "{directory}"],
        ["sample", "--family", "fock", "--width", "0"],
        ["sample", "--family", "fock", "--width", "nan"],
        # a NaN envelope gives NaN cell masses, which have no total to draw from
        ["sample", "--family", "fock", "--center", "nan"],
        # an envelope of std 1e-5 against cells of 2.4e-4: half the mass in each of two cells
        ["sample", "--family", "fock", "--width", "1e-5"],
        # 1e11 cells: refused before the grid's arrays (745 GiB of centers) exist
        ["sample", "--family", "fock", "--nodes-per-unit", "100000000000"],
        ["sample", "--family", "permanental", "--nodes-per-unit", "100000000000"],
        # the default grid, ceil(64 / sigma) = 6.4e7 cells on [0, 1], is above the cap
        ["sample", "--family", "permanental", "--sigma", "1e-6"],
        # 1e13 points, or 2 * scale = 2e15 expected points, a replicate: refused before
        # any draw, not a numpy allocation error
        ["sample", "--family", "fock", "--k", "10000000000000"],
        ["sample", "--family", "permanental", "--scale", "1e15"],
        # float64 spacing 1.2e-4 at 1e12, against cells of 9.8e-4
        ["sample", "--family", "permanental", "--scale", "25", "--reps", "20",
         "--window", "1e12", "1000000000001"],
        # about 3% of the points would merge in np.unique
        ["sample", "--family", "poisson", "--rate", "500", "--window", "1e12",
         "1000000000001", "--reps", "200", "--seed", "1"],
        ["sample", "--family", "projection-dpp", "--kernel", "hermite:N=10,n_modes=12",
         "--window-from-kernel"],
        ["sample", "--family", "projection-dpp", "--kernel", "hermite:N=10,nmodes=3",
         "--window-from-kernel"],
        ["pcf", "--batch", "{batch}", "--theory", "permanental:sigma=0.1,sgima=5"],
        # an envelope far narrower than a cell, or centred far off the window: no
        # cell has any mass, and evaluating it neither overflows nor warns
        ["sample", "--family", "fock", "--width", "1e-200"],
        ["sample", "--family", "fock", "--center", "1e300"],
        # 50 bins over [0, 5e-324] have zero width; over [0, 1e-310], 50 / rmax overflows
        ["pcf", "--batch", "{batch}", "--rmax", "5e-324"],
        ["pcf", "--batch", "{batch}", "--rmax", "1e-310"],
    ], ids=["reversed-window", "permanental-unresolved-sigma", "projection-non-spectral",
            "mixture-non-spectral", "infinite-mode-count", "overflowing-mode-count",
            "fractional-mode-count", "nan-mixture-eigenvalue", "rmax-beyond-window", "zero-bins", "too-many-bins", "unknown-theory",
            "theory-without-sigma", "all-empty-batch", "zero-replicates",
            "replicate-id-too-large", "replicate-id-negative", "header-without-window",
            "replicate-count-not-int", "replicate-count-bool", "replicate-count-too-large",
            "row-with-one-field",
            "blank-row", "nan-point", "row-with-three-fields", "replicate-id-not-int",
            "infinite-window-in-header", "lambdas-for-projection", "lambdas-for-poisson",
            "infinite-window", "gue-zero-modes", "gue-too-many-modes", "gue-zero-reps",
            "gue-too-many-entries",
            "wick-zero-cases", "wick-negative-cases", "nan-sigma", "infinite-sigma",
            "nan-omega", "infinite-omega", "negative-infinite-omega", "nan-scale",
            "negative-nodes-per-unit",
            "zero-nodes-per-unit", "theory-zero-sigma", "nan-rmax", "negative-rmax",
            "batch-is-a-directory", "fock-zero-width", "fock-nan-width", "fock-nan-center",
            "fock-unresolved-envelope",
            "fock-too-many-cells", "permanental-too-many-cells",
            "permanental-default-grid-too-many-cells", "fock-too-many-points",
            "permanental-too-many-points", "permanental-far-window",
            "poisson-far-window", "hermite-two-mode-counts", "hermite-unknown-key",
            "theory-unknown-key", "fock-tiny-width", "fock-far-center", "rmax-zero-width-bins",
            "rmax-overflowing-bin-factor"])
    def test_json_error_exit_2(self, argv, batches, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [a.format(**batches) for a in argv] + ["--out", str(out)]
        capsys.readouterr()
        # a warning would print to stderr beside the JSON line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error" in json.loads(err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "poisson", "--rate", "abc", "--out", "{out}"],
        ["sample", "--family", "bogus", "--out", "{out}"],
        ["sample", "--family", "poisson", "--rate", "5"],
        ["pcf", "--out", "{out}"],
        ["sample", "--family", "poisson", "--rate", "5", "--bogus", "--out", "{out}"],
        [],
    ], ids=["bad-value", "bad-choice", "missing-out", "missing-batch", "unknown-option",
            "no-command"])
    def test_argument_error_json(self, argv, tmp_path, capsys):
        # argparse's errors take the same path as every other user error
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run([a.format(out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "error" in json.loads(captured.err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "poisson", "--rate", "5", "--seed", "-1", "--out", "{out}"],
        ["verify", "wick", "--seed", "-1", "--out", "{out}"],
    ], ids=["sample", "verify"])
    def test_negative_seed_names_the_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run([a.format(out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "argument --seed: expected a nonnegative integer, got '-1'"}
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ppoptics sample")

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "poisson", "--rate", "5", "--reps", "2"],
        ["pcf", "--batch", "{batch}"],
        ["verify", "ccr"],
    ], ids=["sample", "pcf", "verify"])
    def test_unwritable_out(self, argv, batches, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        argv = [a.format(**batches) for a in argv] + ["--out", str(out)]
        capsys.readouterr()
        assert run(argv) == 2
        assert str(out) in json.loads(capsys.readouterr().err)["error"]
        assert not out.parent.exists()

    def test_infinite_window_named_without_warning(self, batches, tmp_path, capsys):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["pcf", "--batch", str(batches["window_infinite"]),
                        "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "window endpoints must be finite" in json.loads(capsys.readouterr().err)["error"]

    def test_poisson_mean_too_large(self, tmp_path, capsys, monkeypatch):
        # 5e9 expected points would need tens of GiB: refused before any draw
        def no_draw(seed, reps, block):
            raise AssertionError("drew before checking the mean count")

        monkeypatch.setattr(samplers, "_blocks", no_draw)
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run(["sample", "--family", "poisson", "--rate", "5", "--window", "0", "1e9",
                    "--out", str(out)]) == 2
        assert "error" in json.loads(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("family", [["poisson", "--rate", "5"], ["permanental"]],
                             ids=["poisson", "permanental"])
    def test_replicate_cap_refused_before_drawing(self, family, tmp_path, capsys, monkeypatch):
        # 1e13 child generators would need about 10 PB: refused before any is spawned
        def no_draw(seed, reps, block):
            raise AssertionError("spawned before checking the replicate count")

        monkeypatch.setattr(samplers, "_blocks", no_draw)
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run(["sample", "--family", *family, "--reps", "10000000000000",
                    "--out", str(out)]) == 2
        assert "above the limit" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_default_grid_refusal_names_sigma_and_the_rule(self, tmp_path, capsys):
        # no --nodes-per-unit was given: the error names sigma and the grid's rule
        capsys.readouterr()
        assert run(["sample", "--family", "permanental", "--sigma", "1e-6",
                    "--out", str(tmp_path / "out.csv")]) == 2
        report = json.loads(capsys.readouterr().err)
        assert "sigma=1e-06" in report["error"]
        assert "default grid of 64 cells per sigma" in report["error"]
        assert report["config"]["nodes_per_unit"] == 64_000_000

    @pytest.mark.parametrize("grid", [[], ["--nodes-per-unit", "100"]], ids=["default", "given"])
    def test_sigma_refusal_reports_the_configuration(self, grid, tmp_path, capsys):
        # the sampler's own sigma check, with the configuration resolved so far
        capsys.readouterr()
        assert run(["sample", "--family", "permanental", "--sigma", "nan", *grid,
                    "--out", str(tmp_path / "out.csv")]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "sigma must be positive and finite, got nan"
        want = {"family", "seed", "command", "sigma", "omega", "scale"}
        assert set(report["config"]) == want | ({"nodes_per_unit"} if grid else set())

    def test_mixture_eigenvalue_above_one(self, tmp_path, capsys):
        # refused when the kernel is built, with the configuration resolved so far
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run(["sample", "--family", "dpp-mixture", "--kernel", "hermite:N=2",
                    "--lambdas", "1.5,0.5", "--window-from-kernel", "--out", str(out)]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["config"] == {
            "family": "dpp-mixture", "seed": 0, "command": "sample",
            "kernel": {"name": "hermite", "params": {"N": 2.0}}, "lambdas": [1.5, 0.5],
            "window_from_kernel": True,
        }
        assert "eigenvalue 0 = 1.5 lies outside [0, 1]" in report["error"]
        assert not out.exists()


class TestVerify:
    @pytest.mark.parametrize("suite", ["ccr", "coherent", "builder"])
    def test_fast_suites_pass(self, suite, tmp_path):
        out = tmp_path / f"{suite}.json"
        code = run(["verify", suite, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert all(c["pass"] for c in report["checks"])

    def test_wick_suite_small(self, tmp_path):
        out = tmp_path / "wick.json"
        code = run(["verify", "wick", "--cases", "15", "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["value"] < 1e-9

    def test_wick_case_worst_boson_at_lower_gap(self):
        # three quanta piled on one mode probe the cutoff-8 truncation hardest
        gap = cli.BOSONIC_GAP[0]
        ops = [("annihilate", 0)] * 3 + [("create", 0)] * 3
        check = fock.wick_verify(fock.ModeSpec(1, 8, 1), np.array([gap]), 1.0, 0.0, ops)
        assert check.deviation / (1.0 + abs(check.exact)) < 1e-9

    def test_gue_suite_small(self, tmp_path):
        # light replicate count; the acceptance suite runs the full one
        out = tmp_path / "gue.json"
        code = run(["verify", "gue", "--n", "6", "--reps", "2000", "--seed", "0",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["value"] < 0.02

    @pytest.mark.parametrize("n, reps, refused", [
        (8, 65_536, False), (8, 65_537, True), (1, 2_000_000, True),
    ])
    def test_gue_caps_before_any_draw(self, n, reps, refused, monkeypatch, capsys):
        # a stand-in draw marks the call: a refused size never reaches it
        def draw(*args):
            raise RuntimeError("drawn")

        monkeypatch.setattr(cli, "gue_eigenvalues", draw)
        argv = ["verify", "gue", "--n", str(n), "--reps", str(reps)]
        if not refused:
            with pytest.raises(RuntimeError, match="drawn"):
                run(argv)
            return
        capsys.readouterr()
        assert run(argv) == 2
        assert "above the limit" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("seed", range(8))
    def test_ks_distance_matches_scipy_asymptotic(self, seed):
        # above 10,000 points scipy reports the raw maximum gap, bit for bit
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(10_001 + int(rng.integers(0, 30_000)))
        b = rng.standard_normal(int(rng.integers(1, 40_000))) * 1.02
        assert cli._ks_distance(a, b) == ks_2samp(a, b).statistic

    @pytest.mark.parametrize("seed", range(8))
    def test_ks_distance_matches_scipy_exact_with_ties(self, seed):
        # below it scipy rounds the statistic to a multiple of 1/lcm(n_a, n_b)
        rng = np.random.default_rng(seed)
        n_a = int(rng.integers(1, 300))
        a = rng.integers(0, 12, n_a).astype(float)
        b = rng.integers(0, 10, n_a + int(rng.integers(1, 300))).astype(float)
        assert abs(cli._ks_distance(a, b) - ks_2samp(a, b).statistic) <= 2e-16


# the sample and pcf commands of every family, run in one fresh interpreter
_NUMPY_ONLY_SCRIPT = """
import json, sys
from ppoptics import cli
out = sys.argv[1]
families = [
    ["poisson", "--rate", "20"],
    ["permanental", "--scale", "25"],
    ["projection-dpp", "--kernel", "hermite:n_modes=6", "--window-from-kernel"],
    ["dpp-mixture", "--kernel", "hermite:n_modes=3", "--lambdas", "0.9,0.5,0.1",
     "--window-from-kernel"],
    ["fock", "--k", "5"],
]
for args in families:
    path = f"{out}/{args[0]}.csv"
    assert cli.main(["sample", "--family", *args, "--reps", "5", "--out", path]) == 0
assert cli.main(["pcf", "--batch", f"{out}/permanental.csv",
                 "--theory", "permanental:sigma=0.1", "--out", f"{out}/pcf.csv"]) in (0, 1)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_permanental_stderr_holds_only_the_error_line(tmp_path):
    """A small sigma at the default carrier samples with nothing on stderr; one whose
    default grid is above the cap prints the one JSON line and exits 2."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def sample(sigma):
        return subprocess.run(
            [sys.executable, "-m", "ppoptics.cli", "sample", "--family", "permanental",
             "--sigma", sigma, "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True,
        )

    ok = sample("0.005")
    assert (ok.returncode, ok.stderr) == (0, "")
    refused = sample("1e-6")
    assert refused.returncode == 2
    assert refused.stderr.count("\n") == 1
    assert "error" in json.loads(refused.stderr)


def test_sample_and_pcf_load_no_scipy(tmp_path):
    """The stochastic side stands on numpy alone: scipy is for the oracle."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []
