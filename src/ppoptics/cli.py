"""Command-line surface: sampling runs, pair-correlation estimation, and
verification suites.

Outputs are CSV for bulk numbers and JSON for configs/reports; every
output embeds the resolved configuration and seed so that re-running a
command reproduces the file byte-exactly.
"""

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

# sample and pcf load numpy only; scipy comes with fock, imported by the verify
# suites that use it
from . import builder, estimators, kernels, samplers

DEFAULT_OUTDIR_ENV = "PPOPTICS_OUTDIR"


def _resolve_out(path):
    outdir = os.environ.get(DEFAULT_OUTDIR_ENV)
    if outdir and path and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def parse_kernel_arg(text: str) -> dict:
    """'hermite:n_modes=10' -> {'name': 'hermite', 'params': {'n_modes': 10.0}}."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed kernel parameter {item!r}")
            params[key] = float(val)
    return {"name": name, "params": params}


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args, config: dict) -> int:
    """Sample a batch to CSV; `config`, filled as it is resolved, is its header."""
    config.update({"family": args.family, "seed": args.seed, "command": "sample"})
    w = kernels.Window(args.window[0], args.window[1])
    npu = args.nodes_per_unit
    if npu is None and args.family != "permanental":
        npu = samplers.DEFAULT_NODES_PER_UNIT
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    if args.lambdas and args.family != "dpp-mixture":
        raise ValueError(f"--lambdas is for the dpp-mixture family, not {args.family}")
    if args.family == "poisson":
        if args.rate is None:
            raise ValueError("--rate is required for the poisson family")
        config["rate"] = args.rate
        batch = samplers.sample_poisson_batch(
            lambda t: np.full_like(np.asarray(t, dtype=float), args.rate),
            args.rate,
            w,
            args.reps,
            args.seed,
        )
    elif args.family == "permanental":
        config.update({"sigma": args.sigma, "omega": args.omega, "scale": args.scale})
        # omega is only recorded: the samples do not depend on it
        if not -np.inf < args.omega < np.inf:
            raise ValueError(f"omega must be finite, got {args.omega}")
        config["nodes_per_unit"] = (
            npu if npu is not None else samplers.permanental_nodes_per_unit(args.sigma)
        )
        # None lets the sampler refuse a default grid by its rule
        batch = samplers.sample_permanental_batch(
            args.sigma, args.scale, w, args.reps, args.seed, npu
        )
    elif args.family in ("projection-dpp", "dpp-mixture"):
        # a projection takes its eigenvalues from the kernel, a mixture from --lambdas
        spec = parse_kernel_arg(args.kernel)
        mixture = args.family == "dpp-mixture"
        lambdas = [float(x) for x in args.lambdas.split(",")] if mixture else None
        config["kernel"] = spec
        if mixture:
            config["lambdas"] = lambdas
        kern = kernels.kernel_from_spec(spec)
        if mixture and len(lambdas) != kern.rank:
            raise ValueError("need one lambda per kernel eigenvalue")
        if args.window_from_kernel:
            # recorded before the kernel on w checks its eigenvalues, so
            # that an error reports the full configuration
            w = kern.window
            config["window_from_kernel"] = True
        kern = kernels.SpectralKernel(lambdas or kern.eigenvalues, kern.basis, -1, w)
        config["nodes_per_unit"] = npu
        batch = samplers.sample_dpp_mixture_batch(kern, args.reps, args.seed, npu)
    else:  # fock, the last of the parser's choices
        config.update({"k": args.k, "center": args.center, "width": args.width,
                       "nodes_per_unit": npu})
        c, s = args.center, args.width
        if not 0 < s < np.inf:
            raise ValueError(f"--width must be positive and finite, got {s}")
        # exp(-(t - c)^2 / (4 s^2)), with |t - c| / 2 = |t/2 - c/2| capped at 30 s so
        # that no finite c or s overflows: the cap only turns exp(-900 or less) into
        # exp(-900), and both are 0
        batch = samplers.sample_fock_pp_batch(
            lambda t: np.exp(-((np.minimum(np.abs(t / 2 - c / 2), 30 * s) / s) ** 2)),
            args.k,
            w,
            args.reps,
            args.seed,
            npu,
        )
    out = _resolve_out(args.out)
    samplers.save_batch_csv(out, batch, config)
    counts = [len(c) for c in batch]
    print(f"wrote {out}: {len(batch)} replicates, mean count {np.mean(counts):.3f}")
    return 0


# ---------------------------------------------------------------------------
# pcf


def _theory_sigma(theory: str) -> float:
    """The sigma of a 'permanental:sigma=s' theory spec."""
    spec = parse_kernel_arg(theory)
    if spec["name"] != "permanental" or set(spec["params"]) != {"sigma"}:
        raise ValueError(f"unknown theory {theory!r} (use 'poisson' or 'permanental:sigma=...')")
    sigma = spec["params"]["sigma"]
    samplers.check_sigma(sigma)
    return sigma


def cmd_pcf(args, config: dict) -> int:
    batch_path = _resolve_out(args.batch)
    if not os.path.exists(batch_path):
        raise ValueError(f"batch file {batch_path} not found")
    batch, meta = samplers.load_batch_csv(batch_path)
    if not batch:
        raise ValueError(f"batch file {batch_path} has no replicates")
    est = estimators.estimate_pcf(batch, args.bins, args.rmax)
    length = samplers.batch_window(batch).length
    if args.theory == "poisson":
        g_theory = np.ones(args.bins)
    elif args.theory:
        g_theory = estimators.expected_pcf(est.bin_edges, length, _theory_sigma(args.theory))
    else:
        g_theory = None
    header = "# ppoptics-pcf " + json.dumps(
        {"batch": os.path.basename(batch_path), "batch_meta": meta, "bins": args.bins,
         "rmax": float(est.bin_edges[-1]), "theory": args.theory},
        sort_keys=True,
    )
    out = _resolve_out(args.out)
    estimators.pcf_to_csv(out, est, g_theory, header)
    if g_theory is None:
        print(f"wrote {out}")
        return 0
    dev = np.abs(est.g_hat - g_theory)
    bound = 4.0 * est.stderr
    worst = float((dev - bound).max())
    ok = bool(np.all(dev <= bound))
    print(f"wrote {out}: max |g_hat - g_theory| excess over 4*stderr = {worst:.4f}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify suites


def _check(name, value, tol) -> dict:
    return {"name": name, "value": float(value), "tol": float(tol),
            "pass": bool(value <= tol)}


# range of the bosonic level gaps of random_gaussian_case: large enough that the
# cutoff-8 truncation stays below the 1e-9 Wick verification tolerance.  The worst
# case, a a a a^dag a^dag a^dag on one mode, deviates 1.3e-10 relative at gap 4.5
# (2.6e-9 at 4.0, 5.1e-8 at 3.5).
BOSONIC_GAP = (4.5, 7.0)


def random_gaussian_case(rng):
    """A random grand-canonical state plus an even ladder-operator product."""
    from . import fock

    eta = -1 if rng.random() < 0.55 else 1
    if eta == -1:
        spec = fock.ModeSpec(int(rng.integers(2, 7)), 1, -1)
        beta = float(rng.uniform(0.5, 2.0))
        nu = rng.uniform(-2.0, 2.0, spec.n_modes)
        zeta = float(rng.uniform(-0.5, 0.5))
    else:
        spec = fock.ModeSpec(int(rng.integers(1, 4)), 8, 1)
        beta = 1.0
        zeta = 0.0
        nu = rng.uniform(*BOSONIC_GAP, spec.n_modes)
    length = int(rng.choice([2, 4, 6]))
    ops = [
        ("create" if rng.random() < 0.5 else "annihilate", int(rng.integers(spec.n_modes)))
        for _ in range(length)
    ]
    return spec, nu, beta, zeta, ops


def suite_wick(seed: int = 0, cases: int = 60) -> dict:
    from . import fock

    rng = np.random.default_rng(seed)
    worst = 0.0
    results = []
    for _ in range(cases):
        spec, nu, beta, zeta, ops = random_gaussian_case(rng)
        check = fock.wick_verify(spec, nu, beta, zeta, ops)
        rel = check.deviation / (1.0 + abs(check.exact))
        worst = max(worst, rel)
        results.append(check.to_json_dict())
    checks = [_check("max_relative_wick_deviation", worst, 1e-9)]
    return {"config": {"seed": seed, "cases": cases}, "checks": checks, "cases": results}


def suite_ccr(seed: int = 0) -> dict:
    from . import fock

    fermi = fock.check_commutation(fock.ModeSpec(3, 1, -1))
    bose = fock.check_commutation(fock.ModeSpec(2, 8, 1))
    checks = [
        _check("fermion_anticommutator_dev", fermi["max_pair_dev"], 1e-13),
        _check("fermion_same_kind_dev", fermi["max_same_kind_dev"], 1e-13),
        _check("boson_bulk_commutator_dev", bose["max_pair_dev"], 1e-13),
        _check("boson_same_kind_dev", bose["max_same_kind_dev"], 1e-13),
        # truncation identity: the top layer deviation equals cutoff+1
        _check("boson_top_layer_vs_identity", abs(bose["max_top_layer_dev"] - 9.0), 1e-12),
    ]
    return {"config": {"seed": seed}, "checks": checks}


# the coherent amplitude and Fock cutoff of the coherent suite
COHERENT_ALPHA = 1.5
COHERENT_CUTOFF = 40


def suite_coherent() -> dict:
    from scipy.special import gammaln, xlogy

    from . import fock

    alpha, cutoff = COHERENT_ALPHA, COHERENT_CUTOFF
    state = fock.coherent_state(alpha, cutoff)
    mean = abs(alpha) ** 2
    ns = np.arange(cutoff + 1)
    poisson_pmf = np.exp(xlogy(ns, mean) - gammaln(ns + 1) - mean)
    pmf_dev = np.abs(np.abs(state) ** 2 - poisson_pmf)[: cutoff // 2].max()
    a = fock.ladder(fock.ModeSpec(1, cutoff, 1), 0, "annihilate").matrix.toarray()
    eigen_dev = abs(state.conj() @ (a @ state) - alpha)
    # small displacement at the documented cutoff, large one with headroom:
    # the low-occupation block only obeys D^-1 a D = a + alpha once the
    # displaced states clear the truncation boundary
    disp_small = fock.displacement_check(0.5, 40)
    disp_large = fock.displacement_check(alpha, cutoff + 20)
    checks = [
        _check("number_distribution_vs_poisson", pmf_dev, 1e-10),
        _check("annihilation_eigenvalue_dev", eigen_dev, 1e-8),
        _check("displacement_action_dev_small", disp_small["action_dev"], 1e-8),
        _check("displacement_action_dev_large", disp_large["action_dev"], 1e-8),
        _check("displacement_vacuum_dev", disp_small["vacuum_dev"], 1e-8),
    ]
    return {"config": {"alpha": [np.real(alpha), np.imag(alpha)], "cutoff": cutoff},
            "checks": checks}


def suite_builder(seed: int = 0) -> dict:
    from . import fock

    rng = np.random.default_rng(seed)
    checks = []

    # round trip lambda -> nu -> lambda for both statistics
    for eta in (-1, 1):
        lam = rng.uniform(0.01, 0.99, 50) if eta == -1 else rng.uniform(0.05, 5.0, 50)
        spec = builder.spectrum_to_levels(lam, beta=1.3, eta=eta)
        back = builder.levels_to_spectrum(spec)
        checks.append(_check(f"round_trip_eta_{eta:+d}", np.abs(back - lam).max(), 1e-12))

    # closed-form log partition function against the exact engine trace
    nu = rng.uniform(-2.0, 2.0, 8)
    spec = builder.GrandCanonicalSpec(0.9, 0.2, nu, -1)
    exact = fock.log_partition(fock.ModeSpec(8, 1, -1), nu, 0.9, 0.2)
    checks.append(
        _check("fermion_log_partition_vs_trace",
               abs(builder.log_partition_function(spec) - exact), 1e-10)
    )

    # zero-temperature limit reproduces the Hermite projection kernel
    n_fill, n_levels = 6, 9
    nu = np.arange(n_levels) - (n_fill - 0.5)
    gc = builder.GrandCanonicalSpec(1e3, 0.0, nu, -1)
    base = kernels.hermite_projection_kernel(n_levels)
    induced = builder.induced_kernel(gc, base.basis, base.window)
    grid = np.linspace(-4.0, 4.0, 50)
    target = kernels.gram_matrix(kernels.hermite_projection_kernel(n_fill), grid)
    got = kernels.gram_matrix(induced, grid)
    checks.append(_check("zero_temperature_projection_kernel",
                         np.abs(got - target).max(), 1e-8))

    # measurement-basis rotation invariants
    lam = rng.uniform(0.05, 0.95, 12)
    worst_det, worst_trace = 0.0, 0.0
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 10):
        v = builder.two_mode_unitary(np.cos(theta), np.sin(theta) * np.exp(0.3j), lam.size)
        k = builder.rotate_measurement_basis(lam, v)
        det2 = np.linalg.det(k[-2:, -2:])
        worst_det = max(worst_det, abs(det2 - lam[-2] * lam[-1]))
        worst_trace = max(worst_trace, abs(np.trace(k).real - lam.sum()))
    checks.append(_check("co_occurrence_determinant_invariance", worst_det, 1e-12))
    checks.append(_check("trace_invariance", worst_trace, 1e-12))

    return {"config": {"seed": seed}, "checks": checks}


def gue_eigenvalues(n: int, reps: int, seed) -> np.ndarray:
    """Pooled eigenvalues of (A+A^dag)/2 with i.i.d. standard complex Gaussian A.

    Entry convention: diagonal ~ Normal(0, 1/2); off-diagonal real and
    imaginary parts each Normal(0, 1/4), so the matrix density is
    proportional to exp(-Tr H^2) and the eigenvalue density matches the
    Hermite-function projection process.
    """
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((reps, n, n)) + 1j * rng.standard_normal((reps, n, n)))
    h = (a + np.conj(np.transpose(a, (0, 2, 1)))) / (2.0 * np.sqrt(2.0))
    return np.linalg.eigvalsh(h).ravel()


def _ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical CDFs of `a` and `b`, both taken right-continuous at every point."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


# the largest GUE draw, in matrix entries reps * n^2: 65,536 replicates at the
# default n = 8, a `verify gue` of 169 MiB peak RSS on a 2-vCPU x86 VM
_GUE_MAX_ENTRIES = 2**22


def suite_gue(n: int = 8, reps: int = 5000, seed: int = 0) -> dict:
    # the kernel and the caps first: they refuse an n outside 1..HERMITE_MAX_MODES,
    # too many replicates or too many matrix entries before any matrix is drawn
    kern = kernels.hermite_projection_kernel(n)
    samplers._check_replicates(reps)
    if reps * n * n > _GUE_MAX_ENTRIES:
        raise ValueError(
            f"{reps} replicates x {n}^2 = {reps * n * n} GUE matrix entries, above the "
            f"limit of {_GUE_MAX_ENTRIES}"
        )
    eigs = gue_eigenvalues(n, reps, seed)
    batch = samplers.sample_dpp_mixture_batch(kern, reps, seed + 1)
    pooled = np.concatenate([c.points for c in batch])
    ks = _ks_distance(eigs, pooled)
    checks = [_check("ks_distance_gue_vs_hermite_dpp", ks, 0.02)]
    return {"config": {"n": n, "reps": reps, "seed": seed}, "checks": checks}


SUITES = {
    "wick": lambda args: suite_wick(args.seed, args.cases),
    "ccr": lambda args: suite_ccr(args.seed),
    "coherent": lambda args: suite_coherent(),
    "builder": lambda args: suite_builder(args.seed),
    "gue": lambda args: suite_gue(args.n, args.reps, args.seed),
}


def cmd_verify(args, config: dict) -> int:
    """Run one suite; its `config` and `checks` (plus wick's `cases`) make the
    report, with the suite name and the overall verdict added here."""
    if args.cases < 1:
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    report = SUITES[args.suite](args)
    report["suite"] = args.suite
    report["pass"] = all(c["pass"] for c in report["checks"])
    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    if args.out:
        with open(_resolve_out(args.out), "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for check in report["checks"]:
        status = "ok" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['value']:.3e} (tol {check['tol']:.1e})",
              file=sys.stderr)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes '-8' and '-0.5' for values but '-1e-3' for an option; no
        # option name here looks like a number, so every negative number is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValueError(message)  # a bad, missing or unknown argument: see `main`


def _seed(text: str) -> int:
    """A --seed value, a nonnegative integer: refused here, the error names the
    flag, which numpy's refusal of a negative seed does not."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="ppoptics",
        description="Point-process sampling, estimation, and verification runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample replicates of a point process")
    p_sample.add_argument("--family", required=True,
                          choices=["poisson", "permanental", "projection-dpp",
                                   "dpp-mixture", "fock"])
    p_sample.add_argument("--window", nargs=2, type=float, default=[0.0, 1.0])
    p_sample.add_argument("--window-from-kernel", action="store_true",
                          help="use the kernel's natural domain as the window")
    p_sample.add_argument("--reps", type=int, default=100)
    p_sample.add_argument("--seed", type=_seed, default=0)
    p_sample.add_argument("--rate", type=float, help="poisson: constant rate")
    p_sample.add_argument("--sigma", type=float, default=0.1, help="permanental envelope")
    p_sample.add_argument("--omega", type=float, default=100.0,
                          help="permanental carrier, recorded in the header; |E|^2, and so "
                               "the samples, do not depend on it")
    p_sample.add_argument("--scale", type=float, default=1.0, help="cox scale constant")
    p_sample.add_argument("--kernel", default="hermite:n_modes=10",
                          help="kernel spec, e.g. hermite:n_modes=10")
    p_sample.add_argument("--lambdas", default="", help="mixture eigenvalues, comma separated")
    p_sample.add_argument("--k", type=int, default=5, help="fock: number of particles")
    p_sample.add_argument("--center", type=float, default=0.5, help="fock envelope center")
    p_sample.add_argument("--width", type=float, default=0.15, help="fock envelope width")
    p_sample.add_argument("--nodes-per-unit", type=int,
                          help="grid cells per unit length, recorded in the header; default "
                               f"{samplers.DEFAULT_NODES_PER_UNIT}, but for the permanental "
                               "family a fixed number of cells per sigma")
    p_sample.add_argument("--out", required=True)

    p_pcf = sub.add_parser("pcf", help="pair-correlation estimate of a sampled batch")
    p_pcf.add_argument("--batch", required=True)
    p_pcf.add_argument("--bins", type=int, default=50)
    p_pcf.add_argument("--rmax", type=float)
    p_pcf.add_argument("--theory", help="'poisson' or 'permanental:sigma=...'")
    p_pcf.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run a property verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--cases", type=int, default=60)
    p_verify.add_argument("--n", type=int, default=8)
    p_verify.add_argument("--reps", type=int, default=5000)
    p_verify.add_argument("--out")

    return parser


def main(argv=None) -> int:
    """Run one command.  Every user error, a bad argument included, prints one JSON
    line on stderr (with the configuration resolved so far, if any) and exits 2."""
    config = {}
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, not stored in the cached parser
        command = {"sample": cmd_sample, "pcf": cmd_pcf, "verify": cmd_verify}[args.command]
        return command(args, config)
    except (ValueError, OSError) as exc:
        report = {"error": str(exc), "config": config} if config else {"error": str(exc)}
        print(json.dumps(report), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
