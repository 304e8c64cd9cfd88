"""Property tests over drawn inputs: the occupation-law round trip, the
Wick expansion against the exact Fock-space trace, the Fock-space oracle
(operator products, traces and commutation reports) against its dense
definition, and the batch-wide pair histogram against per-replicate
`np.histogram`."""

import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppoptics import builder, cli, estimators, fock
from ppoptics.samplers import PointConfiguration, Window

EPS = np.finfo(float).eps


@st.composite
def occupation_cases(draw):
    eta = draw(st.sampled_from([-1, 1]))
    upper = 1.0 - 1e-9 if eta == -1 else 1e3
    lam = np.array(draw(st.lists(st.floats(1e-9, upper), min_size=1, max_size=20)))
    beta = draw(st.floats(0.05, 20.0))
    zeta = draw(st.floats(-10.0, 10.0))
    return lam, beta, zeta, eta


@settings(deadline=None, max_examples=300)
@given(occupation_cases())
def test_spectrum_levels_round_trip(case):
    lam, beta, zeta, eta = case
    spec = builder.spectrum_to_levels(lam, beta=beta, zeta=zeta, eta=eta)
    back = builder.levels_to_spectrum(spec)
    # x = beta (nu - zeta) carries rounding of order eps (beta |zeta| + |x|), and
    # d(log lambda)/dx = -(1 + eta lambda); the final rounding adds eps lambda
    x = beta * (spec.nu - zeta)
    bound = EPS * lam * (2.0 + 16.0 * (1.0 + eta * lam) * (beta * abs(zeta) + np.abs(x) + 1.0))
    assert np.all(np.abs(back - lam) <= bound)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_wick_expansion_matches_exact_trace(seed):
    spec, nu, beta, zeta, ops = cli.random_gaussian_case(np.random.default_rng(seed))
    check = fock.wick_verify(spec, nu, beta, zeta, ops)
    assert check.deviation / (1.0 + abs(check.exact)) < 1e-9


def kronecker_ladder(spec, mode, kind):
    """The definition: the sqrt(n) lowering matrix among identities, or among
    the (1, -1) Jordan-Wigner sign strings on earlier fermion modes."""
    local = np.diag(np.sqrt(np.arange(1, spec.cutoff + 1)), k=1)
    eye = np.eye(spec.cutoff + 1)
    before = np.diag([1.0, -1.0]) if spec.eta == -1 else eye
    lowering = reduce(np.kron, [before] * mode + [local] + [eye] * (spec.n_modes - mode - 1))
    return lowering.T if kind == "create" else lowering


@st.composite
def small_fock_cases(draw):
    """A space of dimension <= 64 and a ladder sequence of length 0..6 on it."""
    eta = draw(st.sampled_from([-1, 1]))
    if eta == -1:
        spec = fock.ModeSpec(draw(st.integers(1, 6)), 1, -1)
    else:
        n_modes = draw(st.integers(1, 3))
        spec = fock.ModeSpec(n_modes, draw(st.integers(1, round(64 ** (1 / n_modes)) - 1)), 1)
    step = st.tuples(st.sampled_from(["create", "annihilate"]), st.integers(0, spec.n_modes - 1))
    return spec, draw(st.lists(step, max_size=6))


@settings(deadline=None, max_examples=200)
@given(small_fock_cases(), st.integers(0, 2**32 - 1))
def test_sparse_oracle_matches_dense_definition(case, seed):
    spec, seq = case
    ops = [fock.ladder(spec, mode, kind) for kind, mode in seq]
    dense_ops = [kronecker_ladder(spec, mode, kind) for kind, mode in seq]
    for op, dense in zip(ops, dense_ops):
        assert np.array_equal(op.matrix.toarray(), dense)

    rng = np.random.default_rng(seed)
    d = spec.dimension
    gaussian = fock.gaussian_density_matrix(spec, rng.uniform(0.2, 3.0, spec.n_modes),
                                            float(rng.uniform(0.3, 2.0)), 0.0)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    mixed = (u * rng.dirichlet(np.ones(d))) @ u.conj().T
    mixed = (mixed + mixed.conj().T) / 2
    mixed /= np.trace(mixed).real
    for rho, rho_dense in [(gaussian, gaussian.matrix.toarray()),
                           (fock.DensityMatrix(spec, mixed), mixed)]:
        want = np.trace(reduce(np.matmul, dense_ops, rho_dense))
        # rounding in either order of summation is bounded relative to the
        # same trace taken over absolute values
        scale = np.trace(reduce(np.matmul, [abs(m) for m in dense_ops], abs(rho_dense)))
        assert abs(fock.expectation(rho, ops) - want) <= 1e-12 * scale


def dense_commutation(spec):
    """The report of `fock.check_commutation` from dense Kronecker ladders."""
    eta, eye = spec.eta, np.eye(spec.dimension)
    bulk = np.all(spec.occupations() < spec.cutoff, axis=1) | (eta == -1)
    ann = [kronecker_ladder(spec, i, "annihilate") for i in range(spec.n_modes)]
    pair = same = top = 0.0
    for i, a_i in enumerate(ann):
        for j, a_j in enumerate(ann):
            comm = a_i @ a_j.T - eta * (a_j.T @ a_i) - (i == j) * eye
            pair = max(pair, np.abs(comm[np.ix_(bulk, bulk)]).max(initial=0.0))
            top = max(top, np.abs(comm[np.ix_(~bulk, ~bulk)]).max(initial=0.0))
            same = max(same, np.abs(a_i @ a_j - eta * (a_j @ a_i)).max())
    report = {"eta": eta, "max_pair_dev": pair, "max_same_kind_dev": same}
    if eta == 1:
        report["max_top_layer_dev"] = top
    return report


@settings(deadline=None, max_examples=100)
@given(small_fock_cases())
def test_operator_algebra_matches_dense_definition(case):
    spec, seq = case
    ops = [fock.ladder(spec, mode, kind) for kind, mode in seq]
    dense_ops = [kronecker_ladder(spec, mode, kind) for kind, mode in seq]
    # every product of one-entry-per-column operators keeps that form exactly
    for k in range(2, len(ops) + 1):
        product = reduce(operator.matmul, ops[:k])
        assert np.array_equal(product.matrix.toarray(), reduce(np.matmul, dense_ops[:k]))
    # the per-column merge of check_commutation against the full matrices
    got, want = fock.check_commutation(spec), dense_commutation(spec)
    assert got.keys() == want.keys()
    tol = 0.0 if spec.eta == -1 else 1e-15
    for key in want:
        assert abs(got[key] - want[key]) <= tol, key


def reference_pcf(batch, edges):
    """The pcf estimate from one `triu_indices` and `np.histogram` per replicate."""
    length = batch[0].window.length
    reps = len(batch)
    counts = np.empty((reps, len(edges) - 1))
    total_points = 0
    for i, config in enumerate(batch):
        pts = config.points
        total_points += pts.size
        if pts.size < 2:
            counts[i] = 0.0
            continue
        iu, ju = np.triu_indices(pts.size, k=1)
        counts[i] = np.histogram(pts[ju] - pts[iu], edges)[0]
    lam = total_points / (reps * length)
    r1, r2 = edges[:-1], edges[1:]
    norm = lam**2 * (length * (r2 - r1) - 0.5 * (r2**2 - r1**2))
    g = counts.mean(axis=0) / norm
    spread = counts.std(axis=0, ddof=1) if reps > 1 else np.zeros_like(norm)
    return g, spread / np.sqrt(reps) / norm


@st.composite
def dyadic_batches(draw):
    """A batch on a window whose points lie on a grid of step 2^-j, with pcf bins
    uniform from 0 to an rmax on the same grid: many distances equal an inner edge
    or the last one exactly.  Some replicates are empty or hold one point; rmax
    may be the window length (and bins may be empty)."""
    j = draw(st.integers(0, 4))
    steps = draw(st.integers(1, 40))
    a = draw(st.integers(-16, 16)) / 2**j
    w = Window(a, a + steps / 2**j)
    ticks = st.sets(st.integers(0, steps), max_size=steps + 1)
    batch = [
        PointConfiguration(a + np.array(sorted(t), dtype=float) / 2**j, w)
        for t in draw(st.lists(ticks, min_size=1, max_size=6))
    ]
    return batch, draw(st.integers(1, 8)), draw(st.integers(1, steps)) / 2**j


@settings(deadline=None, max_examples=400)
@given(dyadic_batches())
def test_pcf_matches_per_replicate_histograms(case):
    batch, bins, rmax = case
    if not any(len(c) for c in batch):
        with pytest.raises(ValueError, match="all-empty"):
            estimators.estimate_pcf(batch, bins, rmax)
        return
    est = estimators.estimate_pcf(batch, bins, rmax)
    edges = np.linspace(0.0, rmax, bins + 1)
    g, stderr = reference_pcf(batch, edges)
    assert np.array_equal(est.bin_edges, edges)
    assert np.array_equal(est.g_hat, g)
    assert np.array_equal(est.stderr, stderr)
