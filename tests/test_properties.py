"""Property tests over drawn inputs: the occupation-law round trip, the
Wick expansion against the exact Fock-space trace, and the sparse Fock-space
oracle against its dense definition."""

from functools import reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from ppoptics import builder, cli, fock
from ppoptics.builder import TargetSpectrum

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
    spec = builder.spectrum_to_levels(TargetSpectrum(lam), beta=beta, zeta=zeta, eta=eta)
    back = builder.levels_to_spectrum(spec).lambdas
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
