"""Property tests over drawn inputs: the occupation-law round trip and the
Wick expansion against the exact Fock-space trace."""

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
