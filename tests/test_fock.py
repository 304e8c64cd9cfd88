"""The exact Fock-space oracle: ladder actions, commutation relations,
occupation laws, coherent states, and Wick verification."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import poisson as poisson_dist

from ppoptics import fock
from ppoptics.fock import DensityMatrix, FockOperator, ModeSpec


def basis_index(spec, occ):
    idx = 0
    for n in occ:
        idx = idx * (spec.cutoff + 1) + n
    return idx


def basis_vector(spec, occ):
    v = np.zeros(spec.dimension, dtype=complex)
    v[basis_index(spec, occ)] = 1.0
    return v


def total_occupation(spec):
    """N = sum_i a_i^dag a_i, diagonal in the occupation basis."""
    total = spec.occupations().sum(axis=1)
    return FockOperator(spec, np.arange(spec.dimension), total.astype(float))


def occupation(rho, mode):
    """<a^dag a> of one mode, by the exact trace."""
    ops = [fock.ladder(rho.spec, mode, kind) for kind in ("create", "annihilate")]
    return fock.expectation(rho, ops).real


def dense_displacement(alpha, cutoff):
    """D(alpha) = I + u diag(phases - 1) u^dag in the eigenbasis of
    `fock._displacement_eigenbasis`, dense."""
    v, _, c, phases = fock._displacement_eigenbasis(alpha, cutoff)
    u = c ** np.arange(cutoff + 1)[:, None] * v
    return np.eye(cutoff + 1) + (u * (phases - 1.0)) @ u.conj().T


class TestModeSpec:
    def test_fermion_cutoff_forced(self):
        with pytest.raises(ValueError, match="cutoff"):
            ModeSpec(2, 3, -1)

    def test_dimension_cap(self):
        assert ModeSpec(14, 1, -1).dimension == fock.MAX_DIMENSION
        with pytest.raises(ValueError, match="dimension"):
            ModeSpec(15, 1, -1)

    def test_occupations_lexicographic(self):
        spec = ModeSpec(2, 2, 1)
        occ = spec.occupations()
        assert occ.shape == (9, 2)
        assert np.array_equal(occ[0], [0, 0])
        assert np.array_equal(occ[1], [0, 1])
        assert np.array_equal(occ[3], [1, 0])


class TestLadderBosons:
    def setup_method(self):
        self.spec = ModeSpec(1, 6, 1)
        self.a = fock.ladder(self.spec, 0, "annihilate").matrix
        self.ad = fock.ladder(self.spec, 0, "create").matrix

    def test_annihilates_vacuum(self):
        assert np.all(self.a @ basis_vector(self.spec, [0]) == 0)

    def test_create_raises_with_sqrt(self):
        for n in range(self.spec.cutoff):
            got = self.ad @ basis_vector(self.spec, [n])
            want = np.sqrt(n + 1) * basis_vector(self.spec, [n + 1])
            assert np.allclose(got, want)

    def test_annihilate_lowers_with_sqrt(self):
        for n in range(1, self.spec.cutoff + 1):
            got = self.a @ basis_vector(self.spec, [n])
            assert np.allclose(got, np.sqrt(n) * basis_vector(self.spec, [n - 1]))

    def test_create_truncates_at_cutoff(self):
        assert np.all(self.ad @ basis_vector(self.spec, [self.spec.cutoff]) == 0)


class TestLadderFermions:
    def test_car_antisymmetry(self):
        spec = ModeSpec(2, 1, -1)
        a1d = fock.ladder(spec, 0, "create").matrix
        a2d = fock.ladder(spec, 1, "create").matrix
        vac = basis_vector(spec, [0, 0])
        assert np.allclose(a2d @ (a1d @ vac), -(a1d @ (a2d @ vac)))

    def test_jordan_wigner_sign(self):
        spec = ModeSpec(2, 1, -1)
        a1 = fock.ladder(spec, 1, "annihilate").matrix
        got = a1 @ basis_vector(spec, [1, 1])
        assert np.allclose(got, -basis_vector(spec, [1, 0]))

    def test_pauli_blocking(self):
        spec = ModeSpec(1, 1, -1)
        ad = fock.ladder(spec, 0, "create").matrix
        assert np.all(ad @ basis_vector(spec, [1]) == 0)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            fock.ladder(ModeSpec(2, 1, -1), 2, "create")

    def test_operator_validation(self):
        spec = ModeSpec(2, 1, -1)
        with pytest.raises(ValueError, match="shape"):
            FockOperator(spec, np.arange(3), np.ones(3))
        with pytest.raises(ValueError, match="basis indices"):
            FockOperator(spec, np.array([0, 1, 2, 4]), np.ones(4))
        with pytest.raises(ValueError, match="basis indices"):
            FockOperator(spec, np.array([0, 1, 2, -1]), np.ones(4))
        with pytest.raises(ValueError, match="compose"):
            fock.ladder(spec, 0, "create") @ fock.ladder(ModeSpec(2, 1, 1), 0, "create")


class TestCommutation:
    def test_fermions_exact(self):
        report = fock.check_commutation(ModeSpec(3, 1, -1))
        assert report["max_pair_dev"] == 0.0
        assert report["max_same_kind_dev"] == 0.0

    def test_bosons_bulk_exact(self):
        report = fock.check_commutation(ModeSpec(2, 8, 1))
        assert report["max_pair_dev"] < 1e-13
        assert report["max_same_kind_dev"] < 1e-13

    def test_boson_top_layer_truncation_identity(self):
        cutoff = 8
        report = fock.check_commutation(ModeSpec(1, cutoff, 1))
        assert report["max_top_layer_dev"] == pytest.approx(cutoff + 1)

    @pytest.mark.parametrize("eta,cutoff", [(-1, 1), (1, 5)])
    def test_number_operator_commutators(self, eta, cutoff):
        spec = ModeSpec(2, cutoff, eta)
        n_op = total_occupation(spec).matrix
        for mode in range(2):
            ad = fock.ladder(spec, mode, "create").matrix
            a = fock.ladder(spec, mode, "annihilate").matrix
            assert np.abs(n_op @ ad - ad @ n_op - ad).max() < 1e-13
            assert np.abs(n_op @ a - a @ n_op + a).max() < 1e-13


class TestGaussianDensity:
    def test_fermi_dirac_occupation(self):
        spec = ModeSpec(4, 1, -1)
        nu = np.array([-1.0, 0.2, 0.9, 2.5])
        beta, zeta = 1.7, 0.3
        rho = fock.gaussian_density_matrix(spec, nu, beta, zeta)
        for i in range(4):
            want = 1.0 / (np.exp(beta * (nu[i] - zeta)) + 1.0)
            assert occupation(rho, i) == pytest.approx(want, abs=1e-12)

    def test_bose_einstein_within_tail_bound(self):
        cutoff = 60
        spec = ModeSpec(1, cutoff, 1)
        for x in [0.5, 1.0, 2.0]:
            rho = fock.gaussian_density_matrix(spec, np.array([x]), 1.0, 0.0)
            got = occupation(rho, 0)
            want = 1.0 / np.expm1(x)
            bound = np.exp(-x * (cutoff + 1)) * (cutoff + 2)
            # the analytic bound can undercut double rounding; floor at ~eps
            assert abs(got - want) <= max(bound, 1e-13)

    def test_symmetric_two_level(self):
        spec = ModeSpec(1, 1, -1)
        rho = fock.gaussian_density_matrix(spec, np.array([0.7]), 2.0, 0.7)
        assert occupation(rho, 0) == pytest.approx(0.5, abs=1e-14)

    def test_boson_at_chemical_potential_warns(self):
        spec = ModeSpec(1, 5, 1)
        with pytest.warns(UserWarning, match="chemical potential"):
            fock.gaussian_density_matrix(spec, np.array([0.0]), 1.0, 0.0)

    def test_invalid_inputs(self):
        spec = ModeSpec(1, 1, -1)
        with pytest.raises(ValueError):
            fock.gaussian_density_matrix(spec, np.array([np.nan]), 1.0, 0.0)
        with pytest.raises(ValueError):
            fock.gaussian_density_matrix(spec, np.array([1.0]), -1.0, 0.0)

    def test_density_matrix_validation(self):
        spec = ModeSpec(1, 1, -1)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(spec, np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(spec, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(spec, np.diag([1.5, -0.5]))
        # a diagonal state is checked on its diagonal
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(spec, np.diag([0.5 + 1e-9j, 0.5 - 1e-9j]))
        assert DensityMatrix(spec, np.diag([0.25, 0.75])).is_diagonal
        assert not DensityMatrix(spec, np.array([[0.5, 0.1], [0.1, 0.5]])).is_diagonal


class TestExpectation:
    def test_vacuum_a_adagger(self):
        spec = ModeSpec(1, 8, 1)
        vac = np.zeros(spec.dimension)
        vac[0] = 1.0
        rho = DensityMatrix(spec, np.diag(vac).astype(complex))
        val = fock.expectation(
            rho, [fock.ladder(spec, 0, "annihilate"), fock.ladder(spec, 0, "create")]
        )
        assert val == pytest.approx(1.0)

    def test_cross_mode_pair_vanishes(self):
        spec = ModeSpec(3, 1, -1)
        rho = fock.gaussian_density_matrix(spec, np.array([0.1, 0.5, -0.4]), 1.0, 0.0)
        val = fock.expectation(
            rho, [fock.ladder(spec, 0, "create"), fock.ladder(spec, 1, "annihilate")]
        )
        assert abs(val) < 1e-14

    def test_odd_products_vanish(self):
        spec = ModeSpec(2, 1, -1)
        rho = fock.gaussian_density_matrix(spec, np.array([0.3, 0.8]), 1.0, 0.0)
        ops = [
            fock.ladder(spec, 0, "create"),
            fock.ladder(spec, 0, "annihilate"),
            fock.ladder(spec, 1, "annihilate"),
        ]
        assert abs(fock.expectation(rho, ops)) < 1e-14

    def test_dimension_mismatch(self):
        s1, s2 = ModeSpec(1, 1, -1), ModeSpec(2, 1, -1)
        rho = fock.gaussian_density_matrix(s1, np.array([0.5]), 1.0, 0.0)
        with pytest.raises(ValueError, match="dimension"):
            fock.expectation(rho, [fock.ladder(s2, 0, "create")])

    def test_space_mismatch_at_equal_dimension(self):
        # one boson mode at cutoff 3 and two fermion modes both have dimension 4
        s1, s2 = ModeSpec(1, 3, 1), ModeSpec(2, 1, -1)
        rho = fock.gaussian_density_matrix(s1, np.array([1.0]), 1.0, 0.0)
        ops = [fock.ladder(s2, 0, "create"), fock.ladder(s2, 0, "annihilate")]
        with pytest.raises(ValueError, match="dimension"):
            fock.expectation(rho, ops)


class TestCoherentState:
    def test_alpha_zero_is_vacuum(self):
        state = fock.coherent_state(0.0, 10)
        assert state[0] == pytest.approx(1.0)
        assert np.abs(state[1:]).max() == 0.0

    def test_poisson_number_distribution(self):
        alpha = 1.5
        state = fock.coherent_state(alpha, 40)
        ns = np.arange(41)
        pmf = poisson_dist.pmf(ns, abs(alpha) ** 2)
        assert np.abs(np.abs(state) ** 2 - pmf)[:20].max() < 1e-10

    def test_annihilation_eigenrelation(self):
        alpha = 0.8 + 0.3j
        cutoff = 30
        state = fock.coherent_state(alpha, cutoff)
        a = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1)
        assert state.conj() @ (a @ state) == pytest.approx(alpha, abs=1e-10)

    def test_tail_rejection(self):
        with pytest.raises(ValueError, match="tail"):
            fock.coherent_state(4.0, 10)


class TestDisplacement:
    def test_alpha_zero_is_identity(self):
        d = dense_displacement(0.0, 10)
        assert np.abs(d - np.eye(11)).max() == 0.0

    @pytest.mark.parametrize("alpha, cutoff", [
        (0.5, 40), (1.5, 60), (0.3 - 0.7j, 20), (3 + 1j, 80), (-0.5, 40), (1e-9j, 8),
    ])
    def test_matches_matrix_exponential(self, alpha, cutoff):
        # the eigenbasis of the truncated position operator against a dense expm
        a = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1)
        want = expm(alpha * a.T - np.conj(alpha) * a)
        assert np.abs(dense_displacement(alpha, cutoff) - want).max() < 1e-13

    def test_reference_regime(self):
        report = fock.displacement_check(0.5, 40)
        assert report["action_dev"] < 1e-8
        assert report["vacuum_dev"] < 1e-8
        assert report["unitarity_dev"] < 1e-10

    def test_group_inverse(self):
        cutoff = 40
        d_plus = dense_displacement(0.5, cutoff)
        d_minus = dense_displacement(-0.5, cutoff)
        low = np.arange(cutoff + 1) < 20
        dev = (d_plus @ d_minus - np.eye(cutoff + 1))[np.ix_(low, low)]
        assert np.abs(dev).max() < 1e-10


class TestWickVerify:
    def test_fermion_pair_correlator_is_occupation_product(self):
        spec = ModeSpec(2, 1, -1)
        nu = np.array([0.4, -0.6])
        beta, zeta = 1.2, 0.1
        check = fock.wick_verify(
            spec, nu, beta, zeta,
            [("create", 0), ("create", 1), ("annihilate", 1), ("annihilate", 0)],
        )
        n = 1.0 / (np.exp(beta * (nu - zeta)) + 1.0)
        assert check.exact == pytest.approx(n[0] * n[1], abs=1e-12)
        assert check.deviation < 1e-12

    def test_boson_order_four_matches_displayed_expansion(self):
        spec = ModeSpec(1, 8, 1)
        nu = np.array([4.0])
        seq = [("annihilate", 0), ("create", 0), ("annihilate", 0), ("create", 0)]
        check = fock.wick_verify(spec, nu, 1.0, 0.0, seq)
        rho = fock.gaussian_density_matrix(spec, nu, 1.0, 0.0)
        ops = [fock.ladder(spec, m, k) for k, m in seq]
        pair = lambda i, j: fock.expectation(rho, [ops[i], ops[j]])
        want = (
            pair(0, 1) * pair(2, 3) + pair(0, 2) * pair(1, 3) + pair(0, 3) * pair(1, 2)
        )
        assert check.wick == pytest.approx(want, abs=1e-12)
        assert check.deviation < 1e-10

    def test_fermion_order_six(self):
        spec = ModeSpec(3, 1, -1)
        nu = np.array([0.3, -0.7, 1.2])
        seq = [
            ("create", 0), ("annihilate", 1), ("create", 1),
            ("annihilate", 0), ("create", 2), ("annihilate", 2),
        ]
        check = fock.wick_verify(spec, nu, 1.4, 0.1, seq)
        assert check.deviation < 1e-10

    def test_random_products_match(self):
        from ppoptics.cli import random_gaussian_case

        rng = np.random.default_rng(20)
        for _ in range(25):
            spec, nu, beta, zeta, ops = random_gaussian_case(rng)
            check = fock.wick_verify(spec, nu, beta, zeta, ops)
            assert check.deviation <= 1e-9 * (1.0 + abs(check.exact))

    def test_max_dimension_stays_sparse(self):
        # d = 2^14: one dense d x d complex operator would take 4 GiB
        spec = ModeSpec(14, 1, -1)
        nu = np.linspace(-1.5, 1.5, 14)
        seq = [
            ("annihilate", 13), ("create", 0), ("create", 13),
            ("annihilate", 7), ("create", 7), ("annihilate", 0),
        ]
        tracemalloc.start()
        try:
            check = fock.wick_verify(spec, nu, 1.3, 0.2, seq)
            total = total_occupation(spec).matrix.trace()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert total == 14 * 2**13
        assert abs(check.exact) > 1e-3
        assert check.deviation <= 1e-9 * (1.0 + abs(check.exact))

    def test_report_serializes(self):
        spec = ModeSpec(1, 1, -1)
        check = fock.wick_verify(
            spec, np.array([0.5]), 1.0, 0.0, [("create", 0), ("annihilate", 0)]
        )
        doc = check.to_json_dict()
        assert set(doc) == {"op_sequence", "exact", "wick", "deviation"}


class TestLogPartition:
    def test_matches_closed_form_fermion(self):
        spec = ModeSpec(1, 1, -1)
        got = fock.log_partition(spec, np.array([0.0]), 1.0, 0.0)
        assert got == pytest.approx(np.log(2.0), abs=1e-14)
