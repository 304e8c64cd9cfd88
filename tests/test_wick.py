"""Determinant/permanent/contraction primitives against independent oracles."""

import itertools
import math

import numpy as np
import pytest

from ppoptics import wick


def cofactor_determinant(m):
    """Independent oracle: recursive cofactor expansion."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1 + 0j
    if n == 1:
        return m[0, 0]
    total = 0j
    rest = m[1:]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_determinant(minor)
    return total


def permutation_sum_permanent(m):
    """Independent oracle: direct sum over permutations."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    total = 0j
    for sigma in itertools.permutations(range(n)):
        prod = 1 + 0j
        for i in range(n):
            prod *= m[i, sigma[i]]
        total += prod
    return total


def permutation_sum_alpha_determinant(m, alpha):
    """Independent oracle: direct sum over permutations with cycle counts."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    total = 0j
    for sigma in itertools.permutations(range(n)):
        seen, cycles = set(), 0
        for start in range(n):
            if start not in seen:
                cycles += 1
                j = start
                while j not in seen:
                    seen.add(j)
                    j = sigma[j]
        total += alpha ** (n - cycles) * math.prod(m[i, sigma[i]] for i in range(n))
    return total


def unit_upper_triangular(rng, n):
    """Permanent exactly 1; Ryser's formula cancels badly on these."""
    return np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) + np.eye(n)


def derangements(n):
    """!n by the recurrence !n = (n - 1) (!(n - 1) + !(n - 2))."""
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestDeterminant:
    def test_identity(self):
        assert wick.determinant(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        m = np.diag([2.0 + 1j, -0.5])
        assert wick.determinant(m) == pytest.approx((2 + 1j) * -0.5)

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_complex(rng, 5)
            want = cofactor_determinant(m)
            got = wick.determinant(m)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_singular_returns_zero(self):
        m = np.ones((3, 3))
        assert abs(wick.determinant(m)) < 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            wick.determinant(np.ones((2, 3)))


class TestPermanent:
    def test_two_by_two(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert wick.permanent(m) == pytest.approx(1 * 4 + 2 * 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    def test_all_ones_is_factorial(self, n):
        got = wick.permanent(np.ones((n, n)))
        assert got == pytest.approx(math.factorial(n), rel=1e-12)

    def test_identity(self):
        assert wick.permanent(np.eye(4)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_against_permutation_oracle(self, n):
        rng = np.random.default_rng(n)
        m = random_complex(rng, n)
        want = permutation_sum_permanent(m)
        got = wick.permanent(m)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dim"):
            wick.permanent(np.eye(31))

    def test_cap_is_24(self):
        with pytest.raises(ValueError, match="dim"):
            wick.permanent(np.eye(25))
        rng = np.random.default_rng(24)
        assert abs(wick.permanent(unit_upper_triangular(rng, 24)) - 1) <= 1e-11

    def test_empty_is_one(self):
        assert wick.permanent(np.zeros((0, 0))) == 1

    def test_unit_upper_triangular_16_no_cancellation(self):
        # Ryser's formula is off by 1.35e-9 on this matrix
        m = unit_upper_triangular(np.random.default_rng(3276583006), 16)
        assert abs(wick.permanent(m) - 1) <= 1e-11

    @pytest.mark.parametrize("n", [12, 13, 14, 15, 16])
    def test_unit_upper_triangular_sweep(self, n):
        for seed in range(50):
            m = unit_upper_triangular(np.random.default_rng(seed), n)
            assert abs(wick.permanent(m) - 1) <= 1e-11, seed

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ones_minus_identity_is_derangements(self, n):
        got = wick.permanent(np.ones((n, n)) - np.eye(n))
        assert abs(got - derangements(n)) <= 1e-12 * max(1, derangements(n))

    @pytest.mark.parametrize("kind", ["real", "complex", "real-valued complex128"])
    @pytest.mark.parametrize("n", range(11))
    def test_matches_alpha_determinant_across_seeds(self, n, kind):
        # a real matrix runs in real arithmetic, whatever its dtype; the
        # enumeration of alpha-determinant is the reference for both paths
        for seed in range(5):
            rng = np.random.default_rng([n, seed])
            m = random_complex(rng, n) if kind == "complex" else rng.standard_normal((n, n))
            if kind == "real-valued complex128":
                m = m.astype(complex)
            want = wick.alpha_determinant(m, 1.0)
            # rounding in either sum is bounded relative to the permanent of |m|
            scale = wick.permanent(np.abs(m)).real
            assert abs(wick.permanent(m) - want) <= 1e-13 * max(1.0, scale), seed

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_phase_factors_out(self, n):
        # perm(e^{i theta} A) = e^{i n theta} perm(A): the complex path
        # against the real one on the same matrix
        for seed in range(3):
            rng = np.random.default_rng([n, seed])
            a = rng.standard_normal((n, n))
            theta = rng.uniform(0.1, 2 * np.pi)
            want = np.exp(1j * n * theta) * wick.permanent(a)
            scale = wick.permanent(np.abs(a)).real
            assert abs(wick.permanent(np.exp(1j * theta) * a) - want) <= 1e-13 * scale, seed

    @pytest.mark.parametrize("n", [1, 5, 12, 17])
    def test_diagonal_is_product(self, n):
        d = np.random.default_rng(n).uniform(0.5, 1.5, n) * np.exp(1j * np.arange(n))
        want = np.prod(d)
        assert abs(wick.permanent(np.diag(d)) - want) <= 1e-12 * abs(want)


class TestAlphaDeterminant:
    def test_alpha_minus_one_is_determinant(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, 4)
        assert wick.alpha_determinant(m, -1.0) == pytest.approx(wick.determinant(m), rel=1e-12)

    def test_alpha_plus_one_is_permanent(self):
        rng = np.random.default_rng(2)
        m = random_complex(rng, 4)
        assert wick.alpha_determinant(m, 1.0) == pytest.approx(wick.permanent(m), rel=1e-12)

    def test_alpha_zero_keeps_identity_only(self):
        # oracle: enumerate permutations, only the identity carries alpha^0
        rng = np.random.default_rng(3)
        m = random_complex(rng, 5)
        assert wick.alpha_determinant(m, 0.0) == pytest.approx(np.prod(np.diag(m)), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_coincidences_random(self, n):
        rng = np.random.default_rng(n + 10)
        m = random_complex(rng, n)
        det, per = wick.determinant(m), wick.permanent(m)
        assert abs(wick.alpha_determinant(m, -1.0) - det) <= 1e-12 * max(1, abs(det))
        assert abs(wick.alpha_determinant(m, 1.0) - per) <= 1e-12 * max(1, abs(per))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dim"):
            wick.alpha_determinant(np.eye(11), 0.5)

    def test_empty_is_one(self):
        assert wick.alpha_determinant(np.zeros((0, 0)), 0.5) == 1

    @pytest.mark.parametrize("alpha", [0.5, -0.3, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_against_permutation_oracle(self, n, alpha):
        m = random_complex(np.random.default_rng(100 + n), n)
        want = permutation_sum_alpha_determinant(m, alpha)
        got = wick.alpha_determinant(m, alpha)
        assert abs(got - want) <= 1e-12 * max(1, abs(want))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_plus_one_is_permanent_across_seeds(self, n):
        for seed in range(10):
            m = random_complex(np.random.default_rng([n, seed]), n)
            per = wick.permanent(m)
            assert abs(wick.alpha_determinant(m, 1.0) - per) <= 1e-12 * max(1, abs(per)), seed


def inversion_parity(seq):
    """Oracle: signature of a permutation by counting its inversions."""
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def exhaustive_contractions(n):
    """Oracle: filter all permutations by the ordering constraints."""
    found = {}
    for sigma in itertools.permutations(range(n)):
        if any(sigma[2 * i] > sigma[2 * i + 1] for i in range(n // 2)):
            continue
        firsts = [sigma[2 * i] for i in range(n // 2)]
        if firsts != sorted(firsts):
            continue
        found[sigma] = inversion_parity(sigma)
    return found


class TestContractions:
    def test_order_two(self):
        cs = wick.enumerate_contractions(2)
        assert len(cs) == 1
        assert cs[0].pairs == ((0, 1),)
        assert cs[0].parity == 1

    def test_order_four_matches_displayed_pairings(self):
        cs = wick.enumerate_contractions(4)
        got = {c.pairs: c.parity for c in cs}
        assert got == {
            ((0, 1), (2, 3)): 1,
            ((0, 2), (1, 3)): -1,
            ((0, 3), (1, 2)): 1,
        }

    def test_order_six_against_exhaustive_filter(self):
        cs = wick.enumerate_contractions(6)
        assert len(cs) == 15
        oracle = exhaustive_contractions(6)
        got = {tuple(i for p in c.pairs for i in p): c.parity for c in cs}
        assert got == oracle

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_double_factorial_count(self, n):
        want = math.prod(range(1, n, 2))  # (n-1)!!
        assert len(wick.enumerate_contractions(n)) == want

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_parity_is_signature_of_flattened_pairs(self, n):
        for c in wick.enumerate_contractions(n):
            assert c.parity == inversion_parity([i for p in c.pairs for i in p]), c.pairs

    @pytest.mark.parametrize("bad", [0, 3, 7, 18])
    def test_rejects_bad_orders(self, bad):
        with pytest.raises(ValueError):
            wick.enumerate_contractions(bad)

    def test_rejects_order_above_cap(self):
        with pytest.raises(ValueError, match="limited"):
            wick.enumerate_contractions(wick.CONTRACTION_MAX_ORDER + 2)


class TestWickExpand:
    def test_single_pair(self):
        t = np.array([[0.0, 3.5 + 1j], [0.0, 0.0]])
        assert wick.wick_expand(t, -1) == pytest.approx(3.5 + 1j)

    @pytest.mark.parametrize("eta", [-1, 1])
    def test_order_four_structure(self, eta):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        want = t[0, 1] * t[2, 3] + eta * t[0, 2] * t[1, 3] + t[0, 3] * t[1, 2]
        assert wick.wick_expand(t, eta) == pytest.approx(want)

    def test_odd_size_is_exactly_zero(self):
        t = np.ones((5, 5))
        assert wick.wick_expand(t, 1) == 0

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            wick.wick_expand(np.ones((2, 2)), 2)


class TestCorrelatorValue:
    """The joint occupation correlator from the matrix K of <a_i^dag a_j>: the
    permanent of K for bosons (eta = +1), its determinant for fermions (eta = -1)."""

    CORRELATOR = {1: wick.permanent, -1: wick.determinant}

    @pytest.mark.parametrize("eta", [-1, 1])
    def test_diagonal_modes_multiply(self, eta):
        occ = np.array([0.3, 0.8, 2.5])
        assert self.CORRELATOR[eta](np.diag(occ)) == pytest.approx(np.prod(occ))

    def test_two_by_two_hermitian(self):
        k = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        want_det = 0.7 * 0.4 - abs(0.2 + 0.1j) ** 2
        want_per = 0.7 * 0.4 + abs(0.2 + 0.1j) ** 2
        assert self.CORRELATOR[-1](k) == pytest.approx(want_det)
        assert self.CORRELATOR[1](k) == pytest.approx(want_per)


class TestPsdProperties:
    """det >= 0 and per >= 0 on random Gram (PSD) matrices."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gram_nonnegative(self, n):
        rng = np.random.default_rng(17 + n)
        for _ in range(20):
            b = rng.standard_normal((n + 2, n)) + 1j * rng.standard_normal((n + 2, n))
            g = b.conj().T @ b
            assert wick.determinant(g).real >= -1e-10
            assert abs(wick.determinant(g).imag) < 1e-9
            assert wick.permanent(g).real >= -1e-10
