"""Exact truncated Fock-space oracle.

Dense ladder operators on a multi-mode occupation basis, Gaussian
(grand-canonical) density matrices, coherent states, and correlators by
explicit trace.  This module exists to be obviously correct: everything
is a dense complex matrix in lexicographic occupation order, and the
combinatorial machinery elsewhere is verified against it.
"""

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import expm
from scipy.special import logsumexp

from .wick import wick_expand

MAX_DIMENSION = 2**14


@dataclass(frozen=True)
class ModeSpec:
    """Truncated multi-mode Fock space: occupation 0..cutoff per mode."""

    n_modes: int
    cutoff: int
    eta: int

    def __post_init__(self):
        if self.eta not in (-1, 1):
            raise ValueError(f"eta must be +1 or -1, got {self.eta}")
        if self.eta == -1 and self.cutoff != 1:
            raise ValueError("fermions force cutoff = 1")
        if self.n_modes < 1 or self.cutoff < 1:
            raise ValueError("need at least one mode and a positive cutoff")
        if self.dimension > MAX_DIMENSION:
            raise ValueError(
                f"dimension {(self.cutoff + 1)}^{self.n_modes} exceeds {MAX_DIMENSION}"
            )

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.n_modes

    def occupations(self) -> np.ndarray:
        """(dimension, n_modes) occupation numbers in lexicographic order."""
        dims = (self.cutoff + 1,) * self.n_modes
        return np.indices(dims).reshape(self.n_modes, -1).T


@dataclass(frozen=True, eq=False)
class FockOperator:
    spec: ModeSpec
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.spec.dimension
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {d}")
        object.__setattr__(self, "matrix", m)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.spec, self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class DensityMatrix(FockOperator):
    def __post_init__(self):
        super().__post_init__()
        m = self.matrix
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValueError(f"density matrix must have unit trace, got {np.trace(m)}")
        off_diagonal = m - np.diag(np.diag(m))
        diagonal = np.abs(off_diagonal).max() == 0.0
        object.__setattr__(self, "is_diagonal", diagonal)
        if diagonal:
            low = np.real(np.diag(m)).min()
        else:
            low = np.linalg.eigvalsh(m).min()
        if low < -1e-12:
            raise ValueError(f"density matrix has negative eigenvalue {low}")


def _single_mode_lowering(cutoff: int) -> np.ndarray:
    """a with a|n> = sqrt(n)|n-1>, truncated at the cutoff."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(complex)


def ladder(spec: ModeSpec, mode: int, kind: str) -> FockOperator:
    """Creation or annihilation operator for one mode.

    Bosons carry the sqrt(n) matrix elements with truncation at the
    cutoff; fermions carry 0/1 elements with the Jordan-Wigner string
    sign (-1)^(sum of occupations of earlier modes).
    """
    if not 0 <= mode < spec.n_modes:
        raise ValueError(f"mode {mode} out of range for {spec.n_modes} modes")
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    local = _single_mode_lowering(spec.cutoff)
    eye = np.eye(spec.cutoff + 1, dtype=complex)
    if spec.eta == -1:
        sign = np.diag([1.0, -1.0]).astype(complex)
        factors = [sign] * mode + [local] + [eye] * (spec.n_modes - mode - 1)
    else:
        factors = [eye] * mode + [local] + [eye] * (spec.n_modes - mode - 1)
    matrix = reduce(np.kron, factors)
    if kind == "create":
        matrix = matrix.conj().T
    return FockOperator(spec, matrix)


def number_operator(spec: ModeSpec) -> FockOperator:
    """N = sum_i a_i^dag a_i, diagonal in the occupation basis."""
    return FockOperator(spec, np.diag(spec.occupations().sum(axis=1)).astype(complex))


def check_commutation(spec: ModeSpec) -> dict:
    """Maximum deviations from the canonical (anti)commutation relations.

    Fermions: max-entry deviation of {a_i, a_j^dag} - delta_ij I and of
    {a_i, a_j} over all mode pairs (exactly zero for integer matrices).
    Bosons: [a_i, a_j^dag] = delta_ij I holds on the subspace with every
    occupation below the cutoff; the deviation on the top-cutoff layer
    is truncation-induced and reported separately.
    """
    d = spec.dimension
    ann = [ladder(spec, i, "annihilate").matrix for i in range(spec.n_modes)]
    eye = np.eye(d)
    max_pair = 0.0
    max_same = 0.0  # {a,a} or [a,a]
    max_top = 0.0
    if spec.eta == 1:
        bulk = np.all(spec.occupations() < spec.cutoff, axis=1)
    for i, a_i in enumerate(ann):
        for j, a_j in enumerate(ann):
            adj = a_j.conj().T
            if spec.eta == -1:
                pair_dev = a_i @ adj + adj @ a_i - (i == j) * eye
                same_dev = a_i @ a_j + a_j @ a_i
                max_pair = max(max_pair, np.abs(pair_dev).max())
                max_same = max(max_same, np.abs(same_dev).max())
            else:
                comm = a_i @ adj - adj @ a_i - (i == j) * eye
                max_pair = max(max_pair, np.abs(comm[np.ix_(bulk, bulk)]).max())
                top = ~bulk
                if top.any():
                    max_top = max(max_top, np.abs(comm[np.ix_(top, top)]).max())
                same_dev = a_i @ a_j - a_j @ a_i
                max_same = max(max_same, np.abs(same_dev).max())
    report = {"eta": spec.eta, "max_pair_dev": max_pair, "max_same_kind_dev": max_same}
    if spec.eta == 1:
        report["max_top_layer_dev"] = max_top
    return report


def gaussian_density_matrix(spec: ModeSpec, nu, beta: float, zeta: float) -> DensityMatrix:
    """Grand-canonical state exp(-beta sum (nu_i - zeta) n_i) / Z.

    Diagonal in the occupation basis.  For bosons, nu_i <= zeta makes
    the untruncated partition function diverge; at finite cutoff this
    is flagged as a validity warning rather than an error.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (spec.n_modes,):
        raise ValueError(f"need one level per mode, got shape {nu.shape}")
    if beta <= 0 or not np.all(np.isfinite(nu)) or not np.isfinite(zeta):
        raise ValueError("beta must be positive and all levels finite")
    if spec.eta == 1 and np.any(nu <= zeta):
        warnings.warn(
            "bosonic levels at or below the chemical potential: the untruncated "
            "state does not exist; results are cutoff-dependent",
            stacklevel=2,
        )
    energies = spec.occupations() @ (beta * (nu - zeta))
    weights = np.exp(-(energies - energies.min()))
    z = weights.sum()
    if not np.isfinite(z) or z <= 0:
        raise ValueError(f"non-finite partition function (Z = {z})")
    return DensityMatrix(spec, np.diag(weights / z).astype(complex))


def log_partition(spec: ModeSpec, nu, beta: float, zeta: float) -> float:
    """log tr exp(-beta sum (nu_i - zeta) n_i) on the truncated space."""
    nu = np.asarray(nu, dtype=float)
    energies = spec.occupations() @ (beta * (nu - zeta))
    return float(logsumexp(-energies))


def expectation(rho: DensityMatrix, ops) -> complex:
    """<prod ops> = tr(rho op_1 ... op_k) by dense multiplication."""
    mats = [op.matrix for op in ops]
    d = rho.matrix.shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("operator dimensions do not match the state")
    if not mats:
        return complex(np.trace(rho.matrix))
    if rho.is_diagonal:
        w = np.real(np.diag(rho.matrix))
        if len(mats) == 1:
            return complex(np.sum(w * np.diag(mats[0])))
        if len(mats) == 2:
            return complex(np.einsum("i,ij,ji->", w, mats[0], mats[1]))
        prod = reduce(np.matmul, mats[1:])
        return complex(np.einsum("i,ij,ji->", w, mats[0], prod))
    prod = reduce(np.matmul, mats)
    return complex(np.einsum("ij,ji->", rho.matrix, prod))


def mean_occupation(rho: DensityMatrix, spec: ModeSpec, mode: int) -> float:
    n_op = [ladder(spec, mode, "create"), ladder(spec, mode, "annihilate")]
    return float(np.real(expectation(rho, n_op)))


# ---------------------------------------------------------------------------
# Coherent states (single mode)


def coherent_state(alpha: complex, cutoff: int, tail_tol: float = 1e-8) -> np.ndarray:
    """Truncated canonical coherent state, renormalized.

    Amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) up to the cutoff; the
    discarded tail mass must stay below tail_tol.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if tail > tail_tol:
        raise ValueError(
            f"truncation tail {tail:.3e} exceeds {tail_tol:.1e}; raise the cutoff"
        )
    return amps / np.linalg.norm(amps)


def displacement_operator(alpha: complex, cutoff: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) by matrix exponential."""
    a = _single_mode_lowering(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def displacement_check(alpha: complex, cutoff: int) -> dict:
    """Deviation report for the displacement relations.

    Checks D^{-1} a D = a + alpha on the low-occupation subspace
    (truncation corrupts the top of the ladder) and D(alpha)|0> against
    the truncated coherent state.
    """
    a = _single_mode_lowering(cutoff)
    d_op = displacement_operator(alpha, cutoff)
    shifted = d_op.conj().T @ a @ d_op - a - alpha * np.eye(cutoff + 1)
    low = np.arange(cutoff + 1) < max(1, cutoff // 2)
    action_dev = float(np.abs(shifted[np.ix_(low, low)]).max())
    vac = np.zeros(cutoff + 1, dtype=complex)
    vac[0] = 1.0
    vacuum_dev = float(np.linalg.norm(d_op @ vac - coherent_state(alpha, cutoff)))
    unitarity = float(np.abs(d_op.conj().T @ d_op - np.eye(cutoff + 1)).max())
    return {
        "alpha": alpha,
        "cutoff": cutoff,
        "action_dev": action_dev,
        "vacuum_dev": vacuum_dev,
        "unitarity_dev": unitarity,
    }


# ---------------------------------------------------------------------------
# Wick verification


@dataclass(frozen=True)
class WickCheck:
    op_sequence: tuple
    exact: complex
    wick: complex
    deviation: float

    def to_json_dict(self) -> dict:
        return {
            "op_sequence": [list(op) for op in self.op_sequence],
            "exact": [self.exact.real, self.exact.imag],
            "wick": [self.wick.real, self.wick.imag],
            "deviation": self.deviation,
        }


def wick_verify(spec: ModeSpec, nu, beta: float, zeta: float, op_sequence) -> WickCheck:
    """Exact trace of a ladder-operator product vs its Wick expansion.

    `op_sequence` lists (kind, mode) pairs in operator order; the pair
    table fed to the expansion is built from two-operator traces under
    the same Gaussian state.
    """
    ops = [ladder(spec, mode, kind) for kind, mode in op_sequence]
    rho = gaussian_density_matrix(spec, nu, beta, zeta)
    exact = expectation(rho, ops)
    n = len(ops)
    table = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = expectation(rho, [ops[i], ops[j]])
    predicted = wick_expand(table, spec.eta)
    return WickCheck(
        tuple((k, m) for k, m in op_sequence),
        exact,
        predicted,
        abs(exact - predicted),
    )
