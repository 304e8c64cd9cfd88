"""Exact truncated Fock-space oracle.

Ladder operators on a multi-mode occupation basis, Gaussian
(grand-canonical) density matrices, coherent states, and correlators by
explicit trace.  This module exists to be obviously correct: the
combinatorial machinery elsewhere is verified against it.  A ladder
operator, a number operator and every product of them has at most one
entry per column, so a `FockOperator` is a weighted index map in
lexicographic occupation order, op|n> = amplitude[n] |target[n]>, built
from the occupation table.  Products compose by gathers in O(dimension),
and tr(rho op) reads one entry of rho per column.  States stay complex
sparse (CSR) matrices; the single-mode coherent-state helpers are dense.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
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
    """An operator with at most one entry per column: op|n> = amplitude[n] |target[n]>.

    Ladder and number operators and every product of them have this form.
    A column whose amplitude is 0 is the zero column and its target carries
    no meaning (`ladder` sets it to n).  `A @ B` composes in O(dimension) by
    two gathers; `matrix` is the complex CSR view of the nonzero entries.
    """

    spec: ModeSpec
    target: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        d = self.spec.dimension
        target = np.asarray(self.target)
        amplitude = np.asarray(self.amplitude)
        amplitude = amplitude.astype(np.result_type(amplitude, float), copy=False)
        if target.shape != (d,) or amplitude.shape != (d,):
            raise ValueError(
                f"target and amplitude need shape ({d},), got {target.shape} and {amplitude.shape}"
            )
        if target.dtype.kind not in "iu" or target.min() < 0 or target.max() >= d:
            raise ValueError(f"targets must be basis indices 0..{d - 1}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "amplitude", amplitude)

    def __matmul__(self, other):
        if other.spec != self.spec:
            raise ValueError(f"cannot compose operators on {self.spec} and {other.spec}")
        return FockOperator(
            self.spec, self.target[other.target], self.amplitude[other.target] * other.amplitude
        )

    @property
    def matrix(self) -> sparse.csr_array:
        cols = np.flatnonzero(self.amplitude)
        entries = (self.amplitude[cols].astype(complex), (self.target[cols], cols))
        return sparse.csr_array(entries, shape=(self.spec.dimension,) * 2)


def _identity(spec: ModeSpec) -> FockOperator:
    return FockOperator(spec, np.arange(spec.dimension), np.ones(spec.dimension))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A state as a complex CSR matrix; `is_diagonal` and `diagonal` are set
    on construction, and a diagonal state is validated on its diagonal."""

    spec: ModeSpec
    matrix: sparse.csr_array

    def __post_init__(self):
        m = sparse.csr_array(self.matrix, dtype=complex)
        d = self.spec.dimension
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {d}")
        rows = np.repeat(np.arange(d), np.diff(m.indptr))
        is_diagonal = not np.any(m.data[m.indices != rows])
        diagonal = m.diagonal()
        if is_diagonal:
            asymmetry = np.abs(diagonal - diagonal.conj()).max()
        else:
            asymmetry = abs(m - m.conj().T).max()
        if asymmetry > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        trace = diagonal.sum()
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"density matrix must have unit trace, got {trace}")
        if is_diagonal:
            low = np.real(diagonal).min()
        else:
            low = np.linalg.eigvalsh(m.toarray()).min()
        if low < -1e-12:
            raise ValueError(f"density matrix has negative eigenvalue {low}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "is_diagonal", is_diagonal)
        object.__setattr__(self, "diagonal", diagonal)


def ladder(spec: ModeSpec, mode: int, kind: str) -> FockOperator:
    """Creation or annihilation operator for one mode.

    a_i|..n_i..> = sqrt(n_i) (-1)^(n_0 + ... + n_(i-1)) |..n_i - 1..>, where
    the Jordan-Wigner sign applies to fermions only; creation is the
    transpose, so bosons truncate at the cutoff and fermions block at 1.
    """
    if not 0 <= mode < spec.n_modes:
        raise ValueError(f"mode {mode} out of range for {spec.n_modes} modes")
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    occ = spec.occupations()
    n = occ[:, mode]
    occupied = np.flatnonzero(n)  # basis states a_i does not annihilate
    lowered = occupied - (spec.cutoff + 1) ** (spec.n_modes - mode - 1)
    values = np.sqrt(n[occupied])
    if spec.eta == -1:
        values[occ[occupied, :mode].sum(axis=1) % 2 == 1] *= -1
    # a_i takes column `occupied` to row `lowered`, a_i^dag the reverse
    cols, rows = (occupied, lowered) if kind == "annihilate" else (lowered, occupied)
    target = np.arange(spec.dimension)
    amplitude = np.zeros(spec.dimension)
    target[cols] = rows
    amplitude[cols] = values
    return FockOperator(spec, target, amplitude)


def _merge_columns(terms):
    """Sum the entries of each column that share a target.

    `terms` lists (target, value) pairs of one-entry-per-column operators.
    In order, each entry is added to the first earlier entry of its column
    with the same target and then zeroed, so the (len(terms), dimension)
    result holds every target of a column at most once among its nonzero
    values, summed in the order the terms are listed.
    """
    targets = np.array([t for t, _ in terms])
    values = np.array([v for _, v in terms])
    for k in range(1, len(terms)):
        free = np.ones(targets.shape[1], dtype=bool)
        for earlier in range(k):
            hit = free & (targets[earlier] == targets[k])
            values[earlier, hit] += values[k, hit]
            free &= ~hit
        values[k, ~free] = 0.0
    return targets, values


def check_commutation(spec: ModeSpec) -> dict:
    """Maximum deviations from the canonical (anti)commutation relations.

    One loop over a_i a_j^dag - eta a_j^dag a_i - delta_ij I and
    a_i a_j - eta a_j a_i for every mode pair: eta = -1 gives the
    anticommutators, +1 the commutators.  Each product has one entry per
    column, so a column of either combination holds at most three entries,
    merged by target.  Fermions are exact (integer matrices).  Bosons obey
    [a_i, a_j^dag] = delta_ij I only on the bulk, the states with every
    occupation below the cutoff; the deviation on the top-cutoff layer is
    truncation-induced and reported separately.
    """
    eta = spec.eta
    ann = [ladder(spec, i, "annihilate") for i in range(spec.n_modes)]
    cre = [ladder(spec, i, "create") for i in range(spec.n_modes)]
    identity = _identity(spec)
    bulk = np.all(spec.occupations() < spec.cutoff, axis=1) | (eta == -1)
    max_pair = 0.0
    max_same = 0.0  # {a,a} or [a,a]
    max_top = 0.0
    for i, a_i in enumerate(ann):
        for j, (a_j, adj) in enumerate(zip(ann, cre)):
            forward, backward = a_i @ adj, adj @ a_i
            terms = [(forward.target, forward.amplitude),
                     (backward.target, -eta * backward.amplitude)]
            if i == j:
                terms.append((identity.target, -identity.amplitude))
            targets, values = _merge_columns(terms)
            dev = np.abs(values)
            # bulk/top membership of each entry's row (its target) and column
            row_in, col_in = bulk[targets], bulk
            max_pair = max(max_pair, dev[row_in & col_in].max(initial=0.0))
            max_top = max(max_top, dev[~(row_in | col_in)].max(initial=0.0))
            forward, backward = a_i @ a_j, a_j @ a_i
            _, values = _merge_columns([(forward.target, forward.amplitude),
                                        (backward.target, -eta * backward.amplitude)])
            max_same = max(max_same, np.abs(values).max(initial=0.0))
    report = {"eta": eta, "max_pair_dev": max_pair, "max_same_kind_dev": max_same}
    if eta == 1:
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
    d = spec.dimension
    diagonal = sparse.csr_array((weights / z, np.arange(d), np.arange(d + 1)), shape=(d, d))
    return DensityMatrix(spec, diagonal)


def log_partition(spec: ModeSpec, nu, beta: float, zeta: float) -> float:
    """log tr exp(-beta sum (nu_i - zeta) n_i) on the truncated space."""
    nu = np.asarray(nu, dtype=float)
    energies = spec.occupations() @ (beta * (nu - zeta))
    return float(logsumexp(-energies))


def expectation(rho: DensityMatrix, ops) -> complex:
    """<prod ops> = tr(rho op_1 ... op_k), the product folded into one operator."""
    product = _identity(rho.spec)
    for op in ops:
        if op.spec != rho.spec:
            raise ValueError(
                f"operator space {op.spec} (dimension {op.spec.dimension}) does not "
                f"match the state space {rho.spec} (dimension {rho.spec.dimension})"
            )
        product = product @ op
    return _trace(rho, product)


def _trace(rho: DensityMatrix, op: FockOperator) -> complex:
    """tr(rho op) = sum_n rho[n, target[n]] amplitude[n]."""
    n = np.arange(rho.spec.dimension)
    if rho.is_diagonal:
        entries = np.where(op.target == n, rho.diagonal, 0.0)
    else:
        entries = rho.matrix[n, op.target]
    return complex(entries @ op.amplitude)


# ---------------------------------------------------------------------------
# Coherent states (single mode)


# largest probability mass a truncated coherent state may discard
COHERENT_TAIL_TOL = 1e-8


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated canonical coherent state, renormalized.

    Amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) up to the cutoff; the
    discarded tail mass must stay below COHERENT_TAIL_TOL.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if tail > COHERENT_TAIL_TOL:
        raise ValueError(
            f"truncation tail {tail:.3e} exceeds {COHERENT_TAIL_TOL:.1e}; raise the cutoff"
        )
    return amps / np.linalg.norm(amps)


def _displacement_eigenbasis(alpha: complex, cutoff: int):
    """(v, x, c, phases) with D(alpha) = u diag(phases) u^dag and u = diag(c^n) v.

    The truncated position operator (a + a^dag) / sqrt(2) is tridiagonal;
    v diag(x) v^T is its eigendecomposition, x the Gauss-Hermite nodes
    (Golub and Welsch 1969).  With alpha = r e^{i phi} and R = e^{i phi n},
    S = e^{i pi n / 2}, the truncated generator alpha a^dag - conj(alpha) a is
    R r (a^dag - a) R^dag = -i sqrt(2) r (RS) x (RS)^dag, so u = RS v,
    c = e^{i (phi + pi/2)} and phases = exp(-i sqrt(2) r x).
    """
    n = np.arange(cutoff + 1)
    x, v = eigh_tridiagonal(np.zeros(cutoff + 1), np.sqrt(n[1:] / 2.0))
    c = 1j * np.exp(1j * np.angle(alpha))
    return v, x, c, np.exp(-1j * np.sqrt(2.0) * abs(alpha) * x)


def displacement_check(alpha: complex, cutoff: int) -> dict:
    """Deviation report for the displacement relations, in the eigenbasis of
    `_displacement_eigenbasis`.

    Checks D^{-1} a D = a + alpha on the low-occupation subspace
    (truncation corrupts the top of the ladder), D(alpha)|0> against the
    truncated coherent state, and the unitarity of D: the orthonormality of
    the eigenbasis and the unit modulus of its phases.
    """
    v, x, c, phases = _displacement_eigenbasis(alpha, cutoff)
    n = np.arange(cutoff + 1)
    # u^dag a u = c v^T a v, and a v shifts the rows of v up by one
    av = np.zeros_like(v)
    av[:-1] = np.sqrt(n[1:])[:, None] * v[1:]
    a_eig = c * (v.T @ av)
    # u^dag (D^dag a D - a - alpha) u has entries a_eig[j, k] (conj(phase_j) phase_k - 1)
    # - alpha [j = k]; back in the number basis u = diag(c^n) v, and the phases c^n
    # leave the moduli of v (.) v^T unchanged
    theta = np.sqrt(2.0) * abs(alpha) * (x[:, None] - x[None, :])
    shifted = a_eig * np.expm1(1j * theta) - alpha * np.eye(cutoff + 1)
    low = v[: max(1, cutoff // 2)]
    action_dev = float(np.abs(low @ shifted @ low.T).max())
    vacuum = c**n * (v @ (phases * v[0]))
    vacuum_dev = float(np.linalg.norm(vacuum - coherent_state(alpha, cutoff)))
    unitarity = max(float(np.abs(v.T @ v - np.eye(cutoff + 1)).max()),
                    float(np.abs(np.abs(phases) - 1.0).max()))
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
    table fed to the expansion holds the traces tr(rho op_i op_j) under
    the same Gaussian state.
    """
    ops = [ladder(spec, mode, kind) for kind, mode in op_sequence]
    rho = gaussian_density_matrix(spec, nu, beta, zeta)
    exact = expectation(rho, ops)
    n = len(ops)
    table = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        for j in range(i + 1, n):
            table[i, j] = _trace(rho, ops[i] @ ops[j])
    predicted = wick_expand(table, spec.eta)
    return WickCheck(
        tuple((k, m) for k, m in op_sequence),
        exact,
        predicted,
        abs(exact - predicted),
    )
