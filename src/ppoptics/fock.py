"""Exact truncated Fock-space oracle.

Ladder operators on a multi-mode occupation basis, Gaussian
(grand-canonical) density matrices, coherent states, and correlators by
explicit trace.  This module exists to be obviously correct: the
combinatorial machinery elsewhere is verified against it.  A ladder
operator, a number operator and every product of them has at most one
entry per column, so a `FockOperator` is a weighted index map in
lexicographic occupation order, op|n> = amplitude[n] |target[n]>.  The
ladder operators of a space are stacked (kind, mode, dimension) index
maps built from one occupation table, the Jordan-Wigner signs from one
cumulative sum; `ladder` returns one row.  Products compose by gathers in
O(dimension) and skip the constructor's checks, since a gather of valid
index maps is valid.  tr(rho op) reads one entry of rho per column, and
the commutation check and the Wick pair table take every mode pair or
operator pair in one gather over stacked rows.  States stay complex
sparse (CSR) matrices; the Gaussian state is built directly as the
diagonal of its probability vector, checked once, and the single-mode
coherent-state helpers are dense.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.special import logsumexp

from .kernels import _check_eta, _is_integer, _unchecked
from .wick import wick_expand

MAX_DIMENSION = 2**14


@dataclass(frozen=True)
class ModeSpec:
    """Truncated multi-mode Fock space: occupation 0..cutoff per mode."""

    n_modes: int
    cutoff: int
    eta: int

    def __post_init__(self):
        if not (_is_integer(self.n_modes) and _is_integer(self.cutoff)):
            raise ValueError(
                f"mode count and cutoff must be integers, got {self.n_modes!r} and {self.cutoff!r}"
            )
        _check_eta(self.eta)
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
    two gathers, without the constructor's checks; `matrix` is the complex
    CSR view of the nonzero entries.
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
        # in-range targets gathered by in-range targets stay in range
        return _unchecked(FockOperator, spec=self.spec, target=self.target[other.target],
                          amplitude=self.amplitude[other.target] * other.amplitude)

    @property
    def matrix(self) -> sparse.csr_array:
        cols = np.flatnonzero(self.amplitude)
        entries = (self.amplitude[cols].astype(complex), (self.target[cols], cols))
        return sparse.csr_array(entries, shape=(self.spec.dimension,) * 2)


def _identity(spec: ModeSpec) -> FockOperator:
    index = np.arange(spec.dimension)
    return _unchecked(FockOperator, spec=spec, target=index, amplitude=np.ones(index.size))


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
        asymmetry = (np.abs(diagonal - diagonal.conj()).max() if is_diagonal
                     else abs(m - m.conj().T).max())
        if asymmetry > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        trace = diagonal.sum()
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"density matrix must have unit trace, got {trace}")
        low = np.real(diagonal).min() if is_diagonal else np.linalg.eigvalsh(m.toarray()).min()
        if low < -1e-12:
            raise ValueError(f"density matrix has negative eigenvalue {low}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "is_diagonal", is_diagonal)
        object.__setattr__(self, "diagonal", diagonal)


# the kinds in the order of the leading axis of the `_ladders` stacks
_KINDS = ("annihilate", "create")


def _ladders(spec: ModeSpec):
    """(target, amplitude), each (2, n_modes, dimension): row [k, i] is a_i
    for k = 0 and a_i^dag for k = 1, as in `ladder`."""
    n = spec.occupations().T
    stride = (spec.cutoff + 1) ** np.arange(spec.n_modes - 1, -1, -1)
    acts = np.stack([n > 0, n < spec.cutoff])  # the columns a_i and a_i^dag keep
    target = np.arange(spec.dimension) + np.multiply.outer([-1, 1], stride)[..., None] * acts
    amplitude = np.sqrt(np.stack([n, n + 1]) * acts)
    if spec.eta == -1:
        # (-1)^(n_0 + ... + n_(i-1)); a_i^dag keeps the earlier occupations of its column
        odd = np.cumsum(n, axis=0) - n
        np.negative(amplitude, out=amplitude, where=((odd & 1) == 1) & acts)
    return target, amplitude


def _ladder_row(spec: ModeSpec, mode: int, kind: str):
    """The (kind, mode) index of one ladder operator in the `_ladders` stacks."""
    if not (_is_integer(mode) and 0 <= mode < spec.n_modes):
        raise ValueError(f"mode {mode!r} is not an integer in range for {spec.n_modes} modes")
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    return _KINDS.index(kind), mode


def ladder(spec: ModeSpec, mode: int, kind: str) -> FockOperator:
    """Creation or annihilation operator for one mode.

    a_i|..n_i..> = sqrt(n_i) (-1)^(n_0 + ... + n_(i-1)) |..n_i - 1..>, where
    the Jordan-Wigner sign applies to fermions only; creation is the
    transpose, so bosons truncate at the cutoff and fermions block at 1.
    """
    row = _ladder_row(spec, mode, kind)
    target, amplitude = _ladders(spec)
    return _unchecked(FockOperator, spec=spec, target=target[row], amplitude=amplitude[row])


def _merge_columns(terms):
    """Sum the entries of each column that share a target.

    `terms` lists (target, value) pairs of one-entry-per-column operators,
    stacked with any leading shape.  In order, each entry is added to the
    first earlier entry of its column with the same target and then zeroed:
    each target of a column is left once at most among the nonzero values."""
    targets = np.array([t for t, _ in terms])
    values = np.array([v for _, v in terms])
    for k in range(1, len(terms)):
        free = np.ones(targets.shape[1:], dtype=bool)
        for earlier in range(k):
            hit = free & (targets[earlier] == targets[k])
            values[earlier][hit] += values[k][hit]
            free &= ~hit
        values[k][~free] = 0.0
    return targets, values


def check_commutation(spec: ModeSpec) -> dict:
    """Maximum deviations from the canonical (anti)commutation relations.

    a_i a_j^dag - eta a_j^dag a_i - delta_ij I and a_i a_j - eta a_j a_i (eta
    = -1 the anticommutators, +1 the commutators) for all mode pairs (i, j)
    at once, by gathers on the `_ladders` stacks and a merge of the at most
    three entries per column.  Fermions are exact.  Bosons obey [a_i, a_j^dag]
    = delta_ij I only on the bulk (every occupation below the cutoff); the
    truncation-induced deviation on the top-cutoff layer is reported apart."""
    eta, m, d = spec.eta, spec.n_modes, spec.dimension
    target, amplitude = _ladders(spec)
    i = np.arange(m)[:, None, None]  # mode i along axis 0, mode j along axis 1

    # kind k of mode i times kind l of mode j: (m, m, d) target and amplitude
    def product(k, l):
        right = target[l]
        return target[k][i, right], amplitude[k][i, right] * amplitude[l]

    # the terms of kind_k(i) kind_l(j) - eta kind_l(j) kind_k(i)
    def combination(k, l):
        forward = product(k, l)
        backward = forward if k == l else product(l, k)
        return [forward, (backward[0].swapaxes(0, 1), -eta * backward[1].swapaxes(0, 1))]

    delta = (np.broadcast_to(np.arange(d), (m, m, d)),
             np.broadcast_to(-np.eye(m)[..., None], (m, m, d)))
    targets, values = _merge_columns(combination(0, 1) + [delta])
    dev = np.abs(values)
    bulk = np.all(spec.occupations() < spec.cutoff, axis=1) | (eta == -1)
    # bulk/top membership of each entry's row (its target) and column
    row_in, col_in = bulk[targets], bulk
    _, same = _merge_columns(combination(0, 0))
    report = {"eta": eta, "max_pair_dev": dev[row_in & col_in].max(initial=0.0),
              "max_same_kind_dev": np.abs(same).max(initial=0.0)}
    if eta == 1:
        report["max_top_layer_dev"] = dev[~(row_in | col_in)].max(initial=0.0)
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
        warnings.warn("bosonic levels at or below the chemical potential: the untruncated "
                      "state does not exist; results are cutoff-dependent", stacklevel=2)
    energies = spec.occupations() @ (beta * (nu - zeta))
    weights = np.exp(-(energies - energies.min()))
    z = weights.sum()
    if not np.isfinite(z) or z <= 0:
        raise ValueError(f"non-finite partition function (Z = {z})")
    # with Z finite and positive, weights / Z is real, >= 0 and sums to 1 within
    # rounding: a Hermitian, positive state of unit trace, built without the
    # general checks of DensityMatrix
    diagonal = (weights / z).astype(complex)
    index = np.arange(spec.dimension + 1)
    matrix = sparse.csr_array((diagonal, index[:-1], index), shape=(index[-1],) * 2)
    return _unchecked(DensityMatrix, spec=spec, matrix=matrix, is_diagonal=True,
                      diagonal=diagonal)


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


def _check_alpha(alpha):
    """Refuse a non-finite coherent amplitude before any arithmetic on it."""
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated canonical coherent state, renormalized.

    Amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) up to the cutoff; the
    discarded tail mass must stay below COHERENT_TAIL_TOL.
    """
    _check_alpha(alpha)
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if not tail <= COHERENT_TAIL_TOL:  # a NaN tail fails too
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
    _check_alpha(alpha)
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
    return {"alpha": alpha, "cutoff": cutoff, "action_dev": action_dev,
            "vacuum_dev": vacuum_dev, "unitarity_dev": unitarity}


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


def _wick_pair_table(target, amplitude, diagonal) -> np.ndarray:
    """tr(rho op_i op_j) for i < j (zero elsewhere) of stacked (n, dimension)
    operator rows under the state diag(`diagonal`): one (pairs, dimension)
    gather composes every pair, and tr(rho P) sums diagonal[n] amplitude[n]
    over the columns that P maps to themselves."""
    n, d = target.shape
    i, j = np.triu_indices(n, 1)
    flat = target[j] + (i * d)[:, None]  # row i of the stack, gathered by row j
    product = amplitude.ravel()[flat] * amplitude[j]
    product[target.ravel()[flat] != np.arange(d)] = 0.0
    table = np.zeros((n, n), dtype=complex)
    table[i, j] = product @ diagonal
    return table


def wick_verify(spec: ModeSpec, nu, beta: float, zeta: float, op_sequence) -> WickCheck:
    """Exact trace of a ladder-operator product vs its Wick expansion.

    `op_sequence` lists (kind, mode) pairs in operator order; the pair
    table fed to the expansion holds the traces tr(rho op_i op_j) under
    the same Gaussian state, which is diagonal.
    """
    rows = [_ladder_row(spec, mode, kind) for kind, mode in op_sequence]
    kinds, modes = np.array(rows, dtype=int).reshape(-1, 2).T
    target, amplitude = _ladders(spec)
    target, amplitude = target[kinds, modes], amplitude[kinds, modes]
    rho = gaussian_density_matrix(spec, nu, beta, zeta)
    exact = expectation(rho, [_unchecked(FockOperator, spec=spec, target=t, amplitude=a)
                              for t, a in zip(target, amplitude)])
    predicted = wick_expand(_wick_pair_table(target, amplitude, rho.diagonal.real), spec.eta)
    return WickCheck(tuple((k, m) for k, m in op_sequence), exact, predicted,
                     abs(exact - predicted))
