"""Sampling stationary Gaussian fields on uniform grids.

Real stationary processes and circularly-symmetric complex ones are
drawn by circulant embedding (exact on the inner block when the
embedded spectrum is nonnegative); the analytic signal maps real
samples to their positive-frequency envelope representation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .kernels import StationaryCovariance


class EmbeddingError(RuntimeError):
    """Circulant embedding produced significantly negative eigenvalues."""


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TrajectoryGrid:
    """Uniform time grid t0 + dt * [0..n-1] with FFT-friendly length."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not _is_power_of_two(self.n):
            raise ValueError(f"grid length must be a power of two, got {self.n}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    @classmethod
    def for_window(cls, a: float, b: float, margin: float = 0.0, nodes_per_unit: int = 4096):
        """Smallest power-of-two grid at the requested density covering [a-margin, b+margin]."""
        if not b > a:
            raise ValueError("window must satisfy a < b")
        dt = 1.0 / nodes_per_unit
        span = (b - a) + 2.0 * margin
        n = 1
        while n * dt < span:
            n *= 2
        return cls(t0=a - margin, dt=dt, n=n)


@dataclass(frozen=True)
class ComplexTrajectory:
    """A complex field sample on a uniform grid (the analytic-signal picture)."""

    grid: TrajectoryGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_real(cls, grid: TrajectoryGrid, values):
        return cls(grid, analytic_signal(values))

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def _check_carrier_resolved(cov: StationaryCovariance, grid: TrajectoryGrid):
    omega = cov.params.get("omega")
    if omega and grid.dt > np.pi / (4.0 * omega):
        raise ValueError(
            f"grid dt={grid.dt:g} does not resolve the carrier omega={omega:g}; "
            f"need dt <= pi/(4 omega) = {np.pi / (4 * omega):g}"
        )


def embedding_spectrum(cov: StationaryCovariance, grid: TrajectoryGrid) -> np.ndarray:
    """Eigenvalues of the doubled circulant embedding of the covariance.

    Eigenvalues below -TOL.embedding_clip * max are an error; small
    negatives are clipped to zero with a warning reporting the clipped
    relative power.
    """
    m = 2 * grid.n
    wrapped = np.where(np.arange(m) <= m // 2, np.arange(m), np.arange(m) - m)
    first_col = np.asarray(cov(wrapped * grid.dt), dtype=complex)
    # the wrap-around lag must be real for the circulant to be Hermitian;
    # that entry never touches the inner n-block, so the covariance stays exact
    first_col[m // 2] = first_col[m // 2].real
    d = np.fft.fft(first_col)
    if np.abs(d.imag).max() > 1e-8 * max(np.abs(d.real).max(), 1.0):
        raise EmbeddingError("embedded covariance is not Hermitian: complex spectrum")
    d = d.real
    dmax = d.max()
    if dmax <= 0:
        raise EmbeddingError("embedded covariance has no positive spectral mass")
    if d.min() < -TOL.embedding_clip * dmax:
        raise EmbeddingError(
            f"embedding eigenvalues too negative: min {d.min():.3e} vs max {dmax:.3e}"
        )
    if d.min() < 0:
        clipped_power = -d[d < 0].sum() / d[d > 0].sum()
        warnings.warn(
            f"clipped negative embedding eigenvalues ({clipped_power:.2e} relative power)",
            stacklevel=2,
        )
        d = np.clip(d, 0.0, None)
    return d


def _embedded_complex_sample(d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    m = d.size
    z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    return np.fft.ifft(np.sqrt(d) * z) * np.sqrt(m)


def sample_stationary_gp(cov: StationaryCovariance, grid: TrajectoryGrid, seed) -> np.ndarray:
    """One sample of the zero-mean real stationary process with covariance cov.

    Circulant embedding with grid doubling; deterministic given seed.
    """
    _check_carrier_resolved(cov, grid)
    d = embedding_spectrum(cov, grid)
    rng = np.random.default_rng(seed)
    x = _embedded_complex_sample(d, rng)
    # real/imag parts each carry half the covariance of the complex sample
    return np.sqrt(2.0) * x.real[: grid.n]


def sample_complex_circular_gp(
    cov: StationaryCovariance, grid: TrajectoryGrid, seed
) -> ComplexTrajectory:
    """Circularly-symmetric complex Gaussian sample: E[x xbar'] = cov, E[x x'] = 0."""
    _check_carrier_resolved(cov, grid)
    d = embedding_spectrum(cov, grid)
    rng = np.random.default_rng(seed)
    x = _embedded_complex_sample(d, rng)
    return ComplexTrajectory(grid, x[: grid.n])


def analytic_signal(x) -> np.ndarray:
    """Positive-frequency part of a signal.

    For real input: interior positive bins are doubled while DC and
    Nyquist are kept as-is, so the real part of the output equals the
    input exactly (partial isometry).  Complex input is treated as
    already carrying its full spectrum and is only projected (negative
    bins zeroed, no doubling), which makes the transform idempotent on
    analytic signals.  Length must be a power of two.
    """
    x = np.asarray(x)
    n = x.size
    if not _is_power_of_two(n):
        raise ValueError(f"length must be a power of two, got {n}")
    spectrum = np.fft.fft(x)
    gain = np.zeros(n)
    gain[: n // 2 + 1] = 1.0
    if not np.iscomplexobj(x):
        gain[1 : n // 2] = 2.0
    return np.fft.ifft(spectrum * gain)
