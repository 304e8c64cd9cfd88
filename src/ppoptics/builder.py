"""From a target permanental/determinantal spectrum to grand-canonical
energy levels and back.

The mean occupation 1/(e^{beta(nu-zeta)} - eta) maps levels to kernel
eigenvalues; inverting it realizes any admissible spectrum as a free-
particle thermal state.  The fermionic endpoints {0, 1}, a projection,
are reached only as beta -> infinity: `verify builder` checks that the
induced kernel at beta = 1e3 is the Hermite projection kernel.  The
module also rotates the measurement basis on discrete ground sets.
Spectra are plain arrays; `SpectralKernel` checks that one defines a
process.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import SpectralKernel, _check_eta

# largest deviation from unitarity a basis-change matrix may have
UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class GrandCanonicalSpec:
    """(beta, zeta, levels nu_i, statistics eta) defining a thermal state."""

    beta: float
    zeta: float
    nu: np.ndarray
    eta: int

    def __post_init__(self):
        nu = np.atleast_1d(np.asarray(self.nu, dtype=float))
        object.__setattr__(self, "nu", nu)
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        _check_eta(self.eta)
        if self.eta == 1 and np.any(nu <= self.zeta):
            raise ValueError(
                "bosonic levels must lie above the chemical potential "
                "(geometric sums diverge otherwise)"
            )


def levels_to_spectrum(spec: GrandCanonicalSpec) -> np.ndarray:
    """Mean occupations lambda_i = 1/(e^{beta(nu_i - zeta)} - eta)."""
    from scipy.special import expit  # loaded on first use: importing builder needs numpy only

    x = spec.beta * (spec.nu - spec.zeta)
    if spec.eta == -1:
        return expit(-x)  # 1/(e^x + 1), stable at both ends
    with np.errstate(over="ignore"):
        return np.where(x > 700, np.exp(-x), 1.0 / np.expm1(np.minimum(x, 700)))


def spectrum_to_levels(
    lambdas, beta: float, zeta: float = 0.0, eta: int = -1
) -> GrandCanonicalSpec:
    """Invert the occupation law: beta (nu - zeta) = log((1 + eta lambda)/lambda).

    Round-trips with levels_to_spectrum to working precision on the open
    admissible intervals.  zeta is a free convention (only nu - zeta
    matters) and defaults to 0.
    """
    _check_eta(eta)
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if np.any(lam <= 0):
        raise ValueError("target eigenvalues must be positive (0 only as a limit)")
    if eta == -1 and np.any(lam >= 1):
        raise ValueError("fermionic target eigenvalues must lie in (0, 1) (1 only as a limit)")
    x = np.log1p(eta * lam) - np.log(lam)
    return GrandCanonicalSpec(beta, zeta, zeta + x / beta, eta)


def log_partition_function(spec: GrandCanonicalSpec) -> float:
    """log Z: -sum log(1 - e^{-x}) for bosons, sum log(1 + e^{-x}) for fermions."""
    x = spec.beta * (spec.nu - spec.zeta)
    if spec.eta == -1:
        return float(np.sum(np.logaddexp(0.0, -x)))
    return float(-np.sum(np.log(-np.expm1(-x))))


def induced_kernel(spec: GrandCanonicalSpec, basis, window) -> SpectralKernel:
    """Kernel <psi^dag(x) psi(y)> of the thermal state in the given basis.

    `basis` is a feature map with one function per level (a
    `SpectralKernel.basis`); eigenvalues are the mean occupations of the
    levels and eta propagates; `window` is a `Window`.
    """
    if len(basis) != spec.nu.size:
        raise ValueError("need exactly one basis function per level")
    return SpectralKernel(levels_to_spectrum(spec), basis, spec.eta, window)


def rotate_measurement_basis(lam, v) -> np.ndarray:
    """Kernel matrix V diag(lambda) V^dag after a change of measurement basis.

    `lam` holds the kernel eigenvalues on a discrete ground set; `v` must
    be unitary.  The spectrum and trace are preserved exactly.
    """
    lam = np.asarray(lam, dtype=float)
    v = np.asarray(v, dtype=complex)
    n = lam.size
    if v.shape != (n, n):
        raise ValueError(f"unitary must be {n}x{n}, got {v.shape}")
    if np.abs(v.conj().T @ v - np.eye(n)).max() > UNITARY_TOL:
        raise ValueError("matrix is not unitary to tolerance")
    return (v * lam) @ v.conj().T


def two_mode_unitary(alpha: complex, beta_c: complex, n: int) -> np.ndarray:
    """Identity except a special-unitary block mixing the last two modes.

    Measuring in this rotated basis leaves the trailing-block
    co-occurrence determinant invariant for fermions while the marginals
    move with (alpha, beta_c); |alpha|^2 + |beta_c|^2 must be 1.
    """
    if n < 2:
        raise ValueError("need at least two modes")
    if abs(abs(alpha) ** 2 + abs(beta_c) ** 2 - 1.0) > UNITARY_TOL:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    v = np.eye(n, dtype=complex)
    v[n - 2, n - 2] = np.conj(alpha)
    v[n - 2, n - 1] = -beta_c
    v[n - 1, n - 2] = np.conj(beta_c)
    v[n - 1, n - 1] = alpha
    return v
