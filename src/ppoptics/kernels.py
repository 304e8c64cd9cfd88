"""Windows and spectral kernels.

The one observation `Window` type of the package, spectral
(eigenfunction) kernels and their Gram matrices.

A spectral kernel carries its eigenfunctions as one vectorised feature
map, `basis(x) -> (rank, len(x))`; for Hermite kernels that is a single
pass of the three-term recurrence (`HermiteBasis`), and a kernel whose
spectrum defines no point process cannot be constructed.  Only spectral
kernels have a registry name (`kernel_from_spec`), since only they can be
sampled from the command line.  A spectral kernel owns its observation
`Window` and is sampled on it.  The permanental (Lorentz-line) process
needs no kernel object: its law depends on the envelope time sigma alone,
which the samplers take directly.

Importing nothing from the package, this module also holds the private
rules the others share: what counts as an integer (`_is_integer`), the
one check of the statistics eta (`_check_eta`) and the unchecked
constructor of a frozen dataclass (`_unchecked`).
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np


HERMITE_MAX_MODES = 200
HERMITE_SAFE_RANGE = 40.0  # |x| beyond which the recurrence start underflows
# the coefficients sqrt(2/(k+1)) and sqrt(k/(k+1)) of the Hermite recurrence, k >= 1
_RECURRENCE_UP = np.sqrt(2.0 / np.arange(2, HERMITE_MAX_MODES))
_RECURRENCE_BACK = np.sqrt(
    np.arange(1, HERMITE_MAX_MODES - 1) / np.arange(2.0, HERMITE_MAX_MODES)
).tolist()
# rounding slack on the existence bounds of a kernel spectrum
_SPECTRUM_TOL = 1e-12


def _is_integer(n) -> bool:
    """Whether n is an integer, a numpy one included; a bool is not one."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _check_eta(eta):
    """Refuse an eta other than the integer +1 or -1 (a bool or a float too)."""
    if not (_is_integer(eta) and eta in (-1, 1)):
        raise ValueError(f"eta must be +1 or -1, got {eta}")


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass of fields known to be valid, unchecked."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True)
class Window:
    """The observation interval [a, b], with finite a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"window endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"window must satisfy a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


def hermite_functions(n: int, x) -> np.ndarray:
    """Rows 0..n-1 of the orthonormal Hermite functions at the points x.

    Normalized three-term recurrence starting from the Gaussian
    psi_0 = pi^(-1/4) exp(-x^2/2); this stays bounded for all k, unlike
    evaluating Hermite polynomials and attaching the weight afterwards.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n < 1 or n > HERMITE_MAX_MODES:
        raise ValueError(f"n must be in 1..{HERMITE_MAX_MODES}, got {n}")
    if (np.abs(x) > HERMITE_SAFE_RANGE).any():
        warnings.warn(
            f"Hermite recurrence start underflows for |x| > {HERMITE_SAFE_RANGE}; "
            "values there are flushed to 0",
            stacklevel=2,
        )
    # in place, each row with the operations of pi^(-1/4) exp(-x^2/2),
    # sqrt(2) x psi_0 or x sqrt(2/(k+1)) psi_k - sqrt(k/(k+1)) psi_(k-1)
    # in the order they are written, so the rows equal those expressions bit for bit
    out = np.empty((n, x.size))
    row = out[0]
    np.multiply(x, x, out=row)
    row *= -0.5
    np.exp(row, out=row)
    row *= np.pi ** -0.25
    if n > 1:
        np.multiply(x, np.sqrt(2.0), out=out[1])
        out[1] *= row
    # row k + 1 starts as sqrt(2/(k+1)) x, for every k at once
    rest = out[2:]
    np.multiply.outer(_RECURRENCE_UP[: len(rest)], x, out=rest)
    buf = np.empty(x.size)
    for prev, cur, nxt, back in zip(out, out[1:], rest, _RECURRENCE_BACK):
        nxt *= cur
        np.multiply(prev, back, out=buf)
        nxt -= buf
    return out


@dataclass(frozen=True)
class HermiteBasis:
    """The first n Hermite functions as one feature map x -> (n, len(x)) array."""

    n: int

    def __len__(self) -> int:
        return self.n

    def __call__(self, x) -> np.ndarray:
        return hermite_functions(self.n, x)


@dataclass(frozen=True)
class SpectralKernel:
    """Kernel K(x,y) = sum_i lambda_i phi_i(x) conj(phi_i(y)).

    `basis` is one vectorised feature map: called on points x it returns
    the (rank, len(x)) array of phi_i(x), and `len(basis)` is the rank.
    The phi_i are orthonormal on `window` with respect to the Lebesgue
    reference measure; eta = +1 flags a permanental kernel, -1 a
    determinantal one.  A kernel that exists defines its process
    (Macchi 1975): every lambda is finite and >= 0, and <= 1 when
    eta = -1 (Macchi-Soshnikov), up to _SPECTRUM_TOL of rounding.
    """

    eigenvalues: np.ndarray
    basis: callable
    eta: int
    window: Window

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        _check_eta(self.eta)
        upper = 1.0 if self.eta == -1 else np.inf
        bad = ~(np.isfinite(lam) & (lam >= -_SPECTRUM_TOL) & (lam <= upper + _SPECTRUM_TOL))
        if bad.any():
            i = int(bad.argmax())
            bound = "[0, 1] (Macchi-Soshnikov)" if self.eta == -1 else "[0, inf)"
            raise ValueError(
                f"eigenvalue {i} = {float(lam[i])} lies outside {bound} for eta={self.eta}"
            )
        if len(self.basis) != len(self.eigenvalues):
            raise ValueError("one basis function per eigenvalue required")

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    def feature_matrix(self, points) -> np.ndarray:
        """Matrix F with F[k, i] = phi_k(points[i]), in the basis's own dtype."""
        return self.basis(np.atleast_1d(np.asarray(points, dtype=float)))


def hermite_projection_kernel(n_modes: int) -> SpectralKernel:
    """Rank-N projection onto the first N Hermite functions (eta=-1).

    This is the kernel of the ground state of N free fermions in a
    harmonic trap; its point process is the GUE eigenvalue ensemble.
    """
    if not 1 <= n_modes <= HERMITE_MAX_MODES:
        raise ValueError(f"n_modes must be in 1..{HERMITE_MAX_MODES}, got {n_modes}")
    half_width = np.sqrt(2.0 * n_modes) + 10.0
    return SpectralKernel(
        eigenvalues=np.ones(n_modes),
        basis=HermiteBasis(n_modes),
        eta=-1,
        window=Window(-half_width, half_width),
    )


def gram_matrix(kernel: SpectralKernel, points) -> np.ndarray:
    """Matrix [K(x_i, x_j)] on a point set; Hermitian by construction."""
    f = kernel.feature_matrix(points)
    return (f.T * kernel.eigenvalues) @ f.conj()


def kernel_from_spec(spec: dict) -> SpectralKernel:
    """Build a spectral kernel from a JSON-style {'name': ..., 'params': {...}} spec.

    The one name is 'hermite', whose one parameter is its mode count, a
    finite integer given once as 'n_modes', 'N' or 'n'.
    """
    try:
        name = spec["name"]
        params = dict(spec.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed kernel spec {spec!r}") from exc
    if name != "hermite":
        raise ValueError(f"unknown kernel name {name!r}; known: ['hermite']")
    if not params:
        raise ValueError("kernel 'hermite' is missing parameter 'n_modes'")
    if len(params) > 1 or not params.keys() <= {"n_modes", "N", "n"}:
        raise ValueError(
            f"kernel 'hermite' takes one mode count, 'n_modes', 'N' or 'n'; got {sorted(params)}"
        )
    (n,) = params.values()
    if not (isinstance(n, numbers.Integral) or float(n).is_integer()):
        raise ValueError(f"the hermite mode count must be a finite integer, got {n!r}")
    return hermite_projection_kernel(int(n))
