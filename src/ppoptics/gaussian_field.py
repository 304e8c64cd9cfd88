"""Sampling stationary Gaussian fields on uniform grids.

A field is asked for on n nodes spaced dt; a stationary law does not
depend on where the nodes start, so the samplers return plain arrays.
Real stationary processes and circularly-symmetric complex ones are
drawn by circulant embedding, exact on the inner n-block when the
embedded spectrum is nonnegative.  The circulant starts at the smallest
power of two >= 2n and doubles until its spectrum is nonnegative up to
rounding, so its size comes from the covariance alone.  The analytic
signal maps real samples to their positive-frequency envelope
representation.

The permanental sampler asks only for |E|^2 of a circular complex field
(`_intensity_sampler`).  For the analytic Lorentz covariance
2 exp(-|tau|/sigma) e^{i omega tau} that is |A|^2 of a complex
Ornstein-Uhlenbeck envelope A, drawn by its exact AR(1) recursion from 2n
normals with no circulant and no FFT (Gillespie 1996); every other
covariance goes through the circulant embedding.
"""

import warnings

import numpy as np

from .kernels import StationaryCovariance

# largest circulant the embedding grows to before it refuses a covariance
EMBEDDING_MAX_M = 2**20
# eigenvalues down to -EMBEDDING_CLIP times the largest are clipped to zero
EMBEDDING_CLIP = 1e-8


class EmbeddingError(RuntimeError):
    """Circulant embedding produced significantly negative eigenvalues."""


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _check_carrier_resolved(cov: StationaryCovariance, dt: float):
    omega = cov.params.get("omega")
    if omega and dt > np.pi / (4.0 * omega):
        raise ValueError(
            f"grid dt={dt:g} does not resolve the carrier omega={omega:g}; "
            f"need dt <= pi/(4 omega) = {np.pi / (4 * omega):g}"
        )


def embedding_spectrum(cov: StationaryCovariance, n: int, dt: float) -> np.ndarray:
    """Eigenvalues of a circulant embedding of the covariance on n nodes spaced dt.

    The circulant size m starts at the smallest power of two >= 2n and
    doubles while eigenvalues fall below -EMBEDDING_CLIP * max
    (Wood and Chan 1994); past EMBEDDING_MAX_M that is an error.  Small
    negatives are clipped to zero with a warning reporting the clipped
    relative power.
    """
    _check_carrier_resolved(cov, dt)
    m = 1 << (2 * n - 1).bit_length()
    while True:
        wrapped = np.where(np.arange(m) <= m // 2, np.arange(m), np.arange(m) - m)
        first_col = np.asarray(cov(wrapped * dt), dtype=complex)
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
        if d.min() >= -EMBEDDING_CLIP * dmax:
            break
        if m >= EMBEDDING_MAX_M:
            raise EmbeddingError(
                f"embedding eigenvalues too negative at m={m}: "
                f"min {d.min():.3e} vs max {dmax:.3e}"
            )
        m *= 2
    if d.min() < 0:
        clipped_power = -d[d < 0].sum() / d[d > 0].sum()
        warnings.warn(
            f"clipped negative embedding eigenvalues ({clipped_power:.2e} relative power)",
            stacklevel=2,
        )
        d = np.clip(d, 0.0, None)
    return d


def _embedded_complex_sample(root_d: np.ndarray, rng) -> np.ndarray:
    """A complex field on the whole circulant from the square roots of its spectrum.

    The field is the inverse FFT of root_d * (a + i b) / sqrt(2), with a and
    then b the m standard normals `rng` draws.  It is built in place with the
    rounding of that complex expression (numpy divides a complex array by
    sqrt(2) as a multiply by 1/sqrt(2)).
    """
    m = root_d.size
    normals = rng.standard_normal((2, m))
    normals *= 1.0 / np.sqrt(2.0)
    z = np.empty(m, dtype=complex)
    np.multiply(root_d, normals[0], out=z.real)
    np.multiply(root_d, normals[1], out=z.imag)
    np.fft.ifft(z, out=z)
    z *= np.sqrt(m)
    return z


# longest run of cells one cumulative sum of the Ornstein-Uhlenbeck recursion covers
_OU_MAX_BLOCK = 256


def _ou_recursion(n: int, r: float):
    """The stationary AR(1) recursion on n cells, as a map x -> a along the last
    axis of an array of standard normals.

    a_0 = x_0 and a_k = rho a_(k-1) + sqrt(1 - rho^2) x_k with rho = exp(-r), so
    every entry has unit variance and lag-j correlation rho^j: the
    Ornstein-Uhlenbeck process of correlation time 1 at spacing r.

    It runs as a cumulative sum inside blocks of B cells, with weights rho^-i
    and then rho^i at cell i of a block, where B is the largest power of two
    up to _OU_MAX_BLOCK with B r <= 1, so that rho^-i stays below e.  The
    block ends carry forward by a doubling scan of factor rho^B, and cell i
    adds rho^(i+1) times the end of the block before it.
    """
    block = 1
    while 2 * block <= _OU_MAX_BLOCK and 2 * block * r <= 1.0:
        block *= 2
    blocks = -(-n // block)
    i = np.arange(block)
    weight = np.tile(np.exp(i * r), blocks)[:n] * np.sqrt(-np.expm1(-2.0 * r))
    weight[0] = 1.0
    decay = np.exp(-i * r)
    rho, block_decay = np.exp(-r), np.exp(-block * r)

    def run(x: np.ndarray) -> np.ndarray:
        lead = x.shape[:-1]
        s = np.zeros(lead + (blocks, block))
        np.multiply(x, weight, out=s.reshape(lead + (-1,))[..., :n])
        np.cumsum(s, axis=-1, out=s)
        # ends[..., b]: block b's last cell, from its own cells, then with the
        # blocks before it carried in
        ends = s[..., -1] * decay[-1]
        factor, shift = block_decay, 1
        while shift < blocks:
            ends[..., shift:] += factor * ends[..., :-shift]
            factor *= factor
            shift *= 2
        s[..., 1:, :] += rho * ends[..., :-1, None]
        s *= decay
        return s.reshape(lead + (-1,))[..., :n]

    return run


def _intensity_sampler(cov: StationaryCovariance, n: int, dt: float):
    """A draw `rng -> |E|^2` of the circular complex field of covariance cov
    on n nodes spaced dt.

    The analytic Lorentz covariance 2 exp(-|tau|/sigma) e^{i omega tau} is
    e^{i omega t} A(t) with A a complex Ornstein-Uhlenbeck process, and
    |E|^2 = |A|^2; A is the exact AR(1) recursion at the nodes (Gillespie
    1996), from the 2n normals rng.standard_normal((2, n)), real parts then
    imaginary parts, each of unit variance.  Any other covariance is drawn
    by circulant embedding.  Both check that dt resolves the carrier.
    """
    _check_carrier_resolved(cov, dt)
    if cov.params.get("name") == "analytic_lorentz":
        recursion = _ou_recursion(n, dt / cov.params["sigma"])

        def draw(rng):
            a = recursion(rng.standard_normal((2, n)))
            return a[0] ** 2 + a[1] ** 2

        return draw
    root_d = np.sqrt(embedding_spectrum(cov, n, dt))
    return lambda rng: np.abs(_embedded_complex_sample(root_d, rng)[:n]) ** 2


def sample_stationary_gp(cov: StationaryCovariance, n: int, dt: float, seed) -> np.ndarray:
    """One sample of the zero-mean real stationary process with covariance cov
    on n nodes spaced dt; deterministic given seed."""
    d = embedding_spectrum(cov, n, dt)
    x = _embedded_complex_sample(np.sqrt(d), np.random.default_rng(seed))
    # real/imag parts each carry half the covariance of the complex sample
    return np.sqrt(2.0) * x.real[:n]


def sample_complex_circular_gp(cov: StationaryCovariance, n: int, dt: float, seed) -> np.ndarray:
    """Circularly-symmetric complex Gaussian sample on n nodes spaced dt:
    E[x xbar'] = cov, E[x x'] = 0."""
    d = embedding_spectrum(cov, n, dt)
    return _embedded_complex_sample(np.sqrt(d), np.random.default_rng(seed))[:n]


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
