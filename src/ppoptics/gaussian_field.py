"""The permanental intensity |E|^2 of the Lorentz-line circular complex
Gaussian field, of covariance 2 exp(-|tau|/sigma) e^{i omega tau}.

The field is e^{i omega t} A(t) with A a complex Ornstein-Uhlenbeck process,
so |E|^2 = |A|^2 depends on the envelope time sigma alone, never on the
carrier omega (Macchi 1975).  `_intensity_sampler(sigma, n, dt)` draws it by
the exact AR(1) recursion of A (Gillespie 1996), on a grid whose cell is at
most sigma / 4, for a block of replicates from one generator.  The module
defines no public name: `samplers` checks sigma, sets the default grid and
runs the Cox step on what this draw returns.
"""

import numpy as np

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


# the coarsest cell the draw accepts, as a share of sigma.  A cell averages the
# pair correlation over its width: the worst pcf |z| over bins 0.25 sigma wide up
# to 3 sigma (1500 replicates, scale 100, two seeds) came out 1.9-2.4 at
# cell / sigma 0.125, 2.0 at 0.25, 2.4 at 0.31, 2.9 at 0.49 and 6-7 at 0.75
_MAX_CELL_PER_SIGMA = 0.25


def _intensity_sampler(sigma: float, n: int, dt: float):
    """A draw `(rng, size) -> |E|^2 = |A|^2` of the field of envelope time sigma
    on n nodes spaced dt: one row of the (size, n) result per replicate.

    A is the exact AR(1) recursion at the nodes (Gillespie 1996).  The block's
    normals are one rng.standard_normal((size, 2, n)), real parts then
    imaginary parts of each replicate, each of unit variance; one recursion
    then runs over the whole block.  A grid whose cell dt exceeds sigma / 4 is
    refused.
    """
    bound = _MAX_CELL_PER_SIGMA * sigma
    if not dt <= bound:
        raise ValueError(
            f"grid cell {dt:g} does not resolve sigma={sigma:g}: a cell must be at most "
            f"{_MAX_CELL_PER_SIGMA:g} sigma = {bound:g}; raise nodes_per_unit"
        )
    recursion = _ou_recursion(n, dt / sigma)

    def draw(rng, size):
        # the normals are freed once the recursion has read them
        a = recursion(rng.standard_normal((size, 2, n)))
        return a[:, 0] ** 2 + a[:, 1] ** 2

    return draw
