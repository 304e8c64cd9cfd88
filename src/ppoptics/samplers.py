"""Samplers for Poisson, permanental (Cox), determinantal, and fixed-count
i.i.d. point processes on an interval, plus batch CSV I/O.

The sampler API is batch-only: each family has one `sample_*_batch`
function, and a single draw is `reps=1`.  There is one seeding rule: a
batch runs its replicates in blocks, and block b draws from child b of
`SeedSequence(seed)` (`_blocks`), so the private byte budget that sets the
block size is part of the stream.  No batch holds more than
_MAX_REPLICATES replicates, and no Poisson, permanental or fixed-count
replicate expects more than _MAX_MEAN_COUNT points (`_check_mean_count`).

The permanental and fixed-count samplers share one Cox step
(`_draw_cells`): per block, every cell uniform in one draw and one search,
then every jitter in one more, then `_configurations` sorts each
replicate, checks the block's window once and builds each configuration
unchecked.  A permanental replicate is a draw of |E+|^2, the squared
modulus of the Lorentz-line complex Gaussian field, followed by that Cox
step: the permanental process is a Cox process (Macchi 1975).  Its law
depends on the envelope time sigma alone, so sigma is the sampler's
parameter (`check_sigma`): the intensity is drawn by the exact AR(1)
recursion of the field's envelope (`gaussian_field`), on a grid whose cell
resolves sigma.  A block draws its normals in one call, runs one recursion
and one pass of cell masses, totals and cumulative sums, and takes its
counts from one Poisson draw.

Every continuous sampler runs on one dense uniform `CellGrid` over the
window (inverse-CDF draws with uniform jitter inside a cell).  The
determinantal and fixed-count samplers take DEFAULT_NODES_PER_UNIT cells
per unit length unless given a density; the permanental draw takes a fixed
number of cells per sigma (`permanental_nodes_per_unit`), because its
discretisation error depends on cells per sigma, not per unit length.  The
permanental field is drawn at the same cell centers and nowhere outside
the window: a stationary field's law on the window does not depend on what
lies beyond it.

Every determinantal kernel is a Bernoulli mixture of projections (Hough,
Krishnapur, Peres and Virag 2006, Thm. 7; Lavancier, Moller and Rubak
2015), and `sample_dpp_mixture_batch` is the one DPP sampler: each
replicate keeps basis function i with probability lambda_i and runs the
sequential chain of the same paper on the kept ones.  A projection kernel
is the case where every lambda is 0 or 1: a function with lambda = 1 is
kept by every replicate, one with lambda <= 0 by none, so it is dropped
before sampling.  The chain runs a block of replicates at once, each at its
own step: a round gives every replicate that is not done proposals for its
own next point, so none waits for another to accept.  All replicates
propose from one density, the diagonal of the functions left, through one
CDF, and accept by exact rejection against their own residual diagonal.
Each block draws its keep masks, proposals and jitter from its own child
generator, and `_configurations` finishes it.  No (cells, rank) feature
array is ever held: the grid keeps the diagonal, summed in slices of cells
straight from the (rank, cells) array of the kernel's feature map, and the
chain evaluates the feature map at each round's proposals.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .gaussian_field import _intensity_sampler
from .kernels import SpectralKernel, Window, _is_integer, _unchecked


# grid density of the determinantal and fixed-count samplers, in the library and
# the CLI, unless given; the permanental default follows sigma instead
DEFAULT_NODES_PER_UNIT = 4096
# cells per sigma of the grid when no density is given.  The exact bin expectation
# of the estimated pcf on the grid departs from the continuous one, for bins sigma/20
# wide up to 3 sigma, by at most 1.5e-3, 3.5e-4, 1.3e-4, 8.3e-5, 3.3e-5 and 2.1e-6 at
# 16, 32, 51, 64, 102 and 410 cells per sigma.  Sampled through `pcf --theory` (sigma
# 0.01, scale 25, 20,000 replicates, seeds 5 and 6), the worst |z| over those bins came
# out 2.7 and 2.5 at 16 cells per sigma, 1.7 and 2.5 at 32, and 2.1 and 2.3 at 64
_CELLS_PER_SIGMA = 64
# largest expected point count per replicate of the Poisson, permanental and
# fixed-count samplers; each replicate holds a few float arrays of about this length
_MAX_MEAN_COUNT = 1e7
# largest expected share of a Poisson replicate's points that coincide in float64
_POISSON_MAX_MERGED = 1e-6
# most cells of one CellGrid: 128 MiB of centers, and a sampler holds a few
# arrays of that length
_GRID_MAX_CELLS = 2**24
# most replicates of one batch, sampled or loaded.  An empty replicate loaded from a
# batch file holds about 320 bytes (460 at the load's peak), so this many take about
# 0.5 GiB; a sampled block's child generator, made as it is drawn, takes about 1 KB
_MAX_REPLICATES = 2**20
# the chain's direction array and per-round gathers stay within about this many
# bytes per block of replicates
_CHAIN_BLOCK_BYTES = 16 * 2**20
# a block of Poisson, permanental or fixed-count replicates stays within about this
# many bytes: 16 per cell of permanental normals, 32 per expected point.  The median
# permanental draw of 250 replicates on 1024 cells (40 interleaved runs, one Xeon
# core, two sweeps) took 22.5-24.0, 19.1-20.0, 17.5-18.6, 16.9-18.2, 17.2-18.5,
# 18.6-19.9 and 19.8-21.2 ms at 64, 128, 256 and 512 KiB and 1, 2 and 8 MiB
_COX_BLOCK_BYTES = 256 * 2**10


class RankLossError(RuntimeError):
    """The sequential projection sampler ran out of diagonal mass."""


class CellGrid:
    """Uniform cells covering a window: `n` cells of width `cell` with midpoints `centers`.

    The window gets nodes_per_unit cells per unit length, never fewer than 1024
    and at most _GRID_MAX_CELLS.
    """

    def __init__(self, window: Window, nodes_per_unit: int):
        if nodes_per_unit < 1:
            raise ValueError(f"nodes_per_unit must be at least 1, got {nodes_per_unit}")
        cells = nodes_per_unit * window.length
        # NaN-safe; an infinite length (b - a beyond the largest float) fails too
        if not cells <= _GRID_MAX_CELLS:
            raise ValueError(
                f"nodes_per_unit * window length = {cells!r} cells, above the limit of "
                f"{_GRID_MAX_CELLS}"
            )
        self.window = window
        self.n = max(1024, int(round(cells)))
        self.cell = window.length / self.n
        self.centers = window.a + (np.arange(self.n) + 0.5) * self.cell


def check_sigma(sigma: float):
    """Refuse an envelope time sigma that is not finite and positive (NaN included)."""
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def permanental_nodes_per_unit(sigma: float) -> int:
    """The grid density of a permanental draw of envelope time sigma when none is
    given: ceil(_CELLS_PER_SIGMA / sigma) nodes per unit length.

    A sigma so small that the density is not a finite float raises ValueError.
    """
    check_sigma(sigma)
    per_unit = _CELLS_PER_SIGMA / sigma
    if not per_unit < np.inf:
        raise ValueError(
            f"sigma={sigma:g} asks for {_CELLS_PER_SIGMA} / sigma = {per_unit:g} nodes per "
            "unit, more than any grid holds"
        )
    return math.ceil(per_unit)


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """A simple (strictly increasing) finite configuration in a window."""

    points: np.ndarray
    window: Window

    def __post_init__(self):
        # a copy: the configuration never shares the caller's array
        pts = np.array(self.points, dtype=float).ravel()
        # false at any NaN, which the sort then puts last
        increasing = bool((pts[1:] > pts[:-1]).all())
        if not increasing:
            pts.sort()
        if pts.size:
            # written so that a NaN (sorted last) fails it
            if not (self.window.a <= pts[0] and pts[-1] <= self.window.b):
                raise ValueError("points outside the window")
            if not increasing and (pts[1:] <= pts[:-1]).any():
                raise ValueError("configuration must be simple (strictly increasing)")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def batch_window(batch) -> Window:
    """The window that every replicate of a nonempty batch shares."""
    if not batch:
        raise ValueError("batch must be nonempty")
    w = batch[0].window
    for config in batch:
        if config.window != w:
            raise ValueError("all replicates must share the same window")
    return w


def _check_replicates(reps: int):
    """Refuse a replicate count that is not an integer, below 0 or above
    _MAX_REPLICATES, before any draw."""
    if not _is_integer(reps):
        raise ValueError(f"reps must be an integer, got {reps!r}")
    if reps < 0:
        raise ValueError(f"{reps} replicates: the count must be nonnegative")
    if reps > _MAX_REPLICATES:
        raise ValueError(f"{reps} replicates, above the limit of {_MAX_REPLICATES}")


def _check_mean_count(mean, what: str):
    """Refuse `what` = mean expected points per replicate above _MAX_MEAN_COUNT,
    before any draw; a NaN or infinite mean is refused too."""
    if not mean <= _MAX_MEAN_COUNT:
        # an integer is shown exactly: one beyond the float range has no :g
        shown = mean if _is_integer(mean) else f"{mean:g}"
        raise ValueError(f"{what} = {shown} expected points per replicate, above the "
                         f"limit of {_MAX_MEAN_COUNT:g}")


def _blocks(seed, reps: int, block: int):
    """(generator, size) per block of `block` replicates, the last one partial:
    block b draws from child b of SeedSequence(seed)."""
    root = np.random.SeedSequence(seed)
    for start in range(0, reps, block):
        yield np.random.default_rng(root.spawn(1)[0]), min(block, reps - start)


def _simple_sorted(points: np.ndarray, window: Window, rng, cell: float) -> np.ndarray:
    """Sort and break any grid-cell ties by re-jittering inside the cell."""
    pts = np.sort(points)
    for _ in range(100):
        if pts.size < 2 or np.all(np.diff(pts) > 0):
            return pts
        dup = np.concatenate([[False], np.diff(pts) <= 0])
        pts[dup] += (rng.random(int(dup.sum())) - 0.5) * 1e-9 * cell
        pts = np.clip(np.sort(pts), window.a, window.b)
    far = max(abs(window.a), abs(window.b))
    raise ValueError(
        f"could not break ties in a grid sample on [{window.a}, {window.b}]: the cell "
        f"{cell:g} is re-jittered by 1e-9 of itself, below the float64 spacing "
        f"{np.spacing(far):g} at {far:g}"
    )


def _inverse_cdf(cdf, total, u):
    """Cells at uniforms `u` for cumulative cell masses `cdf` summing to `total`;
    `side="right"` never picks a zero-mass cell at an exact tie."""
    return np.minimum(np.searchsorted(cdf, u * total, side="right"), cdf.size - 1)


def _joined_inverse_cdf(cdfs, totals, counts, u):
    """`_inverse_cdf` for a block: cells (within its own row) of replicate r's
    next counts[r] uniforms `u` in the rows cdfs[r] summing to totals[r].

    The rows are laid end to end, each shifted by the sequential sum of the
    last entries of the rows before it, so the joined array never decreases
    and one search serves the block.  A key lands where the per-row search
    puts it, save at a tie made by rounding the shift."""
    n = cdfs.shape[1]
    start = np.concatenate(([0.0], np.cumsum(cdfs[:-1, -1])))
    row = np.repeat(np.arange(len(counts)), counts)
    keys = u * totals[row] + start[row]
    idx = np.searchsorted((cdfs + start[:, None]).ravel(), keys, side="right")
    return np.clip(idx - row * n, 0, n - 1)


def _draw_cells(cdfs, totals, counts, grid: CellGrid, rng) -> list:
    """The Cox step for a block: replicate r takes counts[r] i.i.d. points from the
    piecewise-constant density of cumulative cell masses cdfs[r] (summing to
    totals[r]), or, when `cdfs` is one CDF summing to `totals`, every replicate
    from that one: inverse CDF on one draw of uniforms, one search for the
    block, then one draw of jitter."""
    u = rng.random(np.sum(counts))
    if np.ndim(cdfs) == 1:
        idx = _inverse_cdf(cdfs, totals, u)
    else:
        idx = _joined_inverse_cdf(cdfs, totals, counts, u)
    pts = grid.centers[idx] + (rng.random(idx.size) - 0.5) * grid.cell
    return _configurations(pts, counts, grid, rng)


def _configurations(pts, counts, grid: CellGrid, rng) -> list:
    """Replicate r's next counts[r] of `pts`, sorted, each in an array of its own;
    `_simple_sorted` draws from `rng` only for a replicate with a tie, in
    replicate order.  The window is checked once for the block."""
    w = grid.window
    # written so that a NaN fails it
    if pts.size and not (w.a <= pts.min() and pts.max() <= w.b):
        raise ValueError("points outside the window")
    rows = np.full((len(counts), np.max(counts)), np.inf)
    used = np.arange(rows.shape[1]) < np.asarray(counts)[:, None]
    rows[used] = pts
    rows.sort(axis=1)
    tied = ((rows[:, 1:] <= rows[:, :-1]) & used[:, 1:]).any(axis=1)
    # unchecked: each row is a float array of its own (_simple_sorted returns a
    # new one), strictly increasing and inside the window
    return [_unchecked(PointConfiguration, window=w,
                       points=_simple_sorted(r[:c], w, rng, grid.cell) if t else r[:c].copy())
            for r, c, t in zip(rows, counts, tied)]


# ---------------------------------------------------------------------------
# Poisson


def sample_poisson_batch(rate_fn, rate_max, w: Window, reps: int, seed) -> list:
    """Inhomogeneous Poisson samples by thinning a homogeneous rate_max process (one
    `rate_fn` call per block).  rate_max must be finite and > 0; rates lie in [0, rate_max]."""
    _check_replicates(reps)
    if not 0 < rate_max < np.inf:
        raise ValueError(f"rate_max must be positive and finite, got {rate_max}")
    mean = rate_max * w.length
    _check_mean_count(mean, "rate_max * window length")
    # about this share of the points falls on a float64 value already taken and
    # is merged by np.unique: at most 1e-9 for a window [0, b] under the mean cap
    spacing = np.spacing(max(abs(w.a), abs(w.b)))
    if not rate_max * spacing / 2 <= _POISSON_MAX_MERGED:
        raise ValueError(
            f"window [{w.a}, {w.b}] is too far from 0 for rate_max = {rate_max:g}: "
            f"about {rate_max * spacing / 2:.3g} of the points would merge at the float64 "
            f"spacing {spacing:g}, above the limit of {_POISSON_MAX_MERGED:g}"
        )
    out = []
    for rng, size in _blocks(seed, reps, max(1, int(_COX_BLOCK_BYTES / (32 * max(mean, 1))))):
        n = rng.poisson(mean, size)
        t = w.a + w.length * rng.random(n.sum())
        vals = np.asarray(rate_fn(t), dtype=float)
        if vals.shape != t.shape:
            raise ValueError(
                f"rate_fn must map times of shape {t.shape} to rates of the same shape, "
                f"got {vals.shape}"
            )
        # written so that a NaN is bad
        bad = ~(vals >= 0) | (vals > rate_max * (1 + 1e-12))
        if bad.any():
            i = bad.argmax()
            why = f"exceeds rate_max = {rate_max:g}" if vals[i] > 0 else "is negative or NaN"
            raise ValueError(f"rate_fn({t[i]:g}) = {vals[i]:g} {why}")
        keep = rng.random(t.size) * rate_max < vals
        kept = np.bincount(np.repeat(np.arange(size), n)[keep], minlength=size)
        out += [PointConfiguration(np.unique(row), w)
                for row in np.split(t[keep], np.cumsum(kept)[:-1])]
    return out


# ---------------------------------------------------------------------------
# Permanental (Cox process driven by a squared complex Gaussian field)


def sample_permanental_batch(
    sigma, scale, w: Window, reps: int, seed, nodes_per_unit: int | None = None
) -> list:
    """Permanental samples of the Lorentz line of envelope time sigma: the kernel
    scale * 2 exp(-|tau|/sigma) e^{i omega tau}, whose law no carrier omega changes.

    Each replicate draws |E+|^2 of the circularly-symmetric complex Gaussian
    field at the window's cell centers, by the AR(1) recursion of its
    envelope, then the Cox step (`_draw_cells`) at rate scale * |E+|^2.
    Block b of `_COX_BLOCK_BYTES` draws from child b of the seed, so that
    budget is part of the stream: all its normals, its counts in one Poisson
    draw, then its cell uniforms and its jitters.  The grid density defaults
    to `permanental_nodes_per_unit(sigma)`.  More than
    _MAX_REPLICATES replicates, a sigma that is not finite and positive, an
    expected count 2 * scale * window length above _MAX_MEAN_COUNT and a
    grid whose cell exceeds sigma / 4 raise ValueError.
    """
    _check_replicates(reps)
    check_sigma(sigma)
    if not scale >= 0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    # E|E+|^2 = 2, the covariance at zero lag
    _check_mean_count(2 * scale * w.length, "2 * scale * window length")
    if nodes_per_unit is None:
        nodes_per_unit = permanental_nodes_per_unit(sigma)
        cells = nodes_per_unit * w.length
        if not cells <= _GRID_MAX_CELLS:
            raise ValueError(
                f"sigma={sigma:g} on a window of length {w.length:g} needs {cells:g} cells "
                f"at the default grid of {_CELLS_PER_SIGMA} cells per sigma, above the "
                f"limit of {_GRID_MAX_CELLS}; give a coarser nodes_per_unit (a cell of at "
                "most sigma / 4) or a shorter window"
            )
    grid = CellGrid(w, nodes_per_unit)
    draw = _intensity_sampler(sigma, grid.n, grid.cell)
    out = []
    for rng, size in _blocks(seed, reps, max(1, _COX_BLOCK_BYTES // (16 * grid.n))):
        # the masses scale * |E+|^2 * cell, in place and in that order
        masses = draw(rng, size)
        masses *= scale
        masses *= grid.cell
        totals = masses.sum(axis=1)
        np.cumsum(masses, axis=1, out=masses)
        out += _draw_cells(masses, totals, rng.poisson(totals), grid, rng)
        # freed before the next block's draw, so that the two never coexist
        del masses
    return out


# ---------------------------------------------------------------------------
# Determinantal (the Bernoulli mixture over projections, one sequential chain)


# proposals a replicate may use for one point before it counts as stuck
_MAX_TRIES = 2000


def _hkpv_chain(features_at, diag, lam, grid: CellGrid, reps: int, seed) -> list:
    """DPP samples by the sequential chain of Hough, Krishnapur, Peres and
    Virag (2006), run for a block of replicates at once.

    `features_at(cells)` maps an array of cell indices to the orthonormal
    basis functions at those cell centres, shaped `cells.shape + (rank,)`,
    and `diag[i]` is the sum of their squared moduli at cell i.  Each
    replicate keeps function k with probability lam[k] (all of them for a
    projection, lam = 1) and samples the projection onto its kept functions.
    After j accepted points its conditional density is
    (K_r(x,x) - sum_i |<e_i, phi_r(x)>|^2) / (k_r - j), with phi_r the kept
    features and e_i the orthonormalized directions of its accepted points.
    Every replicate proposes from the one fixed density diag / sum(diag),
    which dominates K_r(x,x) pointwise, and accepts by exact rejection.
    Each replicate advances at its own step: a round gives every replicate
    that is not done b proposals for its own next point, and it keeps the
    first it accepts.  That is the first accepted proposal of an i.i.d.
    stream however the stream is cut into rounds, so the law is exact.  The
    features are evaluated once per round, at that round's proposals.

    Replicates run in blocks sized by `_CHAIN_BLOCK_BYTES`; block b draws its
    keep masks, proposals and jitter from child b of the seed (`_blocks`).
    """
    rank = lam.size
    dtype = features_at(np.zeros(0, dtype=np.intp)).dtype
    cdf = np.cumsum(diag)
    trace = cdf[-1] * grid.cell
    # per replicate: the directions, their gathered copy and three (proposals, rank)
    # round arrays, with at most about `trace` <= rank proposals per round
    block = max(1, _CHAIN_BLOCK_BYTES // (5 * max(rank, 1) ** 2 * dtype.itemsize))
    out = []
    for rng, size in _blocks(seed, reps, block):
        keep = rng.random((size, rank)) < lam
        k = keep.sum(axis=1)
        # conj_dirs[r, :, i] is the conjugate of replicate r's i-th direction, zero
        # until it accepts its i-th point
        conj_dirs = np.zeros((size, rank, rank), dtype=dtype)
        cells = np.zeros((size, rank), dtype=int)
        # per replicate: its accepted points, and its proposals since the last one
        j = np.zeros(size, dtype=int)
        tries = np.zeros(size, dtype=int)
        todo = np.flatnonzero(k > 0)
        while todo.size:
            stuck = tries[todo] >= _MAX_TRIES
            if stuck.any():
                rows = todo[stuck]
                raise _stuck_error(features_at, keep[rows], conj_dirs[rows], j[rows], grid)
            # every column not yet filled is zero, projects to 0 and leaves resid as is
            prev = conj_dirs[todo]
            kept = keep[todo]
            # a replicate accepts a proposal with probability about (k_r - j_r) / trace:
            # one expected acceptance per replicate and round; the mean of k_r - j_r
            # is the exact integer sum over the count, as np.mean gives it
            left = (k[todo].sum() - j[todo].sum()) / todo.size
            b = min(int(np.ceil(trace / left)), _MAX_TRIES - int(tries[todo].max()))
            tries[todo] += b
            u, v = rng.random((2, todo.size, b))
            # the search runs on sorted keys; the cells go back in proposal order
            order = np.argsort(u, axis=None)
            idx = np.empty(u.size, dtype=np.intp)
            idx[order] = _inverse_cdf(cdf, cdf[-1], u.ravel()[order])
            idx = idx.reshape(u.shape)
            phi = features_at(idx)  # (todo, b, rank)
            proj = phi @ prev
            # the directions live on the kept columns: only the norm needs the mask
            norm2 = np.einsum("tbk,tk->tb", (phi * _conj(phi)).real, kept)
            resid = norm2 - np.einsum("tbj,tbj->tb", proj, _conj(proj)).real
            q = diag[idx]
            ok = (v * q <= resid) & (q > 0)
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            rows = todo[hit]
            at = j[rows]
            conj_dirs[rows, :, at] = _conj(_orthonormal(
                phi[hit, first] * kept[hit], proj[hit, first], norm2[hit, first], prev[hit]
            ))
            cells[rows, at] = idx[hit, first]
            j[rows] += 1
            tries[rows] = 0
            todo = todo[j[todo] < k[todo]]
        pts = grid.centers[cells] + (rng.random(cells.shape) - 0.5) * grid.cell
        out += _configurations(pts[np.arange(rank) < k[:, None]], k, grid, rng)
    return out


def _conj(a):
    """The complex conjugate of `a`, or `a` itself, uncopied, when it is real."""
    return a.conj() if a.dtype.kind == "c" else a


def _orthonormal(phi, coef, phi_norm2, conj_prev):
    """phi (rows, rank) orthonormalized against the directions whose conjugates
    are the columns of `conj_prev`; `coef` holds the projections <e_i, phi>."""
    e = phi - _conj(np.einsum("hkj,hj->hk", conj_prev, _conj(coef)))
    norm2 = np.einsum("hk,hk->h", e, _conj(e)).real
    redo = norm2 < 1e-12 * phi_norm2
    if redo.any():
        # re-orthogonalize: one extra Gram-Schmidt pass
        again = conj_prev[redo]
        e2 = e[redo]
        e2 -= _conj(np.einsum("hkj,hj->hk", again, _conj(np.einsum("hkj,hk->hj", again, e2))))
        e[redo] = e2
        norm2[redo] = np.einsum("hk,hk->h", e2, _conj(e2)).real
    return e / np.sqrt(norm2)[:, None]


# residual diagonal mass per kept function below which a stuck replicate has lost rank
_RANK_LOSS_MASS = 1e-12


def _stuck_error(features_at, keep, conj_dirs, points, grid: CellGrid) -> RuntimeError:
    """The error for replicates that used `_MAX_TRIES` proposals on one point:
    `RankLossError` when one's residual diagonal mass is below _RANK_LOSS_MASS
    times its rank, else the stalled `RuntimeError`.  Replicate t has accepted
    points[t] points, and the columns of conj_dirs[t] past those are zero."""
    gram = sum(_conj(f).T @ f for f in map(features_at, _cell_slices(grid.n, keep.shape[1])))
    captured = np.einsum("tkj,tkj->t", _conj(conj_dirs), gram @ conj_dirs).real
    mass = (keep @ gram.diagonal().real - captured) * grid.cell
    worst = np.argmin(mass / keep.sum(axis=1))
    j = points[worst]
    if mass[worst] < _RANK_LOSS_MASS * keep[worst].sum():
        return RankLossError(f"projected diagonal mass {mass[worst]:.3e} after {j} points")
    return RuntimeError(
        f"rejection loop stalled with residual mass {mass[worst]:.3e} after {j} points; "
        "the grid may be too coarse for this kernel"
    )


# the diagonal and the Gram matrix are built in slices of cells whose features
# take at most about this many bytes, complex ones included
_SLICE_BYTES = 2 * 2**20


def _cell_slices(n_cells: int, rank: int):
    """Consecutive slices of cell indices covering cells 0..n_cells-1."""
    step = max(1, _SLICE_BYTES // (16 * max(rank, 1)))
    for start in range(0, n_cells, step):
        yield np.arange(start, min(start + step, n_cells))


def _projection_features(kernel: SpectralKernel, grid: CellGrid):
    """The kernel's kept basis as `features_at(cells)`, the (cells.shape + (rank,))
    array of the basis functions at those cell centres, with their diagonal
    on the grid and their eigenvalues.  A basis function with lambda <= 0 is
    never kept, so it is dropped.  No (cells, rank) array is ever held: the
    diagonal is summed slice by slice, straight from the (rank, cells) array
    that `kernel.feature_matrix` returns, with no transposed copy.

    The trace on the window must match the number of kept functions to within 5%.
    """
    kept = kernel.eigenvalues > 0
    rank = int(kept.sum())

    def rows_at(cells):
        f = kernel.feature_matrix(grid.centers[cells].ravel())
        return f[kept] if rank < kept.size else f

    def features_at(cells):
        return np.ascontiguousarray(rows_at(cells).T).reshape(cells.shape + (rank,))

    diag = np.empty(grid.n)
    for cells in _cell_slices(grid.n, rank):
        f = rows_at(cells)
        diag[cells] = np.einsum("ki,ki->i", f, _conj(f)).real
    trace = diag.sum() * grid.cell
    if abs(trace - rank) > 0.05 * rank:
        raise ValueError(
            f"kernel trace on the window is {trace:.3f}, expected {rank}; "
            "the basis is not orthonormal on this window or the grid is too coarse"
        )
    return features_at, diag, kernel.eigenvalues[kept]


def sample_dpp_mixture_batch(
    kernel, reps: int, seed, nodes_per_unit: int = DEFAULT_NODES_PER_UNIT
) -> list:
    """DPP samples on `kernel.window` via the Bernoulli mixture over projection kernels.

    Each replicate keeps eigenfunction i with probability lambda_i, which
    a determinantal `SpectralKernel` holds in [0, 1], and samples the
    projection onto the kept ones.  A projection kernel (every
    lambda 0 or 1) keeps the same functions in every replicate, so each
    sample has exactly as many points as it has unit eigenvalues.
    """
    _check_replicates(reps)
    if kernel.eta != -1:
        raise ValueError("the Bernoulli mixture construction is determinantal (eta=-1)")
    grid = CellGrid(kernel.window, nodes_per_unit)
    return _hkpv_chain(*_projection_features(kernel, grid), grid, reps, seed)


# ---------------------------------------------------------------------------
# Fixed-count i.i.d. process (single-mode number state)


# largest share of the |phi_plus|^2 mass one cell may hold.  Points are uniform
# inside a cell, so a coarse cell widens the sampled law: at k = 5 the sampled std
# over the envelope's came out 1.0013, 1.0039, 1.0126, 1.046 and 1.21 at shares
# 0.05, 0.099, 0.19, 0.35 and 0.49 (stderr about 0.005)
_FOCK_MAX_CELL_SHARE = 0.1


def sample_fock_pp_batch(
    phi_plus, k: int, w: Window, reps: int, seed, nodes_per_unit: int = DEFAULT_NODES_PER_UNIT
) -> list:
    """Samples of k i.i.d. draws from the density proportional to |phi_plus|^2.

    A k above _MAX_MEAN_COUNT is refused before any draw, and so are a
    phi_plus of the wrong shape and a grid where one cell holds more than
    `_FOCK_MAX_CELL_SHARE` of the mass: the grid then does not resolve the
    envelope.
    """
    _check_replicates(reps)
    if not _is_integer(k) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    _check_mean_count(k, "k")
    grid = CellGrid(w, nodes_per_unit)
    amplitudes = np.asarray(phi_plus(grid.centers), dtype=complex)
    if amplitudes.shape != grid.centers.shape:
        raise ValueError(f"phi_plus must map times of shape {grid.centers.shape} to "
                         f"amplitudes of the same shape, got {amplitudes.shape}")
    masses = np.abs(amplitudes) ** 2
    total = masses.sum()
    if not total > 0:  # NaN fails this too
        raise ValueError(f"|phi_plus|^2 has zero total mass on the window (sum {total})")
    top = int(masses.argmax())
    share = masses[top] / total
    if share > _FOCK_MAX_CELL_SHARE:
        raise ValueError(
            f"one cell holds {share:.3g} of the |phi_plus|^2 mass, above the limit of "
            f"{_FOCK_MAX_CELL_SHARE}: the cell at {grid.centers[top]:g}, {grid.cell:g} wide, "
            "does not resolve the envelope; raise nodes_per_unit"
        )
    cdf, out = np.cumsum(masses), []
    for rng, size in _blocks(seed, reps, max(1, _COX_BLOCK_BYTES // (32 * k))):
        out += _draw_cells(cdf, total, [k] * size, grid, rng)
    return out


# ---------------------------------------------------------------------------
# Batch CSV I/O

_BATCH_MAGIC = "# ppoptics-batch "


def save_batch_csv(path, batch: list, meta: dict):
    """One point per row (replicate_id, t); metadata in a JSON header line.

    The rows are what `csv.writer` writes for [r, repr(t)]: no field needs
    quoting, and every row ends in CRLF.  The batch must be nonempty, on one window.
    """
    window = batch_window(batch)
    header = dict(meta)
    header["window"] = [window.a, window.b]
    header["n_replicates"] = len(batch)
    rows = []
    for r, config in enumerate(batch):
        if len(config):
            sep = f"\r\n{r},"
            rows.append(f"{r},{sep.join(map(repr, config.points.tolist()))}\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(_BATCH_MAGIC + json.dumps(header, sort_keys=True) + "\n")
        fh.write("replicate_id,t\r\n")
        fh.write("".join(rows))


_BATCH_ROW = np.dtype([("r", np.int64), ("t", np.float64)])


def _parse_rows(path, lines: list, n: int):
    """(replicate ids, points) of the data rows `lines`, which start on line 3.

    One `np.loadtxt` parses a well-formed file.  When it refuses a row, or
    skips a blank one, the rows are read one by one so that the error names
    the first bad line.
    """
    if lines:
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, dtype=_BATCH_ROW, ndmin=1)
        except ValueError:
            table = None
        if table is not None and table.size == len(lines):
            bad = (table["r"] < 0) | (table["r"] >= n)
            if bad.any():
                k = table["r"][bad.argmax()]
                raise ValueError(f"{path}: replicate id {k} outside [0, {n})")
            return table["r"], table["t"]
    ids, points = [], []
    for line, row in enumerate(csv.reader(lines), start=3):
        if len(row) != 2:
            raise ValueError(f"{path}: line {line} has {len(row)} fields, expected 2")
        k = int(row[0])
        if not 0 <= k < n:
            raise ValueError(f"{path}: replicate id {k} outside [0, {n})")
        ids.append(k)
        points.append(float(row[1]))
    return np.array(ids, dtype=np.int64), np.array(points, dtype=float)


def load_batch_csv(path):
    """Inverse of save_batch_csv; returns (batch, meta)."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(_BATCH_MAGIC):
            raise ValueError(f"{path} is not a batch file")
        meta = json.loads(first[len(_BATCH_MAGIC):])
        # the column row, then the data rows
        lines = fh.read().splitlines()[1:]
    try:
        w = Window(*meta["window"])
        n = meta["n_replicates"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed batch header: {exc!r}") from exc
    # not isinstance: a JSON true loads as a bool, which is an int
    if type(n) is not int or n < 0:
        raise ValueError(f"{path}: n_replicates must be a nonnegative integer, got {n!r}")
    # before the rows are parsed or grouped into n replicates
    if n > _MAX_REPLICATES:
        raise ValueError(f"{path}: n_replicates = {n}, above the limit of {_MAX_REPLICATES}")
    ids, points = _parse_rows(path, lines, n)
    order = np.argsort(ids, kind="stable")
    ids, points = ids[order], points[order]
    # n + 1 pieces, the last one empty: every id is below n
    pieces = np.split(points, np.bincount(ids, minlength=n).cumsum())[:n]
    # one check for the batch, written so that a NaN fails it: every point in the
    # window and every replicate strictly increasing.  A batch that fails goes
    # through PointConfiguration, which sorts a replicate or says what is wrong
    trusted = points.size == 0 or (
        w.a <= points.min() and points.max() <= w.b
        and ((points[1:] > points[:-1]) | (ids[1:] != ids[:-1])).all()
    )
    if not trusted:
        return [PointConfiguration(p, w) for p in pieces], meta
    return [_unchecked(PointConfiguration, points=p.copy(), window=w) for p in pieces], meta
