"""Empirical pair correlation of batches of point configurations.

The pair-correlation estimator histograms ordered pairwise distances
and normalizes by the analytic value of the same statistic for a
Poisson process of the batch's mean intensity on the same interval,
with the rectangular-window edge factor (b - a - r) per bin.

The pair histogram runs over the whole batch at once.  The points of every
replicate are laid end to end in one array, each replicate's strictly
increasing points followed by one +inf, with a replicate index per entry.
The pair count sweeps the lag k = 1, 2, ...: the distances
flat[i + k] - flat[i] of one lag are binned together, and a left end i
leaves the sweep once its distance passes the last edge.  Within a
replicate the distance only grows with k, and the +inf ends the sweep of
every i before i + k reaches the next replicate, so only the pairs within
the last edge are formed, one lag at a time.

The bins are uniform over [0, rmax], the edges np.linspace(0, rmax, bins + 1),
each bin [e_m, e_m+1) with the last one closed on the right, as
`np.histogram` bins them.  `estimate_pcf` builds them and refuses, before any
edge or count is allocated, a bin count or rmax that cannot make them: it
caps the (replicates, bins) table of pair counts too.
`expected_pcf` is the theory side: what `estimate_pcf` expects in each bin
for the Lorentz-line permanental process, in closed form.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .samplers import _is_integer, batch_window

# most entries of the (replicates, bins) pair-count table of `estimate_pcf`, which
# peaks at about 17 bytes per entry: about 270 MiB at the limit
_MAX_PCF_COUNTS = 2**24


@dataclass(frozen=True)
class PcfEstimate:
    bin_edges: np.ndarray
    g_hat: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        g = np.asarray(self.g_hat, dtype=float)
        s = np.asarray(self.stderr, dtype=float)
        if not (len(edges) - 1 == len(g) == len(s)):
            raise ValueError("inconsistent bin/estimate lengths")
        if np.any(g < 0):
            raise ValueError("pair correlation estimates must be nonnegative")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "g_hat", g)
        object.__setattr__(self, "stderr", s)

    @property
    def r_mid(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _flat_points(batch):
    """The points of every replicate end to end, each replicate followed by one
    +inf, and the replicate index of every entry."""
    stop = np.array([np.inf])
    flat = np.concatenate([a for c in batch for a in (c.points, stop)])
    rid = np.repeat(np.arange(len(batch)), [len(c) + 1 for c in batch])
    return flat, rid


def _bin_index(edges):
    """The map values -> np.searchsorted(edges[:-1], values, side="right") for
    the uniform edges np.linspace(0, rmax, bins + 1): a value's bin plus one, 0
    for a negative value.

    The index is guessed from the bin width and then moved by at most one, after
    one comparison with the edge on each side; the guess is off by at most one,
    since only a few roundings separate it from the exact quotient.
    """
    m = edges.size
    # the guess stays in [0, m - 2]; only the step up reaches m - 1
    below = np.concatenate([[-np.inf], edges[:-2]])
    above = edges[:-1]
    per_width = (m - 1) / edges[-1]

    def index(values):
        q = values * per_width
        q += 1.0
        np.clip(q, 0, m - 2, out=q)
        b = q.astype(np.intp)
        b -= values < below[b]
        b += values >= above[b]
        return b

    return index


def _pair_counts(flat, rid, edges, reps: int) -> np.ndarray:
    """(reps, bins) counts of the distances between the points of each replicate
    in the layout of `_flat_points`, one lag k at a time.

    A left end i stays while flat[i + k] - flat[i] <= edges[-1]; it meets the
    +inf after its replicate before it could reach the next replicate.
    """
    counts = np.zeros(reps * (edges.size - 1), dtype=np.int64)
    base = rid * (edges.size - 1)
    index = _bin_index(edges)
    i = np.flatnonzero(flat < np.inf)
    k = 1
    while i.size:
        d = flat[i + k]
        d -= flat[i]
        near = d <= edges[-1]
        i = i[near]
        # every distance is > 0, so its bin plus one is at least 1
        b = index(d[near])
        b += base[i]
        b -= 1
        counts += np.bincount(b, minlength=counts.size)
        k += 1
    return counts.reshape(reps, -1)


def estimate_pcf(batch, bins: int = 50, rmax: float | None = None) -> PcfEstimate:
    """Pair-correlation estimate for a translation-invariant process over `bins`
    uniform bins of [0, rmax]; rmax defaults to the window length / 4."""
    length = batch_window(batch).length
    reps = len(batch)
    if not _is_integer(bins) or bins < 1:
        raise ValueError(f"bins must be an integer of at least 1, got {bins!r}")
    # Python numbers, so that bins / rmax below overflows to inf without a warning
    bins, rmax = int(bins), float(length / 4.0 if rmax is None else rmax)
    if not 0 < rmax < np.inf:
        raise ValueError(f"rmax must be positive and finite, got {rmax!r}")
    if rmax > length:
        raise ValueError("bins extend beyond the window length")
    if bins * reps > _MAX_PCF_COUNTS:
        raise ValueError(
            f"{bins} bins x {reps} replicates = {bins * reps} pair counts, above the "
            f"limit of {_MAX_PCF_COUNTS}"
        )
    # a bin of zero width has no Poisson normalisation, and `_bin_index` bins by the
    # factor bins / rmax.  A finite factor makes the step rmax / bins at least
    # 2^-1024, far above the rounding of any of the (at most 2^24) edges i * step,
    # so that it also gives every bin a positive width
    if not bins / rmax < np.inf:
        raise ValueError(f"rmax = {rmax!r} is too small for {bins} bins: each bin "
                         "must have a positive width, and bins / rmax must be finite")
    edges = np.linspace(0.0, rmax, bins + 1)

    flat, rid = _flat_points(batch)
    counts = _pair_counts(flat, rid, edges, reps).astype(float)

    # every replicate ends in one +inf
    lam = (flat.size - reps) / (reps * length)
    if lam == 0:
        raise ValueError("cannot normalize the pcf of an all-empty batch")
    # expected unordered pair count per bin for Poisson(lam): lam^2 * int_bin (L - r) dr
    r1, r2 = edges[:-1], edges[1:]
    norm = lam**2 * (length * (r2 - r1) - 0.5 * (r2**2 - r1**2))
    g = counts.mean(axis=0) / norm
    spread = counts.std(axis=0, ddof=1) if reps > 1 else np.zeros_like(norm)
    stderr = spread / np.sqrt(reps) / norm
    return PcfEstimate(edges, g, stderr)


# Taylor coefficients, highest power first, of (1 - (1 + x) e^-x) / x^2, whose closed
# form cancels as x -> 0: below x = 0.05 these eight terms err by less than 1e-16
_PHI2_TAYLOR = [(-1) ** k * (k + 1) / math.factorial(k + 2) for k in reversed(range(8))]


def expected_pcf(edges, length: float, sigma: float) -> np.ndarray:
    """What `estimate_pcf` expects in each bin for the permanental process of
    envelope time sigma (finite, > 0) on a window of `length` L: the bin average
    of g(r) = 1 + exp(-2r/sigma) (Macchi 1975) weighted by (L - r), the edge
    factor of its Poisson normalisation."""
    edges = np.asarray(edges, dtype=float)
    r1, h = edges[:-1], np.diff(edges)
    m = length - r1
    # int_bin (L - r) exp(-2r/s) dr = h exp(-2 r1/s) (m phi1(x) - h phi2(x)), x = 2h/s,
    # with phi1 = (1 - e^-x) / x and phi2 = (phi1 - e^-x) / x, both positive with no
    # cancellation between their terms.  2h/s and 2 r1/s are capped at 2e20, so that
    # neither overflows (g - 1 < 1e-20 rounds to 0 either way), and x is kept above
    # 1e-300, where phi1 = 1 and phi2 = 1/2 to the last bit, so that phi1 is not 0/0
    x = np.maximum(2 * h / np.maximum(sigma, h * 1e-20), 1e-300)
    phi1 = -np.expm1(-x) / x
    phi2 = np.where(x < 0.05, np.polyval(_PHI2_TAYLOR, x), (phi1 - np.exp(-x)) / x)
    decay = np.exp(-2 * r1 / np.maximum(sigma, r1 * 1e-20))
    return 1.0 + decay * (m * phi1 - h * phi2) / (m - h / 2)


def pcf_to_csv(path, estimate: PcfEstimate, g_theory=None, header: str = ""):
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header if header.endswith("\n") else header + "\n")
        writer = csv.writer(fh)
        cols = ["r_mid", "g_hat", "stderr"] + (["g_theory"] if g_theory is not None else [])
        writer.writerow(cols)
        for i, r in enumerate(estimate.r_mid):
            row = [repr(float(r)), repr(float(estimate.g_hat[i])), repr(float(estimate.stderr[i]))]
            if g_theory is not None:
                row.append(repr(float(g_theory[i])))
            writer.writerow(row)
