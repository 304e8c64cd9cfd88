"""Empirical intensity, pair-correlation, and count statistics from
batches of point configurations.

The pair-correlation estimator histograms ordered pairwise distances
and normalizes by the analytic value of the same statistic for a
Poisson process of the batch's mean intensity on the same interval,
with the rectangular-window edge factor (b - a - r) per bin.
"""

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PcfEstimate:
    bin_edges: np.ndarray
    g_hat: np.ndarray
    stderr: np.ndarray
    n_replicates: int

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


def _common_window(batch):
    if not batch:
        raise ValueError("batch must be nonempty")
    w = batch[0].window
    for config in batch:
        if config.window != w:
            raise ValueError("all replicates must share the same window")
    return w


def estimate_intensity(batch, bins=20):
    """Per-bin rate estimate with stderr across replicates.

    Returns (bin_edges, rate, stderr); `bins` is a count or explicit edges.
    """
    w = _common_window(batch)
    edges = (
        np.linspace(w.a, w.b, bins + 1)
        if np.isscalar(bins)
        else np.asarray(bins, dtype=float)
    )
    widths = np.diff(edges)
    counts = np.array([np.histogram(c.points, edges)[0] for c in batch], dtype=float)
    rate = counts.mean(axis=0) / widths
    spread = counts.std(axis=0, ddof=1) if len(batch) > 1 else np.zeros(len(widths))
    stderr = spread / np.sqrt(len(batch)) / widths
    return edges, rate, stderr


def default_pcf_bins(window, n_bins: int = 50) -> np.ndarray:
    """Uniform bins over [0, window_length / 4]."""
    return np.linspace(0.0, window.length / 4.0, n_bins + 1)


def estimate_pcf(batch, bin_edges=None) -> PcfEstimate:
    """Pair-correlation estimate for a translation-invariant process."""
    w = _common_window(batch)
    if bin_edges is None:
        bin_edges = default_pcf_bins(w)
    edges = np.asarray(bin_edges, dtype=float)
    if edges[-1] > w.length:
        raise ValueError("bins extend beyond the window length")
    length = w.length
    reps = len(batch)

    counts = np.empty((reps, len(edges) - 1))
    total_points = 0
    for i, config in enumerate(batch):
        pts = config.points
        total_points += pts.size
        if pts.size < 2:
            counts[i] = 0.0
            continue
        iu, ju = np.triu_indices(pts.size, k=1)
        counts[i] = np.histogram(pts[ju] - pts[iu], edges)[0]

    lam = total_points / (reps * length)
    if lam == 0:
        raise ValueError("cannot normalize the pcf of an all-empty batch")
    # expected unordered pair count per bin for Poisson(lam): lam^2 * int_bin (L - r) dr
    r1, r2 = edges[:-1], edges[1:]
    norm = lam**2 * (length * (r2 - r1) - 0.5 * (r2**2 - r1**2))
    g = counts.mean(axis=0) / norm
    spread = counts.std(axis=0, ddof=1) if reps > 1 else np.zeros_like(norm)
    stderr = spread / np.sqrt(reps) / norm
    return PcfEstimate(edges, g, stderr, reps)


def count_statistics(batch) -> dict:
    """Across-replicate count mean, variance, and Fano factor."""
    _common_window(batch)
    counts = np.array([len(c) for c in batch], dtype=float)
    mean = counts.mean()
    variance = counts.var(ddof=1) if counts.size > 1 else 0.0
    fano = variance / mean if mean > 0 else float("nan")
    return {"mean": mean, "variance": variance, "fano": fano}


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
