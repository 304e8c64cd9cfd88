"""Exact combinatorial and linear-algebra primitives.

Determinants, permanents, alpha-determinants, enumeration of pair
contractions, and the Wick expansion of an even product of ladder
operators into a signed sum over contractions.

The permanent (Glynn's formula) and the alpha-determinant are exact
enumerations vectorised in numpy blocks: up to 2^12 sign patterns at a
time for the permanent, whose product over rows is taken one row at a
time and in real arithmetic for a real matrix; one block of (n-1)!
permutations per placement of the last index for the alpha-determinant.
Their caps, PERMANENT_MAX_DIM = 24 and ALPHA_DET_MAX_DIM = 10, keep a
call near one second or below.  The contractions of each order are one
table, built once from the order below and shared; the Wick expansion
gathers every pair moment of every contraction in one step.  At
CONTRACTION_MAX_ORDER = 14 the table holds 135,135 records (2 MB, built
in about 20 ms) and an expansion takes about 40 ms with a 19 MB gather
on one core; order 16 has 15x the records, takes 0.6 s and peaks near
310 MB.
"""

import functools

import numpy as np

from .kernels import _check_eta

PERMANENT_MAX_DIM = 24
ALPHA_DET_MAX_DIM = 10
CONTRACTION_MAX_ORDER = 14
_GLYNN_BLOCK_BITS = 12  # sign patterns enumerated per numpy block: 2^12


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def determinant(m) -> complex:
    """Determinant via pivoted LU elimination; singular matrices return 0."""
    return complex(np.linalg.det(_as_square(m)))


def _signed_sums(columns: np.ndarray):
    """Row sums sum_j d_j columns[:, j] over every sign vector d, and prod_j d_j.

    Pattern k takes d_j = -1 where bit j of k is set.  The table doubles
    once per column: O(rows 2^columns) additions and no matmul.
    """
    rows, bits = columns.shape
    sums = np.zeros((rows, 2**bits), dtype=columns.dtype)
    signs = np.ones(2**bits)
    for j in range(bits):
        half = 2**j
        sums[:, half : 2 * half] = sums[:, :half] - columns[:, j : j + 1]
        sums[:, :half] += columns[:, j : j + 1]
        signs[half : 2 * half] = -signs[:half]
    return sums, signs


def permanent(m) -> complex:
    """Permanent by Glynn's formula.

    perm A = 2^-(n-1) sum over sign vectors d with d_0 = +1 of
    (prod_k d_k) prod_i sum_j d_j a_ij.  The free signs split into up to
    _GLYNN_BLOCK_BITS "low" columns and the remaining "high" ones; a
    table per part holds the row sums of every low and every high
    pattern, and a Python loop over the high patterns takes the product
    over rows of each block of low patterns, one in-place multiply per
    row.  A matrix without imaginary part runs in real arithmetic.
    O(n 2^n) work; unlike Ryser's formula the terms carry no binomial
    cancellation: on unit upper-triangular 16 x 16 matrices (permanent 1)
    the error stays below 2e-13, where Ryser's reaches 1e-9.  Dimensions
    above PERMANENT_MAX_DIM are rejected: at n = 24 a call takes about
    0.2 s for a real and 0.35 s for a complex matrix on one core, and the
    cost grows 2x per added row.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n > PERMANENT_MAX_DIM:
        raise ValueError(f"permanent limited to dim <= {PERMANENT_MAX_DIM}, got {n}")
    if n == 0:
        return 1 + 0j
    if not a.imag.any():
        a = a.real
    low = min(n - 1, _GLYNN_BLOCK_BITS)
    low_sums, low_sign = _signed_sums(a[:, 1 : low + 1])
    low_sums += a[:, :1]  # d_0 = +1
    high_sums, high_sign = _signed_sums(a[:, low + 1 :])
    prod = np.empty(2**low, dtype=a.dtype)
    factor = np.empty_like(prod)
    total = 0.0
    for s, h in zip(high_sign, high_sums.T):
        np.add(low_sums[0], h[0], out=prod)
        for i in range(1, n):
            np.add(low_sums[i], h[i], out=factor)
            prod *= factor
        total += s * (low_sign @ prod)
    return complex(total / 2 ** (n - 1))


def _grow_permutations(table: np.ndarray, cycles: np.ndarray):
    """Extend the permutations of {0..m-1} to {0..m} ("Chinese restaurant").

    `table[i]` holds sigma(i) over all permutations, one per column, and
    `cycles` their cycle counts.  The new element m is either a new fixed
    point (one more cycle) or spliced in after some j, sigma'(j) = m and
    sigma'(m) = sigma(j) (same cycles).
    """
    m, k = table.shape
    out = np.empty((m + 1, (m + 1) * k), dtype=table.dtype)
    out[:m, :k] = table
    out[m, :k] = m
    for j in range(m):
        block = slice((j + 1) * k, (j + 2) * k)
        out[:m, block] = table
        out[j, block] = m
        out[m, block] = table[j]
    return out, np.concatenate([cycles + 1] + [cycles] * m)


def alpha_determinant(m, alpha: float) -> complex:
    """sum over permutations of alpha^(n - #cycles) * prod_i m[i, sigma(i)].

    alpha=-1 reproduces the determinant, alpha=+1 the permanent, and
    alpha=0 keeps only the identity permutation (product of the
    diagonal).  Explicit enumeration: the (n-1)! permutations of the
    first n-1 indices are tabulated with their cycle counts, and each of
    the n ways to place the last index is summed as one numpy block,
    its row products taken column by column.  Capped at
    ALPHA_DET_MAX_DIM (about 0.1 s and 25 MB at n = 10).
    """
    a = _as_square(m)
    n = a.shape[0]
    if n > ALPHA_DET_MAX_DIM:
        raise ValueError(f"alpha-determinant limited to dim <= {ALPHA_DET_MAX_DIM}, got {n}")
    if n == 0:
        return 1 + 0j
    table, cycles = np.empty((0, 1), dtype=np.int8), np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        table, cycles = _grow_permutations(table, cycles)
    powers = np.array([alpha**k for k in range(n + 1)])
    last = n - 1
    # the last index as a fixed point: one more cycle
    prod = np.full(table.shape[1], a[last, last])
    for i in range(last):
        prod *= a[i, table[i]]
    total = powers[last - cycles] @ prod
    # the last index spliced in after j: sigma'(j) = last, sigma'(last) = sigma(j)
    weight = powers[n - cycles]
    for j in range(last):
        prod = a[j, last] * a[last, table[j]]
        for i in range(last):
            if i != j:
                prod *= a[i, table[i]]
        total += weight @ prod
    return complex(total)


def enumerate_contractions(n: int) -> np.ndarray:
    """All (n-1)!! contractions of order n, as one shared read-only table.

    One record per contraction: `pairs`, the (n/2, 2) int8 pairs of
    {0..n-1} with increasing first elements and each pair (low, high),
    and `parity`, the signature of the flattened pair sequence.  Rejects
    odd n and n above CONTRACTION_MAX_ORDER.
    """
    if n <= 0 or n % 2:
        raise ValueError(f"contraction order must be even and positive, got {n}")
    if n > CONTRACTION_MAX_ORDER:
        raise ValueError(f"contraction order limited to {CONTRACTION_MAX_ORDER}, got {n}")
    return _contraction_table(n)


@functools.cache
def _contraction_table(n: int) -> np.ndarray:
    """The records of enumerate_contractions(n), built from order n - 2.

    Index 0 is paired with its k-th partner k + 1 (k = 0, 1, ...), and the
    remaining indices are paired as every contraction of order n - 2,
    relabelled.  That moves the partner across k others in the flattened
    sequence, so the parity picks up a factor (-1)^k.
    """
    dtype = np.dtype([("pairs", np.int8, (n // 2, 2)), ("parity", np.int8)])
    if n == 0:
        table = np.ones(1, dtype)
    else:
        rest = _contraction_table(n - 2)
        table = np.empty((n - 1) * len(rest), dtype)
        for k, block in enumerate(np.split(table, n - 1)):
            block["pairs"][:, 0] = (0, k + 1)
            block["pairs"][:, 1:] = np.delete(np.arange(1, n), k)[rest["pairs"]]
            block["parity"] = rest["parity"] * (-1) ** k
    table.flags.writeable = False
    return table


def wick_expand(pair_table, eta: int) -> complex:
    """Wick expansion: sum over contractions of eta^parity times pair moments.

    `pair_table[i, j]` holds the two-point average of operators i and j
    (only i < j entries are used); its entries must be finite.  Odd-sized
    tables return exactly 0, since creation and annihilation numbers
    cannot match.  Every contraction's pair moments are gathered at once
    and multiplied along each record.
    """
    _check_eta(eta)
    t = _as_square(pair_table)
    n = t.shape[0]
    if n == 0:
        return 1 + 0j
    if n % 2:
        return 0j
    table = enumerate_contractions(n)
    pairs = table["pairs"]
    terms = t[pairs[..., 0], pairs[..., 1]].prod(axis=1)
    return complex(terms @ np.where(table["parity"] == 1, 1, eta))
