"""Auxiliary variables: per-record nonnegative scores that steer sampling.

A sampling run never sees true outcomes; it sees one of these scores
(confidence-derived, surprise adequacy, or autoencoder reconstruction error)
assumed to correlate with failure probability.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChiVector",
    "ActivationTraces",
    "chi_from_confidence",
    "compute_dsa",
    "compute_lsa",
    "reconstruction_error",
    "min_max_normalize",
    "shift_positive",
    "selection_probabilities",
]


@dataclass
class ChiVector:
    """A scorer's result: named nonnegative auxiliary values, aligned to record ids."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("auxiliary values must be a flat vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("auxiliary values must be finite")
        if np.any(self.values < 0):
            raise ValueError("auxiliary values must be nonnegative")

    def __len__(self):
        return self.values.size


@dataclass
class ActivationTraces:
    """One activation-trace vector per record, plus predicted classes for DSA."""

    matrix: np.ndarray
    predicted_class: np.ndarray | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise ValueError("activation traces must be an N x L matrix with L >= 1")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("activation traces contain non-finite entries")
        if self.predicted_class is not None:
            self.predicted_class = np.asarray(self.predicted_class)
            if self.predicted_class.shape != (self.matrix.shape[0],):
                raise ValueError("one predicted class per trace required")


def chi_from_confidence(confidences) -> ChiVector:
    """chi = 1 - confidence; low confidence means high expected failure."""
    conf = np.asarray(confidences, dtype=float)
    if np.any(conf < 0) or np.any(conf > 1) or not np.all(np.isfinite(conf)):
        raise ValueError("confidence values must lie in [0, 1]")
    return ChiVector("confidence", 1.0 - conf)


_BLOCK_ELEMENTS = 1 << 15  # float64s in one block of score-matrix rows: 256 KB


def _row_blocks(n: int):
    """Consecutive row slices of an n x n matrix: memory is O(n) plus a block per thread."""
    step = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


_MAX_BLOCK_THREADS = 4  # a block in flight holds up to about 1.5 MB


def _each_block(n: int, work) -> None:
    """Call ``work(rows)`` for every slice of :func:`_row_blocks`, on up to 4 threads.

    Each call writes only its own rows of the outputs, and numpy releases
    the GIL inside its loops, so blocks run side by side.  Worker k of W
    takes blocks k, k+W, ... in order; a single worker runs on the calling
    thread.  After a block raises, the workers stop at their next block and
    the first exception is re-raised.
    """
    blocks = list(_row_blocks(n))
    workers = min(os.cpu_count() or 1, len(blocks), _MAX_BLOCK_THREADS)
    failed = []

    def run(k):
        for rows in blocks[k::workers]:
            if failed:
                return
            try:
                work(rows)
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                failed.append(exc)

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))
    if failed:
        raise failed[0]


def compute_dsa(ats: ActivationTraces) -> ChiVector:
    """Distance-based surprise: nearest-neighbour distance ratio sigma_A/sigma_B.

    sigma_A is the distance from a record's trace to its nearest neighbour
    with the same predicted class, sigma_B the distance to the nearest trace
    of any other class.  Records with sigma_A == 0 score 0; a degenerate
    sigma_B == 0 gets a large finite sentinel (10x the max finite score) so
    downstream PPS weights stay finite.
    """
    if ats.predicted_class is None:
        raise ValueError("DSA requires predicted classes")
    X = ats.matrix
    classes = ats.predicted_class
    n = X.shape[0]
    uniq, counts = np.unique(classes, return_counts=True)
    if uniq.size < 2:
        raise ValueError("DSA needs at least two predicted classes")
    if np.any(counts < 2):
        bad = uniq[counts < 2][0]
        raise ValueError(f"predicted class {bad!r} has a single member; sigma_A undefined")

    X = X - X.mean(axis=0)  # same distances; sq_i + sq_j - 2 x_i.x_j cancels less
    sq = np.sum(X * X, axis=1)
    sigma_a, sigma_b = np.empty(n), np.empty(n)

    def block(rows):
        d2 = sq[rows, None] + sq[None, :] - 2.0 * (X[rows] @ X.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2[:, rows.start:], np.inf)  # this block's part of the diagonal
        same = classes[rows, None] == classes[None, :]
        # sqrt is monotone and correctly rounded, so the root of a row's
        # least squared distance is its least distance, bit for bit.
        sigma_a[rows] = np.sqrt(np.min(np.where(same, d2, np.inf), axis=1))
        sigma_b[rows] = np.sqrt(np.min(np.where(same, np.inf, d2), axis=1))

    _each_block(n, block)

    values = np.zeros(n)
    zero_a = sigma_a == 0
    zero_b = sigma_b == 0
    regular = ~zero_a & ~zero_b
    values[regular] = sigma_a[regular] / sigma_b[regular]
    # sigma_A == 0 means an identical same-class trace exists: zero surprise.
    degenerate = zero_b & ~zero_a
    if np.any(degenerate):
        finite_max = values[regular].max() if np.any(regular) else 1.0
        values[degenerate] = 10.0 * max(finite_max, 1e-12)
        warnings.warn(
            f"{int(degenerate.sum())} record(s) share a trace with another class; "
            "DSA set to a large sentinel",
            stacklevel=2,
        )
    return ChiVector("dsa", values)


def compute_lsa(ats: ActivationTraces) -> ChiVector:
    """Likelihood-based surprise: -log of a leave-one-out Gaussian KDE, shifted nonnegative.

    Product Gaussian kernel with Scott's-rule bandwidth per dimension;
    dimensions whose variance falls below 1e-5 are dropped.
    The density exceeds 1 on concentrated traces, where -log density is
    negative, so the scores go through :func:`shift_positive`: a negative
    minimum adds ceil(|min|) to every score, which keeps their differences
    and puts the minimum in [0, 1).  Scores already nonnegative are unchanged.
    """
    X = ats.matrix
    n = X.shape[0]
    if n < 2:
        raise ValueError("LSA needs at least two records")
    var = X.var(axis=0)
    keep = var >= 1e-5
    if not np.any(keep):
        raise ValueError("all activation dimensions fell below the variance floor")
    X = X[:, keep]
    d = X.shape[1]
    bw = np.sqrt(var[keep]) * n ** (-1.0 / (d + 4))
    Z = (X - X.mean(axis=0)) / bw
    half_sq = 0.5 * np.sum(Z * Z, axis=1)

    log_norm = np.sum(np.log(bw * math.sqrt(2.0 * math.pi)))
    log_density = np.empty(n)

    def block(rows):
        # log K(i, j) = -|z_i - z_j|^2 / 2, diagonal excluded.  einsum, unlike
        # a BLAS matmul, gives a row the same bits whatever the block's shape.
        log_k = np.einsum("ik,jk->ij", Z[rows], Z)
        log_k -= half_sq[rows, None]
        log_k -= half_sq[None, :]
        np.minimum(log_k, 0.0, out=log_k)
        np.fill_diagonal(log_k[:, rows.start:], -np.inf)
        log_density[rows] = logsumexp(log_k, axis=1) - math.log(n - 1) - log_norm

    _each_block(n, block)
    return ChiVector("lsa", shift_positive(-log_density))


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the maximum so no exp overflows.

    Every slice must hold a finite maximum.
    """
    top = np.max(a, axis=axis, keepdims=True)
    total = np.sum(np.exp(a - top), axis=axis)
    return np.log(total) + np.squeeze(top, axis=axis)


def reconstruction_error(original, reconstructed) -> float:
    """Mean squared per-element difference between an image and its reconstruction."""
    a = np.asarray(original, dtype=float)
    b = np.asarray(reconstructed, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def min_max_normalize(values) -> np.ndarray:
    """Affine rescale to [0, 1]; requires a non-constant input."""
    x = np.asarray(values, dtype=float)
    lo, hi = x.min(), x.max()
    if hi <= lo:
        raise ValueError("cannot min-max normalize a constant vector")
    return (x - lo) / (hi - lo)


def shift_positive(values) -> np.ndarray:
    """Shift by ceil(|min|) when any value is negative; preserves differences."""
    x = np.asarray(values, dtype=float)
    lo = x.min() if x.size else 0.0
    if lo >= 0:
        return x.copy()
    return x + math.ceil(abs(lo))


def selection_probabilities(chi) -> np.ndarray:
    """Normalize chi into PPS selection probabilities summing to 1.

    If any value is exactly zero, a floor of ``1e-9 * max(chi)`` is
    added to every value first: the unequal-probability estimators are only
    unbiased over the whole population when every record is selectable.  So
    chi whose range is too wide for that, where a probability rounds to 0,
    is refused.
    """
    values = np.asarray(chi, dtype=float)
    if np.any(values < 0):
        raise ValueError("chi values must be nonnegative")
    top = values.max() if values.size else 0.0
    if top <= 0:
        raise ValueError("all-zero chi vector")
    if values.min() == 0:
        values = values + 1e-9 * top
    pi = values / values.sum()
    if pi.min() == 0:
        raise ValueError("chi values span too wide a range: a selection probability rounds to 0")
    return pi
