"""Scalar robust location estimators and element-wise vector aggregation.

Every aggregation rule in this package is element-wise: an estimator of
location is applied independently to each coordinate of the exchanged
weight vectors.  The M-estimators (Talwar and biweight Tukey) are solved
by a fixed-point iteration started from the median, with the scale held
fixed at the normalized median absolute deviation of the input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Gaussian consistency factor: multiplies the raw MAD so it estimates the
# standard deviation of normal data.  The 95%-efficiency tuning constants
# below assume a Gaussian-consistent scale.
MAD_NORMALIZATION = 1.4826

# Tuning values at which each family reaches ~95% Gaussian efficiency.
TRIM_ALPHA_95 = 0.0688
TALWAR_C_95 = 2.7955
TUKEY_C_95 = 4.685

# The M-estimation fixed point stops once every column's step is within
# FIXED_POINT_TOL scales, or after FIXED_POINT_MAX_ITER reweighted means.
FIXED_POINT_TOL = 1e-9
FIXED_POINT_MAX_ITER = 100


class AggregatorKind(enum.Enum):
    SAMPLE_MEAN = "sample_mean"
    MEDIAN = "median"
    TRIMMED_MEAN = "trimmed_mean"
    TALWAR = "talwar"
    TUKEY = "tukey"


M_ESTIMATOR_KINDS = frozenset({AggregatorKind.TALWAR, AggregatorKind.TUKEY})


@dataclass(frozen=True)
class AggregatorSpec:
    """An aggregation rule plus its tuning parameters.

    ``alpha`` is the per-side trim fraction (trimmed mean only), ``c`` the
    rejection constant of the M-estimators.  The defender runs this spec and
    an SCM attack is crafted against it.
    """

    kind: AggregatorKind
    alpha: float = 0.0
    c: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is AggregatorKind.TRIMMED_MEAN and not 0.0 <= self.alpha < 0.5:
            raise ValueError(f"trim fraction must lie in [0, 0.5), got {self.alpha}")
        if self.kind in M_ESTIMATOR_KINDS and self.c <= 0.0:
            raise ValueError(f"tuning constant c must be positive, got {self.c}")

    @property
    def label(self) -> str:
        return self.kind.value

    @staticmethod
    def sample_mean() -> "AggregatorSpec":
        return AggregatorSpec(AggregatorKind.SAMPLE_MEAN)

    @staticmethod
    def median() -> "AggregatorSpec":
        return AggregatorSpec(AggregatorKind.MEDIAN)

    @staticmethod
    def trimmed_mean(alpha: float = TRIM_ALPHA_95) -> "AggregatorSpec":
        return AggregatorSpec(AggregatorKind.TRIMMED_MEAN, alpha=alpha)

    @staticmethod
    def talwar(c: float = TALWAR_C_95) -> "AggregatorSpec":
        return AggregatorSpec(AggregatorKind.TALWAR, c=c)

    @staticmethod
    def tukey(c: float = TUKEY_C_95) -> "AggregatorSpec":
        return AggregatorSpec(AggregatorKind.TUKEY, c=c)


def tuned_aggregators() -> list[AggregatorSpec]:
    """The five standard rules, tuned for 95% efficiency, in trace-column order."""
    return [
        AggregatorSpec.sample_mean(),
        AggregatorSpec.trimmed_mean(),
        AggregatorSpec.talwar(),
        AggregatorSpec.tukey(),
        AggregatorSpec.median(),
    ]


def _as_samples(values) -> np.ndarray:
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        raise ValueError("sample set is empty")
    if not np.isfinite(a).all():
        raise ValueError("sample set contains non-finite values")
    return a


def _column_median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=0)`` for a finite array, bit for bit.

    The middle order statistics come from one ``np.partition``; the sum
    starts from 0.0 as ``np.median``'s mean does, so a -0.0 middle value
    comes out as +0.0 whichever zero the partition put there.
    """
    n = a.shape[0]
    h = n // 2
    if n % 2:
        return 0.0 + np.partition(a, h, axis=0)[h]
    part = np.partition(a, (h - 1, h), axis=0)
    return (0.0 + part[h - 1] + part[h]) / 2


def median_and_scale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column medians of a (samples, columns) array and the normalized MADs.

    The scale is the median absolute deviation about the median times
    1.4826: the defender's fixed M-estimation scale, and the one the
    M-estimator attack reads.
    """
    med = _column_median(a)
    return med, MAD_NORMALIZATION * _column_median(np.abs(a - med))


def mad(values, normalized: bool = False) -> float:
    """Median absolute deviation from the median.

    With ``normalized=True`` the raw MAD is multiplied by 1.4826 so that it
    is consistent for the standard deviation under Gaussian data.
    """
    a = _as_samples(values)
    if normalized:
        return float(median_and_scale(a)[1])
    return float(_column_median(np.abs(a - _column_median(a))))


def trim_count(n: int, alpha: float) -> int:
    """Number of samples discarded per side: floor(alpha * n)."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"trim fraction must lie in [0, 0.5), got {alpha}")
    return int(alpha * n)


def psi(kind: AggregatorKind, x, c: float):
    """Influence function ψ of the M-estimators.

    Talwar passes x through inside [-c, c] and rejects outside; biweight
    Tukey tapers as x(1 - x^2/c^2)^2 inside and rejects outside.  Accepts
    scalars or arrays.
    """
    if kind not in M_ESTIMATOR_KINDS:
        raise ValueError(f"psi is defined for Talwar/Tukey only, got {kind}")
    if c <= 0.0:
        raise ValueError("tuning constant c must be positive")
    arr = np.asarray(x, dtype=float)
    w = _psi_weights(kind, arr, c)
    # A rejected residual has weight 0 and psi 0, an infinite one too,
    # whose product with the weight would be NaN.
    out = np.multiply(arr, w, out=np.zeros_like(w), where=w != 0.0)
    return float(out) if np.isscalar(x) else out


def _psi_weights(kind: AggregatorKind, r: np.ndarray, c: float) -> np.ndarray:
    # psi(r)/r with the limit value 1 at r = 0, for both families.
    inside = np.abs(r) <= c
    if kind is AggregatorKind.TALWAR:
        return inside.astype(float)
    u = np.where(inside, 1.0 - (r / c) ** 2, 0.0)
    return u * u


def _m_estimate_columns(
    a: np.ndarray, kind: AggregatorKind, c: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Column-wise M-estimation on a (samples, columns) matrix.

    Each column's location is the zero of sum(psi((y - mu)/sigma)), with the
    scale sigma held at the column's normalized MAD.  The iteration is the
    reweighted mean sum(w*y)/sum(w) with w = psi(r)/r, started from the
    median.  Returns (locations, converged flags, iterations used).  Columns
    with a zero scale estimate return the median directly.  Columns whose
    samples are all rejected, or that are still moving after
    ``FIXED_POINT_MAX_ITER`` steps, keep their last iterate and are flagged
    non-converged.
    """
    # Summation order is part of the result.  The numerator sums a
    # fancy-indexed copy, each column pairwise; the denominator ``w.sum``
    # and the final residual follow ``a``'s layout: pairwise per column when
    # ``a`` has one column or is column-major, row by row when it is
    # row-major with two or more columns.  A column therefore gets the same
    # bits inside a wider call of the same layout (simulation.combine
    # relies on this), but not with rows padded on.
    n, m = a.shape
    med, sigma = median_and_scale(a)
    loc = med.copy()
    degenerate = sigma == 0.0
    safe_sigma = np.where(degenerate, 1.0, sigma)
    done = degenerate.copy()
    all_rejected = np.zeros(m, dtype=bool)
    iterations = 0
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        if done.all():
            iterations -= 1
            break
        r = (a - loc) / safe_sigma
        w = _psi_weights(kind, r, c)
        wsum = w.sum(axis=0)
        dead = ~done & (wsum == 0.0)
        all_rejected |= dead
        done |= dead
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        new = (w[:, active] * a[:, active]).sum(axis=0) / wsum[active]
        step = np.abs(new - loc[active])
        loc[active] = new
        done[active[step <= FIXED_POINT_TOL * sigma[active]]] = True
    r = (a - loc) / safe_sigma
    residual = np.abs(psi(kind, r, c).sum(axis=0))
    converged = degenerate | (~all_rejected & (residual <= n * FIXED_POINT_TOL))
    return loc, converged, iterations


class AggregationResult(NamedTuple):
    values: np.ndarray
    converged: bool


def aggregate_matrix(spec: AggregatorSpec, matrix) -> AggregationResult:
    """Apply the chosen scalar estimator to every column of ``matrix``.

    ``matrix`` has one row per received vector and one column per model
    coordinate.  ``converged`` is False only when an M-estimation column
    failed to converge.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D (vectors, coordinates) array, got ndim={a.ndim}")
    n = a.shape[0]
    if n == 0:
        raise ValueError("cannot aggregate an empty collection of vectors")
    if not np.isfinite(a).all():
        raise ValueError("aggregation input contains non-finite values")
    kind = spec.kind
    if kind is AggregatorKind.SAMPLE_MEAN:
        return AggregationResult(a.mean(axis=0), True)
    if kind is AggregatorKind.MEDIAN:
        return AggregationResult(_column_median(a), True)
    if kind is AggregatorKind.TRIMMED_MEAN:
        t = trim_count(n, spec.alpha)
        if n - 2 * t < 1:
            raise ValueError("trimming would discard every sample")
        s = np.sort(a, axis=0)
        return AggregationResult(s[t : n - t].mean(axis=0), True)
    loc, conv, _ = _m_estimate_columns(a, kind, spec.c)
    return AggregationResult(loc, bool(conv.all()))


def estimate(spec: AggregatorSpec, values) -> float:
    """Apply an aggregation rule to a scalar sample set.

    The one scalar entry point: the sample mean, median and trimmed mean are
    ``estimate`` with the matching ``AggregatorSpec``.
    """
    a = _as_samples(values)
    return float(aggregate_matrix(spec, a[:, None]).values[0])


# The efficiency check's confidence band comes from this many disjoint
# batches; its draws are made this many trials at a time.
EFFICIENCY_CI_BATCHES = 20
EFFICIENCY_CHUNK = 20000


class EfficiencyRow(NamedTuple):
    label: str
    variance_ratio: float
    ci_low: float
    ci_high: float


def monte_carlo_efficiency(
    specs: Sequence[AggregatorSpec],
    trials: int,
    sample_size: int,
    seed: int,
) -> list[EfficiencyRow]:
    """Gaussian efficiency of each estimator relative to the sample mean.

    Draws ``trials`` standard-normal samples of length ``sample_size``,
    shared across estimators, and reports var(sample mean)/var(estimator)
    with a normal-theory confidence band from ``EFFICIENCY_CI_BATCHES``
    disjoint batches.
    """
    if trials < EFFICIENCY_CI_BATCHES:
        raise ValueError("trials must be at least the number of CI batches")
    rng = np.random.default_rng(seed)
    values = [np.empty(trials) for _ in specs]
    mean_values = np.empty(trials)
    start = 0
    while start < trials:
        stop = min(start + EFFICIENCY_CHUNK, trials)
        draws = rng.standard_normal((sample_size, stop - start))
        mean_values[start:stop] = draws.mean(axis=0)
        for s, out in zip(specs, values):
            out[start:stop] = aggregate_matrix(s, draws).values
        start = stop
    edges = np.linspace(0, trials, EFFICIENCY_CI_BATCHES + 1).astype(int)
    rows = []
    for s, est in zip(specs, values):
        ratio = float(np.var(mean_values) / np.var(est))
        per_batch = np.array(
            [
                np.var(mean_values[lo:hi]) / np.var(est[lo:hi])
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        half = 1.96 * per_batch.std(ddof=1) / np.sqrt(EFFICIENCY_CI_BATCHES)
        rows.append(EfficiencyRow(s.label, ratio, ratio - half, ratio + half))
    return rows
