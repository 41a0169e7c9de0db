"""Scalar robust location estimators and element-wise vector aggregation.

Every aggregation rule in this package is element-wise: an estimator of
location is applied independently to each coordinate of the exchanged
weight vectors.  The M-estimators (Talwar and biweight Tukey) hold the
scale fixed at the normalized median absolute deviation of the input and
solve for the location by Newton's method on sum(psi), in units of that
scale, started from the median; where Newton's step is not trusted, which
only Tukey's redescending psi reaches, the step is the reweighted mean's.
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

# The M-estimation iteration stops once every column's step is within
# FIXED_POINT_TOL scales, or after FIXED_POINT_MAX_ITER steps.
FIXED_POINT_TOL = 1e-9
FIXED_POINT_MAX_ITER = 100
# M-estimation runs this many columns at a time: a 100-row block's
# per-step temporaries stay in cache, and each block stops as soon as its
# own slowest column settles.
_BLOCK_COLUMNS = 512


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
        if self.kind in M_ESTIMATOR_KINDS:
            _check_positive("tuning constant c", self.c)

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


def _check_positive(name: str, value: float) -> None:
    # NaN fails both comparisons.
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_count(value, name: str):
    """``value`` as a whole number of at least 1, or an int array of them.

    A bool, a fraction or a non-number raises ``ValueError`` naming ``name``
    instead of reaching NumPy as a shape or a silently truncated index.
    """
    a = np.asarray(value)
    whole = a.dtype.kind in "iu" or (
        a.dtype.kind == "f" and np.isfinite(a).all() and (np.floor(a) == a).all()
    )
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if (a < 1).any():
        raise ValueError(f"{name} must be at least 1, got {value!r}")
    return a.astype(int) if a.ndim else int(a)


def _one_count(value, name: str) -> int:
    # One whole number of at least 1: a list or an array raises ValueError
    # naming ``name`` instead of reaching NumPy as a scalar index.
    if np.ndim(value):
        raise ValueError(f"{name} must be one whole number, got {value!r}")
    return _check_count(value, name)


@dataclass(frozen=True, eq=False)
class Layout:
    """Which rows of a (rows, columns) matrix hold each column's values:
    column j's first ``counts[j]``, above padding that may hold anything.

    ``valid`` masks the counted rows, None when every row counts.  Built and
    validated once by ``Layout.of``; a call on a matrix checks only its
    shape and the finiteness of its counted rows.
    """

    rows: int
    counts: np.ndarray
    valid: np.ndarray | None

    @staticmethod
    def of(shape: tuple[int, int], counts, name: str) -> "Layout":
        """The layout of a ``shape`` matrix with ``counts``, one whole number of
        at least 1 per column and at most the rows, else ValueError naming ``name``."""
        n, m = shape
        counts = _check_count(counts, name)
        if np.shape(counts) != (m,):
            raise ValueError(
                f"{name} must hold one count per column ({m}), got shape {np.shape(counts)}"
            )
        if (counts > n).any():
            raise ValueError(f"{name} must not exceed the {n} rows, got {counts.max()}")
        valid = np.arange(n)[:, None] < counts
        return Layout(n, counts, None if valid.all() else valid)


def _as_matrix(matrix, layout: Layout | None) -> tuple[np.ndarray, Layout]:
    # ``matrix`` as a C-contiguous float (rows, columns) array with at least
    # one row, and ``layout``, or every row counted, once the matrix fits it
    # with finite counted rows: the one check of aggregation and crafting input.
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D (rows, columns) array, got ndim={a.ndim}")
    a = np.ascontiguousarray(a)
    n, m = a.shape
    if n == 0:
        raise ValueError("expected at least one row, got an empty matrix")
    if layout is None:
        layout = Layout(n, np.full(m, n), None)
    elif (layout.rows, layout.counts.size) != (n, m):
        raise ValueError(f"layout is for a {layout.rows}x{layout.counts.size} matrix, got {n}x{m}")
    finite = np.isfinite(a) if layout.valid is None else np.isfinite(a) | ~layout.valid
    if not finite.all():
        raise ValueError("non-finite values in the counted rows")
    return a, layout


def tuned_aggregators() -> list[AggregatorSpec]:
    """The five standard rules, tuned for 95% efficiency, in trace-column order."""
    return [
        AggregatorSpec.sample_mean(),
        AggregatorSpec.trimmed_mean(),
        AggregatorSpec.talwar(),
        AggregatorSpec.tukey(),
        AggregatorSpec.median(),
    ]


def _as_column(values) -> tuple[np.ndarray, Layout]:
    # A sample set of any shape as one (n, 1) column, checked as a matrix.
    return _as_matrix(np.reshape(values, (-1, 1)), None)


def _column_median(a: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Column medians of a (rows, columns) array, each of its counted rows.

    Column j holds ``counts[j]`` finite values and +inf padding in its
    other rows, and gets ``np.median`` of its values alone, bit for bit
    (a column of all its rows passes the row count).  The middle order
    statistics are read by rank from one ``np.sort(axis=0)``: sorting is
    exact and the padding sorts last, so it changes no rank below a
    column's count.  A count may exceed the stored rows, counting +inf
    values past them, while its middle ranks fall on finite values.  The
    sum starts from 0.0 as ``np.median``'s mean does, so a -0.0 middle
    value comes out as +0.0 whichever zero the sort put there.  Where the
    two middle values' sum overflows, their midpoint is lo/2 + hi/2.
    """
    s = np.sort(a, axis=0)
    cols = np.arange(s.shape[1])
    med = 0.0 + s[(counts - 1) // 2, cols]
    even = np.flatnonzero(counts % 2 == 0)
    lo, hi = med[even], s[counts[even] // 2, even]
    try:
        with np.errstate(over="raise"):
            med[even] = (lo + hi) / 2
    except FloatingPointError:
        with np.errstate(over="ignore"):
            total = lo + hi
        med[even] = np.where(np.isfinite(total), total / 2, lo / 2 + hi / 2)
    return med


def median_and_scale(a: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column medians of a (samples, columns) array and the normalized MADs.

    The scale is the median absolute deviation about the median times
    1.4826: the defender's fixed M-estimation scale, and the one the
    M-estimator attack reads.  Column j counts ``counts[j]`` rows, padded
    with +inf below them or past the stored ones, as ``_column_median``
    reads them for both statistics; the padding's deviations stay +inf, and
    so does a deviation past the float range, which sorts last as it would
    unrounded.  A scale past the float range raises ValueError.
    """
    med = _column_median(a, counts)
    with np.errstate(over="ignore"):
        deviations = np.abs(a - med)
        scale = MAD_NORMALIZATION * _column_median(deviations, counts)
    if not np.isfinite(scale).all():
        raise ValueError("the MAD scale overflows the float range: the values spread too widely")
    return med, scale


def mad(values) -> float:
    """Median absolute deviation from the median, times 1.4826 so that it
    is consistent for the standard deviation under Gaussian data."""
    a, layout = _as_column(values)
    return float(median_and_scale(a, layout.counts)[1][0])


def trim_count(n, alpha: float):
    """Number of samples discarded per side: floor(alpha * n).

    An integer array ``n`` gives one count per entry.
    """
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"trim fraction must lie in [0, 0.5), got {alpha}")
    return (alpha * np.asarray(n)).astype(int)


def psi(kind: AggregatorKind, x, c: float):
    """Influence function ψ of the M-estimators.

    Talwar passes x through inside [-c, c] and rejects outside; biweight
    Tukey tapers as x(1 - x^2/c^2)^2 inside and rejects outside.  Accepts
    scalars or arrays.
    """
    if kind not in M_ESTIMATOR_KINDS:
        raise ValueError(f"psi is defined for Talwar/Tukey only, got {kind}")
    _check_positive("tuning constant c", c)
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # (r/c)**2 past the float range: weight 0
        w = _psi_weights(kind, arr, c)
    # A rejected residual has weight 0 and psi 0, an infinite one too,
    # whose product with the weight would be NaN.
    out = np.multiply(arr, w, out=np.zeros_like(w), where=w != 0.0)
    return float(out) if np.isscalar(x) else out


def _psi_weights(kind: AggregatorKind, r: np.ndarray, c: float, out=None) -> np.ndarray:
    # psi(r)/r with the limit value 1 at r = 0, for both families, written
    # to ``out`` when given.
    out = np.empty_like(r) if out is None else out
    if kind is AggregatorKind.TALWAR:
        return np.less_equal(np.abs(r, out=out), c, out=out)
    return np.square(_tukey_taper(r, c, out), out=out)


def _tukey_taper(r: np.ndarray, c: float, out: np.ndarray) -> np.ndarray:
    # fmax(1 - (r/c)**2, 0), the square root of Tukey's weight, in ``out``.
    # fmax takes a NaN residual, like an infinite one, to 0.
    np.divide(r, c, out=out)
    np.square(out, out=out)
    np.subtract(1.0, out, out=out)
    return np.fmax(out, 0.0, out=out)


def _psi_sums(
    kind: AggregatorKind, r: np.ndarray, c: float, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Column sums of psi(r), psi'(r) and the weights psi(r)/r, with r and the
    # scratch array w overwritten.  r is clipped to [-c, c] once the weights
    # are read from it: a rejected residual, an infinite one too, then gives
    # psi = r*w = 0, never NaN.  Tukey's taper of the clipped r has the bits
    # of its taper of r, without the overflow.  psi' is Talwar's 0/1 weight
    # itself, and Tukey's s*(5s - 4) = 5w - 4s with s its taper.
    if kind is AggregatorKind.TALWAR:
        wsum = slope_sum = _row_sum(_psi_weights(kind, r, c, w))
        np.clip(r, -c, c, out=r)
    else:
        np.clip(r, -c, c, out=r)
        s_sum = _row_sum(_tukey_taper(r, c, w))
        wsum = _row_sum(np.square(w, out=w))
        slope_sum = 5.0 * wsum - 4.0 * s_sum
    r *= w
    return _row_sum(r), slope_sum, wsum


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Column sums of a 2-D array, each added row by row from the top.

    A column's sum then depends neither on the width or layout of its array
    nor on -0.0 rows below it, since x + -0.0 == x for every x.  NumPy sums
    a C-ordered array of two or more columns in this order, starting from
    +0.0, but a single column pairwise, so that one goes through ``cumsum``
    with the same +0.0 start: a column of -0.0 sums to +0.0 either way.
    """
    if a.shape[1] == 1:
        return 0.0 + np.cumsum(a[:, 0])[-1:]
    return np.add.reduce(np.ascontiguousarray(a), axis=0)


def _pad(a: np.ndarray, valid: np.ndarray | None, fill: float) -> np.ndarray:
    # ``a`` with ``fill`` in its padding: +inf sorts last, -0.0 adds nothing.
    return a if valid is None else np.where(valid, a, fill)


def _m_estimate_columns(
    a: np.ndarray, kind: AggregatorKind, c: float, layout: Layout
) -> tuple[np.ndarray, np.ndarray, int]:
    """Column-wise M-estimation on a (samples, columns) matrix.

    Each column's location is the zero of sum(psi((y - mu)/sigma)), with the
    scale sigma held at the column's normalized MAD.  The iteration runs on
    the standardized samples u = (y - median)/sigma and moves the offset t
    from 0, the median, by Newton's step sum(psi(u - t))/sum(psi'(u - t)).
    Where that step is not shorter than c, or sum(psi') <= 0, it takes the
    reweighted mean's step sum(psi)/sum(w) with w = psi(r)/r instead; only
    Tukey reaches that fallback, and for Talwar, whose psi' is its 0/1
    weight, both steps are one.  The location is median + sigma*t, and the
    tolerance applies to the step in units of sigma.

    Returns (locations, converged flags, iterations used).  Columns with a
    zero scale estimate return the median directly.  Columns whose samples
    are all rejected, or that are still moving after
    ``FIXED_POINT_MAX_ITER`` steps, keep their last iterate and are flagged
    non-converged.  Rows past a column's count in ``layout`` are padding,
    whatever they hold, and leave its bits unchanged.  Every call runs in
    slices of _BLOCK_COLUMNS columns, one slice up to that width; the call's
    iteration count is the largest slice's.
    """
    counts, valid = layout.counts, layout.valid
    blocks = (slice(lo, lo + _BLOCK_COLUMNS) for lo in range(0, a.shape[1], _BLOCK_COLUMNS))
    locs, flags, iters = zip(
        *(_fixed_point(a[:, b], kind, c, counts[b], valid if valid is None else valid[:, b])
          for b in blocks)
    )
    return np.concatenate(locs), np.concatenate(flags), max(iters)


def _fixed_point(
    a: np.ndarray, kind: AggregatorKind, c: float, counts: np.ndarray, valid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, int]:
    # One block of _m_estimate_columns, with its slice of the layout.  The
    # block is standardized once, u = (y - med)/sigma, with its padding and
    # any residual past the float range at +-inf, rejected at every offset t.
    high = _pad(a, valid, np.inf)
    med, sigma = median_and_scale(high, counts)
    degenerate = sigma == 0.0
    with np.errstate(over="ignore"):
        u = np.subtract(high, med)
        u /= np.where(degenerate, 1.0, sigma)
    r, w = np.empty_like(u), np.empty_like(u)
    t = np.zeros(a.shape[1])
    done = degenerate.copy()
    all_rejected = np.zeros(a.shape[1], dtype=bool)
    iterations = 0
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        if done.all():
            iterations -= 1
            break
        psi_sum, slope_sum, wsum = _psi_sums(kind, np.subtract(u, t, out=r), c, w)
        dead = ~done & (wsum == 0.0)
        all_rejected |= dead
        done |= dead
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        # Newton's step on sum(psi) where it is shorter than c, the longest
        # step the reweighted mean of the samples within c of t can take;
        # elsewhere, and wherever sum(psi') <= 0, which only Tukey's
        # redescending psi reaches, the reweighted mean's own step.
        psi_a, slope = psi_sum[active], slope_sum[active]
        step = psi_a / np.where(np.abs(psi_a) < c * slope, slope, wsum[active])
        t[active] += step
        done[active[np.abs(step) <= FIXED_POINT_TOL]] = True
    residual = np.abs(_psi_sums(kind, np.subtract(u, t, out=r), c, w)[0])
    converged = degenerate | (~all_rejected & (residual <= counts * FIXED_POINT_TOL))
    return med + sigma * t, converged, iterations


class AggregationResult(NamedTuple):
    values: np.ndarray
    converged: bool


def aggregate_matrix(spec: AggregatorSpec, matrix, layout=None) -> AggregationResult:
    """Apply the chosen scalar estimator to every column of ``matrix``.

    ``matrix`` has one row per received vector and one column per model
    coordinate.  With a ``Layout`` of its shape, column j holds
    ``layout.counts[j]`` vectors' values and padding below them, which may
    hold anything and changes no bit of the column's result.  ``converged``
    is False only when an M-estimation column failed to converge.
    """
    a, layout = _as_matrix(matrix, layout)
    counts, valid, n = layout.counts, layout.valid, layout.rows
    kind = spec.kind
    if kind is AggregatorKind.SAMPLE_MEAN:
        return AggregationResult(_row_sum(_pad(a, valid, -0.0)) / counts, True)
    if kind is AggregatorKind.MEDIAN:
        return AggregationResult(_column_median(_pad(a, valid, np.inf), counts), True)
    if kind is AggregatorKind.TRIMMED_MEAN:
        t = trim_count(counts, spec.alpha)
        if (counts - 2 * t < 1).any():
            raise ValueError("trimming would discard every sample")
        # The rows that hold any column's window; with padding, each
        # column's rows outside its own window are set to -0.0 in place.
        lo, hi = t.min(initial=n), (counts - t).max(initial=0)
        window = np.sort(_pad(a, valid, np.inf), axis=0)[lo:hi]
        if valid is not None:
            rows = np.arange(lo, hi)[:, None]
            np.copyto(window, -0.0, where=(rows < t) | (rows >= counts - t))
        return AggregationResult(_row_sum(window) / (counts - 2 * t), True)
    loc, conv, _ = _m_estimate_columns(a, kind, spec.c, layout)
    return AggregationResult(loc, bool(conv.all()))


def estimate(spec: AggregatorSpec, values) -> float:
    """Apply an aggregation rule to a scalar sample set.

    The one scalar entry point: the sample mean, median and trimmed mean are
    ``estimate`` with the matching ``AggregatorSpec``.
    """
    return float(aggregate_matrix(spec, *_as_column(values)).values[0])


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
    if trials < 2 * EFFICIENCY_CI_BATCHES:
        # A one-trial batch has variance 0 and a 0/0 ratio.
        raise ValueError(
            f"trials must be at least {2 * EFFICIENCY_CI_BATCHES}, two per CI batch, got {trials}"
        )
    if sample_size < 2:
        raise ValueError(f"sample_size must be at least 2, got {sample_size}")
    rng = np.random.default_rng(seed)
    values = [np.empty(trials) for _ in specs]
    mean_values = np.empty(trials)
    start = 0
    while start < trials:
        stop = min(start + EFFICIENCY_CHUNK, trials)
        draws = rng.standard_normal((sample_size, stop - start))
        mean_values[start:stop] = _row_sum(draws) / sample_size
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
