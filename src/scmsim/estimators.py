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
import numbers
import os
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
# A call runs in slices of at most this many columns.  An axis-0 sort of a
# 512-column slice takes about twice as long per column as one of 500 (406
# against 206 ns at 100 rows, 126 against 67 at 28), so slices stay below 512.
_BLOCK_COLUMNS = 500
# A call of two or more slices runs them on threads, one per CPU the process
# may use, where each slice holds at least this many values (rows x columns):
# below it the GIL hand-offs between NumPy's short calls outweigh a second
# CPU.  Speed-up of five rules on 4,000 columns on 2 CPUs, in two runs of 15
# alternating pairs: 0.52-0.65x at 12 and 25 rows, 0.88-0.91x at 50,
# 1.03-1.39x at 66, 1.11-1.44x at 80, 1.33-1.71x at 100 and 200.
_THREAD_VALUES = 40_000


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
        if not isinstance(self.kind, AggregatorKind):
            raise ValueError(f"kind must be an AggregatorKind, got {self.kind!r}")
        if self.kind is AggregatorKind.TRIMMED_MEAN:
            _check_trim_fraction(self.alpha)
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


def _check_real(value, message: str):
    # ``value`` as it is if it is one real number, a NumPy float or int too; a
    # bool, a string or an array, whatever it compares as, raises ValueError.
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{message}, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> None:
    message = f"{name} must be finite and positive"
    # NaN fails both comparisons.
    if not 0.0 < _check_real(value, message) < np.inf:
        raise ValueError(f"{message}, got {value}")


def _check_trim_fraction(alpha: float) -> None:
    message = "trim fraction must lie in [0, 0.5)"
    if not 0.0 <= _check_real(alpha, message) < 0.5:
        raise ValueError(f"{message}, got {alpha}")


def _check_count(value, name: str, minimum: int = 1):
    """``value`` as a whole number of at least ``minimum``, or an int array of them.

    A bool, a fraction or a non-number raises ``ValueError`` naming ``name``
    instead of reaching NumPy as a shape or a silently truncated index.
    """
    a = np.asarray(value)
    whole = a.dtype.kind in "iu" or (
        a.dtype.kind == "f" and np.isfinite(a).all() and (np.floor(a) == a).all()
    )
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if (a < minimum).any():
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return a.astype(int) if a.ndim else int(a)


def _one_count(value, name: str, minimum: int = 1) -> int:
    # One whole number of at least ``minimum``: a list or an array raises
    # ValueError naming ``name`` instead of reaching NumPy as a scalar index.
    if np.ndim(value):
        raise ValueError(f"{name} must be one whole number, got {value!r}")
    return _check_count(value, name, minimum)


def _check_seed(seed, sequence: bool = True):
    # ``seed`` as it is if it reproduces its draws: a whole number of at
    # least 0 of any size, not a bool, or, where ``sequence``, a SeedSequence
    # spawned from one.  None, which draws fresh entropy, raises ValueError.
    if (sequence and isinstance(seed, np.random.SeedSequence)) or (
        isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0
    ):
        return seed
    raise ValueError(f"seed must be a whole number of at least 0, got {seed!r}")


def _check_rules(specs, name: str) -> list[AggregatorSpec]:
    # ``specs`` as a list of AggregatorSpecs: one spec, a string or anything
    # else where a sequence of them goes, an empty one, or an item that is
    # not a spec, raises ValueError naming ``name``.
    if isinstance(specs, (str, AggregatorSpec)) or not np.iterable(specs):
        raise ValueError(f"{name} must be a sequence of AggregatorSpecs, got {specs!r}")
    specs = list(specs)
    if not specs:
        raise ValueError(f"{name} must hold at least one AggregatorSpec")
    for spec in specs:
        if not isinstance(spec, AggregatorSpec):
            raise ValueError(f"{name} must hold AggregatorSpecs only, got {spec!r}")
    return specs


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
    # The padding is most often finite too: mask it only where some value is not.
    finite = np.isfinite(a)
    if not finite.all() and (layout.valid is None or not (finite | ~layout.valid).all()):
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


def _ranked_median(s: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Column medians read by rank from ``s``, sorted along axis 0.

    Column j holds ``counts[j]`` finite values, then +inf padding, which
    sorts last (a count may pass the stored rows while its middle ranks do
    not).  Each column gets ``np.median`` of its values alone, bit for bit:
    the middle values' sum starts from 0.0, as ``np.median``'s mean does, so
    a -0.0 median is +0.0; an odd count's middle ranks are one x, and
    (x + x)/2 is x; where the sum overflows, the midpoint is lo/2 + hi/2.
    """
    cols = np.arange(s.shape[1])
    lo, hi = 0.0 + s[(counts - 1) // 2, cols], s[counts // 2, cols]
    with np.errstate(over="ignore"):
        med = lo + hi
    wide = ~np.isfinite(med)
    med /= 2
    if wide.any():
        med[wide] = lo[wide] / 2 + hi[wide] / 2
    return med


def _median_and_scale(s: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column medians of ``s``, sorted as ``_ranked_median`` reads it, and
    their normalized MADs: the defender's fixed M-estimation scale, and the
    one the M-estimator attack reads.

    The deviations' magnitudes, +inf in the padding and past the float
    range, are taken and sorted in place in one new array; a column's
    order leaves their sorted magnitudes as they are.  A scale past the
    float range raises ValueError.
    """
    med = _ranked_median(s, counts)
    with np.errstate(over="ignore"):
        d = s - med
        np.abs(d, out=d).sort(axis=0)
        scale = MAD_NORMALIZATION * _ranked_median(d, counts)
    if not np.isfinite(scale).all():
        raise ValueError("the MAD scale overflows the float range: the values spread too widely")
    return med, scale


def mad(values) -> float:
    """Median absolute deviation from the median, times 1.4826 so that it
    is consistent for the standard deviation under Gaussian data."""
    a, layout = _as_column(values)
    return float(_median_and_scale(np.sort(a, axis=0), layout.counts)[1][0])


def trim_count(n, alpha: float):
    """Number of samples discarded per side: floor(alpha * n).

    An integer array ``n`` gives one count per entry.
    """
    _check_trim_fraction(alpha)
    return (alpha * np.asarray(n)).astype(int)


def _psi(kind: AggregatorKind, x, c: float):
    """Influence function ψ of the M-estimators.

    Talwar passes x through inside [-c, c] and rejects outside; biweight
    Tukey tapers as x(1 - x^2/c^2)^2 inside and rejects outside.  Both read
    x clipped to [-c, c], as the M-estimation kernel does, so nothing
    overflows; a rejected, infinite or NaN x gives 0.  Accepts scalars or arrays.
    """
    if kind not in M_ESTIMATOR_KINDS:
        raise ValueError(f"psi is defined for Talwar/Tukey only, got {kind}")
    _check_positive("tuning constant c", c)
    arr = np.asarray(x, dtype=float)
    clipped = np.clip(arr, -c, c)
    if kind is AggregatorKind.TALWAR:
        w = np.abs(arr) <= c
    else:
        w = np.square(_tukey_taper(clipped, c, np.empty_like(clipped)))
    out = np.multiply(clipped, w, out=np.zeros_like(clipped), where=w > 0)
    return float(out) if np.isscalar(x) else out


def _tukey_taper(r: np.ndarray, c: float, out: np.ndarray) -> np.ndarray:
    # 1 - (r/c)**2 in ``out``: the square root of Tukey's weight where |r| <= c.
    return np.subtract(1.0, np.square(np.divide(r, c, out=out), out=out), out=out)


def _psi_sums(
    kind: AggregatorKind, r: np.ndarray, c: float, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Column sums of psi(r), psi'(r) and the weights psi(r)/r, with r and the
    # scratch array w overwritten.  psi reads r clipped to [-c, c], as ``_psi``
    # does: Talwar's 0/1 weight |r| <= c is read before the clip, Tukey's
    # weight is the square of its taper of the clipped r, 0 at +-c, which
    # cannot overflow.  A rejected residual, an infinite one too, then gives
    # psi = r*w = 0, never NaN.  psi' is Talwar's 0/1 weight itself, and
    # Tukey's s*(5s - 4) = 5w - 4s with s its taper.
    if kind is AggregatorKind.TALWAR:
        wsum = slope_sum = _row_sum(np.less_equal(np.abs(r, out=w), c, out=w))
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
    u: np.ndarray, kind: AggregatorKind, c: float, degenerate: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton's iteration on one slice's standardized samples u = (y - median)/sigma.

    A column's location is median + sigma*t, t the zero of sum(psi(u - t))
    and sigma its normalized MAD.  u is +-inf, rejected at every t, in
    padding and past the float range, and a ``degenerate`` column, whose
    scale is zero, keeps t = 0, converged.  Returns (t, converged flags,
    steps taken), one evaluation of the sums per step.  A column stops,
    converged, once its step is within FIXED_POINT_TOL: |sum(psi)| <=
    count*FIXED_POINT_TOL held where it stepped from, as the step's slope is
    at most the count.  It stops unconverged where all its samples are
    rejected, or after ``FIXED_POINT_MAX_ITER`` steps.
    """
    r, w, t = np.empty_like(u), np.empty_like(u), np.zeros(u.shape[1])
    active, converged, steps = ~degenerate, degenerate.copy(), 0
    # An inactive column steps by 0, which leaves its t and its bits.
    while steps < FIXED_POINT_MAX_ITER and active.any():
        psi_sum, slope_sum, wsum = _psi_sums(kind, np.subtract(u, t, out=r), c, w)
        active &= wsum != 0.0
        if not active.any():
            break
        # Newton's step sum(psi)/sum(psi') where it is shorter than c, the
        # longest step the reweighted mean of the samples within c of t can
        # take; elsewhere, and wherever sum(psi') <= 0, the reweighted mean's
        # own step sum(psi)/sum(w) with w = psi(r)/r.  Talwar's psi' is its
        # 0/1 weight, so both of its steps are one.  A c * sum(psi') past the
        # float range compares as +-inf, as the unrounded product would.
        if kind is AggregatorKind.TUKEY:
            with np.errstate(over="ignore"):
                slope_sum = np.where(np.abs(psi_sum) < c * slope_sum, slope_sum, wsum)
        step = np.divide(psi_sum, slope_sum, out=np.zeros_like(t), where=active)
        t += step
        steps += 1
        stopped = active & (np.abs(step) <= FIXED_POINT_TOL)
        converged |= stopped
        active ^= stopped
    return t, converged, steps


def _aggregate_columns(specs: Sequence[AggregatorSpec], matrix, layout: Layout | None = None):
    """Every rule of ``specs`` on every column of ``matrix``, as ``aggregate_matrix`` reads it.

    Returns the values, one row per spec, and per spec the converged flags
    (None without M-estimation) and the steps its largest slice took.  The
    m columns run as k = ceil(m/_BLOCK_COLUMNS) slices of about m/k, each
    sorted once for all order statistics; the M-estimators share one median,
    MAD and u = (y - median)/sigma.  The sample mean sorts nothing.  Each
    slice depends on its own columns alone, so where two or more slices
    hold ``_THREAD_VALUES`` values each they run on threads, with the bits
    of the serial loop.
    """
    specs = _check_rules(specs, "aggregation rules")
    a, layout = _as_matrix(matrix, layout)
    counts, valid = layout.counts, layout.valid
    kinds = [spec.kind for spec in specs]
    m_estimates = AggregatorKind.TALWAR in kinds or AggregatorKind.TUKEY in kinds
    medians = m_estimates or AggregatorKind.MEDIAN in kinds
    high = _pad(a, valid, np.inf) if medians or AggregatorKind.TRIMMED_MEAN in kinds else None
    low = _pad(a, valid, -0.0) if AggregatorKind.SAMPLE_MEAN in kinds else None
    m = a.shape[1]
    k = max(1, -(-m // _BLOCK_COLUMNS))
    values = np.empty((len(specs), m))
    flags = [np.ones(m, dtype=bool) if kind in M_ESTIMATOR_KINDS else None for kind in kinds]

    def run_slice(j: int) -> list[int]:
        # Writes only slice j's columns of ``values`` and the flags; returns its steps per rule.
        b = slice(j * m // k, (j + 1) * m // k)
        n = counts[b]
        s = None if high is None else np.sort(high[:, b], axis=0)
        if m_estimates:
            med, sigma = _median_and_scale(s, n)
            degenerate = sigma == 0.0
            # u from the unsorted rows, which _psi_sums adds in order.
            with np.errstate(over="ignore"):
                u = high[:, b] - med
                u /= np.where(degenerate, 1.0, sigma)
        elif medians:
            med = _ranked_median(s, n)
        steps = [0] * len(specs)
        for i, (spec, kind) in enumerate(zip(specs, kinds)):
            if kind is AggregatorKind.SAMPLE_MEAN:
                values[i, b] = _row_sum(low[:, b]) / n
            elif kind is AggregatorKind.MEDIAN:
                values[i, b] = med
            elif kind is AggregatorKind.TRIMMED_MEAN:
                values[i, b] = _trimmed_mean(s, n, spec.alpha, valid)
            else:
                t, flags[i][b], steps[i] = _m_estimate_columns(u, kind, spec.c, degenerate)
                values[i, b] = med + sigma * t
        return steps

    threaded = k > 1 and a.shape[0] * (m // k) >= _THREAD_VALUES
    steps = _run_slices(run_slice, k, min(_worker_count(), k) if threaded else 1)
    return values, flags, [max(rule_steps) for rule_steps in zip(*steps)]


def _worker_count() -> int:
    # The CPUs this process may run on, or the machine's where that cannot be read.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_slices(task, k: int, workers: int) -> list:
    """``[task(j) for j in range(k)]``, on a pool of ``workers`` threads while the caller waits.

    Each slice runs under the caller's NumPy error state, which a new thread
    does not inherit.  The lowest failing slice's exception is raised, the
    one the serial loop would raise; slices not yet started are cancelled,
    and every thread is joined before this returns or raises.
    """
    if workers < 2:
        return [task(j) for j in range(k)]
    from concurrent.futures import ThreadPoolExecutor

    err = np.geterr()

    def work(j: int):
        with np.errstate(**err):
            return task(j)

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(work, range(k)))


def _trimmed_mean(s: np.ndarray, counts: np.ndarray, alpha: float, valid) -> np.ndarray:
    # Trimmed means of the sorted columns ``s``, summed over the rows holding
    # any column's window; with padding, a copy of those rows holds -0.0 in
    # each column's rows outside its own window, and ``s`` is left as it is.
    t = trim_count(counts, alpha)
    if (counts - 2 * t < 1).any():
        raise ValueError("trimming would discard every sample")
    lo, hi = t.min(initial=s.shape[0]), (counts - t).max(initial=0)
    window = s[lo:hi]
    if valid is not None:  # compared as int32, which NumPy broadcasts faster than int64
        rows, t32 = np.arange(lo, hi, dtype=np.int32)[:, None], t.astype(np.int32)
        window = np.where((rows < t32) | (rows >= counts.astype(np.int32) - t32), -0.0, window)
    return _row_sum(window) / (counts - 2 * t)


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
    values, (flags,), _ = _aggregate_columns([spec], matrix, layout)
    return AggregationResult(values[0], flags is None or bool(flags.all()))


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
    disjoint batches.  The reference mean is the first rule of each chunk's
    one call, which runs a spec equal to it only once.
    """
    specs, seed = _check_rules(specs, "specs"), _check_seed(seed)
    trials, sample_size = _one_count(trials, "trials"), _one_count(sample_size, "sample_size")
    if trials < 2 * EFFICIENCY_CI_BATCHES:
        # A one-trial batch has variance 0 and a 0/0 ratio.
        raise ValueError(
            f"trials must be at least {2 * EFFICIENCY_CI_BATCHES}, two per CI batch, got {trials}"
        )
    if sample_size < 2:
        raise ValueError(f"sample_size must be at least 2, got {sample_size}")
    rng = np.random.default_rng(seed)
    rules = list(dict.fromkeys([AggregatorSpec.sample_mean(), *specs]))
    values = np.empty((len(rules), trials))
    for start in range(0, trials, EFFICIENCY_CHUNK):
        chunk = values[:, start : start + EFFICIENCY_CHUNK]
        chunk[:] = _aggregate_columns(rules, rng.standard_normal((sample_size, chunk.shape[1])))[0]
    edges = np.linspace(0, trials, EFFICIENCY_CI_BATCHES + 1).astype(int)
    # Every reduction runs along contiguous rows: NumPy sums one in the order
    # it sums a 1-D array, and a column of the (batches, rules) layout in another.
    var = np.var(values, axis=1)
    batch_var = np.stack([np.var(values[:, lo:hi], axis=1) for lo, hi in zip(edges, edges[1:])], 1)
    ratio = var[0] / var
    half = 1.96 * (batch_var[:1] / batch_var).std(axis=1, ddof=1) / np.sqrt(EFFICIENCY_CI_BATCHES)
    return [
        EfficiencyRow(s.label, float(ratio[i]), ratio[i] - half[i], ratio[i] + half[i])
        for s, i in zip(specs, map(rules.index, specs))
    ]
