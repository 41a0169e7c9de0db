"""Sensitivity curves: finite-sample influence of injected outliers.

The sensitivity curve of an aggregator AGG over a base sample set Y is
N * (AGG(Y u {z, ..., z}) - AGG(Y)), with N the contaminated set size.  It
measures the bias that ``count`` coordinating agents can induce by all
reporting the value z.  ``max_sc_numeric`` locates the curve's maximum by
dense grid search plus local refinement and serves as the independent
oracle for the analytic attack constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    AggregatorSpec,
    _as_samples,
    _check_count,
    aggregate_matrix,
    estimate,
    median_and_scale,
)

# Grid arg-maxima within this slack of the maximum count as ties; the
# smallest-magnitude candidate wins, positive side on exact +/- ties.
_TIE_TOL = 1e-9
# The oracle's grid over its search window, and the evaluations of the
# golden-section refinement around the best grid cell.
ORACLE_GRID_POINTS = 4001
_GOLDEN_SECTION_EVALS = 80


def _contaminated_columns(base: np.ndarray, outliers: np.ndarray, count: int) -> np.ndarray:
    # One column per outlier value: the base set plus `count` copies of z.
    cols = np.broadcast_to(base[:, None], (base.size, outliers.size))
    copies = np.broadcast_to(outliers, (count, outliers.size))
    return np.concatenate([cols, copies], axis=0)


def _clean_base(agg: AggregatorSpec, base, count: int) -> tuple[np.ndarray, int, float]:
    # The validated base set and outlier count, and the uncontaminated estimate.
    a = _as_samples(base)
    count = _check_count(count, "outlier count")
    return a, count, estimate(agg, a)


def _curve(agg: AggregatorSpec, a: np.ndarray, clean: float, zs: np.ndarray, count: int):
    # n * (AGG(base + count copies of z) - AGG(base)), one entry per z.
    contaminated = aggregate_matrix(agg, _contaminated_columns(a, zs, count)).values
    return (a.size + count) * (contaminated - clean)


def sensitivity_values(agg: AggregatorSpec, base, outliers, count: int = 1):
    """Sensitivity curve at one outlier value or at an array of them.

    ``count`` identical copies of each value join the base set.  A scalar
    ``outliers`` gives a float; an array gives one value per entry.
    """
    a, count, clean = _clean_base(agg, base, count)
    zs = np.asarray(outliers, dtype=float).ravel()
    if not np.isfinite(zs).all():
        raise ValueError("outlier values must be finite")
    out = _curve(agg, a, clean, zs, count)
    return float(out[0]) if np.isscalar(outliers) else out


@dataclass(frozen=True, eq=False)
class SCTable:
    """Sensitivity curves of several aggregators over a shared outlier grid."""

    grid: np.ndarray
    names: tuple[str, ...]
    values: np.ndarray  # shape (len(names), len(grid))


def sc_sweep(
    aggs: Sequence[AggregatorSpec], base, grid, count: int = 1
) -> SCTable:
    """Evaluate the sensitivity curve of each aggregator over a value grid."""
    zs = np.asarray(grid, dtype=float).ravel()
    if zs.size == 0:
        raise ValueError("outlier grid is empty")
    if zs.size > 1 and not (np.diff(zs) > 0).all():
        raise ValueError("outlier grid must be strictly increasing")
    if not aggs:
        raise ValueError("no aggregators given")
    rows = np.vstack([sensitivity_values(agg, base, zs, count) for agg in aggs])
    return SCTable(zs.copy(), tuple(agg.label for agg in aggs), rows)


def _golden_section_max(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    # Derivative-free local maximization; tracks the best evaluated point so
    # discontinuous objectives cannot lose a better endpoint.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi > best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_SECTION_EVALS):
        for x, fx in ((x1, f1), (x2, f2)):
            if fx > best_f:
                best_x, best_f = x, fx
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        if b - a <= 1e-12 * (1.0 + abs(a) + abs(b)):
            break
    return best_x, best_f


def default_search_bounds(base) -> tuple[float, float]:
    """Search window covering the redescending maxima: median +/- 10*(mad+1)."""
    center, scale = median_and_scale(_as_samples(base))
    halfwidth = 10.0 * (float(scale) + 1.0)
    return float(center) - halfwidth, float(center) + halfwidth


def max_sc_numeric(agg: AggregatorSpec, base, count: int = 1) -> tuple[float, float]:
    """Numerically maximize the sensitivity curve over the outlier value.

    Dense grid search over ``default_search_bounds(base)`` followed by
    golden-section refinement around the best grid cell.  Among grid
    arg-maxima within 1e-9 of the maximum, the value of smallest magnitude
    is preferred (positive side on symmetric ties).  Returns
    ``(z_star, sc_star)``.
    """
    a, count, clean = _clean_base(agg, base, count)
    lo, hi = default_search_bounds(a)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid search bounds ({lo}, {hi})")

    def sc_at(z: float) -> float:
        return float(_curve(agg, a, clean, np.array([z]), count)[0])

    zs = np.linspace(lo, hi, ORACLE_GRID_POINTS)
    scs = _curve(agg, a, clean, zs, count)
    best = float(scs.max())
    candidates = zs[scs >= best - _TIE_TOL]
    z0 = float(min(candidates, key=lambda z: (abs(z), -z)))
    sc0 = sc_at(z0)
    step = (hi - lo) / (ORACLE_GRID_POINTS - 1)
    z_ref, sc_ref = _golden_section_max(sc_at, max(lo, z0 - step), min(hi, z0 + step))
    if sc_ref > sc0:
        return z_ref, sc_ref
    return z0, sc0
