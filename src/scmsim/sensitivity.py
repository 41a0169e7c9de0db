"""Sensitivity curves: finite-sample influence of injected outliers.

The sensitivity curve of an aggregator AGG over a base sample set Y is
N * (AGG(Y u {z, ..., z}) - AGG(Y)), with N the contaminated set size.  It
measures the bias that ``count`` coordinating agents can induce by all
reporting the value z.  ``max_sc_numeric`` locates the curve's maximum and
serves as the independent oracle for the analytic attack constructions:
a grid over its search window, where near-ties go to the value of smallest
magnitude, then ever finer grids around the best value, each accepted only
on a strict gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import (
    AggregatorSpec,
    _as_samples,
    _check_count,
    aggregate_matrix,
    estimate,
    median_and_scale,
)

# Window-grid arg-maxima within this slack of the maximum count as ties;
# the smallest-magnitude candidate wins, positive side on exact +/- ties.
_TIE_TOL = 1e-9
# The oracle's grid over its search window, and each refinement grid over
# the two cells around the current best value.
ORACLE_GRID_POINTS = 4001
_REFINE_POINTS = 101


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


def default_search_bounds(base) -> tuple[float, float]:
    """Search window covering the redescending maxima: median +/- 10*(mad+1)."""
    center, scale = (float(v[0]) for v in median_and_scale(_as_samples(base)[:, None]))
    halfwidth = 10.0 * (scale + 1.0)
    return center - halfwidth, center + halfwidth


def max_sc_numeric(agg: AggregatorSpec, base, count: int = 1) -> tuple[float, float]:
    """Numerically maximize the sensitivity curve over the outlier value.

    A grid of ``ORACLE_GRID_POINTS`` values over ``default_search_bounds(base)``
    picks the start: among its arg-maxima within 1e-9 of the maximum, the
    value of smallest magnitude (positive side on symmetric ties).  Each
    refinement then lays ``_REFINE_POINTS`` values over the two cells around
    the current value and moves to their first arg-maximum only on a strict
    gain; it stops once the cell is below 1e-12 relative.  Every evaluation
    is one wide call on a grid.  Returns ``(z_star, sc_star)``.
    """
    a, count, clean = _clean_base(agg, base, count)
    lo, hi = default_search_bounds(a)
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite width: finite grid values
        raise ValueError(f"invalid search bounds ({lo}, {hi}): search window not finite")

    zs, step = np.linspace(lo, hi, ORACLE_GRID_POINTS, retstep=True)
    scs = _curve(agg, a, clean, zs, count)
    tied = np.flatnonzero(scs >= scs.max() - _TIE_TOL)
    i = min(tied, key=lambda j: (abs(zs[j]), -zs[j]))
    z, sc = float(zs[i]), float(scs[i])
    while step > 1e-12 * (1.0 + abs(z)):
        zs, step = np.linspace(max(lo, z - step), min(hi, z + step), _REFINE_POINTS, retstep=True)
        scs = _curve(agg, a, clean, zs, count)
        i = int(scs.argmax())
        if scs[i] > sc:
            z, sc = float(zs[i]), float(scs[i])
    return z, sc
