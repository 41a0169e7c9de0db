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
    _aggregate_columns,
    _as_column,
    _check_rules,
    _median_and_scale,
    _one_count,
)

# Window-grid arg-maxima within this slack of the maximum count as ties;
# the smallest-magnitude candidate wins, positive side on exact +/- ties.
_TIE_TOL = 1e-9
# The oracle's grid over its search window, and each refinement grid over
# the two cells around the current best value.
ORACLE_GRID_POINTS = 4001
_REFINE_POINTS = 101


def _contaminated_columns(base: np.ndarray, outliers: np.ndarray, count: int) -> np.ndarray:
    # One column per outlier value: the (n, 1) base set plus `count` copies of z.
    cols = np.broadcast_to(base, (base.size, outliers.size))
    copies = np.broadcast_to(outliers, (count, outliers.size))
    return np.concatenate([cols, copies], axis=0)


def _clean_base(aggs: Sequence[AggregatorSpec], base, count: int):
    # The checked (n, 1) base column, the outlier count, the clean estimates.
    a, _ = _as_column(base)
    count = _one_count(count, "outlier count")
    return a, count, _aggregate_columns(aggs, a)[0]


def _outlier_values(outliers) -> np.ndarray:
    # The outlier values as a flat float array, each of them finite.
    zs = np.asarray(outliers, dtype=float).ravel()
    if not np.isfinite(zs).all():
        raise ValueError("outlier values must be finite")
    return zs


def _curve(aggs: Sequence[AggregatorSpec], a: np.ndarray, clean: np.ndarray, zs, count: int):
    # n * (AGG(base + count copies of z) - AGG(base)): one row per rule, one entry per z.
    contaminated = _aggregate_columns(aggs, _contaminated_columns(a, zs, count))[0]
    return (a.size + count) * (contaminated - clean)


def sensitivity_values(agg: AggregatorSpec, base, outliers, count: int = 1):
    """Sensitivity curve at one outlier value or at an array of them.

    ``count`` identical copies of each value join the base set.  A scalar
    ``outliers`` gives a float; an array gives one value per entry.
    """
    a, count, clean = _clean_base([agg], base, count)
    out = _curve([agg], a, clean, _outlier_values(outliers), count)[0]
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
    """Evaluate every aggregator's sensitivity curve over a value grid in one wide call."""
    aggs = _check_rules(aggs, "aggs")
    zs = _outlier_values(grid)
    if zs.size == 0:
        raise ValueError("outlier grid is empty")
    if zs.size > 1 and not (np.diff(zs) > 0).all():
        raise ValueError("outlier grid must be strictly increasing")
    a, count, clean = _clean_base(aggs, base, count)
    return SCTable(zs.copy(), tuple(agg.label for agg in aggs), _curve(aggs, a, clean, zs, count))


def default_search_bounds(base) -> tuple[float, float]:
    """Search window covering the redescending maxima: median +/- 10*(mad+1).

    A bound past the float range raises ``ValueError``.
    """
    a, layout = _as_column(base)
    center, scale = (float(v[0]) for v in _median_and_scale(np.sort(a, axis=0), layout.counts))
    halfwidth = 10.0 * (scale + 1.0)
    lo, hi = center - halfwidth, center + halfwidth
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"invalid search bounds ({lo}, {hi}): median +/- 10*(mad+1) not finite")
    return lo, hi


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
    a, count, clean = _clean_base([agg], base, count)
    lo, hi = default_search_bounds(a)
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite width: finite grid values
        raise ValueError(f"invalid search bounds ({lo}, {hi}): search window not finite")

    zs, step = np.linspace(lo, hi, ORACLE_GRID_POINTS, retstep=True)
    scs = _curve([agg], a, clean, zs, count)[0]
    tied = np.flatnonzero(scs >= scs.max() - _TIE_TOL)
    i = min(tied, key=lambda j: (abs(zs[j]), -zs[j]))
    z, sc = float(zs[i]), float(scs[i])
    while step > 1e-12 * (1.0 + abs(z)):
        zs, step = np.linspace(max(lo, z - step), min(hi, z + step), _REFINE_POINTS, retstep=True)
        scs = _curve([agg], a, clean, zs, count)[0]
        i = int(scs.argmax())
        if scs[i] > sc:
            z, sc = float(zs[i]), float(scs[i])
    return z, sc
