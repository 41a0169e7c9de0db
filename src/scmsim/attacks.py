"""Crafting of maximal-influence values against element-wise aggregators.

Each scheme computes, per model coordinate, the smallest value that a group
of coordinating malicious agents can all report to push the receiver's
aggregate as far as possible without being rejected:

* large value: a fixed constant, the limiting strategy against the mean;
* trimmed-mean targeting: just below the lowest order statistic that the
  trim removes, so every malicious copy is kept at the largest surviving
  position;
* M-estimator targeting: the argmax of the influence function, mapped
  through the median and normalized MAD of the contaminated set, in
  closed form (for c from ``min_tuning_constant`` up): the copies count
  there as +inf rows.

Every crafter works column by column on order statistics of the benign
values, so a whole round is crafted in one call on the padded
(rows, columns) form that ``aggregate_matrix`` combines, one column per
receiver and coordinate: each column's ranks are read below its benign
count in a ``Layout`` from one sort, which gives every column its own bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    AggregatorKind,
    AggregatorSpec,
    MAD_NORMALIZATION,
    M_ESTIMATOR_KINDS,
    TRIM_ALPHA_95,
    Layout,
    _check_count,
    _check_layout,
    _check_positive,
    _pad,
    median_and_scale,
    trim_count,
)

DEFAULT_LV_MAGNITUDE = 1000.0
# Boundary offsets scale with the benign spread; the +1 guards tiny spreads.
EPSILON_SCALE = 1e-6
# Relative inward margin on the influence-peak residual: placing a value on
# the exact rejection boundary would leave inclusion to float rounding.
BOUNDARY_MARGIN = 1e-9


# Each sensitivity-curve attack, by name, and the aggregation rule it is
# crafted against; an attack without a target rule is the large-value one.
SCM_TARGET = {
    "trimmed_scm": AggregatorKind.TRIMMED_MEAN,
    "talwar_scm": AggregatorKind.TALWAR,
    "tukey_scm": AggregatorKind.TUKEY,
}


@dataclass(frozen=True)
class AttackSpec:
    """An attack: the rule an SCM attack is crafted against, or none.

    ``target`` is the defender's ``AggregatorSpec``, of a kind ``SCM_TARGET``
    names; without one the attack is the large-value attack, which reports
    ``lv_magnitude`` in every coordinate.
    """

    target: AggregatorSpec | None = None
    lv_magnitude: float = DEFAULT_LV_MAGNITUDE

    def __post_init__(self) -> None:
        if not math.isfinite(self.lv_magnitude):
            raise ValueError("lv_magnitude must be finite")
        if self.target is not None and self.target.kind not in SCM_TARGET.values():
            raise ValueError(f"no SCM attack targets the {self.target.label} rule")

    @property
    def label(self) -> str:
        if self.target is None:
            return "large_value"
        return next(name for name, kind in SCM_TARGET.items() if kind is self.target.kind)

    @staticmethod
    def large_value(magnitude: float = DEFAULT_LV_MAGNITUDE) -> "AttackSpec":
        return AttackSpec(lv_magnitude=magnitude)

    @staticmethod
    def trimmed_scm(alpha: float = TRIM_ALPHA_95) -> "AttackSpec":
        return AttackSpec(AggregatorSpec.trimmed_mean(alpha))

    @staticmethod
    def talwar_scm(c: float) -> "AttackSpec":
        return AttackSpec(AggregatorSpec.talwar(c))

    @staticmethod
    def tukey_scm(c: float) -> "AttackSpec":
        return AttackSpec(AggregatorSpec.tukey(c))


@dataclass(frozen=True, eq=False)
class CraftingContext:
    """What an omniscient attacker knows when targeting receivers.

    ``benign_values`` is one column per targeted coordinate, in the form
    ``aggregate_matrix`` takes: column j holds the benign values its
    receiver sees in its first ``layout.counts[j]`` rows, above padding
    that is ignored (every row counts when ``layout`` is None; build one as
    ``Layout.of(shape, counts, "benign_count")``).  A 1-D array is one
    column.  ``malicious_count`` is the number of malicious agents that
    will report the crafted value, one count for every column or one per
    column.  This is the one check of crafting input: the crafters trust it.
    """

    benign_values: np.ndarray
    malicious_count: int | np.ndarray
    layout: Layout | None = None
    # The crafters' view: ``benign_values`` with +inf padding, and every
    # column's malicious count.
    _columns: np.ndarray = field(init=False, repr=False)
    _malicious: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.benign_values, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.size == 0:
            raise ValueError("benign_values must be a non-empty 1-D or (rows, columns) array")
        layout = _check_layout(a, self.layout)
        m = _check_count(self.malicious_count, "malicious_count")
        if np.ndim(m) and np.shape(m) != (a.shape[1],):
            raise ValueError("malicious_count must be one count, or one per column")
        object.__setattr__(self, "benign_values", a)
        object.__setattr__(self, "malicious_count", m)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_columns", _pad(a, layout.valid, np.inf))
        object.__setattr__(self, "_malicious", np.broadcast_to(m, a.shape[1]))


def psi_argmax(kind: AggregatorKind, c: float) -> float:
    """Residual value at which the influence function peaks: c, or c/sqrt(5)."""
    if kind not in M_ESTIMATOR_KINDS:
        raise ValueError(f"psi_argmax is defined for Talwar/Tukey only, got {kind}")
    _check_positive("tuning constant c", c)
    if kind is AggregatorKind.TALWAR:
        return c
    return c / math.sqrt(5.0)


def min_tuning_constant(kind: AggregatorKind) -> float:
    """Smallest c whose copies ``_mestimator_values`` places: two MADs out."""
    return 2.0 / (psi_argmax(kind, 1.0) * (1.0 - BOUNDARY_MARGIN) * MAD_NORMALIZATION)


def _trimmed_values(ctx: CraftingContext, target: AggregatorSpec) -> np.ndarray:
    """Per-coordinate value just below the trim-survival boundary.

    With N_k = n_benign + malicious_count received vectors, the defender
    discards t = floor(alpha*N_k) per side.  Reporting just below the
    (n_benign - t + 1)-th ascending benign value leaves exactly the top t
    benign values above the copies: the trim removes those, every malicious
    copy survives at the largest surviving position, and no higher
    placement keeps all copies.  When t = 0 nothing is trimmed and the
    largest benign value serves as the stealth boundary instead.  Every
    column's ranks are read from one sort of the padded matrix.
    """
    a, n = ctx._columns, ctx.layout.counts
    t = trim_count(n + ctx._malicious, target.alpha)
    if (n - t < 1).any():
        raise ValueError("trim boundary exceeds the benign neighborhood")
    s = np.sort(a, axis=0)
    cols = np.arange(a.shape[1])
    boundary = s[np.where(t >= 1, n - t, n - 1), cols]
    return boundary - EPSILON_SCALE * (1.0 + (s[n - 1, cols] - s[0]))


def _mestimator_values(ctx: CraftingContext, target: AggregatorSpec) -> np.ndarray:
    """Per-coordinate peak-influence value against a Talwar/Tukey defender.

    The copies go to z = med + c0*scale, the influence peak c0 seen through
    the median and normalized MAD of the n benign values plus the p copies.
    Every value lies at or outside the two middle ones, so the MAD is at
    least their half-gap, and the upper middle deviation is at most two
    MADs.  From c >= ``min_tuning_constant`` up (c0*1.4826 >= 2 MADs; the
    tuned defaults give 4.14 and 3.11) the copies thus sort above both
    statistics' middle ranks, which read the same values as with the copies
    at +inf: ``median_and_scale`` at count n + p on the +inf-padded columns.
    With p < n those ranks, (n + p)//2 and below, are stored benign rows.
    A smaller c, whose copies could fall inside the MAD's middle ranks, is
    rejected; so is p >= n, where the copies hold the median (its breakdown
    point is 50%) and no finite placement exists.  The peak residual is
    backed off by a relative ``BOUNDARY_MARGIN`` so that the Talwar copies
    survive the defender's hard |r| <= c cutoff under float rounding.  A
    zero scale collapses to the median, the only undetectable choice there.
    """
    if target.c < min_tuning_constant(target.kind):
        raise ValueError(
            f"{target.label} c must be at least"
            f" {min_tuning_constant(target.kind)!r}, got {target.c!r}"
        )
    n, p = ctx.layout.counts, ctx._malicious
    if (p >= n).any():
        raise ValueError(
            "malicious_count must be below benign_count against a Talwar/Tukey"
            " defender: the copies would hold its median"
        )
    c0 = psi_argmax(target.kind, target.c) * (1.0 - BOUNDARY_MARGIN)
    med, scale = median_and_scale(ctx._columns, n + p)
    return c0 * scale + med


def craft_attack(ctx: CraftingContext, spec: AttackSpec) -> np.ndarray:
    """Craft the value every malicious neighbor reports in each column of
    ``ctx``: one entry per column, all columns in one call."""
    target = spec.target
    if target is None:
        return np.full(ctx._columns.shape[1], spec.lv_magnitude)
    if target.kind is AggregatorKind.TRIMMED_MEAN:
        return _trimmed_values(ctx, target)
    return _mestimator_values(ctx, target)
