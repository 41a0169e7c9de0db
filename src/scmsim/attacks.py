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
values, so a whole round is crafted in one ``craft_attack`` call.  It takes
what ``aggregate_matrix`` takes, checked by the same helper: a padded
(rows, columns) matrix, one column per receiver and coordinate, with a
``Layout`` of its benign counts.  Each column's ranks are read below its
count from one sort, which gives every column its own bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    AggregatorKind,
    AggregatorSpec,
    MAD_NORMALIZATION,
    M_ESTIMATOR_KINDS,
    TRIM_ALPHA_95,
    Layout,
    _as_matrix,
    _check_count,
    _check_positive,
    _check_real,
    _median_and_scale,
    _pad,
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
        if not math.isfinite(_check_real(self.lv_magnitude, "lv_magnitude must be finite")):
            raise ValueError("lv_magnitude must be finite")
        if not (self.target is None or isinstance(self.target, AggregatorSpec)):
            raise ValueError(f"target must be None or an AggregatorSpec, got {self.target!r}")
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


def _trimmed_values(s: np.ndarray, n: np.ndarray, p, target: AggregatorSpec) -> np.ndarray:
    """Per-coordinate value just below the trim-survival boundary.

    With N_k = n + p received vectors, n benign and p malicious, the
    defender discards t = floor(alpha*N_k) per side.  Reporting just below
    the (n - t + 1)-th ascending benign value leaves exactly the top t
    benign values above the copies: the trim removes those, every malicious
    copy survives at the largest surviving position, and no higher
    placement keeps all copies.  When t = 0 nothing is trimmed and the
    largest benign value serves as the stealth boundary instead.  Every
    column's ranks are read from ``s``, the sorted +inf-padded columns.
    """
    t = trim_count(n + p, target.alpha)
    if (n - t < 1).any():
        raise ValueError("trim boundary exceeds the benign neighborhood")
    cols = np.arange(s.shape[1])
    boundary = s[np.where(t >= 1, n - t, n - 1), cols]
    return boundary - EPSILON_SCALE * (1.0 + (s[n - 1, cols] - s[0]))


def _mestimator_values(s: np.ndarray, n: np.ndarray, p, target: AggregatorSpec) -> np.ndarray:
    """Per-coordinate peak-influence value against a Talwar/Tukey defender.

    The copies go to z = med + c0*scale, the influence peak c0 seen through
    the median and normalized MAD of the n benign values plus the p copies.
    Every value lies at or outside the two middle ones, so the MAD is at
    least their half-gap, and the upper middle deviation is at most two
    MADs.  From c >= ``min_tuning_constant`` up (c0*1.4826 >= 2 MADs; the
    tuned defaults give 4.14 and 3.11) the copies thus sort above both
    statistics' middle ranks, which read the same values as with the copies
    at +inf: the median and MAD at count n + p of ``s``, the sorted +inf-padded
    columns, whose order leaves the deviations' sorted magnitudes as they are.
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
    if (p >= n).any():
        raise ValueError(
            "malicious_count must be below benign_count against a Talwar/Tukey"
            " defender: the copies would hold its median"
        )
    c0 = psi_argmax(target.kind, target.c) * (1.0 - BOUNDARY_MARGIN)
    med, scale = _median_and_scale(s, n + p)
    return c0 * scale + med


def craft_attack(
    benign, spec: AttackSpec, malicious_count, layout: Layout | None = None
) -> np.ndarray:
    """Craft the value every malicious neighbor reports in each column of
    ``benign``: one entry per column, all columns in one call.

    ``benign`` and ``layout`` are what ``aggregate_matrix`` takes: column j
    holds the benign values its receiver sees in its first
    ``layout.counts[j]`` rows, above padding that is ignored (every row
    counts when ``layout`` is None).  ``malicious_count`` is the number of
    malicious agents that report the crafted value, one count for every
    column or one per column.  The crafters trust these checks; a crafted
    value past the float range raises ValueError.
    """
    if not isinstance(spec, AttackSpec):
        raise ValueError(f"spec must be an AttackSpec, got {spec!r}")
    a, layout = _as_matrix(benign, layout)
    p = _check_count(malicious_count, "malicious_count")
    if np.ndim(p) and np.shape(p) != (a.shape[1],):
        raise ValueError("malicious_count must be one count, or one per column")
    target = spec.target
    if target is None:
        return np.full(a.shape[1], spec.lv_magnitude)
    # One sort of the +inf-padded columns for both crafters: in place in the
    # padded copy, into a new array where ``a`` may be the caller's own.
    if layout.valid is None:
        s = np.sort(a, axis=0)
    else:
        s = _pad(a, layout.valid, np.inf)
        s.sort(axis=0)
    crafter = _trimmed_values if target.kind is AggregatorKind.TRIMMED_MEAN else _mestimator_values
    with np.errstate(over="ignore"):
        values = crafter(s, layout.counts, p, target)
    if not np.isfinite(values).all():
        raise ValueError(
            "the crafted values overflow the float range: the benign values spread too widely"
        )
    return values
