"""Crafting of maximal-influence values against element-wise aggregators.

Each scheme computes, per model coordinate, the smallest value that a group
of coordinating malicious agents can all report to push the receiver's
aggregate as far as possible without being rejected:

* large value: a fixed constant, the limiting strategy against the mean;
* trimmed-mean targeting: just below the lowest order statistic that the
  trim removes, so every malicious copy is kept at the largest surviving
  position;
* M-estimator targeting: the argmax of the influence function, mapped
  through the defender's robust location/scale estimates, corrected for
  the shift those injected values themselves cause.

Every crafter works column by column on order statistics of the benign
values, so a whole round is crafted in one call on the padded
(rows, columns) form that ``aggregate_matrix`` combines, one column per
receiver and coordinate: each column's ranks are read below its own count
from one sort, which gives every column the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    AggregatorKind,
    AggregatorSpec,
    M_ESTIMATOR_KINDS,
    TRIM_ALPHA_95,
    _check_count,
    _check_tuning_constant,
    _counted,
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
# The shift correction is re-applied until self-consistent; the first
# application is already a fixed point except when the injected copies'
# deviation interleaves the combined MAD ranks (small-sample tail cases).
SHIFT_CORRECTION_MAX_ROUNDS = 64
SHIFT_CORRECTION_RTOL = 1e-9


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
    receiver sees in its first ``benign_count[j]`` rows (every row when
    ``benign_count`` is None), and the rows below them are padding, which
    is ignored.  A 1-D array is one column.  ``malicious_count`` is the
    number of malicious agents that will report the crafted value, one
    count for every column or one per column.

    This is the one check of crafting input: the crafters below trust it.
    """

    benign_values: np.ndarray
    malicious_count: int | np.ndarray
    benign_count: np.ndarray | None = None
    # The crafters' view: ``benign_values`` with +inf padding, and every
    # column's benign and malicious counts.
    _columns: np.ndarray = field(init=False, repr=False)
    _benign: np.ndarray = field(init=False, repr=False)
    _malicious: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.benign_values, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.size == 0:
            raise ValueError("benign_values must be a non-empty 1-D or (rows, columns) array")
        n, valid = _counted(a, self.benign_count, "benign_count")
        m = _check_count(self.malicious_count, "malicious_count")
        if np.ndim(m) and np.shape(m) != (a.shape[1],):
            raise ValueError("malicious_count must be one count, or one per column")
        object.__setattr__(self, "benign_values", a)
        object.__setattr__(self, "malicious_count", m)
        object.__setattr__(self, "_columns", _pad(a, valid, np.inf))
        object.__setattr__(self, "_benign", n)
        object.__setattr__(self, "_malicious", np.broadcast_to(m, a.shape[1]))


def psi_argmax(kind: AggregatorKind, c: float) -> float:
    """Residual value at which the influence function peaks: c, or c/sqrt(5)."""
    if kind not in M_ESTIMATOR_KINDS:
        raise ValueError(f"psi_argmax is defined for Talwar/Tukey only, got {kind}")
    _check_tuning_constant(c)
    if kind is AggregatorKind.TALWAR:
        return c
    return c / math.sqrt(5.0)


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
    a, n = ctx._columns, ctx._benign
    t = trim_count(n + ctx._malicious, target.alpha)
    if (n - t < 1).any():
        raise ValueError("trim boundary exceeds the benign neighborhood")
    s = np.sort(a, axis=0)
    cols = np.arange(a.shape[1])
    boundary = s[np.where(t >= 1, n - t, n - 1), cols]
    return boundary - EPSILON_SCALE * (1.0 + (s[n - 1, cols] - s[0]))


def _mestimator_values(ctx: CraftingContext, target: AggregatorSpec) -> np.ndarray:
    """Per-coordinate peak-influence value against a Talwar/Tukey defender.

    Stage one places the value at the influence peak seen through the benign
    median and normalized MAD; stage two recomputes both on the benign set
    plus the provisionally injected copies, accounting for the shift the
    injection itself causes.  The correction is repeated until the placement
    is self-consistent, which the first application almost always already
    is: the copies sit well above the median and MAD ranks, so re-adding
    them at the corrected value leaves both statistics unchanged.  Each
    column stops correcting once it settles; the others go on, so a column
    gets the bits it gets alone.  The peak residual is backed off by a
    relative ``BOUNDARY_MARGIN`` so that the Talwar copies survive the
    defender's hard |r| <= c cutoff under float rounding.  A zero scale
    collapses to the median, the only undetectable choice there.
    """
    a, n, p = ctx._columns, ctx._benign, ctx._malicious
    c0 = psi_argmax(target.kind, target.c) * (1.0 - BOUNDARY_MARGIN)
    med, scale = median_and_scale(a, n)
    z = c0 * scale + med
    copy_rows = np.arange(p.max())[:, None]
    cols = np.arange(a.shape[1])  # the columns still correcting
    for _ in range(SHIFT_CORRECTION_MAX_ROUNDS):
        # Each column: its benign values, then its copies of z, then +inf.
        z_cols = z[cols]
        copies = np.where(copy_rows < p[cols], z_cols, np.inf)
        combined = np.concatenate([a[:, cols], copies], axis=0)
        med2, scale2 = median_and_scale(combined, n[cols] + p[cols])
        z_next = c0 * scale2 + med2
        moving = np.abs(z_next - z_cols) > SHIFT_CORRECTION_RTOL * (1.0 + np.abs(z_cols))
        z[cols] = z_next
        if not moving.any():
            break
        cols = cols[moving]
    return z


def craft_attack(ctx: CraftingContext, spec: AttackSpec) -> np.ndarray:
    """Craft the value every malicious neighbor reports in each column of
    ``ctx``: one entry per column, all columns in one call."""
    target = spec.target
    if target is None:
        return np.full(ctx._columns.shape[1], spec.lv_magnitude)
    if target.kind is AggregatorKind.TRIMMED_MEAN:
        return _trimmed_values(ctx, target)
    return _mestimator_values(ctx, target)
