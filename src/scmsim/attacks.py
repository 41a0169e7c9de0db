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

Every crafter reads only order statistics of the benign values, so a
whole round of receivers is crafted in one call: their neighborhoods are
padded to one row count, and each column's ranks are read below its own
count from one sort, which gives every receiver the bits it gets alone.
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

    For one receiver, ``benign_values`` holds the current benign weight
    vectors visible in its neighborhood, one row per benign agent (a 1-D
    array is one coordinate), and ``malicious_count`` is the number of
    malicious agents in that neighborhood, all of which will report the
    crafted vector.

    For a whole round, ``benign_values`` is (rows, receivers, dim):
    receiver r's vectors fill the first ``benign_count[r]`` rows of
    ``[:, r]`` (every row when ``benign_count`` is None) and the rows past
    them are padding, which is ignored.  ``malicious_count`` is then one
    count per receiver, or one count for all of them.

    This is the one check of crafting input: the crafters below trust it.
    """

    benign_values: np.ndarray
    malicious_count: int | np.ndarray
    benign_count: np.ndarray | None = None
    # The crafters' view: a (rows, receivers*dim) matrix whose padding is
    # +inf, and every column's benign and malicious counts.
    _columns: np.ndarray = field(init=False, repr=False)
    _benign: np.ndarray = field(init=False, repr=False)
    _malicious: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.benign_values, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim not in (2, 3) or a.size == 0:
            raise ValueError(
                "benign_values must be a non-empty (agents, dim) or (rows, receivers, dim) array"
            )
        rows, dim = a.shape[0], a.shape[-1]
        receivers = a.shape[1] if a.ndim == 3 else 1
        m = _check_count(self.malicious_count, "malicious_count")
        if np.ndim(m) and (a.ndim == 2 or np.shape(m) != (receivers,)):
            raise ValueError("malicious_count must be one count, or one per receiver of a round")
        if self.benign_count is None:
            n = np.full(receivers, rows)
        elif a.ndim == 2:
            raise ValueError("benign_count is given only with a (rows, receivers, dim) round")
        else:
            n = _check_count(self.benign_count, "benign_count")
            if np.shape(n) != (receivers,) or (n > rows).any():
                raise ValueError("benign_count must be one count per receiver, at most the rows")
        columns = a.reshape(rows, receivers * dim)
        benign = np.repeat(n, dim)
        valid = np.arange(rows)[:, None] < benign
        if not (np.isfinite(columns) | ~valid).all():
            raise ValueError("benign_values contains non-finite entries")
        object.__setattr__(self, "benign_values", a)
        object.__setattr__(self, "malicious_count", m)
        object.__setattr__(self, "_columns", np.where(valid, columns, np.inf))
        object.__setattr__(self, "_benign", benign)
        object.__setattr__(self, "_malicious", np.repeat(np.broadcast_to(m, receivers), dim))

    @property
    def dim(self) -> int:
        return self.benign_values.shape[-1]


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
    receiver stops correcting once all of its coordinates settle; the
    others go on, so a receiver gets the bits it gets alone.  The peak
    residual is backed off by a relative ``BOUNDARY_MARGIN`` so that the
    Talwar copies survive the defender's hard |r| <= c cutoff under float
    rounding.  A zero scale collapses to the median, the only undetectable
    choice there.
    """
    a, n, p = ctx._columns, ctx._benign, ctx._malicious
    c0 = psi_argmax(target.kind, target.c) * (1.0 - BOUNDARY_MARGIN)
    med, scale = median_and_scale(a, n)
    z = c0 * scale + med
    copy_rows = np.arange(p.max())[:, None]
    cols = np.arange(a.shape[1])  # the columns of the receivers still correcting
    for _ in range(SHIFT_CORRECTION_MAX_ROUNDS):
        # Each column: its benign values, then its copies of z, then +inf.
        z_cols = z[cols]
        copies = np.where(copy_rows < p[cols], z_cols, np.inf)
        combined = np.concatenate([a[:, cols], copies], axis=0)
        med2, scale2 = median_and_scale(combined, n[cols] + p[cols])
        z_next = c0 * scale2 + med2
        drift = np.abs(z_next - z_cols) <= SHIFT_CORRECTION_RTOL * (1.0 + np.abs(z_cols))
        z[cols] = z_next
        moving = ~drift.reshape(-1, ctx.dim).all(axis=1)
        if not moving.any():
            break
        cols = cols.reshape(-1, ctx.dim)[moving].ravel()
    return z


def craft_attack(ctx: CraftingContext, spec: AttackSpec) -> np.ndarray:
    """Craft the vector every malicious neighbor reports to each receiver.

    One receiver's context gives its (dim,) vector; a round's context gives
    (receivers, dim), one row per receiver, in one call.
    """
    target = spec.target
    if target is None:
        z = np.full(ctx._columns.shape[1], spec.lv_magnitude)
    elif target.kind is AggregatorKind.TRIMMED_MEAN:
        z = _trimmed_values(ctx, target)
    else:
        z = _mestimator_values(ctx, target)
    return z.reshape(ctx.benign_values.shape[1:])
