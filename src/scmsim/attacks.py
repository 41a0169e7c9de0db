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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    AggregatorKind,
    AggregatorSpec,
    M_ESTIMATOR_KINDS,
    TRIM_ALPHA_95,
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
    """What an omniscient attacker knows when targeting one receiver.

    ``benign_values`` holds the current benign weight vectors visible in the
    receiver's neighborhood, one row per benign agent (a 1-D array is one
    coordinate); ``malicious_count`` is the number of malicious agents in
    that neighborhood, all of which will report the crafted vector.  This is
    the one check of crafting input: the crafters below trust it.
    """

    benign_values: np.ndarray
    malicious_count: int

    def __post_init__(self) -> None:
        a = np.asarray(self.benign_values, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.shape[0] == 0:
            raise ValueError("benign_values must be a non-empty (agents, dim) array")
        if not np.isfinite(a).all():
            raise ValueError("benign_values contains non-finite entries")
        if self.malicious_count < 1:
            raise ValueError("malicious_count must be at least 1")
        object.__setattr__(self, "benign_values", a)

    @property
    def dim(self) -> int:
        return self.benign_values.shape[1]


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
    largest benign value serves as the stealth boundary instead.
    """
    a = ctx.benign_values
    n_benign = a.shape[0]
    t = trim_count(n_benign + ctx.malicious_count, target.alpha)
    if n_benign - t < 1:
        raise ValueError("trim boundary exceeds the benign neighborhood")
    s = np.sort(a, axis=0)
    boundary = s[n_benign - t] if t >= 1 else s[n_benign - 1]
    return boundary - EPSILON_SCALE * (1.0 + (s[-1] - s[0]))


def _mestimator_values(ctx: CraftingContext, target: AggregatorSpec) -> np.ndarray:
    """Per-coordinate peak-influence value against a Talwar/Tukey defender.

    Stage one places the value at the influence peak seen through the benign
    median and normalized MAD; stage two recomputes both on the benign set
    plus the provisionally injected copies, accounting for the shift the
    injection itself causes.  The correction is repeated until the placement
    is self-consistent, which the first application almost always already
    is: the copies sit well above the median and MAD ranks, so re-adding
    them at the corrected value leaves both statistics unchanged.  The peak
    residual is backed off by a relative ``BOUNDARY_MARGIN`` so that the
    Talwar copies survive the defender's hard |r| <= c cutoff under float
    rounding.  A zero scale collapses to the median, the only undetectable
    choice there.
    """
    a = ctx.benign_values
    c0 = psi_argmax(target.kind, target.c) * (1.0 - BOUNDARY_MARGIN)
    med, scale = median_and_scale(a)
    z = c0 * scale + med
    for _ in range(SHIFT_CORRECTION_MAX_ROUNDS):
        combined = np.concatenate(
            [a, np.broadcast_to(z, (ctx.malicious_count, a.shape[1]))], axis=0
        )
        med2, scale2 = median_and_scale(combined)
        z_next = c0 * scale2 + med2
        drift = np.abs(z_next - z) <= SHIFT_CORRECTION_RTOL * (1.0 + np.abs(z))
        z = z_next
        if drift.all():
            break
    return z


def craft_attack(ctx: CraftingContext, spec: AttackSpec) -> np.ndarray:
    """Craft the vector every malicious neighbor reports to this receiver."""
    target = spec.target
    if target is None:
        return np.full(ctx.dim, spec.lv_magnitude)
    if target.kind is AggregatorKind.TRIMMED_MEAN:
        return _trimmed_values(ctx, target)
    return _mestimator_values(ctx, target)
