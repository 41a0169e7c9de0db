import functools
import math
import operator
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.stats import median_abs_deviation

from scmsim import estimators
from scmsim.attacks import EPSILON_SCALE, AttackSpec, craft_attack
from scmsim.estimators import (
    EFFICIENCY_CI_BATCHES,
    FIXED_POINT_TOL,
    M_ESTIMATOR_KINDS,
    AggregatorKind,
    AggregatorSpec,
    Layout,
    MAD_NORMALIZATION,
    TALWAR_C_95,
    TRIM_ALPHA_95,
    TUKEY_C_95,
    aggregate_matrix,
    estimate,
    mad,
    monte_carlo_efficiency,
    psi,
    trim_count,
    tuned_aggregators,
    _BLOCK_COLUMNS,
    _aggregate_columns,
    _median_and_scale,
    _ranked_median,
    _row_sum,
)
from scmsim.sensitivity import default_search_bounds, max_sc_numeric, sensitivity_values
from scmsim.simulation import LearningConfig, LinearModelConfig

ALL_SPECS = tuned_aggregators()
MEAN = AggregatorSpec.sample_mean()
MEDIAN = AggregatorSpec.median()
M_SPECS = [AggregatorSpec.talwar(), AggregatorSpec.tukey()]
# Every entry that takes a 1-D sample set, as a call on that set alone.
SAMPLE_SET_ENTRIES = [
    functools.partial(estimate, MEAN),
    functools.partial(estimate, MEDIAN),
    mad,
    default_search_bounds,
    lambda values: sensitivity_values(MEDIAN, values, 1.0),
    functools.partial(max_sc_numeric, MEDIAN),
]


def full_layout(a):
    """The layout of ``a`` that counts every row."""
    return Layout.of(a.shape, np.full(a.shape[1], a.shape[0]), "counts")


def m_estimate(a, kind, c, layout):
    """(locations, converged flags, steps taken) of one M-estimator on ``a``."""
    values, flags, steps = _aggregate_columns([AggregatorSpec(kind, c=c)], a, layout)
    return values[0], flags[0], steps[0]


def rho_objective(values, spec, mu):
    """Independent objective whose minimizer is the M-estimate.

    rho is the integral of psi: for Talwar min(x^2, c^2)/2, for Tukey the
    standard biweight rho, evaluated at fixed scale = normalized MAD.
    ``mu`` may be a scalar or a grid of candidate locations.
    """
    sigma = mad(values)
    r = (np.asarray(values)[:, None] - np.atleast_1d(mu)[None, :]) / sigma
    c = spec.c
    if spec.kind is AggregatorKind.TALWAR:
        obj = np.minimum(r * r, c * c).sum(axis=0) / 2.0
    else:
        u = np.clip(1.0 - (r / c) ** 2, 0.0, None)
        obj = (c * c / 6.0 * (1.0 - u**3)).sum(axis=0)
    return float(obj[0]) if np.isscalar(mu) else obj


def irls_reference(values, spec):
    """The reweighted mean t = sum(w*u)/sum(w), w = psi(u - t)/(u - t),
    iterated from the median in units u of the MAD scale until it stops
    moving.  Returns (location, scale)."""
    values = np.asarray(values, dtype=float)
    med = np.median(values)
    sigma = MAD_NORMALIZATION * np.median(np.abs(values - med))
    u, t, c = (values - med) / sigma, 0.0, spec.c
    for _ in range(10_000):
        r = u - t
        w = np.where(np.abs(r) <= c, 1.0, 0.0)
        if spec.kind is AggregatorKind.TUKEY:
            w *= (1.0 - np.minimum((r / c) ** 2, 1.0)) ** 2
        t, last = (w * u).sum() / w.sum(), t
        if abs(t - last) <= 1e-13:
            break
    return med + sigma * t, sigma


def brute_force_m_estimate(values, spec, points=20001):
    """Grid search over [min, max] plus golden-section refinement."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    grid = np.linspace(lo, hi, points)
    objs = rho_objective(values, spec, grid)
    i = int(objs.argmin())
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, points - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = rho_objective(values, spec, x1)
    f2 = rho_objective(values, spec, x2)
    for _ in range(120):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = rho_objective(values, spec, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = rho_objective(values, spec, x2)
    return (a + b) / 2.0


class TestScalarEstimators:
    def test_sample_mean_examples(self):
        assert estimate(MEAN, [1, 2, 3]) == 2
        assert estimate(MEAN, [5]) == 5
        assert estimate(MEAN, [0, 0, 0, 100]) == 25

    # Each 1-D entry is pinned to the one matrix check by its message.
    def test_empty_set_rejected(self):
        for entry in SAMPLE_SET_ENTRIES:
            with pytest.raises(ValueError, match="empty"):
                entry([])

    def test_non_finite_rejected(self):
        for entry in SAMPLE_SET_ENTRIES:
            with pytest.raises(ValueError, match="non-finite"):
                entry([1.0, np.inf])

    def test_median_examples(self):
        assert estimate(MEDIAN, [3, 1, 2]) == 2
        assert estimate(MEDIAN, [1, 2, 3, 100]) == 2.5
        assert estimate(MEDIAN, [7]) == 7

    def test_mad_examples(self):
        assert mad([4.2, 4.2, 4.2]) == 0
        assert mad([1, 2, 3, 4, 5]) == 1.4826

    def test_mad_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(201)
        ours = mad(x)
        reference = median_abs_deviation(x, scale="normal")
        # reference uses 1/ppf(0.75) = 1.4826022...; ours pins 1.4826
        assert ours == pytest.approx(reference, rel=1e-4)

    def test_trimmed_mean_examples(self):
        trim = AggregatorSpec.trimmed_mean
        assert estimate(trim(0.2), [0, 1, 2, 3, 100]) == 2
        assert estimate(trim(), [1, 2, 3]) == 2  # floor(0.0688*3) = 0
        assert estimate(trim(0.2), [-1000, 5, 5, 5, 1000]) == 5

    def test_trim_fraction_validated(self):
        with pytest.raises(ValueError):
            estimate(AggregatorSpec.trimmed_mean(0.5), [1, 2, 3])
        with pytest.raises(ValueError):
            trim_count(10, -0.1)

    def test_trim_count(self):
        assert trim_count(100, TRIM_ALPHA_95) == 6
        assert trim_count(3, TRIM_ALPHA_95) == 0
        assert trim_count(23, TRIM_ALPHA_95) == 1


# A real-valued parameter takes one real number: a bool, a string or an
# array raises a ValueError naming it, by (name, constructor of the value).
NOT_ONE_REAL = [
    ("tuning constant c", lambda: AggregatorSpec.talwar(True)),
    ("tuning constant c", lambda: AggregatorSpec.talwar("3")),
    ("tuning constant c", lambda: AggregatorSpec.tukey(np.array([3.0, 5.0]))),
    ("tuning constant c", lambda: AggregatorSpec.talwar(np.array(3.0))),
    ("trim fraction", lambda: AggregatorSpec.trimmed_mean(False)),
    ("trim fraction", lambda: trim_count(10, "0.1")),
    ("lv_magnitude", lambda: AttackSpec.large_value(True)),
    ("lv_magnitude", lambda: AttackSpec.large_value("5")),
    ("step_size", lambda: LearningConfig(step_size=True)),
    ("noise_var", lambda: LinearModelConfig(np.zeros(2), noise_var=np.array([0.1, 0.2]))),
]


@pytest.mark.parametrize(
    "name, make", NOT_ONE_REAL, ids=[f"{name}-{i}" for i, (name, _) in enumerate(NOT_ONE_REAL)]
)
def test_real_parameter_takes_one_real_number(name, make):
    prefix = "trim fraction must lie in" if name == "trim fraction" else f"{name} must be finite"
    with pytest.raises(ValueError, match=prefix):
        make()


@pytest.mark.parametrize("kind", ["median", None, 3])
def test_spec_kind_must_be_an_aggregator_kind(kind):
    # A kind that is not an AggregatorKind would reach the M-estimation
    # branch of every call and fail there without naming the field.
    with pytest.raises(ValueError, match="kind must be an AggregatorKind"):
        AggregatorSpec(kind)


def test_numpy_real_parameters_keep_their_bytes():
    # A NumPy float or int is one real number, kept as it is.
    values = np.random.default_rng(5).standard_normal((9, 4))
    for spec, same in (
        (AggregatorSpec.talwar(np.float64(TALWAR_C_95)), AggregatorSpec.talwar()),
        (AggregatorSpec.tukey(np.int64(5)), AggregatorSpec.tukey(5.0)),
        (AggregatorSpec.trimmed_mean(np.float64(0.2)), AggregatorSpec.trimmed_mean(0.2)),
    ):
        got, want = aggregate_matrix(spec, values).values, aggregate_matrix(same, values).values
        assert got.tobytes() == want.tobytes()
    assert AttackSpec.large_value(np.int64(5)).lv_magnitude == 5
    assert LearningConfig(step_size=np.float64(0.1)).step_size == 0.1


class TestPsi:
    def test_talwar_identity_branch(self):
        assert psi(AggregatorKind.TALWAR, 0.5, TALWAR_C_95) == 0.5

    def test_rejection_beyond_c(self):
        for kind in (AggregatorKind.TALWAR, AggregatorKind.TUKEY):
            assert psi(kind, 5.0, 2.0) == 0.0
            assert psi(kind, -5.0, 2.0) == 0.0

    def test_tukey_zero_at_c(self):
        for c in (1.0, TUKEY_C_95):
            assert psi(AggregatorKind.TUKEY, c, c) == 0.0

    def test_tukey_peak_value(self):
        c = TUKEY_C_95
        x = c / math.sqrt(5.0)
        expected = x * (16.0 / 25.0)
        assert psi(AggregatorKind.TUKEY, x, c) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.3409, abs=1e-4)
        # numeric maximization confirms the peak location
        xs = np.linspace(0, c, 200001)
        vals = psi(AggregatorKind.TUKEY, xs, c)
        assert abs(xs[int(np.argmax(vals))] - x) < 1e-4

    def test_infinite_residual_is_rejected_as_zero(self):
        for kind in (AggregatorKind.TALWAR, AggregatorKind.TUKEY):
            assert psi(kind, math.inf, 2.0) == 0.0
            assert psi(kind, -math.inf, 2.0) == 0.0
            out = psi(kind, np.array([-np.inf, 0.5, np.inf]), 2.0)
            assert out[0] == 0.0 and out[2] == 0.0

    def test_tukey_weights_bits_match_masked_formula(self):
        # psi against the masked forms r*w, on and beside the rejection
        # boundary, at signed and tiny zeros, at infinite and NaN residuals,
        # and on random draws, at c from the smallest float to the largest.
        # The ``where`` keeps +0.0 where the weight is 0, at r = -c too.
        rng = np.random.default_rng(31)
        for c in (1.0, TUKEY_C_95, 0.3, 1e-300, 1e300, 5e-324, 1.7e308):
            edge = np.array([c, np.nextafter(c, np.inf), np.nextafter(c, 0.0), 0.0, 1e-300,
                             np.inf, np.nan])
            with np.errstate(over="ignore"):
                r = np.concatenate([edge, -edge, c * rng.uniform(-1.5, 1.5, 2000),
                                    rng.standard_normal(2000)]).reshape(2, -1)
                kept = np.abs(r) <= c
                u = np.where(kept, 1.0 - (r / c) ** 2, 0.0)
            w = u * u
            tukey = np.multiply(r, w, out=np.zeros_like(r), where=w > 0)
            assert psi(AggregatorKind.TUKEY, r, c).tobytes() == tukey.tobytes()
            assert psi(AggregatorKind.TALWAR, r, c).tobytes() == np.where(kept, r, 0.0).tobytes()
        for kind in M_ESTIMATOR_KINDS:
            assert psi(kind, math.nan, 2.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            psi(AggregatorKind.MEDIAN, 1.0, 1.0)
        for bad_c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                psi(AggregatorKind.TALWAR, 1.0, bad_c)


class TestMEstimate:
    def test_symmetric_fixed_point(self):
        s = np.array([1.0, 2.0, 3.0])
        spec = AggregatorSpec.tukey()
        assert estimate(spec, s) == pytest.approx(2.0, abs=1e-12)
        assert aggregate_matrix(spec, s[:, None]).converged

    @pytest.mark.parametrize("spec", M_SPECS, ids=lambda s: s.label)
    def test_overflowing_residual_still_converges(self, spec):
        # (1.7e308 - median) / MAD overflows to inf; that sample is rejected
        # and the fixed point on the rest is reported as converged.
        s = np.array([0.0, 0.1, 0.2, 0.25, 0.3, 1.7e308])
        res = aggregate_matrix(spec, s[:, None])
        assert res.converged
        assert 0.0 <= res.values[0] <= 0.3

    @pytest.mark.parametrize("spec", M_SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("tiny", [1e-300, 1e-310])
    def test_residual_past_float_range_is_rejected_silently(self, spec, tiny):
        # Beside a MAD of about 1.5 * tiny, the residual of 1.0 (at 1e-310)
        # or Tukey's (r/c)**2 (at 1e-300) passes the float range: it is
        # infinite and gets weight 0, with no overflow warning.  The values
        # are the ones computed with the warning ignored.
        want = {
            ("talwar", 1e-300): ("1.5e-300", "0.0"),
            ("tukey", 1e-300): ("1.5e-300", "0.0"),
            ("talwar", 1e-310): ("1.49999999999997e-310", "0.0"),
            ("tukey", 1e-310): ("1.5e-310", "2.5e-323"),
        }
        s = [0.0, tiny, 2 * tiny, 3 * tiny, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimate(spec, s), sensitivity_values(spec, s[:4], 1.0, 1)
            assert psi(spec.kind, [1e300, -1e200, 1.0], spec.c)[:2].tolist() == [0.0, 0.0]
        assert tuple(map(repr, got)) == want[spec.label, tiny]

    def test_zero_scale_short_circuits_to_median(self):
        s = np.array([0.0, 0.0, 0.0, 0.0, 1000.0])
        spec = AggregatorSpec.talwar()
        assert estimate(spec, s) == 0.0
        assert aggregate_matrix(spec, s[:, None]).converged

    def test_matches_brute_force_objective_search(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(50)
        spec = AggregatorSpec.tukey()
        got = estimate(spec, s)
        want = brute_force_m_estimate(s, spec)
        assert aggregate_matrix(spec, s[:, None]).converged
        assert got == pytest.approx(want, abs=1e-6)

    def test_talwar_fixed_point_is_local_objective_minimum(self):
        # The hard cutoff makes the objective piecewise quadratic with
        # occasionally nearly-tied basins; the fixed point from the median
        # may then differ from the global search, but it must always be a
        # genuine local minimum (zero of the estimating equation), and it
        # coincides with the global minimizer on the vast majority of draws.
        rng = np.random.default_rng(88)
        spec = AggregatorSpec.talwar()
        agree = 0
        total = 100
        for _ in range(total):
            s = rng.standard_normal(int(rng.integers(20, 80)))
            got = estimate(spec, s)
            assert aggregate_matrix(spec, s[:, None]).converged
            want = brute_force_m_estimate(s, spec)
            if abs(got - want) <= 1e-6:
                agree += 1
            else:
                nearby = rho_objective(s, spec, got)
                assert nearby <= rho_objective(s, spec, got + 1e-4)
                assert nearby <= rho_objective(s, spec, got - 1e-4)
        assert agree >= 0.95 * total

    def test_residual_bound_when_converged(self):
        rng = np.random.default_rng(3)
        for spec in M_SPECS:
            for _ in range(50):
                s = rng.standard_normal(int(rng.integers(3, 60)))
                if not aggregate_matrix(spec, s[:, None]).converged:
                    continue
                sigma = mad(s)
                resid = psi(spec.kind, (s - estimate(spec, s)) / sigma, spec.c).sum()
                assert abs(resid) <= s.size * FIXED_POINT_TOL * (1 + 1e-12)

    @pytest.mark.parametrize("spec", M_SPECS, ids=lambda s: s.label)
    def test_column_near_float_limit_has_finite_location(self, spec):
        # The deviation and the standardized residual of -1.5e308 from the
        # median 1.5e308 pass the float range: they are infinite and
        # rejected, with no overflow warning, and the other two samples
        # keep a finite location.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = aggregate_matrix(spec, [[-1.5e308], [1.5e308], [1.6e308]])
        assert res.converged
        assert 1.5e308 <= res.values[0] <= 1.6e308

    @pytest.mark.parametrize(
        "kind, want", [(AggregatorKind.TALWAR, 3e306), (AggregatorKind.TUKEY, 1.7301834122069118e306)]
    )
    def test_rejection_holds_at_the_largest_constants(self, kind, want):
        # At c = the largest float, the +inf padding is still rejected: the
        # location is the mean of the two counted rows.  At c = 1e308, the
        # residual of -1e308 passes the float range once t leaves the median,
        # and is still rejected with psi 0, never NaN.  c * sum(psi')
        # overflows at these c, silently.
        padded = Layout.of((3, 1), [2], "counts")
        col = np.append(np.linspace(-0.5, 0.5, 9), [-1e308, 3e307])[:, None]
        top = aggregate_matrix(AggregatorSpec(kind, c=np.finfo(float).max), [[0.0], [1.0], [5.0]], padded)
        wide = aggregate_matrix(AggregatorSpec(kind, c=1e308), col)
        assert (top.values[0], top.converged) == (0.5, True)
        assert (wide.values[0], wide.converged) == (want, True)

    @pytest.mark.parametrize(
        "spec",
        [AggregatorSpec.talwar(1e308), AggregatorSpec.tukey(1e308), AggregatorSpec.talwar(np.finfo(float).max)],
        ids=["talwar-1e308", "tukey-1e308", "talwar-max"],
    )
    def test_step_rule_product_overflows_silently(self, spec):
        # c * sum(psi') passes the float range at these c; compared as inf,
        # it leaves Newton's step, with no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = aggregate_matrix(spec, np.linspace(0, 1, 12)[:, None])
        assert (got.values[0], got.converged) == (0.5, True)

    @pytest.mark.parametrize("spec", M_SPECS, ids=lambda s: s.label)
    def test_padded_columns_keep_the_reweighted_mean_root(self, spec):
        # 200 columns of 18-28 Gaussian samples and 0-6 copies at 2.1 scales
        # above their median, in one padded call: Newton's steps must end
        # on the root the reweighted mean reaches from the median.
        rng = np.random.default_rng(19)
        n = rng.integers(18, 29, 200)
        p = rng.integers(0, 7, 200)
        columns = []
        for k in range(200):
            benign = rng.standard_normal(n[k])
            copy = np.median(benign) + 2.1 * mad(benign)
            columns.append(np.concatenate([benign, np.full(p[k], copy)]))
        counts = n + p
        a = rng.uniform(-1e6, 1e6, (counts.max(), 200))  # padding below each count
        for k, col in enumerate(columns):
            a[: col.size, k] = col
        got, conv, _ = m_estimate(a, spec.kind, spec.c, Layout.of(a.shape, counts, "counts"))
        assert conv.all()
        for k, col in enumerate(columns):
            want, sigma = irls_reference(col, spec)
            assert abs(got[k] - want) <= 1e-8 * sigma

    def test_tukey_falls_back_on_a_bimodal_column(self):
        # Two clusters with a lone sample between them and the median between
        # that sample and the left cluster.  At c = 2, those seven samples
        # keep psi' of only 0.35-0.66 each, while the right cluster sits near
        # psi's lowest slope, -0.8: sum(psi') < 0 at the median, so the first
        # step is the reweighted mean's.  (At c = 4.685, the half of the
        # samples within 0.6745 scales of the median keep sum(psi') > 0.)
        # The location is the root nearest the median, which here is also
        # the objective's global minimum.
        spec = AggregatorSpec.tukey(2.0)
        s = np.concatenate([np.linspace(-3.3, -2.7, 6), [0.1], np.linspace(2.7, 3.3, 5)])
        v = np.minimum(((s - np.median(s)) / mad(s) / spec.c) ** 2, 1.0)
        assert ((1.0 - v) * (1.0 - 5.0 * v)).sum() <= 0.0
        got = estimate(spec, s)
        assert aggregate_matrix(spec, s[:, None]).converged
        assert got == pytest.approx(brute_force_m_estimate(s, spec), abs=1e-6)
        want, sigma = irls_reference(s, spec)
        assert abs(got - want) <= 1e-8 * sigma

    def test_tukey_takes_no_newton_step_longer_than_c(self):
        # On its fourth step sum(psi') is positive but near 0, and Newton's
        # step would be 12.6 scales long, past every sample.  Capped at c,
        # the reweighted mean's reach, it gives way to that mean's step, and
        # the iteration ends on the reweighted mean's root.
        spec = AggregatorSpec.tukey(1.5)
        s = np.array([2.4, -1.0, 1.4, -0.4])
        res = aggregate_matrix(spec, s[:, None])
        assert res.converged
        want, sigma = irls_reference(s, spec)
        assert abs(res.values[0] - want) <= 1e-8 * sigma

    def test_efficiency_chunk_iterations(self):
        # Newton's steps settle a 100 x 20,000 Gaussian chunk, run as 40
        # slices of 500 columns, in at most 6 steps per slice for both rules;
        # Tukey's reweighted means took 18.
        a = np.random.default_rng(0).standard_normal((100, 20000))
        for spec in M_SPECS:
            _, conv, iters = m_estimate(a, spec.kind, spec.c, full_layout(a))
            assert conv.all()
            assert iters <= 6

    @pytest.mark.parametrize("spec", M_SPECS, ids=lambda s: s.label)
    def test_iterations_count_steps_taken(self, spec, monkeypatch):
        # Every step takes one evaluation of the sums, and a column stops
        # right after the step that brings it within tolerance: 2 (Talwar)
        # or 3 (Tukey) of each for a Gaussian column, none for a column whose
        # scale is zero.  A column whose every sample is rejected at the
        # median stops after one evaluation, without a step.
        evaluations = []
        psi_sums = estimators._psi_sums

        def counted(*args):
            evaluations.append(1)
            return psi_sums(*args)

        monkeypatch.setattr(estimators, "_psi_sums", counted)
        gauss = np.random.default_rng(0).standard_normal(24)
        steps = {"talwar": 2, "tukey": 3}[spec.label]
        for values, c, want, evals, flag in (
            (np.repeat([-50.0, 50.0], 12), 0.3, 0, 1, False),
            (np.full(24, 1.5), spec.c, 0, 0, True),
            (gauss, spec.c, steps, steps, True),
        ):
            evaluations.clear()
            a = values[:, None]
            _, conv, iters = m_estimate(a, spec.kind, c, full_layout(a))
            assert (iters, len(evaluations)) == (want, evals)
            assert conv.tolist() == [flag]
        # The 100 x 20,000 efficiency chunk: one evaluation per step of each
        # of its 40 slices.
        evaluations.clear()
        a = np.random.default_rng(0).standard_normal((100, 20000))
        _, conv, _ = m_estimate(a, spec.kind, spec.c, full_layout(a))
        assert conv.all()
        assert len(evaluations) == {"talwar": 168, "tukey": 157}[spec.label]

    def test_step_budget_stops_unconverged(self, monkeypatch):
        # A Gaussian Tukey column needs 3 Newton steps.  Two allowed leave it
        # at the second iterate, flagged non-converged; three converge.  The
        # zero-scale and all-rejected stops are pinned above.
        spec = AggregatorSpec.tukey()
        gauss = np.random.default_rng(0).standard_normal(24)
        med = np.median(gauss)
        sigma = MAD_NORMALIZATION * np.median(np.abs(gauss - med))
        u, t, c = (gauss - med) / sigma, 0.0, spec.c
        for _ in range(2):
            r = u - t
            s = np.where(np.abs(r) <= c, 1.0 - (r / c) ** 2, 0.0)
            t += (r * s * s).sum() / (s * (5.0 * s - 4.0)).sum()
        a = gauss[:, None]
        locs = {}
        for budget, flag in ((2, False), (3, True)):
            monkeypatch.setattr(estimators, "FIXED_POINT_MAX_ITER", budget)
            locs[budget], conv, iters = m_estimate(a, spec.kind, spec.c, full_layout(a))
            assert (iters, conv.tolist()) == (budget, [flag])
        assert locs[2][0] == pytest.approx(med + sigma * t, rel=0, abs=1e-15)
        # The third step is shorter than the tolerance but moves the location.
        assert abs(locs[3][0] - locs[2][0]) > 1e-13


class TestBlocks:
    @pytest.mark.parametrize("spec", M_SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("width", [1023, 1024, 1025, 1537])
    def test_column_bits_do_not_depend_on_call_width(self, spec, width):
        # A wide call of three or four slices of unequal widths is tiled
        # from 40 source columns.  In either layout, each column must equal
        # its source in a 2-column and in a 1-column call.  The slowest
        # source sits only in the last column, so only the call's last
        # slice takes that column's steps.
        assert -(-width // _BLOCK_COLUMNS) in (3, 4)
        rng = np.random.default_rng(width)
        cols = rng.standard_normal((24, 40))
        cols[:, 0] = 1.5  # zero scale: the median is returned directly
        cols[:, 1] = np.repeat([-50.0, 50.0], 12)  # every sample rejected below c = 0.67
        for c in (spec.c, 0.3):
            for layout, narrow in (
                (np.ascontiguousarray, lambda k: np.ascontiguousarray(cols[:, [k, k]])),
                (np.asfortranarray, lambda k: np.asfortranarray(cols[:, k : k + 1])),
            ):
                refs = [m_estimate(narrow(k), spec.kind, c, full_layout(narrow(k)))
                        for k in range(40)]
                ref_iters = [it for _, _, it in refs]
                slow = int(np.argmax(ref_iters))
                source = rng.choice(np.delete(np.arange(40), slow), width)
                source[-1] = slow
                a = layout(cols[:, source])
                loc, conv, iters = m_estimate(a, spec.kind, c, full_layout(a))
                assert loc.tobytes() == np.array([refs[k][0][0] for k in source]).tobytes()
                assert conv.tolist() == [bool(refs[k][1][0]) for k in source]
                assert iters == ref_iters[slow]
                assert refs[0][1][0] and refs[1][1][0] == (c > 0.67)


# Each rule's (variance ratio, CI low, CI high) at sample size 30, seed 3:
# 5,121 trials make unequal CI batches and 20,001 a one-column second chunk.
PINNED_EFFICIENCY_ROWS = {
    5121: {
        "sample_mean": (1.0, 1.0, 1.0),
        "trimmed_mean": (0.9631661070779567, 0.9551852616526672, 0.9711469525032462),
        "talwar": (0.9173986012931459, 0.9044623512232746, 0.9303348513630172),
        "tukey": (0.9306677634967444, 0.9198728010142074, 0.9414627259792814),
        "median": (0.6595113427438203, 0.6422864145553591, 0.6767362709322815),
    },
    20001: {
        "sample_mean": (1.0, 1.0, 1.0),
        "trimmed_mean": (0.9663519896763355, 0.9620737383598981, 0.970630240992773),
        "talwar": (0.9046475627313953, 0.8972266441458212, 0.9120684813169695),
        "tukey": (0.9264949843569869, 0.9199921945238422, 0.9329977741901315),
        "median": (0.669832884430726, 0.6604329982186631, 0.6792327706427889),
    },
}


class TestEfficiency:
    def test_fewer_than_two_trials_per_batch_rejected(self):
        # A one-trial batch has variance 0: its ratio would be 0/0 and the
        # band NaN.
        for trials in (EFFICIENCY_CI_BATCHES, 2 * EFFICIENCY_CI_BATCHES - 1):
            with pytest.raises(ValueError, match="trials"):
                monte_carlo_efficiency([MEDIAN], trials, 2, seed=0)
        (row,) = monte_carlo_efficiency([MEDIAN], 2 * EFFICIENCY_CI_BATCHES, 2, seed=0)
        assert np.isfinite([row.variance_ratio, row.ci_low, row.ci_high]).all()
        # Larger trial counts give each rule its pinned row, bit for bit,
        # whether the list lacks the mean, puts it last or repeats it.
        for trials, pinned in PINNED_EFFICIENCY_ROWS.items():
            for specs in ([MEDIAN], [M_SPECS[1], MEAN], ALL_SPECS[::-1], [MEAN, MEAN]):
                rows = monte_carlo_efficiency(specs, trials, 30, seed=3)
                assert [(r.label, *map(float, r[1:])) for r in rows] == [
                    (s.label, *pinned[s.label]) for s in specs
                ]

    def test_sample_size_below_two_rejected(self):
        for sample_size in (0, 1):
            with pytest.raises(ValueError, match="sample_size"):
                monte_carlo_efficiency([MEDIAN], 100, sample_size, seed=0)

    def test_counts_read_as_whole_numbers(self):
        # A whole float counts as its integer; a fraction, a list or a bool
        # raises a named ValueError, not NumPy's TypeError.
        want = monte_carlo_efficiency([MEDIAN], 1000, 10, seed=0)
        assert monte_carlo_efficiency([MEDIAN], 1e3, 10.0, seed=0) == want
        for trials, sample_size, name in (
            (1000.5, 10, "trials"), ([1000], 10, "trials"), (True, 10, "trials"),
            (1000, 10.5, "sample_size"), (1000, [10], "sample_size"),
        ):
            with pytest.raises(ValueError, match=name):
                monte_carlo_efficiency([MEDIAN], trials, sample_size, seed=0)


class TestArgumentTypes:
    @pytest.mark.parametrize("seed", [None, True, 1.5, "a", -3], ids=repr)
    def test_efficiency_seed_must_be_a_whole_number(self, seed):
        # None would draw fresh entropy and True run as seed 1.
        with pytest.raises(ValueError, match="seed must be a whole number"):
            monte_carlo_efficiency([MEDIAN], 40, 5, seed)

    @pytest.mark.parametrize(
        "rule", ["median", AggregatorKind.MEDIAN, AttackSpec.tukey_scm(TUKEY_C_95), None], ids=repr
    )
    def test_rule_must_be_an_aggregator_spec(self, rule):
        # Every entry reaches the one multi-rule call, which names the rule.
        for call in (
            lambda: aggregate_matrix(rule, np.ones((3, 2))),
            lambda: estimate(rule, [1.0, 2.0]),
            lambda: monte_carlo_efficiency([MEDIAN, rule], 40, 5, 0),
        ):
            with pytest.raises(ValueError, match="must hold AggregatorSpecs only"):
                call()

    @pytest.mark.parametrize("specs", [MEDIAN, "median", None], ids=repr)
    def test_efficiency_rules_must_be_a_sequence(self, specs):
        with pytest.raises(ValueError, match="specs must be a sequence of AggregatorSpecs"):
            monte_carlo_efficiency(specs, 40, 5, 0)


class TestAggregate:
    def test_mean_per_coordinate(self):
        np.testing.assert_allclose(
            aggregate_matrix(MEAN, [[1, 10], [3, 20]]).values, [2, 15]
        )

    def test_median_per_coordinate(self):
        np.testing.assert_allclose(
            aggregate_matrix(MEDIAN, [[1, 9], [2, 8], [100, 7]]).values, [2, 8]
        )

    def test_single_vector_identity_all_kinds(self):
        v = np.array([0.3, -1.2, 7.0])
        for spec in ALL_SPECS:
            np.testing.assert_allclose(aggregate_matrix(spec, [v]).values, v)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_matrix(MEDIAN, [[1, 2], [1, 2, 3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_matrix(MEDIAN, [])
        with pytest.raises(ValueError, match="empty"):
            aggregate_matrix(MEDIAN, np.empty((0, 2)))

    def test_counts_validated(self):
        a = np.zeros((4, 3))
        for bad in ([1, 2], [[1, 2, 3]], 3, [1, 2, 5], [0, 1, 2], [1.5, 2, 3],
                    np.ones(3, dtype=bool), ["1", "2", "3"]):
            with pytest.raises(ValueError, match="counts"):
                Layout.of(a.shape, bad, "counts")
        layout = Layout.of(a.shape, [4.0, 1, 2], "counts")
        assert aggregate_matrix(MEDIAN, a, layout).values.tolist() == [0.0] * 3
        # A layout checks the shape of every matrix it is used with.
        for other in (np.zeros((4, 2)), np.zeros((5, 3)), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="layout"):
                aggregate_matrix(MEDIAN, other, layout)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_non_finite_checked_on_counted_rows_only(self, spec):
        a = np.arange(8.0).reshape(4, 2)
        a[3, 0] = np.nan
        a[2:, 1] = np.inf
        got = aggregate_matrix(spec, a, Layout.of(a.shape, [3, 2], "counts")).values
        assert got.tolist() == [estimate(spec, a[:3, 0]), estimate(spec, a[:2, 1])]
        for counts in ([4, 2], [3, 3]):
            with pytest.raises(ValueError, match="non-finite"):
                aggregate_matrix(spec, a, Layout.of(a.shape, counts, "counts"))

    def test_trimmed_infeasible_column_rejected(self, monkeypatch):
        # floor(alpha * n) < n / 2 for every n and every alpha < 0.5, so a
        # valid spec keeps a sample of every column; a trim count that
        # swallows one column of several is still refused.
        n = np.arange(1, 100001)
        assert (n - 2 * trim_count(n, np.nextafter(0.5, 0.0)) >= 1).all()
        monkeypatch.setattr(estimators, "trim_count", lambda n, alpha: n // 2)
        with pytest.raises(ValueError, match="trimming would discard every sample"):
            aggregate_matrix(
                AggregatorSpec.trimmed_mean(), np.zeros((4, 2)), Layout.of((4, 2), [3, 4], "counts")
            )


class TestRowOrder:
    def test_row_sum_adds_rows_in_order(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((27, 5)) * 10.0 ** rng.integers(-8, 9, (27, 5))
        want = [functools.reduce(operator.add, a[:, j].tolist()) for j in range(5)]
        for arr in (a, np.asfortranarray(a)):
            assert _row_sum(arr).tolist() == want
            for j in range(5):
                assert _row_sum(arr[:, j : j + 1]).tolist() == [want[j]]

    @pytest.mark.parametrize(
        "spec", ALL_SPECS + [AggregatorSpec.talwar(0.3), AggregatorSpec.tukey(0.3)],
        ids=lambda s: f"{s.label}-{s.c}" if s.c else s.label,
    )
    def test_column_bits_invariant_to_width_layout_padding(self, spec):
        # 40 source columns of 1 to 28 values, each estimated alone as an
        # (n, 1) call, are tiled into calls of several widths, C- and
        # F-ordered, with padding of one value below each column's count
        # and three rows below every count.  Width 0 comes last so that it
        # leaves the other widths' draws unchanged.
        rng = np.random.default_rng(51)
        rows = 28
        cols = rng.standard_normal((rows, 40)) * rng.uniform(1e-3, 50.0, 40)
        cols[:, 10:20] = np.round(cols[:, 10:20])  # ties and -0.0
        cols[:, 20:25] = rng.choice([-0.0, 0.0, 1e-3, 1.0], (rows, 5))
        cols[:, 0] = 1.5  # zero scale: the median is returned directly
        cols[:, 1] = np.repeat([-50.0, 50.0], rows // 2)  # all rejected when c = 0.3
        cols[:, 25] = -0.0  # its sums stay -0.0 only if padding adds -0.0
        cols[-6:, 2:10] = 2.5  # copies near the M-estimators' cutoff
        counts = rng.integers(1, rows + 1, 40)
        counts[:3] = rows
        alone = [aggregate_matrix(spec, cols[:k, j : j + 1]) for j, k in enumerate(counts)]
        if spec.kind in M_ESTIMATOR_KINDS:
            flags = [
                m_estimate(cols[:k, j : j + 1], spec.kind, spec.c,
                           full_layout(cols[:k, j : j + 1]))[1][0]
                for j, k in enumerate(counts)
            ]
            assert not flags[1] if spec.c == 0.3 else flags[1]
        for width in (1, 2, 7, 40, 2 * _BLOCK_COLUMNS + 1, 0):
            source = rng.permutation(np.resize(np.arange(40), width))
            pad = np.arange(rows + 3)[:, None] >= counts[source]
            tiled = np.vstack([cols[:, source], np.zeros((3, width))])
            want = np.array([alone[k].values[0] for k in source])
            for fill in (np.nan, np.inf, -1e300, -0.0, 2.5):
                for layout in (np.ascontiguousarray, np.asfortranarray):
                    a = layout(np.where(pad, fill, tiled))
                    laid_out = Layout.of(a.shape, counts[source], "counts")
                    res = aggregate_matrix(spec, a, laid_out)
                    assert res.values.tobytes() == want.tobytes()
                    assert res.converged == all(alone[k].converged for k in source)
                    if spec.kind in M_ESTIMATOR_KINDS:
                        got = m_estimate(a, spec.kind, spec.c, laid_out)[1]
                        assert got.tolist() == [flags[k] for k in source]

    def test_rules_of_one_call_match_their_one_rule_calls(self):
        # Each rule of an eight-rule call gives every column the bits, flags
        # and steps of its one-rule call, padded or not, at widths on both
        # sides of a slice boundary.  A wider trimmed mean comes before the
        # tuned one.  The source columns hold a zero scale, one rejected
        # whole at c = 0.3, and two near the float limit: one whose sums
        # overflow, and one whose residuals pass the float range.
        specs = [AggregatorSpec.trimmed_mean(0.2), *ALL_SPECS,
                 AggregatorSpec.talwar(0.3), AggregatorSpec.tukey(0.3)]
        rng = np.random.default_rng(61)
        rows = 28
        cols = rng.standard_normal((rows, 40)) * rng.uniform(1e-3, 50.0, 40)
        cols[:, 0] = 1.5
        cols[:, 1] = np.repeat([-50.0, 50.0], rows // 2)
        cols[:, 2:4] = 1.5e308 + 1e306 * rng.standard_normal((rows, 2))
        cols[::4, 3] = -1.5e308
        counts = rng.integers(1, rows + 1, 40)
        counts[:4] = rows
        for width in (1, 2, 499, 500, 501, 1024):
            source = rng.permutation(np.resize(np.arange(40), width))
            padded = np.where(np.arange(rows)[:, None] < counts[source], cols[:, source], np.nan)
            for a, layout in (
                (cols[:, source], None),
                (padded, Layout.of(padded.shape, counts[source], "counts")),
            ):
                with np.errstate(over="ignore"):  # the float-limit sums
                    values, flags, steps = _aggregate_columns(specs, a, layout)
                    for i, spec in enumerate(specs):
                        (one,), (one_flags,), (one_steps,) = _aggregate_columns([spec], a, layout)
                        assert values[i].tobytes() == one.tobytes()
                        if spec.kind in M_ESTIMATOR_KINDS:
                            assert flags[i].tolist() == one_flags.tolist()
                            assert steps[i] == one_steps
                        else:
                            assert flags[i] is one_flags is None


class TestThreads:
    def _record_workers(self, monkeypatch):
        # The thread counts that calls hand to ``_run_slices``.
        given = []
        run_slices = estimators._run_slices

        def recording(task, k, workers):
            given.append(workers)
            return run_slices(task, k, workers)

        monkeypatch.setattr(estimators, "_run_slices", recording)
        return given

    def test_threaded_call_matches_serial_bits(self, monkeypatch):
        # A 100 x 3,250 call runs as seven slices of 464 or 465 columns,
        # handed out to three threads that switch every microsecond, and
        # gives every rule the values, flags and steps of the same call on
        # one thread, padded or not.  Every 97th column from the first holds
        # a zero scale, from the second one rejected whole at c = 0.3, and
        # from the third and fourth float-limit values, whose sums overflow
        # and whose residuals pass the float range.
        specs = [*ALL_SPECS, AggregatorSpec.talwar(0.3), AggregatorSpec.tukey(0.3)]
        rng = np.random.default_rng(71)
        rows, width = 100, 3250
        assert rows * (width // 7) >= estimators._THREAD_VALUES
        cols = rng.standard_normal((rows, width)) * rng.uniform(1e-3, 50.0, width)
        cols[:, 0::97] = 1.5
        cols[:, 1::97] = np.repeat([-50.0, 50.0], rows // 2)[:, None]
        for j in (2, 3):
            cols[:, j::97] = 1.5e308 + 1e306 * rng.standard_normal((rows, cols[:, j::97].shape[1]))
        cols[::4, 3::97] = -1.5e308
        counts = rng.integers(1, rows + 1, width)
        counts[np.arange(width) % 97 < 4] = rows
        padded = np.where(np.arange(rows)[:, None] < counts, cols, np.nan)
        given = self._record_workers(monkeypatch)
        for a, layout in ((cols, None), (padded, Layout.of(padded.shape, counts, "counts"))):
            with np.errstate(over="ignore"):
                monkeypatch.setattr(estimators, "_worker_count", lambda: 1)
                values, flags, steps = _aggregate_columns(specs, a, layout)
                monkeypatch.setattr(estimators, "_worker_count", lambda: 3)
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    got_values, got_flags, got_steps = _aggregate_columns(specs, a, layout)
                finally:
                    sys.setswitchinterval(interval)
            assert got_values.tobytes() == values.tobytes()
            for got, want in zip(got_flags, flags):
                assert (got is want is None) or got.tobytes() == want.tobytes()
            assert got_steps == steps
            assert not flags[-1][1] and flags[2][1]
        assert given == [1, 3, 1, 3]

    @pytest.mark.parametrize("second, over, error", [
        (np.full(100, 1.5e308), "warn", RuntimeWarning),  # the mean's sum overflows
        (np.full(100, 1.5e308), "raise", FloatingPointError),
        (np.repeat([-1.7e308, 1.7e308], 50), "warn", ValueError),  # the MAD scale overflows
    ], ids=["sum-overflow-warning", "sum-overflow-raise", "mad-overflow"])
    def test_helper_errors_reach_the_caller(self, monkeypatch, second, over, error):
        # The second of four slices holds the column ``second``, and the
        # third and fourth one whose sum overflows.  Each of four threads
        # holds one slice until all four have one, so helpers run at least
        # two failing slices, and the caller raises the second slice's error,
        # as the serial loop does.  The suite's warning filter makes a
        # warning an error; an overflow raises under the caller's
        # errstate(over="raise"), which the helpers take too.
        specs = [MEAN, *M_SPECS]
        a = np.random.default_rng(81).standard_normal((100, 1750))
        a[:, 500] = second
        a[:, [1000, 1500]] = 1.5e308
        with pytest.raises(error) as serial, np.errstate(over=over):
            _aggregate_columns(specs, a)
        monkeypatch.setattr(estimators, "_worker_count", lambda: 4)
        barrier, threads = threading.Barrier(4, timeout=60), set()
        median_and_scale = estimators._median_and_scale

        def one_slice_per_thread(*args):
            threads.add(threading.get_ident())
            barrier.wait()
            return median_and_scale(*args)

        monkeypatch.setattr(estimators, "_median_and_scale", one_slice_per_thread)
        before = threading.active_count()
        with pytest.raises(error) as threaded, np.errstate(over=over):
            _aggregate_columns(specs, a)
        assert type(threaded.value) is type(serial.value)
        assert str(threaded.value) == str(serial.value)
        assert len(threads) == 4 and threading.active_count() == before

    def test_interrupt_in_a_slice_reaches_the_caller(self, monkeypatch):
        # A BaseException that is not an Exception, as an interrupt is, in
        # the third of four threaded slices reaches the caller, and every
        # thread is gone when it does.
        class Interrupt(BaseException):
            pass

        given = self._record_workers(monkeypatch)
        monkeypatch.setattr(estimators, "_worker_count", lambda: 3)
        a = np.random.default_rng(83).standard_normal((100, 2000))
        median_and_scale, third = estimators._median_and_scale, a[:, 1000].min()

        def interrupted(s, n):
            if s[0, 0] == third:  # the sorted first column of slice 2
                raise Interrupt("slice 2")
            return median_and_scale(s, n)

        monkeypatch.setattr(estimators, "_median_and_scale", interrupted)
        before = threading.active_count()
        with pytest.raises(Interrupt, match="slice 2"):
            _aggregate_columns(M_SPECS, a)
        assert given == [3] and threading.active_count() == before

    def test_no_thread_outlives_a_call(self, monkeypatch):
        given = self._record_workers(monkeypatch)
        monkeypatch.setattr(estimators, "_worker_count", lambda: 3)
        a = np.random.default_rng(91).standard_normal((100, 2000))
        before = threading.active_count()
        _aggregate_columns(ALL_SPECS, a)
        assert given == [3] and threading.active_count() == before


def draw_families(rng, n, m):
    return [
        rng.standard_normal((n, m)),
        np.round(rng.standard_normal((n, m))),  # ties, and -0.0 from rounding
        rng.integers(-1, 2, (n, m)) * rng.choice([-0.0, 0.0, 1e300, 1e-300], (n, m)),
        rng.choice([-0.0, 0.0], (n, m)),
    ]


class TestColumnMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 26, 27])
    @pytest.mark.parametrize("m", [1, 7])
    def test_equals_np_median_bit_for_bit(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        for a in draw_families(rng, n, m):
            for arr in (a, np.asfortranarray(a)):
                got = _ranked_median(np.sort(arr, axis=0), np.full(m, n))
                assert got.tobytes() == np.median(arr, axis=0).tobytes()

    @pytest.mark.parametrize("m", [1, 7, 40])
    def test_counted_column_equals_np_median_of_its_values(self, m):
        # Column j holds counts[j] values and +inf padding; its median and
        # normalized MAD are those of its values alone, bit for bit.
        rng = np.random.default_rng(m)
        rows = 27
        counts = rng.integers(1, rows + 1, m)
        counts[0] = rows
        valid = np.arange(rows)[:, None] < counts
        for a in draw_families(rng, rows, m):
            padded = np.where(valid, a, np.inf)
            med, scale = _median_and_scale(np.sort(padded, axis=0), counts)
            for j, k in enumerate(counts):
                values = a[:k, j : j + 1]
                want_med, want_scale = _median_and_scale(np.sort(values, axis=0), counts[j : j + 1])
                assert med[j].tobytes() == np.median(values).tobytes() == want_med[0].tobytes()
                assert scale[j].tobytes() == want_scale[0].tobytes()
            assert _ranked_median(np.sort(padded, axis=0), counts).tobytes() == med.tobytes()

    def test_trimmed_boundary_read_by_count(self):
        # The trimmed crafter reads rank n - t (n - 1 when t = 0) of each
        # padded column: the same value as in the column's values alone.
        rng = np.random.default_rng(3)
        rows, m = 29, 12
        counts = np.resize(np.arange(1, rows + 1), m)
        rng.shuffle(counts)
        malicious = rng.integers(1, 10, m)
        valid = np.arange(rows)[:, None] < counts
        for a in draw_families(rng, rows, m):
            benign = Layout.of(a.shape, counts, "benign_count")
            padded = np.where(valid, a, np.nan)
            got = craft_attack(padded, AttackSpec.trimmed_scm(), malicious, benign)
            for j, (n, p) in enumerate(zip(counts, malicious)):
                s = np.sort(a[:n, j])
                t = trim_count(n + p, TRIM_ALPHA_95)
                boundary = s[n - t] if t >= 1 else s[n - 1]
                want = boundary - EPSILON_SCALE * (1.0 + (s[-1] - s[0]))
                assert got[j].tobytes() == want.tobytes()

    def test_signed_zero_middles_give_positive_zero(self):
        for a in ([-0.0], [-0.0, -0.0], [-1.0, -0.0, 2.0], [-0.0, -0.0, 0.0, 3.0]):
            got = _ranked_median(np.sort(a)[:, None], np.array([len(a)]))[0]
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_middles_past_half_the_float_range(self):
        # The two middle values' sum overflows, their midpoint does not: the
        # median and the MAD stay finite, with no overflow warning.
        assert aggregate_matrix(MEDIAN, [[1.7e308], [1.7e308]]).values[0] == 1.7e308
        assert aggregate_matrix(MEDIAN, [[1.6e308], [1.7e308]]).values[0] == pytest.approx(1.65e308)
        assert mad([-1e308, -1e308, 1e308, 1e308]) == MAD_NORMALIZATION * 1e308
        # A MAD scale past the float range is refused, not read as inf.
        wide = [[-1.7e308], [-1.7e308], [1.7e308], [1.7e308]]
        for spec in M_SPECS:
            with pytest.raises(ValueError, match="MAD scale"):
                aggregate_matrix(spec, wide)
        with pytest.raises(ValueError, match="MAD scale"):
            mad(np.ravel(wide))


class TestEstimatorProperties:
    def test_translation_equivariance(self):
        rng = np.random.default_rng(21)
        for spec in ALL_SPECS:
            for _ in range(20):
                s = rng.standard_normal(int(rng.integers(3, 40)))
                t = float(rng.normal(scale=10))
                tol = 1e-7 if spec.kind in (AggregatorKind.TALWAR, AggregatorKind.TUKEY) else 1e-9
                assert estimate(spec, s + t) == pytest.approx(estimate(spec, s) + t, abs=tol)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(22)
        for spec in ALL_SPECS:
            for _ in range(20):
                s = rng.standard_normal(int(rng.integers(3, 40)))
                a = float(rng.uniform(0.1, 25.0))
                tol = 1e-7 * a if spec.kind in (AggregatorKind.TALWAR, AggregatorKind.TUKEY) else 1e-9 * a
                assert estimate(spec, a * s) == pytest.approx(a * estimate(spec, s), abs=tol)

    def test_permutation_invariance(self):
        # order-free up to float summation order in the reweighted mean
        rng = np.random.default_rng(23)
        s = rng.standard_normal(25)
        shuffled = rng.permutation(s)
        for spec in ALL_SPECS:
            assert estimate(spec, shuffled) == pytest.approx(estimate(spec, s), abs=1e-10)

    def test_breakdown_median_vs_mean(self):
        rng = np.random.default_rng(24)
        for n in (5, 12, 31):
            benign = list(rng.standard_normal(n))
            lo, hi = min(benign), max(benign)
            corrupted = benign.copy()
            k = (n - 1) // 2
            for i in range(k):
                corrupted[i] = 1e9 if i % 2 == 0 else -1e9
            assert lo <= estimate(MEDIAN, corrupted) <= hi
            one_bad = benign.copy()
            one_bad[0] = 1e9
            assert not lo <= estimate(MEAN, one_bad) <= hi

    def test_trimmed_equals_mean_when_trim_zero(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(1, 14))  # floor(0.0688*n) == 0 for n <= 14
            s = rng.standard_normal(n)
            assert estimate(AggregatorSpec.trimmed_mean(), s) == pytest.approx(
                estimate(MEAN, s), abs=1e-12
            )

    def test_aggregate_matrix_reports_convergence(self):
        rng = np.random.default_rng(26)
        mat = rng.standard_normal((30, 6))
        res = aggregate_matrix(AggregatorSpec.tukey(), mat)
        assert res.converged
        assert res.values.shape == (6,)
