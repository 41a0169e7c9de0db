import math

import numpy as np
import pytest
from scipy.stats import median_abs_deviation

from scmsim.estimators import (
    FIXED_POINT_TOL,
    AggregatorKind,
    AggregatorSpec,
    MAD_NORMALIZATION,
    TALWAR_C_95,
    TRIM_ALPHA_95,
    TUKEY_C_95,
    aggregate_matrix,
    estimate,
    mad,
    psi,
    trim_count,
    tuned_aggregators,
    _column_median,
)

ALL_SPECS = tuned_aggregators()
MEAN = AggregatorSpec.sample_mean()
MEDIAN = AggregatorSpec.median()
M_SPECS = [AggregatorSpec.talwar(), AggregatorSpec.tukey()]


def rho_objective(values, spec, mu):
    """Independent objective whose minimizer is the M-estimate.

    rho is the integral of psi: for Talwar min(x^2, c^2)/2, for Tukey the
    standard biweight rho, evaluated at fixed scale = normalized MAD.
    ``mu`` may be a scalar or a grid of candidate locations.
    """
    sigma = mad(values, normalized=True)
    r = (np.asarray(values)[:, None] - np.atleast_1d(mu)[None, :]) / sigma
    c = spec.c
    if spec.kind is AggregatorKind.TALWAR:
        obj = np.minimum(r * r, c * c).sum(axis=0) / 2.0
    else:
        u = np.clip(1.0 - (r / c) ** 2, 0.0, None)
        obj = (c * c / 6.0 * (1.0 - u**3)).sum(axis=0)
    return float(obj[0]) if np.isscalar(mu) else obj


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

    def test_empty_set_rejected(self):
        for spec in (MEAN, MEDIAN):
            with pytest.raises(ValueError):
                estimate(spec, [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            estimate(MEDIAN, [1.0, np.inf])

    def test_median_examples(self):
        assert estimate(MEDIAN, [3, 1, 2]) == 2
        assert estimate(MEDIAN, [1, 2, 3, 100]) == 2.5
        assert estimate(MEDIAN, [7]) == 7

    def test_mad_examples(self):
        assert mad([1, 2, 3, 4, 5]) == 1
        assert mad([4.2, 4.2, 4.2]) == 0
        assert mad([1, 2, 3, 4, 5], normalized=True) == 1.4826

    def test_mad_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(201)
        ours = mad(x, normalized=True)
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

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            psi(AggregatorKind.MEDIAN, 1.0, 1.0)
        with pytest.raises(ValueError):
            psi(AggregatorKind.TALWAR, 1.0, 0.0)


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
        with np.errstate(over="ignore"):
            res = aggregate_matrix(spec, s[:, None])
        assert res.converged
        assert 0.0 <= res.values[0] <= 0.3

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
                sigma = mad(s, normalized=True)
                resid = psi(spec.kind, (s - estimate(spec, s)) / sigma, spec.c).sum()
                assert abs(resid) <= s.size * FIXED_POINT_TOL * (1 + 1e-12)


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


class TestColumnMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 26, 27])
    @pytest.mark.parametrize("m", [1, 7])
    def test_equals_np_median_bit_for_bit(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        draws = [
            rng.standard_normal((n, m)),
            np.round(rng.standard_normal((n, m))),  # ties, and -0.0 from rounding
            rng.integers(-1, 2, (n, m)) * rng.choice([-0.0, 0.0, 1e300, 1e-300], (n, m)),
            rng.choice([-0.0, 0.0], (n, m)),
        ]
        for a in draws:
            for arr in (a, np.asfortranarray(a)):
                assert _column_median(arr).tobytes() == np.median(arr, axis=0).tobytes()

    def test_signed_zero_middles_give_positive_zero(self):
        for a in ([-0.0], [-0.0, -0.0], [-1.0, -0.0, 2.0], [-0.0, -0.0, 0.0, 3.0]):
            got = _column_median(np.array(a)[:, None])[0]
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


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
