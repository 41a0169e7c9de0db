import numpy as np
import pytest

from scmsim import sensitivity
from scmsim.attacks import AttackSpec
from scmsim.estimators import AggregatorKind, AggregatorSpec, aggregate_matrix, tuned_aggregators
from scmsim.sensitivity import (
    _REFINE_POINTS,
    _TIE_TOL,
    ORACLE_GRID_POINTS,
    SCTable,
    default_search_bounds,
    max_sc_numeric,
    sc_sweep,
    sensitivity_values,
)

MEAN = AggregatorSpec.sample_mean()
MEDIAN = AggregatorSpec.median()
TUKEY = AggregatorSpec.tukey()
TALWAR = AggregatorSpec.talwar()


def sc_by_direct_sets(agg, base, z, count):
    """Independent re-implementation through aggregate_matrix() on 1-d vectors."""
    vectors = [[v] for v in base] + [[z]] * count
    contaminated = aggregate_matrix(agg, vectors).values[0]
    clean = aggregate_matrix(agg, [[v] for v in base]).values[0]
    return (len(base) + count) * (contaminated - clean)


def symmetric_base(seed=4242, half_size=50):
    half = np.random.default_rng(seed).standard_normal(half_size)
    return np.concatenate([half, -half])


def record_calls(monkeypatch):
    """The (rules, width) of every estimator call ``sensitivity`` makes from now on."""
    calls = []
    original = sensitivity._aggregate_columns

    def recording(specs, matrix, *args, **kwargs):
        calls.append((list(specs), matrix.shape[1]))
        return original(specs, matrix, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "_aggregate_columns", recording)
    return calls


class TestSensitivityCurve:
    def test_mean_closed_form_example(self):
        assert sensitivity_values(MEAN, [1, 2, 3], 10.0) == pytest.approx(8.0, abs=1e-12)

    def test_mean_closed_form_random_bases(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            base = rng.standard_normal(int(rng.integers(1, 40)))
            z = float(rng.normal(scale=20))
            expected = z - base.mean()
            assert sensitivity_values(MEAN, base, z) == pytest.approx(expected, abs=1e-9)

    def test_median_saturates_for_large_outlier(self):
        # median of {1,2,3,4,z} is 3 for any huge z: SC = 5*(3 - 2.5)
        assert sensitivity_values(MEDIAN, [1, 2, 3, 4], 1e6) == pytest.approx(2.5)
        assert sensitivity_values(MEDIAN, [1, 2, 3, 4], 1e3) == sensitivity_values(
            MEDIAN, [1, 2, 3, 4], 1e6
        )

    def test_tukey_redescends_on_symmetric_base(self):
        base = symmetric_base()
        assert abs(sensitivity_values(TUKEY, base, 1e6)) < 1e-6

    def test_tukey_far_outlier_small_next_to_peak(self):
        base = np.random.default_rng(42).standard_normal(100)
        _, peak = max_sc_numeric(TUKEY, base)
        assert abs(sensitivity_values(TUKEY, base, 1e6)) < 0.05 * peak

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sensitivity_values(MEAN, [1, 2], 1.0, 0)

    def test_non_finite_outlier_rejected(self):
        with pytest.raises(ValueError, match="outlier values must be finite"):
            sensitivity_values(MEDIAN, [1, 2, 3], [np.nan])

    def test_count_must_be_whole(self):
        base = [0.5, 1.0, 2.0, 4.0]
        # A list or an array is not one count, even when it holds one.
        for bad in (1.5, True, [2], np.array([2])):
            for call in (
                lambda: sensitivity_values(TUKEY, base, 1.0, bad),
                lambda: sc_sweep([TUKEY], base, [0.0, 1.0], bad),
                lambda: max_sc_numeric(TUKEY, base, bad),
            ):
                with pytest.raises(ValueError, match="outlier count"):
                    call()
        assert sensitivity_values(MEAN, [0, 0], 3.0, 2.0) == pytest.approx(6.0)


class TestMultiOutlier:
    def test_mean_two_copies(self):
        assert sensitivity_values(MEAN, [0, 0], 3.0, 2) == pytest.approx(6.0)

    def test_median_majority_breakdown(self):
        # median of {1,2,3,100,100,100} = 51.5
        assert sensitivity_values(MEDIAN, [1, 2, 3], 100.0, 3) == pytest.approx(297.0)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(3)
        for agg in tuned_aggregators():
            for _ in range(8):
                base = rng.standard_normal(int(rng.integers(3, 25)))
                z = float(rng.normal(scale=5))
                count = int(rng.integers(1, 5))
                got = sensitivity_values(agg, base, z, count)
                want = sc_by_direct_sets(agg, base, z, count)
                assert got == pytest.approx(want, abs=1e-8)

    def test_saturation_exact_for_robust_aggregators(self):
        # Beyond every benign value, only the outlier's rank matters, so the
        # contaminated estimate is bit-identical for z = 1e3 and 1e6.  For
        # the trimmed mean this requires every copy to be trimmed away
        # (count <= per-side trim); for the others a benign majority.
        from scmsim.estimators import trim_count

        rng = np.random.default_rng(4)
        for agg in tuned_aggregators()[1:]:  # all but the sample mean
            done = 0
            while done < 10:
                base = rng.standard_normal(int(rng.integers(5, 30)))
                count = int(rng.integers(1, max(2, base.size // 2)))
                if agg.label == "trimmed_mean" and count > trim_count(
                    base.size + count, agg.alpha
                ):
                    continue
                a = sensitivity_values(agg, base, 1e3, count)
                b = sensitivity_values(agg, base, 1e6, count)
                assert a == b
                done += 1

    def test_median_sc_bounded_by_contaminated_range(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            base = rng.standard_normal(int(rng.integers(2, 30)))
            z = float(rng.normal(scale=1000))
            count = int(rng.integers(1, 4))
            n = base.size + count
            spread = max(base.max(), z) - min(base.min(), z)
            sc = sensitivity_values(MEDIAN, base, z, count)
            assert abs(sc) <= n * spread * (1 + 1e-12)

    def test_redescending_bound_on_symmetric_bases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            half = rng.standard_normal(int(rng.integers(5, 40)))
            base = np.concatenate([half, -half])
            count = int(rng.integers(1, max(2, base.size // 4)))
            n = base.size + count
            spread = base.max() - base.min()
            for agg, sign in ((TALWAR, 1), (TUKEY, 1), (TALWAR, -1), (TUKEY, -1)):
                sc = sensitivity_values(agg, base, sign * 1e6, count)
                assert abs(sc) <= 1e-6 * n * spread


class TestSweep:
    def test_mean_row_is_the_grid_itself(self):
        table = sc_sweep([MEAN], [0.0], [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(table.values[0], [-1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize(
        "rule", ["median", AggregatorKind.MEDIAN, AttackSpec.tukey_scm(4.685), None], ids=repr
    )
    def test_rule_must_be_an_aggregator_spec(self, rule):
        base = np.arange(9.0)
        for call in (
            lambda: sensitivity_values(rule, base, 1.0),
            lambda: max_sc_numeric(rule, base),
            lambda: sc_sweep([MEDIAN, rule], base, [0.0, 1.0]),
        ):
            with pytest.raises(ValueError, match="must hold AggregatorSpecs only"):
                call()

    @pytest.mark.parametrize("aggs", [MEDIAN, "median", None], ids=repr)
    def test_rules_must_be_a_sequence(self, aggs):
        with pytest.raises(ValueError, match="aggs must be a sequence of AggregatorSpecs"):
            sc_sweep(aggs, np.arange(9.0), [0.0, 1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sc_sweep([MEAN], [1.0, 2.0], [])

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            sc_sweep([MEAN], [1.0, 2.0], [0.0, 0.0, 1.0])

    def test_no_aggregators_rejected(self):
        with pytest.raises(ValueError, match="no aggregators given"):
            sc_sweep([], [1.0, 2.0], [0.0, 1.0])

    def test_shapes_median_flat_tukey_redescending(self):
        base = np.random.default_rng(6).standard_normal(100)
        grid = np.linspace(-10, 10, 201)
        table = sc_sweep([MEDIAN, TUKEY], base, grid)
        med_row, tuk_row = table.values
        assert np.abs(tuk_row).max() > np.abs(med_row).max()
        # redescending: far tails are small next to the peak
        assert abs(tuk_row[0]) < 0.2 * np.abs(tuk_row).max()
        assert abs(tuk_row[-1]) < 0.2 * np.abs(tuk_row).max()

    @pytest.mark.parametrize("count", [1, 3])
    def test_every_rule_in_two_calls_with_each_rule_bits(self, monkeypatch, count):
        # The clean base and the grid are one call each for every rule, and
        # each row keeps the bits of that rule's own curve.
        rules = [*tuned_aggregators(), AggregatorSpec.talwar(3.5), AggregatorSpec.tukey(5.5)]
        base = np.random.default_rng(12).standard_normal(60)
        grid = np.linspace(-8.0, 8.0, 161)
        calls = record_calls(monkeypatch)
        table = sc_sweep(rules, base, grid, count)
        assert calls == [(rules, 1), (rules, grid.size)]
        for rule, row in zip(rules, table.values):
            assert row.tobytes() == sensitivity_values(rule, base, grid, count).tobytes()

    def test_csv_layout(self, tmp_path):
        # SC.csv is written from the table's names, grid and rows in this layout.
        from scmsim.cli import _write_csv

        table = sc_sweep([MEAN, MEDIAN], [1.0, 2.0, 3.0], [-1.0, 1.0])
        path = tmp_path / "SC.csv"
        _write_csv(path, ["outlier_value", *table.names], zip(table.grid, *table.values))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "outlier_value,sample_mean,median"
        assert len(lines) == 3
        assert lines[1].startswith("-1.0,")

    def test_row_lookup(self):
        table = sc_sweep([MEAN, MEDIAN], [1.0, 2.0, 3.0], [-1.0, 1.0])
        assert isinstance(table, SCTable)


# repr of max_sc_numeric's (z*, SC*) for (rule, seed, n, count), with a
# standard-normal base of size n drawn from default_rng(seed).
PINNED_ORACLE = {
    ("talwar", 1, 5, 1): "(1.792155415049996, 3.714375175985228)",
    ("tukey", 1, 5, 1): "(1.6548633613425492, 2.4321540291495998)",
    ("talwar", 2, 17, 3): "(3.116942406853622, 9.286401966356706)",
    ("tukey", 2, 17, 3): "(2.5228359937708453, 5.3673189213201935)",
    ("talwar", 0, 40, 2): "(2.368806463159957, 2.4197160899920265)",
    ("tukey", 0, 40, 2): "(1.83196775728133, 2.9482368013889317)",
    ("talwar", 3, 50, 12): "(3.37520242741167, 47.7338161673137)",
    ("tukey", 3, 50, 12): "(2.8326824332789444, 29.015836328120997)",
}

# (rule, base, count) draws for the oracle's accuracy and call-shape tests:
# each rule on a Gaussian base, an n=5 draw, and the median's plateau.
_ACCURACY_RNG = np.random.default_rng(11)
ORACLE_ACCURACY_CASES = [
    (TALWAR, _ACCURACY_RNG.standard_normal(30), 3),
    (TUKEY, _ACCURACY_RNG.standard_normal(30), 3),
    (AggregatorSpec.trimmed_mean(), _ACCURACY_RNG.standard_normal(30), 2),
    (MEDIAN, _ACCURACY_RNG.standard_normal(30), 2),
    (TALWAR, _ACCURACY_RNG.standard_normal(5), 1),
    (TUKEY, _ACCURACY_RNG.standard_normal(5), 1),
    (MEDIAN, np.array([1.0, 2.0, 3.0, 4.0]), 1),
]


class TestMaxNumeric:
    def test_mean_returns_upper_bound_exactly(self):
        base = [1.0, 2.0, 3.0]
        lo, hi = default_search_bounds(base)
        z, sc = max_sc_numeric(MEAN, base)
        assert z == hi
        assert sc == pytest.approx(hi - 2.0, abs=1e-9)
        # the window is centred on the median, here also the mean, so the
        # lower end has the same |SC| with the opposite sign
        assert sensitivity_values(MEAN, base, lo) == pytest.approx(-sc, abs=1e-9)

    def test_large_value_dominates_mean_within_window(self):
        # SC of the mean is monotone, so the large-value magnitude is the
        # within-window optimum.
        base = np.random.default_rng(7).standard_normal(20)
        hi = default_search_bounds(base)[1]
        z, sc = max_sc_numeric(MEAN, base)
        assert z == hi
        assert sc >= sensitivity_values(MEAN, base, hi - 1.0)

    def test_symmetric_tukey_peak_is_odd(self):
        base = [-1.0, 0.0, 1.0]
        z, sc = max_sc_numeric(TUKEY, base, count=1)
        assert z > 0  # positive side preferred
        assert abs(sensitivity_values(TUKEY, base, -z)) == pytest.approx(sc, rel=1e-9)

    def test_talwar_peak_near_analytic_value(self):
        from scmsim.attacks import AttackSpec, craft_attack

        base = symmetric_base(seed=9, half_size=40)
        z_analytic = craft_attack(base[:, None], AttackSpec(TALWAR), 1)[0]
        lo, hi = default_search_bounds(base)
        cell = (hi - lo) / (ORACLE_GRID_POINTS - 1)
        z_star, _ = max_sc_numeric(TALWAR, base, count=1)
        assert abs(z_star - z_analytic) <= cell

    def test_plateau_tie_prefers_smallest_magnitude(self):
        base = [1.0, 2.0, 3.0, 4.0]
        z, sc = max_sc_numeric(MEDIAN, base)
        assert sc == pytest.approx(2.5)
        # the saturated plateau starts just above max(base); the reported
        # argmax must not wander far into it
        assert z <= 10.0

    def test_clean_base_estimated_once_per_call(self, monkeypatch):
        calls = record_calls(monkeypatch)
        max_sc_numeric(TUKEY, np.random.default_rng(0).standard_normal(40), count=2)
        widths = [width for _, width in calls]
        assert widths[0] == 1
        assert widths.count(1) == 1

    def test_every_evaluation_is_one_grid_call(self, monkeypatch):
        calls = record_calls(monkeypatch)
        for spec, base, count in ORACLE_ACCURACY_CASES:
            calls.clear()
            max_sc_numeric(spec, base, count)
            widths = [width for _, width in calls]
            # The clean base, then the window grid, then the refinements.
            assert widths[:2] == [1, ORACLE_GRID_POINTS]
            assert set(widths[2:]) <= {_REFINE_POINTS}
            assert len(widths) - 1 <= 12

    @pytest.mark.parametrize(
        "case", range(len(ORACLE_ACCURACY_CASES)),
        ids=lambda i: ORACLE_ACCURACY_CASES[i][0].label + str(i),
    )
    def test_oracle_reaches_grid_and_cell_maxima(self, case):
        # SC* is at least the best window-grid value and, up to 1e-9, the
        # best of a dense scan of the window cells on either side of z*,
        # and z* lies within one window cell of the grid's tie-rule pick.
        spec, base, count = ORACLE_ACCURACY_CASES[case]
        lo, hi = default_search_bounds(base)
        cell = (hi - lo) / (ORACLE_GRID_POINTS - 1)
        z_star, sc_star = max_sc_numeric(spec, base, count)
        grid = np.linspace(lo, hi, ORACLE_GRID_POINTS)
        on_grid = sensitivity_values(spec, base, grid, count)
        assert sc_star >= on_grid.max()
        tied = grid[on_grid >= on_grid.max() - _TIE_TOL]
        pick = min(tied, key=lambda z: (abs(z), -z))
        assert abs(z_star - pick) <= cell
        dense = np.linspace(max(lo, z_star - cell), min(hi, z_star + cell), 20001)
        assert sc_star >= sensitivity_values(spec, base, dense, count).max() - 1e-9

    @pytest.mark.parametrize("case", list(PINNED_ORACLE), ids=lambda case: "-".join(map(str, case)))
    def test_oracle_bits_pinned(self, case):
        # Each oracle grid is one wide M-estimation call; its result must
        # keep every bit.
        label, seed, n, count = case
        spec = {TALWAR.label: TALWAR, TUKEY.label: TUKEY}[label]
        base = np.random.default_rng(seed).standard_normal(n)
        assert repr(max_sc_numeric(spec, base, count)) == PINNED_ORACLE[case]

    def test_invalid_bounds_rejected(self):
        # The MAD of this base overflows, so the derived window is infinite.
        with pytest.raises(ValueError, match="search bounds"):
            max_sc_numeric(MEAN, [1e308, -1e308, 0.0])
        # Here both bounds are finite, but the window is wider than the float
        # range: its grid would hold NaN and infinite values.
        lo, hi = default_search_bounds([1e307, -1e307, 0.0])
        assert np.isfinite([lo, hi]).all()
        with pytest.raises(ValueError, match="search window"):
            max_sc_numeric(TUKEY, [1e307, -1e307, 0.0])

    def test_vectorized_values_match_scalar(self):
        base = np.random.default_rng(8).standard_normal(12)
        zs = np.linspace(-3, 3, 7)
        vals = sensitivity_values(TUKEY, base, zs, 2)
        assert isinstance(vals, np.ndarray)
        assert isinstance(sensitivity_values(TUKEY, base, 0.5, 2), float)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(sensitivity_values(TUKEY, base, z, 2), abs=1e-10)
