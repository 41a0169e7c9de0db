import math

import numpy as np
import pytest

from scmsim import attacks
from scmsim.attacks import (
    SCM_TARGET,
    AttackSpec,
    CraftingContext,
    craft_attack,
    psi_argmax,
)
from scmsim.estimators import (
    MAD_NORMALIZATION,
    TALWAR_C_95,
    TRIM_ALPHA_95,
    TUKEY_C_95,
    AggregatorKind,
    AggregatorSpec,
    estimate,
    mad,
    psi,
    trim_count,
)
from scmsim.sensitivity import max_sc_numeric, sensitivity_values


MEDIAN = AggregatorSpec.median()


def make_ctx(values, count):
    return CraftingContext(np.asarray(values, dtype=float), count)


class TestPsiArgmax:
    def test_talwar_peak_is_c(self):
        assert psi_argmax(AggregatorKind.TALWAR, TALWAR_C_95) == TALWAR_C_95

    def test_tukey_peak_is_c_over_sqrt5(self):
        got = psi_argmax(AggregatorKind.TUKEY, TUKEY_C_95)
        assert got == pytest.approx(TUKEY_C_95 / math.sqrt(5.0), abs=1e-12)
        assert got == pytest.approx(2.0952, abs=1e-4)
        assert psi_argmax(AggregatorKind.TUKEY, math.sqrt(5.0)) == pytest.approx(1.0)

    def test_rejects_non_m_kinds_and_bad_c(self):
        with pytest.raises(ValueError):
            psi_argmax(AggregatorKind.MEDIAN, 1.0)
        for bad_c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                psi_argmax(AggregatorKind.TALWAR, bad_c)


class TestLargeValue:
    def test_constant_vector(self):
        ctx = make_ctx(np.zeros((5, 3)), 2)
        z = craft_attack(ctx, AttackSpec.large_value(1000.0))
        np.testing.assert_allclose(z, [1000.0, 1000.0, 1000.0])

    def test_zero_magnitude_is_null_attack(self):
        ctx = make_ctx(np.ones((4, 2)), 1)
        np.testing.assert_allclose(craft_attack(ctx, AttackSpec.large_value(0.0)), 0.0)


class TestTrimmedScm:
    def test_worked_example(self):
        # benign {1..7}, P=2, alpha so that floor(alpha*9) = 1: the trim
        # removes the single largest value, so copies just below 7 survive
        # at the largest surviving position.
        z = craft_attack(make_ctx(np.arange(1.0, 8.0), 2), AttackSpec.trimmed_scm(0.12))[0]
        eps = 1e-6 * (1.0 + 6.0)
        assert z == pytest.approx(7.0 - eps, abs=1e-12)

    def test_survivors_and_upward_bias_by_enumeration(self):
        benign = np.arange(1.0, 8.0)
        z = craft_attack(make_ctx(benign, 2), AttackSpec.trimmed_scm(0.12))[0]
        received = np.concatenate([benign, [z, z]])
        t = trim_count(received.size, 0.12)
        survivors = np.sort(received)[t : received.size - t]
        assert (survivors == z).sum() == 2
        assert survivors.max() == z
        trim = AggregatorSpec.trimmed_mean(0.12)
        attacked = estimate(trim, received)
        assert attacked > estimate(trim, benign)

    def test_all_copies_survive_at_experiment_scale(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n_benign = int(rng.integers(12, 28))
            count = int(rng.integers(1, 7))
            benign = rng.standard_normal(n_benign)
            z = craft_attack(make_ctx(benign, count), AttackSpec.trimmed_scm(TRIM_ALPHA_95))[0]
            received = np.concatenate([benign, np.full(count, z)])
            t = trim_count(received.size, TRIM_ALPHA_95)
            survivors = np.sort(received)[t : received.size - t]
            assert (survivors == z).sum() == count

    def test_single_copy_achieves_numeric_optimum(self):
        # With one injected copy, sacrificing it to the trim only saturates
        # the curve, so the boundary placement is the global argmax.
        rng = np.random.default_rng(32)
        spec = AggregatorSpec.trimmed_mean()
        for _ in range(15):
            base = rng.standard_normal(int(rng.integers(20, 60)))
            z = craft_attack(make_ctx(base, 1), AttackSpec(spec))[0]
            sc = sensitivity_values(spec, base, z, 1)
            _, sc_star = max_sc_numeric(spec, base, count=1)
            assert sc >= 0.99 * sc_star

    def test_boundary_error_when_trim_swallows_benign(self):
        with pytest.raises(ValueError):
            craft_attack(make_ctx([1.0], 12), AttackSpec.trimmed_scm(0.14))


class TestMEstimatorScm:
    def test_two_stage_hand_computation(self):
        # symmetric {-1,0,1}, P=1, Tukey: stage one from median 0 and
        # normalized mad 1.4826; stage two re-centers on the 4-element set
        # whose median is 0.5 and normalized mad is again 1.4826.
        c0 = TUKEY_C_95 / math.sqrt(5.0)
        z = craft_attack(make_ctx([-1.0, 0.0, 1.0], 1), AttackSpec.tukey_scm(TUKEY_C_95))[0]
        expected = c0 * MAD_NORMALIZATION + 0.5
        assert z == pytest.approx(expected, rel=1e-8)

    def test_example_achieves_99_percent_of_optimum(self):
        spec = AggregatorSpec.tukey()
        base = [-1.0, 0.0, 1.0]
        z = craft_attack(make_ctx(base, 1), AttackSpec(spec))[0]
        sc = sensitivity_values(spec, base, z, 1)
        _, sc_star = max_sc_numeric(spec, base, count=1)
        assert sc >= 0.99 * sc_star

    def test_degenerate_scale_falls_back_to_median(self):
        z = craft_attack(make_ctx([5.0, 5.0, 5.0, 5.0], 2), AttackSpec.talwar_scm(TALWAR_C_95))[0]
        assert z == pytest.approx(5.0)

    def test_shift_correction_is_a_fixed_point(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(5, 51))
            p = int(rng.integers(1, max(2, n // 2 + 1)))
            base = rng.standard_normal(n)
            for kind, c in ((AggregatorKind.TALWAR, TALWAR_C_95), (AggregatorKind.TUKEY, TUKEY_C_95)):
                z = craft_attack(make_ctx(base, p), AttackSpec(AggregatorSpec(kind, c=c)))[0]
                c0 = psi_argmax(kind, c) * (1.0 - 1e-9)
                combined = np.concatenate([base, np.full(p, z)])
                z_again = c0 * mad(combined, normalized=True) + estimate(MEDIAN, combined)
                assert abs(z_again - z) <= 1e-9 * (1.0 + abs(z))

    def test_tukey_copies_never_rejected(self):
        rng = np.random.default_rng(34)
        spec = AggregatorSpec.tukey()
        for _ in range(100):
            n = int(rng.integers(5, 51))
            p = int(rng.integers(1, max(2, n // 3 + 1)))
            base = rng.standard_normal(n)
            z = craft_attack(make_ctx(base, p), AttackSpec(spec))[0]
            combined = np.concatenate([base, np.full(p, z)])
            loc = estimate(spec, combined)
            sigma = mad(combined, normalized=True)
            assert psi(AggregatorKind.TUKEY, (z - loc) / sigma, spec.c) != 0.0

    def test_talwar_copies_survive_on_most_draws(self):
        # The hard cutoff makes boundary placement fragile when the
        # converged location drifts below the combined median (mostly at
        # P = 1); the survival fraction is deterministic at a fixed seed.
        rng = np.random.default_rng(35)
        spec = AggregatorSpec.talwar()
        survived = 0
        total = 200
        for _ in range(total):
            n = int(rng.integers(5, 51))
            p = int(rng.integers(1, max(2, n // 3 + 1)))
            base = rng.standard_normal(n)
            z = craft_attack(make_ctx(base, p), AttackSpec(spec))[0]
            combined = np.concatenate([base, np.full(p, z)])
            loc = estimate(spec, combined)
            sigma = mad(combined, normalized=True)
            if psi(AggregatorKind.TALWAR, (z - loc) / sigma, spec.c) != 0.0:
                survived += 1
        assert survived >= 0.9 * total

    def test_near_optimality_statistics(self):
        # Against the numeric curve-maximization oracle the crafted value is
        # near-optimal on the bulk of draws; the exceptions are the Talwar
        # rejection cliff at small counts and small-sample central modes, so
        # the statistics are pinned at a fixed seed rather than per draw.
        rng = np.random.default_rng(40)
        ratios = []
        for _ in range(60):
            n = int(rng.integers(10, 51))
            p = int(rng.integers(1, max(2, n // 3 + 1)))
            base = rng.standard_normal(n)
            for spec in (AggregatorSpec.talwar(), AggregatorSpec.tukey()):
                z = craft_attack(make_ctx(base, p), AttackSpec(spec))[0]
                sc = sensitivity_values(spec, base, z, p)
                _, sc_star = max_sc_numeric(spec, base, count=p)
                ratios.append(sc / sc_star)
        ratios = np.array(ratios)
        assert np.mean(ratios >= 0.95) >= 0.85
        assert np.median(ratios) >= 0.97

    def test_mirror_symmetry_on_symmetric_bases(self):
        rng = np.random.default_rng(36)
        spec = AggregatorSpec.tukey()
        for _ in range(10):
            half = rng.standard_normal(int(rng.integers(4, 20)))
            base = np.concatenate([half, -half])
            p = int(rng.integers(1, 4))
            z = craft_attack(make_ctx(base, p), AttackSpec(spec))[0]
            sc_pos = sensitivity_values(spec, base, z, p)
            sc_neg = sensitivity_values(spec, base, -z, p)
            assert abs(sc_neg) == pytest.approx(abs(sc_pos), rel=0.05)


class TestCraftAttack:
    def test_one_dimensional_context_reduces_to_scalar(self):
        base = np.array([-1.0, 0.0, 1.0])
        ctx = CraftingContext(base, 1)
        spec = AttackSpec.talwar_scm(TALWAR_C_95)
        z = craft_attack(ctx, spec)
        assert z.shape == (1,)
        assert z[0] == craft_attack(make_ctx(base[:, None], 1), spec)[0]

    def test_per_receiver_contexts_differ(self):
        rng = np.random.default_rng(38)
        spec = AttackSpec.tukey_scm(TUKEY_C_95)
        a = craft_attack(CraftingContext(rng.standard_normal((8, 3)), 2), spec)
        b = craft_attack(CraftingContext(rng.standard_normal((8, 3)), 2), spec)
        assert not np.allclose(a, b)

    def test_crafted_values_finite(self):
        rng = np.random.default_rng(39)
        benign = rng.standard_normal((12, 5)) * 1e6
        ctx = CraftingContext(benign, 4)
        for spec in (
            AttackSpec.large_value(),
            AttackSpec.trimmed_scm(TRIM_ALPHA_95),
            AttackSpec.talwar_scm(TALWAR_C_95),
            AttackSpec.tukey_scm(TUKEY_C_95),
        ):
            assert np.isfinite(craft_attack(ctx, spec)).all()

    def test_context_validation(self):
        with pytest.raises(ValueError):
            CraftingContext(np.empty((0, 3)), 1)
        with pytest.raises(ValueError):
            CraftingContext(np.ones((3, 2)), 0)
        with pytest.raises(ValueError):
            CraftingContext(np.array([[np.nan, 1.0]]), 1)
        # Counts are whole numbers: a fraction is not truncated, a bool is
        # not 1, whether one count or one per receiver of a round.
        line = np.arange(1.0, 21.0)
        round_values = np.ones((4, 2, 3))
        for values, bad in (
            (line, 2.5), (line, True), (line, np.float64(0.5)), (line, "3"), (line, [2]),
            (round_values, [1.5, 2.0]), (round_values, [True, True]), (round_values, [1, 1, 1]),
        ):
            with pytest.raises(ValueError, match="malicious_count"):
                CraftingContext(values, bad)
        assert CraftingContext(line, 3.0).malicious_count == 3
        for bad in ([1, 2, 3], [0, 2], [2, 5], [2.5, 3], [True, True]):
            with pytest.raises(ValueError, match="benign_count"):
                CraftingContext(round_values, 1, np.array(bad))
        with pytest.raises(ValueError, match="benign_count"):
            CraftingContext(np.ones((4, 3)), 1, np.array([4]))
        round_values[3, 0] = np.nan  # padding past receiver 0's three rows
        CraftingContext(round_values, 1, np.array([3, 4]))
        with pytest.raises(ValueError, match="non-finite"):
            CraftingContext(round_values, 1, np.array([4, 4]))

    def test_attack_spec_validation(self):
        for make in (
            lambda: AttackSpec.talwar_scm(0.0),
            lambda: AttackSpec.trimmed_scm(0.7),
            lambda: AggregatorSpec.talwar(math.nan),
            lambda: AggregatorSpec.tukey(math.inf),
            lambda: AttackSpec.talwar_scm(math.nan),
            lambda: AttackSpec.tukey_scm(math.inf),
        ):
            with pytest.raises(ValueError):
                make()
        for unsupported in (AggregatorSpec.sample_mean(), MEDIAN):
            with pytest.raises(ValueError, match="no SCM attack targets"):
                AttackSpec(unsupported)

    def test_label_names_the_attack_on_the_target(self):
        assert AttackSpec.large_value().label == "large_value"
        for name, kind in SCM_TARGET.items():
            assert AttackSpec(AggregatorSpec(kind, alpha=0.1, c=1.0)).label == name


ROUND_ATTACKS = [
    AttackSpec.large_value(),
    AttackSpec.trimmed_scm(TRIM_ALPHA_95),
    AttackSpec.talwar_scm(TALWAR_C_95),
    AttackSpec.tukey_scm(TUKEY_C_95),
]


def draw_receivers(rng, receivers, dim):
    """Ragged benign sets (n 1-29) and malicious counts (p 1-9), each
    receiver drawn from one of four families with a spread from 1e-3 to 50."""
    n = rng.permutation(np.resize(np.arange(1, 30), receivers))
    p = rng.permutation(np.resize(np.arange(1, 10), receivers))
    sets = []
    for r in range(receivers):
        spread = 10.0 ** rng.uniform(-3.0, math.log10(50.0))
        v = spread * rng.standard_normal((n[r], dim))
        family = r % 4
        if family == 1:
            v = np.round(v)  # ties, and -0.0 from rounding
        elif family == 2:
            v = spread * rng.choice([-0.0, 0.0, -1.0, 1.0], (n[r], dim))
        elif family == 3:
            v = rng.choice([-0.0, 0.0], (n[r], dim))  # zero scale
        sets.append(v)
    return sets, p


def padded_round(sets):
    """(rows, receivers, dim) with NaN padding, and the benign counts."""
    n = np.array([len(v) for v in sets])
    values = np.full((n.max(), len(sets), sets[0].shape[1]), np.nan)
    for r, v in enumerate(sets):
        values[: len(v), r] = v
    return values, n


def correction_rounds(monkeypatch, ctx, spec):
    # median_and_scale runs once on the benign set, then once per round.
    calls = []
    original = attacks.median_and_scale

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(attacks, "median_and_scale", counting)
    craft_attack(ctx, spec)
    monkeypatch.setattr(attacks, "median_and_scale", original)
    return len(calls) - 1


class TestRoundCraft:
    @pytest.mark.parametrize("spec", ROUND_ATTACKS, ids=lambda s: s.label)
    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_round_equals_per_receiver_calls(self, spec, dim):
        rng = np.random.default_rng(dim)
        sets, p = draw_receivers(rng, 58, dim)
        values, n = padded_round(sets)
        got = craft_attack(CraftingContext(values, p, n), spec)
        assert got.shape == (58, dim)
        for r, v in enumerate(sets):
            alone = craft_attack(CraftingContext(v, p[r]), spec)
            assert got[r].tobytes() == alone.tobytes()

    def test_one_count_for_every_receiver(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((12, 5, 3))
        spec = AttackSpec.tukey_scm(TUKEY_C_95)
        got = craft_attack(CraftingContext(values, 4), spec)
        for r in range(5):
            assert got[r].tobytes() == craft_attack(CraftingContext(values[:, r], 4), spec).tobytes()

    @pytest.mark.parametrize("spec", ROUND_ATTACKS[2:], ids=lambda s: s.label)
    def test_receivers_stop_correcting_independently(self, spec, monkeypatch):
        # Receivers that settle after 1, 2, 3 or more correction rounds, and
        # ones still moving at SHIFT_CORRECTION_MAX_ROUNDS, share one round.
        rng = np.random.default_rng(61)
        sets, p = draw_receivers(rng, 240, 3)
        rounds = [correction_rounds(monkeypatch, CraftingContext(v, p[r]), spec)
                  for r, v in enumerate(sets)]
        assert {1, 2, attacks.SHIFT_CORRECTION_MAX_ROUNDS} <= set(rounds)
        assert any(2 < k < attacks.SHIFT_CORRECTION_MAX_ROUNDS for k in rounds)
        values, n = padded_round(sets)
        got = craft_attack(CraftingContext(values, p, n), spec)
        for r, v in enumerate(sets):
            assert got[r].tobytes() == craft_attack(CraftingContext(v, p[r]), spec).tobytes()
