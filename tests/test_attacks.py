import hashlib
import math

import numpy as np
import pytest

from scmsim.attacks import (
    SCM_TARGET,
    AttackSpec,
    CraftingContext,
    craft_attack,
    min_tuning_constant,
    psi_argmax,
)
from scmsim.estimators import (
    M_ESTIMATOR_KINDS,
    MAD_NORMALIZATION,
    TALWAR_C_95,
    TRIM_ALPHA_95,
    TUKEY_C_95,
    AggregatorKind,
    AggregatorSpec,
    Layout,
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
        # symmetric {-1,0,1}, P=1, Tukey: the benign median 0 moves to 0.5 on
        # the 4-element set with the copy, whose normalized mad is 1.4826.
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

    def test_tied_base_places_copies_at_the_peak(self):
        # With two copies anywhere above 1, the seven values have median 1
        # and MAD 1, so the copies go to 1 + c0*1.4826.  Copies at the
        # benign median 0 are self-consistent too (the MAD is then 0), but
        # move nothing: SC 0.
        base = np.array([0.0, 0.0, 0.0, 1.0, 5.0])
        for spec, z_pinned, sc_pinned, sc_oracle in (
            (AggregatorSpec.talwar(), 5.14460829585, 16.29, 16.69),
            (AggregatorSpec.tukey(), 4.10633713417, 12.92, 13.88),
        ):
            z = craft_attack(make_ctx(base, 2), AttackSpec(spec))[0]
            c0 = psi_argmax(spec.kind, spec.c) * (1.0 - 1e-9)
            assert z == 1.0 + c0 * MAD_NORMALIZATION
            assert z == pytest.approx(z_pinned, abs=1e-10)
            assert sensitivity_values(spec, base, z, 2) == pytest.approx(sc_pinned, abs=5e-3)
            _, sc_star = max_sc_numeric(spec, base, count=2)
            assert sc_star == pytest.approx(sc_oracle, abs=5e-3)
            combined = np.concatenate([base, [z, z]])
            r = (z - estimate(spec, combined)) / mad(combined)
            assert psi(spec.kind, r, spec.c) != 0.0

    def test_copies_holding_the_median_are_rejected(self):
        # With p >= n the copies hold the median, whatever their value.
        base = np.array([0.0, 0.0, 0.0, 1.0, 5.0])
        for spec in (AttackSpec.talwar_scm(TALWAR_C_95), AttackSpec.tukey_scm(TUKEY_C_95)):
            for values, count in ((base, 5), (base, 6), (np.column_stack([base, base]), [2, 5])):
                with pytest.raises(ValueError, match="malicious_count.*benign_count"):
                    craft_attack(make_ctx(values, count), spec)
        # The order-statistic attacks still craft on a feasible context.
        ctx = make_ctx(np.arange(1.0, 8.0), 7)
        assert craft_attack(ctx, AttackSpec.large_value())[0] == 1000.0
        z = craft_attack(ctx, AttackSpec.trimmed_scm(0.12))[0]
        assert z == pytest.approx(7.0 - 1e-6 * 7.0, abs=1e-12)

    def test_small_tuning_constant_is_rejected(self):
        # Talwar c = 0.5 puts the copies 0.74 MADs out, inside the MAD's
        # middle ranks: here the +inf reading gives z = 1 + 0.74*2 = 2.48,
        # but with the copies at z the MAD is 1.48, not 2, so z would not
        # be self-consistent.
        base = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        for spec in (AttackSpec.talwar_scm(0.5), AttackSpec.tukey_scm(3.0)):
            with pytest.raises(ValueError, match=f"{spec.target.label} c must be at least"):
                craft_attack(make_ctx(base, 2), spec)
        talwar_min = min_tuning_constant(AggregatorKind.TALWAR)
        assert talwar_min == pytest.approx(2.0 / MAD_NORMALIZATION)
        assert min_tuning_constant(AggregatorKind.TUKEY) == pytest.approx(talwar_min * math.sqrt(5.0))

    def test_fixed_point_down_to_the_smallest_tuning_constant(self):
        # At the smallest accepted c the copies sit exactly two MADs out;
        # half the draws are rounded, so ties and even counts are common.
        rng = np.random.default_rng(36)
        for _ in range(300):
            n = int(rng.integers(2, 41))
            p = int(rng.integers(1, n))
            base = rng.standard_normal(n)
            if rng.random() < 0.5:
                base = np.round(base)
            for kind in (AggregatorKind.TALWAR, AggregatorKind.TUKEY):
                c = min_tuning_constant(kind)
                z = craft_attack(make_ctx(base, p), AttackSpec(AggregatorSpec(kind, c=c)))[0]
                c0 = psi_argmax(kind, c) * (1.0 - 1e-9)
                combined = np.concatenate([base, np.full(p, z)])
                z_again = c0 * mad(combined) + estimate(MEDIAN, combined)
                assert abs(z_again - z) <= 1e-9 * (1.0 + abs(z))

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
                z_again = c0 * mad(combined) + estimate(MEDIAN, combined)
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
            sigma = mad(combined)
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
            sigma = mad(combined)
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
        # not 1, whether one count or one per column.
        line = np.arange(1.0, 21.0)
        round_values = np.ones((4, 2))
        for values, bad in (
            (line, 2.5), (line, True), (line, np.float64(0.5)), (line, "3"), (line, [2, 2]),
            (round_values, [1.5, 2.0]), (round_values, [True, True]), (round_values, [1, 1, 1]),
        ):
            with pytest.raises(ValueError, match="malicious_count"):
                CraftingContext(values, bad)
        assert CraftingContext(line, 3.0).malicious_count == 3
        assert CraftingContext(line, [2]).malicious_count.tolist() == [2]
        for bad in ([1, 2, 3], [0, 2], [2, 5], [2.5, 3], [True, True]):
            with pytest.raises(ValueError, match="benign_count"):
                Layout.of(round_values.shape, np.array(bad), "benign_count")
        with pytest.raises(ValueError, match="benign_count"):
            Layout.of((4, 3), np.array([4]), "benign_count")
        # A layout of another shape is refused by the context.
        with pytest.raises(ValueError, match="layout"):
            CraftingContext(np.ones((4, 3)), 1, Layout.of((4, 2), [4, 4], "benign_count"))
        round_values[3, 0] = np.nan  # padding past column 0's three rows
        CraftingContext(round_values, 1, Layout.of((4, 2), [3, 4], "benign_count"))
        with pytest.raises(ValueError, match="non-finite"):
            CraftingContext(round_values, 1, Layout.of((4, 2), [4, 4], "benign_count"))

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
    """One column per receiver and coordinate, with NaN padding, and the
    layout of ``draw_receivers``' sets' per-column benign counts."""
    n = np.array([len(v) for v in sets])
    dim = sets[0].shape[1]
    values = np.full((n.max(), len(sets), dim), np.nan)
    for r, v in enumerate(sets):
        values[: len(v), r] = v
    values = values.reshape(n.max(), -1)
    return values, Layout.of(values.shape, np.repeat(n, dim), "benign_count")


def majority_draw(seed, receivers, dim, spec):
    """``draw_receivers``' sets and counts; against a Talwar/Tukey target,
    only the receivers whose benign values outnumber their copies, after
    checking that the whole draw is rejected."""
    sets, p = draw_receivers(np.random.default_rng(seed), receivers, dim)
    if spec.target is not None and spec.target.kind in M_ESTIMATOR_KINDS:
        values, layout = padded_round(sets)
        with pytest.raises(ValueError, match="malicious_count"):
            craft_attack(CraftingContext(values, np.repeat(p, dim), layout), spec)
        keep = [r for r, v in enumerate(sets) if p[r] < len(v)]
        sets, p = [sets[r] for r in keep], p[keep]
    return sets, p


# sha256 of each round craft of ``majority_draw``: the whole draw for the
# large-value and trimmed-mean attacks, its benign-majority receivers for the
# Talwar and Tukey ones.  (draw seed, receivers, dim, attack): digest.
CRAFT_DIGESTS = {
    (1, 58, 1, "large_value"): "fb6128003e2827834f9c5632e6d274bd5f89ab823642b40806f399c64a16bd12",
    (1, 58, 1, "trimmed_scm"): "f996cf6ab5066cc941779f6471b95e8270b4b042ee3ae29d91969bf7561825ed",
    (1, 58, 1, "talwar_scm"): "9f3a659a925f7654eba17c5839e400eb9c1e6459c6aa7ad27e129abe9bbc3cad",
    (1, 58, 1, "tukey_scm"): "53a3c423f6526c1d01f01710eedb1dca65012f703000dd65fd5cb002beb7089f",
    (3, 58, 3, "large_value"): "282b263cc4bcd7910e95fc84649f5a21360204d10233b7081b92381303fb5b19",
    (3, 58, 3, "trimmed_scm"): "3dde8c45e96a4d445c397bbe10502d1e0526fa8c6ed5fcd6179597935bc900cc",
    (3, 58, 3, "talwar_scm"): "516d4006c54d7fef3f2c942143641909ffefbcfeba01e84cd1aaaa236569eb73",
    (3, 58, 3, "tukey_scm"): "8e0aabe798aed354edde8ab15b59a94ff3ef0cf3337f137b673330b40e9c0116",
    (10, 58, 10, "large_value"): "7ae702d090e3d5050a81bdc9826d2cb13ab5e58b95d3c13b8028eb155352bba0",
    (10, 58, 10, "trimmed_scm"): "3de2f6b49a58c7f656903955d4f884c93b935bd5dc4f0465da2b239ed7211456",
    (10, 58, 10, "talwar_scm"): "ffc31c8f942a7cfbda99c969c7a07a1316a2f29b01978b7c4b1256ea24d7a6bc",
    (10, 58, 10, "tukey_scm"): "7de192f274f830d9c3806c2ef90efa173d0fd7722d2ecd8e00f1fa09e2dbcd81",
    (61, 240, 3, "large_value"): "ce4ad212fc81f4bfb3abf1cc3df5a070c92af82fd2b1b5115c59e043e3e99efc",
    (61, 240, 3, "trimmed_scm"): "cbb8d218866c3d7fa76c637ae7689546e58b07982497686c3eb763070d783f4a",
    (61, 240, 3, "talwar_scm"): "a23628cffa15d128616c1981aa33a363369d07456c5a1d455ee2566068049c08",
    (61, 240, 3, "tukey_scm"): "6a8616925d91e3c90cc829f0ae5527ef6848d0fcbf580d91725205d23bfd1fff",
}


class TestRoundCraft:
    @pytest.mark.parametrize("spec", ROUND_ATTACKS, ids=lambda s: s.label)
    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_round_equals_per_receiver_calls(self, spec, dim):
        sets, p = majority_draw(dim, 58, dim, spec)
        values, layout = padded_round(sets)
        got = craft_attack(CraftingContext(values, np.repeat(p, dim), layout), spec)
        assert got.shape == (len(sets) * dim,)
        for r, v in enumerate(sets):
            alone = craft_attack(CraftingContext(v, p[r]), spec)
            assert got[r * dim : (r + 1) * dim].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("spec", ROUND_ATTACKS, ids=lambda s: s.label)
    @pytest.mark.parametrize("seed, receivers, dim", [(1, 58, 1), (3, 58, 3), (10, 58, 10), (61, 240, 3)])
    def test_crafted_bytes_pinned(self, spec, seed, receivers, dim):
        sets, p = majority_draw(seed, receivers, dim, spec)
        values, layout = padded_round(sets)
        got = craft_attack(CraftingContext(values, np.repeat(p, dim), layout), spec)
        digest = hashlib.sha256(got.tobytes()).hexdigest()
        assert digest == CRAFT_DIGESTS[seed, receivers, dim, spec.label]

    def test_one_count_for_every_receiver(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((12, 5, 3))
        spec = AttackSpec.tukey_scm(TUKEY_C_95)
        got = craft_attack(CraftingContext(values.reshape(12, -1), 4), spec)
        for r in range(5):
            alone = craft_attack(CraftingContext(values[:, r], 4), spec)
            assert got[3 * r : 3 * r + 3].tobytes() == alone.tobytes()
