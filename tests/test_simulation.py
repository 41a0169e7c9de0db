import numpy as np
import pytest

from scmsim import simulation
from scmsim.attacks import AttackSpec
from scmsim.estimators import AggregatorSpec, aggregate_matrix, tuned_aggregators
from scmsim.simulation import (
    DIVERGENCE_SENTINEL,
    LearningConfig,
    LinearModelConfig,
    adapt,
    draw_true_weights,
    generate_batch,
    huber_grad_factor,
    huber_loss,
    run_experiment,
)
from scmsim.topology import generate_topology


def small_setup(num_malicious=0, agents=12, dim=4, seed=77):
    topo = generate_topology(agents, 0.8, num_malicious, seed=seed)
    model = LinearModelConfig(true_weights=draw_true_weights(dim, seed=seed + 1))
    return topo, model


class TestHuber:
    def test_zero_residual(self):
        assert huber_loss(0.0, 1.0) == 0.0
        assert huber_grad_factor(0.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        for r in (-0.9, -0.2, 0.4, 1.0):
            assert huber_loss(r, 1.0) == pytest.approx(0.5 * r * r)

    def test_linear_branch(self):
        assert huber_loss(3.0, 1.0) == pytest.approx(3.0 - 0.5)
        assert huber_grad_factor(3.0, 1.0) == 1.0
        assert huber_grad_factor(-3.0, 1.0) == -1.0

    def test_gradient_matches_central_differences(self):
        delta = 1.0
        h = 1e-5
        for r in (-1.1, -0.9, 1.1, 0.9, 0.0, 2.5, -4.0):
            numeric = (huber_loss(r + h, delta) - huber_loss(r - h, delta)) / (2 * h)
            assert huber_grad_factor(r, delta) == pytest.approx(numeric, abs=1e-6)

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            huber_loss(1.0, 0.0)


class TestSampling:
    def test_noiseless_coordinate_read(self):
        w = np.array([3.0, -2.0])
        model = LinearModelConfig(true_weights=w, noise_var=1e-30)
        rng = np.random.default_rng(0)
        u, d = generate_batch(rng, model, 1)
        assert d[0] == pytest.approx(u[0] @ w, abs=1e-9)

    def test_deterministic_stream(self):
        model = LinearModelConfig(true_weights=np.zeros(3))
        a = generate_batch(np.random.default_rng(5), model, 4)
        b = generate_batch(np.random.default_rng(5), model, 4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_noise_variance_calibrated(self):
        model = LinearModelConfig(true_weights=draw_true_weights(10, seed=1), noise_var=0.01)
        rng = np.random.default_rng(2)
        regressors, targets = generate_batch(rng, model, 100000)
        noise = targets - regressors @ model.true_weights
        assert 0.0094 <= noise.var() <= 0.0106

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinearModelConfig(true_weights=np.array([]))
        with pytest.raises(ValueError):
            LinearModelConfig(true_weights=np.ones(2), noise_var=0.0)


class TestAdapt:
    def test_zero_step_is_identity(self):
        w = np.array([1.0, 2.0])
        cfg = LearningConfig(step_size=1e-300)  # step must be positive
        U = np.array([[1.0, 0.0]])
        d = np.array([5.0])
        out = adapt(w, U, d, cfg)
        np.testing.assert_allclose(out, w, atol=1e-290)

    def test_zero_gradient_at_truth_without_noise(self):
        w = np.array([0.5, -0.25, 1.0])
        cfg = LearningConfig()
        U = np.random.default_rng(3).standard_normal((6, 3))
        d = U @ w  # noiseless targets
        np.testing.assert_allclose(adapt(w, U, d, cfg), w, atol=1e-12)

    def test_single_sample_closed_form(self):
        w = np.zeros(2)
        cfg = LearningConfig(step_size=0.1)
        U = np.array([[1.0, 0.0]])
        d = np.array([0.5])  # residual 0.5, inside the quadratic branch
        out = adapt(w, U, d, cfg)
        np.testing.assert_allclose(out, [0.1 * 0.5, 0.0], atol=1e-15)

    def test_gradient_boundedness(self):
        # |grad| <= delta * max ||u||: the Huber clip bounds each term
        rng = np.random.default_rng(4)
        cfg = LearningConfig(step_size=1.0, huber_delta=1.0)
        w = rng.standard_normal(5)
        U = rng.standard_normal((20, 5))
        d = U @ w + 100.0  # far off: every residual clipped
        step = adapt(w, U, d, cfg) - w
        max_u = np.linalg.norm(U, axis=1).max()
        assert np.linalg.norm(step) <= cfg.huber_delta * max_u

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            adapt(np.zeros(2), np.empty((0, 2)), np.empty(0), LearningConfig())

    @pytest.mark.parametrize("batch", [1, 4])
    def test_stacked_agents_match_per_agent_steps(self, batch):
        rng = np.random.default_rng(6)
        cfg = LearningConfig(step_size=0.3, huber_delta=0.5)
        W = rng.standard_normal((7, 5))
        U = rng.standard_normal((7, batch, 5))
        d = rng.standard_normal((7, batch)) * 3.0  # both Huber branches
        stacked = adapt(W, U, d, cfg)
        per_agent = np.array([adapt(W[a], U[a], d[a], cfg) for a in range(7)])
        assert np.array_equal(stacked, per_agent)


class TestCombine:
    def test_consensus_fixed_point(self):
        topo, _ = small_setup()
        v = np.array([1.0, -2.0, 0.5, 3.0])
        rows = np.tile(v, (topo.neighborhood(0).size, 1))
        for spec in tuned_aggregators():
            np.testing.assert_allclose(aggregate_matrix(spec, rows).values, v)

    def test_sample_mean_recovers_uniform_averaging(self):
        topo, _ = small_setup()
        rng = np.random.default_rng(8)
        nb = topo.neighborhood(2)
        rows = rng.standard_normal((nb.size, 4))
        got = aggregate_matrix(AggregatorSpec.sample_mean(), rows).values
        want = rows.sum(axis=0) / nb.size
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_median_shrugs_off_single_large_value(self):
        rows = 0.01 * np.arange(6.0)[:, None]
        rows[5] = 1000.0
        med = aggregate_matrix(AggregatorSpec.median(), rows).values[0]
        assert 0.0 <= med <= 0.05
        mean = aggregate_matrix(AggregatorSpec.sample_mean(), rows).values[0]
        assert mean == pytest.approx((0.01 + 0.02 + 0.03 + 0.04 + 1000.0) / 6)


class TestRunExperiment:
    def test_trace_shape_and_metadata(self):
        topo, model = small_setup()
        learn = LearningConfig(iterations=20)
        tr = run_experiment(topo, model, learn, AggregatorSpec.sample_mean(), None, seed=0)
        assert tr.iteration.tolist() == list(range(1, 21))
        assert tr.training_loss.shape == (20,)
        assert tr.msd.shape == (20,)
        assert not tr.diverged
        assert tr.initial_msd == pytest.approx(np.sum(model.true_weights**2))

    def test_one_adapt_call_per_round(self, monkeypatch):
        calls = []

        def counting_adapt(weights, *args):
            calls.append(weights.shape)
            return adapt(weights, *args)

        monkeypatch.setattr(simulation, "adapt", counting_adapt)
        topo, model = small_setup(num_malicious=2)
        att = AttackSpec.trimmed_scm()
        run_experiment(topo, model, LearningConfig(iterations=6),
                       AggregatorSpec.trimmed_mean(), att, seed=0)
        assert calls == [(topo.benign_agents.size, model.dim)] * 6

    def test_deterministic_traces(self):
        topo, model = small_setup(num_malicious=2)
        learn = LearningConfig(iterations=15)
        att = AttackSpec.tukey_scm(4.685)
        a = run_experiment(topo, model, learn, AggregatorSpec.tukey(), att, seed=3)
        b = run_experiment(topo, model, learn, AggregatorSpec.tukey(), att, seed=3)
        np.testing.assert_array_equal(a.training_loss, b.training_loss)
        np.testing.assert_array_equal(a.msd, b.msd)

    def test_attack_required_with_malicious_agents(self):
        topo, model = small_setup(num_malicious=2)
        with pytest.raises(ValueError):
            run_experiment(topo, model, LearningConfig(iterations=2),
                           AggregatorSpec.median(), None, seed=0)

    def test_mean_converges_without_attack(self):
        topo, model = small_setup()
        learn = LearningConfig(iterations=150)
        tr = run_experiment(topo, model, learn, AggregatorSpec.sample_mean(), None, seed=0)
        assert tr.final_msd < 1e-2 * tr.initial_msd
        # loss descends towards the noise floor
        assert tr.training_loss[-1] < 0.1 * tr.training_loss[0]

    def test_no_attack_consensus(self):
        # with no malicious agents the benign weights settle into agreement:
        # the widest pairwise gap stays far below the noise-floor MSD
        topo, model = small_setup()
        learn = LearningConfig(iterations=150)
        for spec in tuned_aggregators():
            tr = run_experiment(topo, model, learn, spec, None, seed=1)
            assert tr.final_msd < 1e-2 * tr.initial_msd
            diffs = tr.final_weights[:, None, :] - tr.final_weights[None, :, :]
            max_pair_sq = float((diffs**2).sum(axis=2).max())
            assert max_pair_sq <= 10.0 * tr.final_msd

    def test_lv_attack_diverges_mean_but_not_tukey(self):
        topo, model = small_setup(num_malicious=2)
        learn = LearningConfig(iterations=60)
        lv = AttackSpec.large_value()
        mean_tr = run_experiment(topo, model, learn, AggregatorSpec.sample_mean(), lv, seed=0)
        tuk_tr = run_experiment(topo, model, learn, AggregatorSpec.tukey(), lv, seed=0)
        assert mean_tr.final_msd > 100 * tuk_tr.final_msd

    def test_divergence_sentinel_freezes_trace(self):
        topo, model = small_setup(num_malicious=2)
        learn = LearningConfig(iterations=40)
        lv = AttackSpec.large_value(1e31)
        tr = run_experiment(topo, model, learn, AggregatorSpec.sample_mean(), lv, seed=0)
        assert tr.diverged
        assert tr.training_loss[-1] == DIVERGENCE_SENTINEL
        assert tr.msd[-1] == DIVERGENCE_SENTINEL
        assert np.isfinite(tr.training_loss).all()

    def test_m_convergence_flags_recorded(self):
        topo, model = small_setup()
        learn = LearningConfig(iterations=10)
        tr = run_experiment(topo, model, learn, AggregatorSpec.tukey(), None, seed=0)
        assert tr.m_converged.dtype == bool
        assert tr.m_converged.all()
