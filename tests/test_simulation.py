import hashlib
import math

import numpy as np
import pytest

from scmsim import simulation
from scmsim.attacks import SCM_TARGET, AttackSpec, craft_attack
from scmsim.estimators import (
    AggregatorKind,
    AggregatorSpec,
    Layout,
    aggregate_matrix,
    tuned_aggregators,
)
from scmsim.simulation import (
    DATA_CHUNK_ROUNDS,
    DIVERGENCE_SENTINEL,
    LearningConfig,
    LinearModelConfig,
    adapt,
    draw_true_weights,
    generate_batch,
    huber_grad_factor,
    huber_loss,
    run_experiment,
    _residuals,
)
from scmsim.topology import NetworkTopology, generate_topology


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
        # Finite far out: the quadratic branch is not squared there, so
        # no overflow warning either.
        assert huber_loss(1e200, 1.0) == 1e200 - 0.5
        assert huber_loss(np.array([-1e200, 0.5]), 1.0).tolist() == [1e200 - 0.5, 0.125]
        assert huber_grad_factor(3.0, 1.0) == 1.0
        assert huber_grad_factor(-3.0, 1.0) == -1.0

    def test_gradient_matches_central_differences(self):
        delta = 1.0
        h = 1e-5
        for r in (-1.1, -0.9, 1.1, 0.9, 0.0, 2.5, -4.0):
            numeric = (huber_loss(r + h, delta) - huber_loss(r - h, delta)) / (2 * h)
            assert huber_grad_factor(r, delta) == pytest.approx(numeric, abs=1e-6)

    def test_delta_validated(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            for f in (huber_loss, huber_grad_factor):
                with pytest.raises(ValueError, match="huber_delta"):
                    f(1.0, bad)


class TestSampling:
    def test_noiseless_coordinate_read(self):
        w = np.array([3.0, -2.0])
        model = LinearModelConfig(true_weights=w, noise_var=1e-30)
        rng = np.random.default_rng(0)
        u, d = generate_batch([rng], model, 1)
        assert u.shape == (1, 1, 1, 2) and d.shape == (1, 1, 1)
        assert d[0, 0, 0] == pytest.approx(u[0, 0, 0] @ w, abs=1e-9)

    def test_deterministic_stream(self):
        model = LinearModelConfig(true_weights=np.zeros(3), samples_per_iteration=4)
        a = generate_batch([np.random.default_rng(5)], model, 3)
        b = generate_batch([np.random.default_rng(5)], model, 3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_noise_variance_calibrated(self):
        model = LinearModelConfig(true_weights=draw_true_weights(10, seed=1), noise_var=0.01,
                                  samples_per_iteration=100000)
        rng = np.random.default_rng(2)
        regressors, targets = generate_batch([rng], model, 1)
        noise = targets[0, 0] - regressors[0, 0] @ model.true_weights
        assert 0.0094 <= noise.var() <= 0.0106

    @pytest.mark.parametrize("iterations", [65, 130])
    def test_chunks_equal_per_round_draws(self, iterations):
        # Chunked as run_experiment draws them, against one (batch, dim)
        # regressor draw and one noise draw per round from the same stream.
        batch, seeds = 2, [11, 12, 13]
        model = LinearModelConfig(true_weights=draw_true_weights(3, seed=4), noise_var=0.02,
                                  samples_per_iteration=batch)
        streams = [np.random.default_rng(s) for s in seeds]
        parts = [
            generate_batch(streams, model, rounds)
            for rounds in [DATA_CHUNK_ROUNDS] * (iterations // DATA_CHUNK_ROUNDS)
            + [iterations % DATA_CHUNK_ROUNDS]
        ]
        regressors = np.concatenate([p[0] for p in parts])
        targets = np.concatenate([p[1] for p in parts])
        assert regressors.shape == (iterations, len(seeds), batch, 3)
        for j, s in enumerate(seeds):
            rng = np.random.default_rng(s)
            for i in range(iterations):
                u = rng.standard_normal((batch, 3))
                d = u @ model.true_weights + rng.normal(0.0, math.sqrt(model.noise_var), batch)
                assert np.array_equal(regressors[i, j], u)
                assert np.array_equal(targets[i, j], d)

    def test_rounds_must_be_a_whole_number(self):
        # -1 reached NumPy's "negative dimensions" error and 1.5 a raw TypeError.
        model = LinearModelConfig(true_weights=np.ones(3), samples_per_iteration=2)
        streams = [np.random.default_rng(1), np.random.default_rng(2)]
        for bad in (-1, 1.5, True, "2", None, [2]):
            with pytest.raises(ValueError, match="rounds"):
                generate_batch(streams, model, bad)
        regressors, targets = generate_batch(streams, model, 0)
        assert regressors.shape == (0, 2, 2, 3) and targets.shape == (0, 2, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinearModelConfig(true_weights=np.array([]))
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_var"):
                LinearModelConfig(true_weights=np.ones(2), noise_var=bad)
            for name in ("step_size", "huber_delta"):
                with pytest.raises(ValueError, match=name):
                    LearningConfig(**{name: bad})
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="true_weights"):
                LinearModelConfig(true_weights=np.array([1.0, bad]))
        # Counts are one whole number of at least 1, stored as int.
        for bad in (2.5, True, "3", 0, [3], np.array([2])):
            with pytest.raises(ValueError, match="samples_per_iteration"):
                LinearModelConfig(true_weights=np.ones(2), samples_per_iteration=bad)
            with pytest.raises(ValueError, match="iterations"):
                LearningConfig(iterations=bad)
        assert type(LearningConfig(iterations=3.0).iterations) is int
        model = LinearModelConfig(true_weights=np.ones(2), samples_per_iteration=np.int64(2))
        assert type(model.samples_per_iteration) is int


class TestAdapt:
    def test_zero_step_is_identity(self):
        w = np.array([1.0, 2.0])
        cfg = LearningConfig(step_size=1e-300)  # step must be positive
        U = np.array([[1.0, 0.0]])
        d = np.array([5.0])
        out = adapt(w, U, _residuals(w, U, d), cfg)
        np.testing.assert_allclose(out, w, atol=1e-290)

    def test_zero_gradient_at_truth_without_noise(self):
        w = np.array([0.5, -0.25, 1.0])
        cfg = LearningConfig()
        U = np.random.default_rng(3).standard_normal((6, 3))
        d = U @ w  # noiseless targets
        np.testing.assert_allclose(adapt(w, U, _residuals(w, U, d), cfg), w, atol=1e-12)

    def test_single_sample_closed_form(self):
        w = np.zeros(2)
        cfg = LearningConfig(step_size=0.1)
        U = np.array([[1.0, 0.0]])
        d = np.array([0.5])  # residual 0.5, inside the quadratic branch
        out = adapt(w, U, _residuals(w, U, d), cfg)
        np.testing.assert_allclose(out, [0.1 * 0.5, 0.0], atol=1e-15)

    def test_gradient_boundedness(self):
        # |grad| <= delta * max ||u||: the Huber clip bounds each term
        rng = np.random.default_rng(4)
        cfg = LearningConfig(step_size=1.0, huber_delta=1.0)
        w = rng.standard_normal(5)
        U = rng.standard_normal((20, 5))
        d = U @ w + 100.0  # far off: every residual clipped
        step = adapt(w, U, _residuals(w, U, d), cfg) - w
        max_u = np.linalg.norm(U, axis=1).max()
        assert np.linalg.norm(step) <= cfg.huber_delta * max_u

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            w, U = np.zeros(2), np.empty((0, 2))
            adapt(w, U, _residuals(w, U, np.empty(0)), LearningConfig())

    @pytest.mark.parametrize("batch", [1, 4])
    def test_stacked_agents_match_per_agent_steps(self, batch):
        rng = np.random.default_rng(6)
        cfg = LearningConfig(step_size=0.3, huber_delta=0.5)
        W = rng.standard_normal((7, 5))
        U = rng.standard_normal((7, batch, 5))
        d = rng.standard_normal((7, batch)) * 3.0  # both Huber branches
        stacked = adapt(W, U, _residuals(W, U, d), cfg)
        per_agent = np.array([adapt(W[a], U[a], _residuals(W[a], U[a], d[a]), cfg)
                              for a in range(7)])
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


class TestGroupedCombine:
    @pytest.mark.parametrize("dim", [1, 10])
    @pytest.mark.parametrize("spec", tuned_aggregators(), ids=lambda s: s.label)
    def test_equals_per_receiver_calls(self, spec, dim, monkeypatch):
        # Every round's one padded combine call, its padding overwritten
        # with NaN, gives each receiver the bits of a call on its rows alone.
        rounds = []

        def checking_aggregate(aggregator, matrix, layout):
            counts = layout.counts
            padded = np.where(np.arange(len(matrix))[:, None] < counts, matrix, np.nan)
            result = aggregate_matrix(aggregator, padded, layout)
            alone = [
                aggregate_matrix(aggregator, matrix[: counts[r * dim], r * dim : (r + 1) * dim])
                for r in range(matrix.shape[1] // dim)
            ]
            assert result.values.tobytes() == np.concatenate([a.values for a in alone]).tobytes()
            assert result.converged == all(a.converged for a in alone)
            rounds.append(counts)
            return result

        monkeypatch.setattr(simulation, "aggregate_matrix", checking_aggregate)
        topo, model = small_setup(num_malicious=3, agents=16, dim=dim)
        attack = AttackSpec(spec) if spec.kind in SCM_TARGET.values() else AttackSpec.large_value()
        run_experiment(topo, model, LearningConfig(iterations=4), [spec], attack, seed=0)
        assert len(rounds) == 4 and len(set(rounds[0].tolist())) > 1

    @pytest.mark.parametrize("graph", ["sparse", "complete"])
    def test_round_rows_follow_the_neighborhoods(self, graph, monkeypatch):
        # Each receiver's rows of each rule's combine input, read against
        # ``topology.neighborhood``: its visible benign agents' adapted
        # weights in id order, then one crafted copy per malicious neighbor.
        # On the complete graph every receiver sees every agent, so a round
        # has more rows than there are benign agents.  A round adapts and
        # crafts once for every rule of the call, and combines once per rule.
        if graph == "sparse":
            topo, model = small_setup(num_malicious=2)
        else:
            topo = generate_topology(8, 1.0, 2, seed=5)
            model = LinearModelConfig(true_weights=draw_true_weights(3, seed=6))
        dim, benign = model.dim, topo.benign_agents
        neighborhoods = [topo.neighborhood(int(k)) for k in benign]
        attacked = np.flatnonzero(np.repeat([topo.malicious[nb].any() for nb in neighborhoods], dim))
        adapted, crafted, combined = [], [], []

        def recording_adapt(*args):
            adapted.append(adapt(*args))
            return adapted[-1]

        def recording_craft(*args):
            crafted.append(craft_attack(*args))
            return crafted[-1]

        def recording_aggregate(aggregator, matrix, layout):
            combined.append((matrix.copy(), layout.counts))
            return aggregate_matrix(aggregator, matrix, layout)

        monkeypatch.setattr(simulation, "adapt", recording_adapt)
        monkeypatch.setattr(simulation, "craft_attack", recording_craft)
        monkeypatch.setattr(simulation, "aggregate_matrix", recording_aggregate)
        for specs in ([AggregatorSpec.tukey()],
                      [AggregatorSpec.tukey(), AggregatorSpec.talwar(), AggregatorSpec.median()]):
            for record in (adapted, crafted, combined):
                record.clear()
            run_experiment(topo, model, LearningConfig(iterations=3), specs,
                           AttackSpec.tukey_scm(4.685), seed=0)
            rules = len(specs)
            assert len(adapted) == len(crafted) == 3 and len(combined) == 3 * rules
            assert [phi.shape for phi in adapted] == [(rules, benign.size, dim)] * 3
            if graph == "complete":
                assert len(combined[0][0]) == topo.agent_count > benign.size
            for k, (phis, copies) in enumerate(zip(adapted, crafted)):
                for phi, rule_copies, (matrix, counts) in zip(
                    phis, copies.reshape(rules, -1), combined[k * rules : (k + 1) * rules]
                ):
                    by_column = np.zeros(matrix.shape[1])
                    by_column[attacked] = rule_copies
                    for j, nb in enumerate(neighborhoods):
                        visible = nb[~topo.malicious[nb]]
                        n_mal = int(topo.malicious[nb].sum())
                        cols = slice(j * dim, (j + 1) * dim)
                        want = np.vstack([phi[np.searchsorted(benign, visible)],
                                          np.tile(by_column[cols], (n_mal, 1))])
                        assert counts[cols].tolist() == [visible.size + n_mal] * dim
                        assert matrix[: len(want), cols].tobytes() == want.tobytes()


class TestRunExperiment:
    def test_trace_shape_and_metadata(self):
        topo, model = small_setup()
        learn = LearningConfig(iterations=20)
        tr, = run_experiment(topo, model, learn, [AggregatorSpec.sample_mean()], None, seed=0)
        assert tr.iteration.tolist() == list(range(1, 21))
        assert tr.training_loss.shape == (20,)
        assert tr.msd.shape == (20,)
        assert not tr.diverged
        assert tr.initial_msd == pytest.approx(np.sum(model.true_weights**2))

    def test_tail_mean_loss_window(self):
        topo, model = small_setup()
        tr, = run_experiment(
            topo, model, LearningConfig(iterations=5), [AggregatorSpec.sample_mean()], None, seed=0
        )
        tr.training_loss = np.arange(1.0, 6.0)
        assert tr.tail_mean_loss(2) == tr.tail_mean_loss(2.0) == 4.5
        assert tr.tail_mean_loss(9) == 3.0
        for window in (0, -2, 2.5, True, [2]):
            with pytest.raises(ValueError, match="window"):
                tr.tail_mean_loss(window)

    def test_one_adapt_call_per_round(self, monkeypatch):
        calls = []

        def counting_adapt(weights, *args):
            calls.append(weights.shape)
            return adapt(weights, *args)

        monkeypatch.setattr(simulation, "adapt", counting_adapt)
        topo, model = small_setup(num_malicious=2)
        att = AttackSpec.trimmed_scm()
        # One call adapts every rule's weights, as (rules, benign, dim).
        for aggregator in ([AggregatorSpec.trimmed_mean()], tuned_aggregators()[:3]):
            calls.clear()
            run_experiment(topo, model, LearningConfig(iterations=6), aggregator, att, seed=0)
            assert calls == [(len(aggregator), topo.benign_agents.size, model.dim)] * 6

    def test_residuals_computed_once_per_round(self, monkeypatch):
        # The training loss's residuals feed the round's gradient step.
        calls = []

        def counting_residuals(*args):
            calls.append(1)
            return residuals(*args)

        residuals = simulation._residuals
        monkeypatch.setattr(simulation, "_residuals", counting_residuals)
        topo, model = small_setup(num_malicious=2)
        run_experiment(topo, model, LearningConfig(iterations=6), tuned_aggregators()[:3],
                       AttackSpec.trimmed_scm(), seed=0)
        assert len(calls) == 6

    def test_one_craft_call_per_round(self, monkeypatch):
        calls = []

        def counting_craft(benign, spec, *args):
            calls.append((benign.shape, spec.label))
            return craft_attack(benign, spec, *args)

        monkeypatch.setattr(simulation, "craft_attack", counting_craft)
        topo, model = small_setup(num_malicious=2)
        attacked = sum(topo.malicious[topo.neighborhood(int(k))].any() for k in topo.benign_agents)
        att = AttackSpec.tukey_scm(4.685)
        run_experiment(topo, model, LearningConfig(iterations=6),
                       [AggregatorSpec.tukey()], att, seed=0)
        assert len(calls) == 6
        for shape, label in calls:
            assert shape[1:] == (attacked * model.dim,) and label == "tukey_scm"
        calls.clear()
        topo, model = small_setup()
        run_experiment(topo, model, LearningConfig(iterations=6),
                       [AggregatorSpec.tukey()], None, seed=0)
        assert calls == []

    def test_one_combine_call_per_round(self, monkeypatch):
        calls = []

        def counting_aggregate(aggregator, matrix, layout):
            calls.append(matrix.shape)
            return aggregate_matrix(aggregator, matrix, layout)

        monkeypatch.setattr(simulation, "aggregate_matrix", counting_aggregate)
        topo, model = small_setup(num_malicious=2)
        benign = topo.benign_agents
        max_rows = max(topo.neighborhood(int(k)).size for k in benign)
        run_experiment(topo, model, LearningConfig(iterations=6),
                       [AggregatorSpec.tukey()], AttackSpec.tukey_scm(4.685), seed=0)
        assert calls == [(max_rows, benign.size * model.dim)] * 6

    def test_layouts_built_at_set_up_only(self, monkeypatch):
        # A round's counts are fixed by the topology: they are laid out and
        # validated once per run, whatever the number of rounds.
        built = []
        build = Layout.__init__

        def counting_init(self, *args):
            built.append(self)
            build(self, *args)

        monkeypatch.setattr(Layout, "__init__", counting_init)
        # One combine layout serves every rule of a call, and one craft
        # layout all of their attacked columns.
        topo, model = small_setup(num_malicious=2)
        for aggregator, att in (
            ([AggregatorSpec.trimmed_mean()], AttackSpec(AggregatorSpec.trimmed_mean())),
            ([AggregatorSpec.tukey()], AttackSpec(AggregatorSpec.tukey())),
            (tuned_aggregators()[:3], AttackSpec(AggregatorSpec.tukey())),
        ):
            counts = []
            for iterations in (2, 5):
                built.clear()
                run_experiment(topo, model, LearningConfig(iterations=iterations), aggregator,
                               att, seed=0)
                counts.append(len(built))
            assert counts == [2, 2]

    def test_deterministic_traces(self):
        topo, model = small_setup(num_malicious=2)
        learn = LearningConfig(iterations=15)
        att = AttackSpec.tukey_scm(4.685)
        a, = run_experiment(topo, model, learn, [AggregatorSpec.tukey()], att, seed=3)
        b, = run_experiment(topo, model, learn, [AggregatorSpec.tukey()], att, seed=3)
        np.testing.assert_array_equal(a.training_loss, b.training_loss)
        np.testing.assert_array_equal(a.msd, b.msd)

    def test_attack_required_with_malicious_agents(self):
        topo, model = small_setup(num_malicious=2)
        with pytest.raises(ValueError):
            run_experiment(topo, model, LearningConfig(iterations=2),
                           [AggregatorSpec.median()], None, seed=0)

    def test_mean_converges_without_attack(self):
        topo, model = small_setup()
        learn = LearningConfig(iterations=150)
        tr, = run_experiment(topo, model, learn, [AggregatorSpec.sample_mean()], None, seed=0)
        assert tr.final_msd < 1e-2 * tr.initial_msd
        # loss descends towards the noise floor
        assert tr.training_loss[-1] < 0.1 * tr.training_loss[0]

    def test_no_attack_consensus(self):
        # with no malicious agents the benign weights settle into agreement:
        # the widest pairwise gap stays far below the noise-floor MSD
        topo, model = small_setup()
        learn = LearningConfig(iterations=150)
        for spec in tuned_aggregators():
            tr, = run_experiment(topo, model, learn, [spec], None, seed=1)
            assert tr.final_msd < 1e-2 * tr.initial_msd
            diffs = tr.final_weights[:, None, :] - tr.final_weights[None, :, :]
            max_pair_sq = float((diffs**2).sum(axis=2).max())
            assert max_pair_sq <= 10.0 * tr.final_msd

    def test_lv_attack_diverges_mean_but_not_tukey(self):
        topo, model = small_setup(num_malicious=2)
        learn = LearningConfig(iterations=60)
        lv = AttackSpec.large_value()
        mean_tr, = run_experiment(topo, model, learn, [AggregatorSpec.sample_mean()], lv, seed=0)
        tuk_tr, = run_experiment(topo, model, learn, [AggregatorSpec.tukey()], lv, seed=0)
        assert mean_tr.final_msd > 100 * tuk_tr.final_msd

    def test_divergence_sentinel_freezes_trace(self):
        topo, model = small_setup(num_malicious=2)
        learn = LearningConfig(iterations=40)
        lv = AttackSpec.large_value(1e31)
        tr, = run_experiment(topo, model, learn, [AggregatorSpec.sample_mean()], lv, seed=0)
        assert tr.diverged
        assert tr.training_loss[-1] == DIVERGENCE_SENTINEL
        assert tr.msd[-1] == DIVERGENCE_SENTINEL
        assert np.isfinite(tr.training_loss).all()

    def test_m_convergence_flags_recorded(self):
        topo, model = small_setup()
        learn = LearningConfig(iterations=10)
        tr, = run_experiment(topo, model, learn, [AggregatorSpec.tukey()], None, seed=0)
        assert tr.m_converged.dtype == bool
        assert tr.m_converged.all()

    @pytest.mark.parametrize("spec", [AggregatorSpec.talwar(), AggregatorSpec.tukey()],
                             ids=lambda s: s.label)
    def test_huge_attack_values_leave_m_estimates_converged(self, spec):
        # The copies' residuals overflow to inf: psi must reject them, not
        # turn the fixed-point residual into NaN.
        topo, model = small_setup(num_malicious=2)
        lv = AttackSpec.large_value(1.7e308)
        tr, = run_experiment(topo, model, LearningConfig(iterations=5), [spec], lv, seed=0)
        assert tr.m_converged.all()


ALL_ATTACKS = [
    AttackSpec.large_value(),
    AttackSpec.trimmed_scm(),
    AttackSpec.talwar_scm(2.7955),
    AttackSpec.tukey_scm(4.685),
]

def _case_digest(dim, batch, num_malicious):
    """sha256 over the traces of every rule (x attack) run of one case."""
    topo = generate_topology(16, 0.6, num_malicious, seed=11)
    model = LinearModelConfig(true_weights=draw_true_weights(dim, seed=12),
                              samples_per_iteration=batch)
    learn = LearningConfig(iterations=15)
    h = hashlib.sha256()
    for spec in tuned_aggregators():
        for attack in ALL_ATTACKS if num_malicious else [None]:
            tr, = run_experiment(topo, model, learn, [spec], attack, seed=5)
            for arr in (tr.training_loss, tr.msd, tr.final_weights, tr.m_converged):
                h.update(arr.tobytes())
    return h.hexdigest()


# Recorded with one padded aggregate_matrix call per round, every column
# summed row by row and every M-estimate solved by Newton's step in units
# of its scale, on x86-64 Linux, NumPy 2.4.  Any change to these bytes is
# a change to the traces.
PINNED_TRACE_DIGESTS = {
    (1, 1, 0): "9fa88316b50471ea67554a56735a7e08fc6db7b4d661864e078fa2564b6b5145",
    (1, 1, 2): "d1f69fc80d485e1a66ed06427f62fc2c5de731dcd56fe5b3810819c76ec9ede1",
    (3, 4, 0): "1b3af1f9c56e699268b4536c35ff1437f5be503b46abcc98e10ce40272c19c60",
    (3, 4, 2): "ef1712de887529436142bdb8ae9365273ba4718ea3980bad7bdaa857875527eb",
    (10, 1, 0): "16270a018b439615f4c2a44bd2652843f021b4594392d42a6de43f28d3b9cbbd",
    (10, 1, 2): "55ae2873ff403b7e018b94e91075b1cad3c294cef4f5546d0564b53f899930af",
}


@pytest.mark.parametrize("case", list(PINNED_TRACE_DIGESTS),
                         ids=lambda c: "dim%d-batch%d-mal%d" % c)
def test_trace_bytes_pinned(case):
    assert _case_digest(*case) == PINNED_TRACE_DIGESTS[case]


def _trace_fields(trace):
    return (
        trace.training_loss.tobytes(), trace.msd.tobytes(), trace.m_converged.tobytes(),
        trace.diverged, np.float64(trace.initial_msd).tobytes(),
        trace.final_weights.shape, trace.final_weights.tobytes(),
    )


def _lockstep_traces(topo, model, learn, specs, attack, seed=0):
    """A multi-rule call's traces, each checked byte for byte against its
    rule's one-rule call."""
    traces = run_experiment(topo, model, learn, specs, attack, seed)
    assert len(traces) == len(specs)
    for spec, trace in zip(specs, traces):
        alone, = run_experiment(topo, model, learn, [spec], attack, seed)
        assert _trace_fields(trace) == _trace_fields(alone)
    return traces


class TestLockstep:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("attack", [None] + ALL_ATTACKS,
                             ids=lambda a: "none" if a is None else a.label)
    def test_each_rule_equals_its_own_run(self, attack, batch):
        # The five tuned rules and a repeated spec over more rounds than
        # one data chunk holds.
        topo, model = small_setup(num_malicious=0 if attack is None else 2, agents=16, dim=3)
        model = LinearModelConfig(true_weights=model.true_weights, samples_per_iteration=batch)
        specs = tuned_aggregators() + [AggregatorSpec.tukey()]
        traces = _lockstep_traces(topo, model, LearningConfig(iterations=DATA_CHUNK_ROUNDS + 6),
                                  specs, attack)
        assert not any(t.diverged for t in traces)
        assert _trace_fields(traces[3]) == _trace_fields(traces[5])

    def test_rules_diverge_on_their_own_rounds(self, monkeypatch):
        # Against 1e31 copies the mean diverges in round 1 and the trimmed
        # mean in round 2; the bounded-influence rules go on to the end.
        # A diverged rule is adapted no more from the next round on.
        topo = generate_topology(32, 0.7, 3, seed=100)
        model = LinearModelConfig(true_weights=draw_true_weights(3, seed=12))
        lv = AttackSpec.large_value(1e31)
        specs = tuned_aggregators()
        first = run_experiment(topo, model, LearningConfig(iterations=1), specs, lv, seed=0)
        assert [t.diverged for t in first] == [True, False, False, False, False]
        rules = []

        def counting_adapt(weights, *args):
            rules.append(len(weights))
            return adapt(weights, *args)

        monkeypatch.setattr(simulation, "adapt", counting_adapt)
        traces = run_experiment(topo, model, LearningConfig(iterations=8), specs, lv, seed=0)
        assert rules == [5, 4] + [3] * 6
        monkeypatch.undo()
        traces = _lockstep_traces(topo, model, LearningConfig(iterations=8), specs, lv)
        assert [t.diverged for t in traces] == [True, True, False, False, False]
        assert traces[0].msd[1:].tolist() == [DIVERGENCE_SENTINEL] * 7
        assert np.isfinite(traces[2].final_weights).all()

    def test_every_rule_diverges(self):
        topo = generate_topology(32, 0.7, 3, seed=100)
        model = LinearModelConfig(true_weights=draw_true_weights(3, seed=12))
        specs = [AggregatorSpec.sample_mean(), AggregatorSpec.trimmed_mean(),
                 AggregatorSpec.sample_mean()]
        traces = _lockstep_traces(topo, model, LearningConfig(iterations=8), specs,
                                  AttackSpec.large_value(1e31))
        assert all(t.diverged for t in traces)

    def test_no_aggregator_rejected(self):
        topo, model = small_setup()
        with pytest.raises(ValueError, match="aggregator must hold at least one AggregatorSpec"):
            run_experiment(topo, model, LearningConfig(iterations=2), [], None, seed=0)

    def test_one_spec_is_a_one_rule_sequence(self):
        # A lone spec is rejected, as sc_sweep and the efficiency check
        # reject one; a one-rule sequence gives a one-trace list.
        topo, model = small_setup()
        learn = LearningConfig(iterations=2)
        with pytest.raises(ValueError, match="aggregator must be a sequence of AggregatorSpecs"):
            run_experiment(topo, model, learn, AggregatorSpec.median(), None, seed=0)
        traces = run_experiment(topo, model, learn, (AggregatorSpec.median(),), None, seed=0)
        assert type(traces) is list and len(traces) == 1


class TestArgumentTypes:
    @pytest.mark.parametrize("seed", [None, True, 1.5, "a", -3], ids=repr)
    @pytest.mark.parametrize("entry", ["draw_true_weights", "run_experiment"])
    def test_seed_must_be_a_whole_number(self, entry, seed):
        topo, model = small_setup(num_malicious=1)
        calls = {
            "draw_true_weights": lambda: draw_true_weights(3, seed),
            "run_experiment": lambda: run_experiment(
                topo, model, LearningConfig(iterations=2), [AggregatorSpec.median()],
                AttackSpec.large_value(), seed,
            ),
        }
        with pytest.raises(ValueError, match="seed must be a whole number"):
            calls[entry]()

    @pytest.mark.parametrize(
        "weights",
        ["abc", {}, None, True, [True, False], [1 + 2j], ["1", "2"], [[1.0], [2.0, 3.0]]],
        ids=repr,
    )
    def test_true_weights_must_be_real_numbers(self, weights):
        # A bool is no real number here, as for every real-valued parameter.
        with pytest.raises(ValueError, match="true_weights must be an array of real numbers"):
            LinearModelConfig(true_weights=weights)

    @pytest.mark.parametrize("dim", [2.5, True, -1, 0, [3]], ids=repr)
    def test_dim_must_be_a_whole_number(self, dim):
        with pytest.raises(ValueError, match="dim must"):
            draw_true_weights(dim, 1)

    @pytest.mark.parametrize(
        "aggregator", ["median", None, AggregatorKind.MEDIAN, ["median"], (AggregatorKind.MEDIAN,)],
        ids=repr,
    )
    def test_aggregator_must_be_specs(self, aggregator):
        topo, model = small_setup(num_malicious=1)
        with pytest.raises(ValueError, match="aggregator must"):
            run_experiment(
                topo, model, LearningConfig(iterations=2), aggregator, AttackSpec.large_value(), 0
            )

    @pytest.mark.parametrize("attack", ["tukey_scm", AggregatorSpec.tukey()], ids=repr)
    def test_attack_must_be_an_attack_spec(self, attack):
        # Rejected with malicious agents to craft for and without them.
        for num_malicious in (0, 1):
            topo, model = small_setup(num_malicious=num_malicious)
            with pytest.raises(ValueError, match="attack must be None or an AttackSpec"):
                run_experiment(
                    topo, model, LearningConfig(iterations=2), [AggregatorSpec.median()], attack, 0
                )

    @pytest.mark.parametrize("name", ["topology", "model", "learning"])
    @pytest.mark.parametrize("bad", ["x", None, {}], ids=repr)
    def test_run_objects_must_be_their_types(self, name, bad):
        # Each reached an AttributeError on its first field read.
        topo, model = small_setup(num_malicious=1)
        args = {"topology": topo, "model": model, "learning": LearningConfig(iterations=2)}
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be a"):
            run_experiment(**args, aggregator=[AggregatorSpec.median()],
                           attack=AttackSpec.large_value(), seed=0)

    def test_a_benign_agent_is_required(self):
        # An all-malicious graph reached NumPy's "zero-size array" error.
        topo = NetworkTopology(~np.eye(4, dtype=bool), np.ones(4, dtype=bool))
        _, model = small_setup()
        with pytest.raises(ValueError, match="at least one benign agent"):
            run_experiment(topo, model, LearningConfig(iterations=2), [AggregatorSpec.median()],
                           AttackSpec.large_value(), 0)
