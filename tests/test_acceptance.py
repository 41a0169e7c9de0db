"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single ``ACCEPTANCE <n> [PASS|FAIL]`` line with the measured
numbers before asserting.  The experiment-grid criteria share one cached
set of simulation runs.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pytest

from scmsim.attacks import AttackSpec, craft_attack, psi_argmax
from scmsim.cli import cmd_simulate
from scmsim.config import file_sha256, parse_config
from scmsim.estimators import (
    TALWAR_C_95,
    TRIM_ALPHA_95,
    TUKEY_C_95,
    AggregatorKind,
    AggregatorSpec,
    estimate,
    mad,
    monte_carlo_efficiency,
    trim_count,
    tuned_aggregators,
)
from scmsim.sensitivity import max_sc_numeric, sensitivity_values
from scmsim.simulation import (
    LearningConfig,
    LinearModelConfig,
    draw_true_weights,
    huber_grad_factor,
    huber_loss,
    run_experiment,
)
from scmsim.topology import NetworkTopology, generate_topology

from test_estimators import brute_force_m_estimate

TOPOLOGY_SEED = 100
WEIGHT_SEED = 200
DATA_SEEDS = (0, 1, 2, 3, 4)
TAIL = 30  # "final loss" = mean over the last 10% of the 300 iterations
# Rules whose influence is bounded: once a value is far enough out, moving it
# further changes nothing they compute.
BOUNDED_INFLUENCE = ("median", "talwar", "tukey")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")


def tally(labels) -> str:
    return " ".join(f"{k}={labels.count(k)}" for k in sorted(set(labels))) or "none"


def matched_attacks():
    return {
        "large_value": (AttackSpec.large_value(), "sample_mean"),
        "trimmed_scm": (AttackSpec.trimmed_scm(TRIM_ALPHA_95), "trimmed_mean"),
        "talwar_scm": (AttackSpec.talwar_scm(TALWAR_C_95), "talwar"),
        "tukey_scm": (AttackSpec.tukey_scm(TUKEY_C_95), "tukey"),
    }


@dataclass
class Grid:
    baseline: dict = field(default_factory=dict)  # (label, seed) -> trace
    attacked19: dict = field(default_factory=dict)  # (attack, label) -> trace
    lv9: dict = field(default_factory=dict)  # label -> trace
    lv9_far: dict = field(default_factory=dict)  # label -> trace, magnitude 1e6
    lv9_topology: NetworkTopology | None = None
    elapsed: float = 0.0


def trace_bytes(trace) -> bytes:
    return (
        trace.training_loss.tobytes() + trace.msd.tobytes() + trace.final_weights.tobytes()
    )


@pytest.fixture(scope="module")
def grid():
    # The 53 traces come from 11 independent lockstep calls, one per
    # (topology, attack, data seed) cell, spread over one worker process per
    # available CPU; each trace is filed under the same key.
    t0 = time.time()
    model = LinearModelConfig(true_weights=draw_true_weights(10, WEIGHT_SEED))
    learn = LearningConfig()
    topo = {m: generate_topology(32, 0.7, m, TOPOLOGY_SEED) for m in (0, 3, 6)}
    specs = tuned_aggregators()
    bounded = [agg for agg in specs if agg.label in BOUNDED_INFLUENCE]
    cells = []  # (Grid field, trace keys, run_experiment arguments)
    for seed in DATA_SEEDS:
        keys = [(agg.label, seed) for agg in specs]
        cells.append(("baseline", keys, (topo[0], model, learn, specs, None, seed)))
    for name, (attack, _) in matched_attacks().items():
        keys = [(name, agg.label) for agg in specs]
        cells.append(("attacked19", keys, (topo[6], model, learn, specs, attack, DATA_SEEDS[0])))
    lv = matched_attacks()["large_value"][0]
    lv_far = AttackSpec.large_value(1e6)
    cells.append(("lv9", [agg.label for agg in specs],
                  (topo[3], model, learn, specs, lv, DATA_SEEDS[0])))
    cells.append(("lv9_far", [agg.label for agg in bounded],
                  (topo[3], model, learn, bounded, lv_far, DATA_SEEDS[0])))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ProcessPoolExecutor(max_workers=min(cpus or 1, len(cells))) as pool:
        results = list(pool.map(run_experiment, *zip(*(args for *_, args in cells))))
    g = Grid(lv9_topology=topo[3])
    for (name, keys, _), traces in zip(cells, results):
        getattr(g, name).update(zip(keys, traces))
    g.elapsed = time.time() - t0
    return g


def test_criterion_1_efficiency_calibration():
    t0 = time.time()
    rows = {
        r.label: r.variance_ratio
        for r in monte_carlo_efficiency(
            tuned_aggregators(), trials=100_000, sample_size=100, seed=1234
        )
    }
    ok_tuned = all(0.90 <= rows[k] <= 1.00 for k in ("trimmed_mean", "talwar", "tukey"))
    ok_median = 0.60 <= rows["median"] <= 0.70
    detail = (
        f"trimmed={rows['trimmed_mean']:.4f} talwar={rows['talwar']:.4f} "
        f"tukey={rows['tukey']:.4f} in [0.90,1.00]; median={rows['median']:.4f} "
        f"in [0.60,0.70] ({time.time()-t0:.0f}s)"
    )
    report(1, ok_tuned and ok_median, detail)
    assert ok_tuned and ok_median


def test_criterion_2_sc_shape_reproduction():
    t0 = time.time()
    half = np.random.default_rng(4242).standard_normal(50)
    base = np.concatenate([half, -half])  # symmetric Gaussian base
    grid_z = np.linspace(-10.0, 10.0, 401)

    mean_spec = AggregatorSpec.sample_mean()
    sc_mean = np.array([sensitivity_values(mean_spec, base, z) for z in grid_z])
    coeffs = np.polyfit(grid_z, sc_mean, 1)
    affine_dev = float(np.abs(sc_mean - np.polyval(coeffs, grid_z)).max())
    ok_affine = affine_dev < 1e-9

    med_spec = AggregatorSpec.median()
    ok_median_sat = sensitivity_values(med_spec, base, 1e3) == sensitivity_values(
        med_spec, base, 1e6
    )

    tal, tuk = AggregatorSpec.talwar(), AggregatorSpec.tukey()
    far_tal = abs(sensitivity_values(tal, base, 1e6))
    far_tuk = abs(sensitivity_values(tuk, base, 1e6))
    ok_redescend = far_tal <= 1e-6 and far_tuk <= 1e-6

    ratios = {}
    for spec in (AggregatorSpec.trimmed_mean(), tal, tuk):
        z = craft_attack(base[:, None], AttackSpec(spec), 1)[0]
        sc = sensitivity_values(spec, base, z, 1)
        _, sc_star = max_sc_numeric(spec, base, count=1)
        ratios[spec.label] = sc / sc_star
    ok_markers = all(r >= 0.95 for r in ratios.values())

    ok = ok_affine and ok_median_sat and ok_redescend and ok_markers
    detail = (
        f"mean affine dev={affine_dev:.2e}; median SC(1e3)==SC(1e6): {ok_median_sat}; "
        f"|SC(1e6)| talwar={far_tal:.2e} tukey={far_tuk:.2e}; marker ratios "
        + " ".join(f"{k}={v:.3f}" for k, v in ratios.items())
        + f" ({time.time()-t0:.0f}s)"
    )
    report(2, ok, detail)
    assert ok_affine
    assert ok_median_sat
    assert ok_redescend
    assert ok_markers


def test_criterion_3_attack_near_optimality():
    t0 = time.time()
    rng = np.random.default_rng(3)
    near_opt_fail = []
    fixed_point_fail = []
    rejected = []  # copies past c at the defender's converged location
    kept_short = []  # copies kept, yet ratio < 0.95
    for trial in range(200):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, max(2, n // 3 + 1)))
        base = rng.standard_normal(n)
        for kind, c, spec in (
            (AggregatorKind.TALWAR, TALWAR_C_95, AggregatorSpec.talwar()),
            (AggregatorKind.TUKEY, TUKEY_C_95, AggregatorSpec.tukey()),
        ):
            z = craft_attack(base[:, None], AttackSpec(spec), p)[0]
            sc = sensitivity_values(spec, base, z, p)
            _, sc_star = max_sc_numeric(spec, base, count=p)
            combined = np.concatenate([base, np.full(p, z)])
            scale = mad(combined)
            copies_rejected = abs((z - estimate(spec, combined)) / scale) > c
            if copies_rejected:
                rejected.append(spec.label)
            if not sc >= 0.95 * sc_star:
                near_opt_fail.append((spec.label, n, p, sc / sc_star if sc_star else np.nan))
                if not copies_rejected:
                    kept_short.append(spec.label)
            c0 = psi_argmax(kind, c) * (1.0 - 1e-9)
            z_again = c0 * scale + estimate(AggregatorSpec.median(), combined)
            if abs(z_again - z) > 1e-9 * (1.0 + abs(z)):
                fixed_point_fail.append((spec.label, n, p))
    ok = not near_opt_fail and not fixed_point_fail
    worst = min((r for *_, r in near_opt_fail), default=1.0)
    detail = (
        f"near-optimality >=0.95: {400 - len(near_opt_fail)}/400 draws "
        f"(worst ratio {worst:.3f}); copies rejected at the defender's location "
        f"on {len(rejected)} draws ({tally(rejected)}), kept but short on "
        f"{len(kept_short)} ({tally(kept_short)}); shift-correction fixed point to 1e-9: "
        f"{400 - len(fixed_point_fail)}/400 ({time.time()-t0:.0f}s)"
    )
    report(3, ok, detail)
    assert not fixed_point_fail, f"fixed-point violations: {fixed_point_fail[:5]}"
    assert not near_opt_fail, (
        "near-optimality violations (label, n, p, ratio): " f"{near_opt_fail[:10]}"
    )


def test_criterion_4_no_attack_baseline(grid):
    converged = {}
    final_loss = {}
    for agg in tuned_aggregators():
        traces = [grid.baseline[(agg.label, s)] for s in DATA_SEEDS]
        converged[agg.label] = all(
            tr.final_msd < 1e-2 * tr.initial_msd for tr in traces
        )
        final_loss[agg.label] = float(np.mean([tr.tail_mean_loss(TAIL) for tr in traces]))
    order = sorted(final_loss, key=final_loss.get)
    ok_converged = all(converged.values())
    # Only the median's place is asserted.  The mean is the most efficient
    # rule for Gaussian samples alone; the exchanged weights carry the adapt
    # increment mu*clip(e)*u (unclipped, a product of two Gaussians, with
    # kurtosis 9), and the four efficient rules finish within ~0.1% of one
    # another.
    ok_order = order[-1] == "median"
    ok = ok_converged and ok_order
    detail = (
        f"all converge (final MSD < 1e-2 * initial): {ok_converged}; "
        "loss order " + " < ".join(order) + f" (grid {grid.elapsed:.0f}s)"
    )
    report(4, ok, detail)
    assert ok_converged
    assert ok_order, f"seed-averaged final-loss ordering: {final_loss}"


def test_criterion_5_targeted_attack_degradation(grid):
    rows = {}
    for name, (_, target) in matched_attacks().items():
        losses = {
            label: grid.attacked19[(name, label)].tail_mean_loss(TAIL)
            for label in (a.label for a in tuned_aggregators())
        }
        base = grid.baseline[(target, DATA_SEEDS[0])].tail_mean_loss(TAIL)
        degradation = losses[target] / base
        ranked = sorted(losses, key=losses.get, reverse=True)
        rows[name] = (degradation, ranked.index(target) + 1, ranked)
    ok_deg = all(deg >= 10.0 for deg, _, _ in rows.values())
    ok_rank = all(rank <= 2 for _, rank, _ in rows.values())
    ok = ok_deg and ok_rank
    per_rule = []
    for label in (a.label for a in tuned_aggregators()):
        base = grid.baseline[(label, DATA_SEEDS[0])].tail_mean_loss(TAIL)
        per_rule.append(
            f"{label} "
            + " ".join(
                f"x{grid.attacked19[(name, label)].tail_mean_loss(TAIL) / base:.4g}"
                for name in matched_attacks()
            )
        )
    detail = (
        "; ".join(f"{name}: x{deg:.3g} rank {rank}/5" for name, (deg, rank, _) in rows.items())
        + " | degradation under "
        + "/".join(matched_attacks())
        + ": "
        + ", ".join(per_rule)
    )
    report(5, ok, detail)
    assert ok_deg, {k: v[0] for k, v in rows.items()}
    assert ok_rank, {k: (v[1], v[2]) for k, v in rows.items()}


def test_criterion_6_robustness_sanity_inverse(grid):
    ratios = {
        label: grid.lv9[label].final_msd
        / grid.baseline[(label, DATA_SEEDS[0])].final_msd
        for label in (a.label for a in tuned_aggregators())
    }
    breakdown = 1e3
    ok_mean = ratios["sample_mean"] >= breakdown
    ok_robust = all(ratios[k] <= 10.0 for k in ("talwar", "tukey"))

    # A receiver with more malicious neighbours m_k than the per-side trim
    # t = floor(alpha*N_k) keeps at least one large value: past the trimmed
    # mean's breakdown point, so it must break the way the mean does.
    topo = grid.lv9_topology
    overrun = 0
    for k in topo.benign_agents:
        nb = topo.neighborhood(int(k))
        overrun += int(topo.malicious[nb].sum()) > trim_count(nb.size, TRIM_ALPHA_95)
    ok_trim_breaks = overrun > 0 and ratios["trimmed_mean"] >= breakdown

    # Bounded influence: past the rejection point, the attacker's magnitude
    # does not matter (the median's damage is a rank shift set by the
    # malicious count, not by the value).
    same_far = {
        k: trace_bytes(grid.lv9[k]) == trace_bytes(grid.lv9_far[k]) for k in BOUNDED_INFLUENCE
    }
    ok_bounded = all(same_far.values())

    ok = ok_mean and ok_robust and ok_trim_breaks and ok_bounded
    detail = (
        "LV@9% final-MSD ratios: "
        + " ".join(f"{k}=x{v:.3g}" for k, v in ratios.items())
        + f" (sample mean >= {breakdown:g}x, talwar/tukey <= 10x); "
        f"receivers with m_k > floor(alpha*N_k): {overrun}/{topo.benign_agents.size} "
        f"(trimmed mean >= {breakdown:g}x); traces byte-identical at magnitudes 1e3 "
        "and 1e6: " + " ".join(f"{k}={v}" for k, v in same_far.items())
    )
    report(6, ok, detail)
    assert ok_mean, ratios
    assert ok_robust, ratios
    assert overrun > 0, "no receiver sees more malicious neighbours than the trim removes"
    assert ratios["trimmed_mean"] >= breakdown, ratios
    assert ok_bounded, same_far


def test_criterion_7_determinism(tmp_path):
    t0 = time.time()
    text = (
        "[topology]\nagents = 12\nedge_probability = 0.8\nmalicious_counts = 0 2\n"
        "[model]\ndim = 3\n[learning]\niterations = 25\n"
        "[attack]\nschemes = large_value tukey_scm\n[output]\ndirectory = {out}\n"
    )
    digests = []
    for sub in ("one", "two"):
        cfg = parse_config(text.format(out=tmp_path / sub))
        outputs = cmd_simulate(cfg)
        digests.append(
            {p.name: file_sha256(p) for p in outputs if p.suffix == ".csv"}
        )
    ok = digests[0] == digests[1] and len(digests[0]) == 8
    report(7, ok, f"{len(digests[0])} CSVs byte-identical across reruns ({time.time()-t0:.0f}s)")
    assert ok


def test_criterion_8_oracle_equivalence():
    # Tukey instances: the smooth redescender has a unique central objective
    # minimum on Gaussian data, so the fixed point and the global search
    # coincide.  (Talwar's hard cutoff creates nearly-tied local minima on
    # ~2% of draws, where the fixed-point definition legitimately returns
    # the root nearest the robust init; covered by its own property test.)
    t0 = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    spec = AggregatorSpec.tukey()
    for _ in range(100):
        n = int(rng.integers(20, 80))
        s = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0)) + float(
            rng.normal(scale=2.0)
        )
        got = estimate(spec, s)
        want = brute_force_m_estimate(s, spec)
        worst = max(worst, abs(got - want))
    ok_mest = worst <= 1e-6

    delta, h = 1.0, 1e-5
    grad_worst = 0.0
    for r in np.concatenate(
        [np.array([-1.1, -0.9, 0.9, 1.1, 0.0]), np.linspace(-3, 3, 41)]
    ):
        numeric = (huber_loss(r + h, delta) - huber_loss(r - h, delta)) / (2 * h)
        grad_worst = max(grad_worst, abs(huber_grad_factor(r, delta) - numeric))
    ok_grad = grad_worst <= 1e-6

    ok = ok_mest and ok_grad
    report(
        8,
        ok,
        f"m-estimate vs objective search worst |diff|={worst:.2e} (<=1e-6); "
        f"huber grad vs central differences worst |diff|={grad_worst:.2e} "
        f"({time.time()-t0:.0f}s)",
    )
    assert ok_mest
    assert ok_grad
