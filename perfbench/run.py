"""scmsim benchmark: one workload, one closed-loop caller, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload mest_attack --seed 1 --seconds 28 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes; ``--trace 1``
alternates untraced and traced passes at the same seeds and reports the
per-layer metrics.  ``--record-golden`` rewrites ``perfbench/golden/`` from
the current code at the golden seed.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Relative to ROOT, the working directory: the manifests record the output
# path, so it must not depend on where the checkout lives.
OUT = Path(".perfbench_out")
GOLDEN_SEED = 0
SETUP_RUNS = 9
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import scmsim.cli
from scmsim.config import parse_config
parse_config(sys.stdin.read(), master_seed=int(sys.argv[1]))
print(time.perf_counter() - start)
"""
COUNT_METRICS = (
    "simulation.generate_batch_calls",
    "attacks.craft_calls",
    "estimators.aggregate_calls",
    "estimators.aggregate_columns",
    "estimators.aggregate_bytes",
    "estimators.fp_iters_mean",
    "estimators.fp_iters_max",
    "estimators.fp_nonconverged",
    "sensitivity.values_calls",
    "sensitivity.values_columns",
    "sensitivity.oracle_evals",
    "topology.graph_attempts",
    "cli.bytes_written",
)


def _import_scmsim():
    if not (SRC / "scmsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scmsim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import scmsim

    if Path(scmsim.__file__).resolve().parent != SRC / "scmsim":
        sys.exit(f"perfbench: imported scmsim from {scmsim.__file__}, not from {SRC}")
    return numpy, scmsim


def _pass_seeds(seed: int):
    """Master seeds of the timed passes, drawn from --seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], round(100.0 * (n - 10) / n, 1), n


def _setup_seconds(cfg_text: str, seed: int) -> float:
    """Import of scmsim plus parse_config, timed inside a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(seed)],
        input=cfg_text, env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.strip())


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _environment(numpy, wl, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
        "golden_seed": GOLDEN_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": wl.name,
        "input_sizes": wl.input_sizes(),
    }


def _end_to_end_extras(wl, passes, workloads) -> dict:
    """Workload-specific user-facing rates, from untraced passes only."""
    wall = statistics.median(p.wall for p in passes)
    out = {"agent_rounds_per_s": 0.0, "efficiency_trials_per_s": 0.0,
           "oracle_call_s_p50": 0.0, "oracle_call_s_tail": 0.0,
           "oracle_call_tail_pct": 0.0, "oracle_call_samples": 0}
    if wl.kind == "simulate":
        out["agent_rounds_per_s"] = wl.agent_rounds() / wall
        return out
    eff = [op.wall for p in passes for op in p.ops if op.label == "efficiency-check"]
    out["efficiency_trials_per_s"] = workloads.EFFICIENCY_TRIALS * 5 / statistics.median(eff)
    calls = [op.wall for p in passes for op in p.ops if op.label.startswith("max_sc_numeric")]
    tail, pct, n = _tail(calls)
    out.update(oracle_call_s_p50=statistics.median(calls), oracle_call_s_tail=tail,
               oracle_call_tail_pct=pct, oracle_call_samples=n)
    return out


def _check_threads_identity(wl, workloads, seed, reference_of, work):
    """Re-run a threaded pass at --threads 1; outputs must be byte-identical."""
    ref = workloads.run_pass(wl, seed, work / "threads1", threads=1)
    if not ref.ops[0].errors and ref.digests() != reference_of.digests():
        ref.ops[0].errors.append("threads-1 outputs differ from threads-2 outputs")
    return ref


def run(args) -> int:
    numpy, _ = _import_scmsim()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / wl.name
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    golden_files = workloads.load_golden(BENCH_DIR, wl.golden_source)

    tracer = None
    if args.trace:
        (work / "dumps").mkdir(parents=True, exist_ok=True)
        tracer = spans.Tracer(work / "dumps")

    def run_pair(seed):
        """An untraced pass and, when tracing, a traced pass at the same seed."""
        plain = workloads.run_pass(wl, seed, work / "pass")
        if not tracer:
            return plain, None
        tracer.install()
        try:
            traced = workloads.run_pass(wl, seed, work / "pass", tracer=tracer)
        finally:
            tracer.uninstall()
        if traced.digests() != plain.digests():
            traced.ops[-1].errors.append("traced outputs differ from untraced outputs")
        return plain, traced

    # The golden pass checks outputs against perfbench/golden and warms up;
    # it is not timed.  Timed passes use seeds drawn from --seed.  Set-up
    # samples are spread over the timed window so that they see the same
    # machine as the passes.
    golden_pair = run_pair(GOLDEN_SEED)
    seeds = _pass_seeds(args.seed)
    untraced, traced, extra_ops, setup = [], [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        elapsed = time.perf_counter() - start
        if not args.trace and len(setup) < SETUP_RUNS and elapsed >= len(setup) * args.seconds / SETUP_RUNS:
            setup.append(_setup_seconds(wl.config, args.seed))
        plain, t = run_pair(next(seeds))
        untraced.append(plain)
        if t:
            traced.append(t)
    while not args.trace and len(setup) < SETUP_RUNS:
        setup.append(_setup_seconds(wl.config, args.seed))
    if wl.threads > 1:
        ref = _check_threads_identity(wl, workloads, untraced[0].seed, untraced[0], work)
        extra_ops.extend(ref.ops)

    dev = max(workloads.compare_golden(p, golden_files) for p in golden_pair if p)
    ops = [op for p in (*golden_pair, *untraced, *traced) if p for op in p.ops] + extra_ops
    failures = [f"{op.label}: {e}" for op in ops for e in op.errors]
    failed = sum(bool(op.errors) for op in ops)
    wall = statistics.median(p.wall for p in untraced)
    info = {
        "environment": _environment(numpy, wl, args),
        "passes": len(untraced),
        "pass_seeds": [p.seed for p in untraced],
        "pass_wall_s": [p.wall for p in untraced],
        "setup_runs_s": setup,
        "failures": failures,
    }
    wall_tail, wall_pct, wall_n = _tail([p.wall for p in untraced])
    extras = _end_to_end_extras(wl, untraced, workloads)
    extras.update(error_rate=failed / len(ops), output_max_abs_dev=dev,
                  wall_s_tail=wall_tail, wall_s_tail_pct=wall_pct, wall_s_samples=wall_n)
    notes = []
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        }
    else:
        metrics, notes = _per_layer(wl, tracer, golden_pair[1], traced, untraced, extra_ops, extras)
        spans_path = results_dir / f"{wl.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        info["spans_file"] = str(spans_path)
    info["extras"] = extras
    info["notes"] = notes
    info["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_path = results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(info, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    env = info["environment"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} passes={len(untraced)} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} blas_threads=1")
    shown = dict(metrics)
    shown.setdefault("error_rate", (extras["error_rate"], "fraction"))
    shown.setdefault("output_max_abs_dev", (extras["output_max_abs_dev"], "abs"))
    shown[f"wall_s_tail (p{wall_pct}, n={wall_n})"] = (wall_tail, "s")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for line in notes + failures[:20]:
        print(f"! {line}")
    print(f"# details: {results_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _count_differences(have: dict, want: dict, where: str, source: str) -> list[str]:
    return [
        f"count {n} {where} is {have.get(n, 0)}, {source} has {want.get(n, 0)}"
        for n in COUNT_METRICS
        if have.get(n, 0) != want.get(n, 0)
    ]


def _per_layer(wl, tracer, golden_traced, traced, untraced, extra_ops, extras):
    import spans

    per_pass = [spans.pass_layer_metrics(tracer.spans, *p.span_range) for p in traced]
    names = ["simulation.run_s", "simulation.self_s", "simulation.generate_batch_s", "attacks.craft_s"]
    names += [f"attacks.craft_s.{a}" for a in spans.ATTACKS]
    names += ["estimators.aggregate_s"] + [f"estimators.aggregate_s.{a}" for a in spans.AGGREGATORS]
    names += ["estimators.efficiency_s", "sensitivity.values_s", "topology.generate_s",
              "config.parse_s", "cli.write_s", "cli.pool_s"]
    names += [f"{layer}.self_s" for layer in spans.LAYERS if layer != "simulation"]
    metrics = {n: (statistics.fmean(t.get(n, 0.0) for t, _, _ in per_pass), "s") for n in names}

    # Counts come from the first traced pass at a seed drawn from --seed, so
    # they depend on the seed only and must repeat exactly between runs.
    counts = dict(per_pass[0][1], **{"cli.bytes_written": traced[0].bytes_written})
    _, golden_counts, _ = spans.pass_layer_metrics(tracer.spans, *golden_traced.span_range)
    golden_counts["cli.bytes_written"] = golden_traced.bytes_written
    current = {n: counts.get(n, 0) for n in COUNT_METRICS}
    metrics.update((n, (v, "count")) for n, v in current.items())
    recorded = json.loads((BENCH_DIR / "golden" / f"{wl.name}.json").read_text())["counts"]
    notes = _count_differences(golden_counts, recorded, "at the golden seed", "perfbench/golden")
    previous = OUT / "counts" / f"{wl.name}-seed{traced[0].seed}.json"
    if previous.exists():
        earlier = json.loads(previous.read_text())
        notes += _count_differences(current, earlier, f"at seed {traced[0].seed}", "an earlier traced run")
    else:
        previous.parent.mkdir(parents=True, exist_ok=True)
        previous.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    mismatches = len(notes)
    for missing in tracer.missing:
        notes.append(f"{missing} is missing: its spans and counters read 0")

    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    scaling = 0.0
    if wl.threads > 1:
        scaling = extra_ops[0].wall / (wl.threads * untraced[0].wall)
    metrics["cli.scaling_efficiency"] = (scaling, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.span_check_failures"] = (sum(f for _, _, f in per_pass), "count")
    metrics["trace.count_mismatches"] = (mismatches, "count")
    units = {"agent_rounds_per_s": "1/s", "efficiency_trials_per_s": "1/s", "oracle_call_s_p50": "s",
             "oracle_call_s_tail": "s", "oracle_call_tail_pct": "%", "oracle_call_samples": "count",
             "error_rate": "fraction", "output_max_abs_dev": "abs"}
    for n, u in units.items():
        metrics[n] = (extras[n], u)
    return metrics, notes


def record_golden() -> int:
    """Write perfbench/golden/<workload>.json from the current code."""
    _import_scmsim()
    import spans
    import workloads

    dumps = OUT / "work" / "dumps"
    dumps.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(dumps)
    for wl in workloads.WORKLOADS.values():
        work = OUT / "work" / wl.name
        plain = workloads.run_pass(wl, GOLDEN_SEED, work / "pass")
        tracer.install()
        try:
            traced = workloads.run_pass(wl, GOLDEN_SEED, work / "pass", tracer=tracer)
        finally:
            tracer.uninstall()
        errors = [e for p in (plain, traced) for op in p.ops for e in op.errors]
        if plain.digests() != traced.digests():
            errors.append("traced outputs differ from untraced outputs")
        _, counts, _ = spans.pass_layer_metrics(tracer.spans, *traced.span_range)
        counts["cli.bytes_written"] = traced.bytes_written
        golden = {"workload": wl.name, "seed": GOLDEN_SEED,
                  "counts": {n: counts.get(n, 0) for n in COUNT_METRICS}}
        if wl.golden_files:
            source = workloads.load_golden(BENCH_DIR, wl.golden_files)
            if source["files"] != plain.files:
                errors.append(f"outputs differ from {wl.golden_files}'s golden outputs")
        else:
            golden.update(files=plain.files, oracle=plain.oracle)
        if errors:
            sys.exit(f"perfbench: {wl.name}: " + "; ".join(errors))
        path = BENCH_DIR / "golden" / f"{wl.name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
        shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(dumps, ignore_errors=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("mest_attack", "orderstat_attack", "offline", "mest_attack_x2"))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
