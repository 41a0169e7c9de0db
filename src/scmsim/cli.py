"""Command-line surface: simulate | sc-sweep | efficiency-check.

Each command reads an optional config file, applies CLI overrides, computes
its plot-ready tables, then writes them as CSVs into the output directory and
finishes with ``manifest.json`` as the completion marker; a command that
fails writes nothing.  Identical configs produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, parse_config, write_manifest
from .attacks import SCM_TARGET, AttackSpec, craft_attack
from .estimators import _one_count, monte_carlo_efficiency
from .sensitivity import sc_sweep, sensitivity_values
from .simulation import run_experiment
from .topology import TopologyError, generate_topology


def _edge_tag(p: float) -> str:
    return ("%g" % p).replace(".", "")


def _cell(v) -> str:
    # A label as written, an integer as an integer, any other number as the
    # shortest text that reads back as the same float.
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write every CSV artifact: a header line, then one line per row."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_outputs(cfg: ExperimentConfig, command: str, tables) -> list[Path]:
    """Write each ``(name, header, rows)`` table as a CSV, then the manifest.

    Commands compute every table before calling this, so a command that
    fails writes nothing, not even its output directory.
    """
    out = Path(cfg.output_directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, header, rows in tables:
        paths.append(out / name)
        _write_csv(paths[-1], header, rows)
    write_manifest(out / "manifest.json", command, cfg, paths)
    return paths + [out / "manifest.json"]


def _simulate_cell(cfg: ExperimentConfig, attack_name: str, num_malicious: int) -> list[tuple]:
    """Run all configured aggregators for one (attack, contamination) cell;
    return its training-loss and MSD tables."""
    topology = generate_topology(
        cfg.agents, cfg.edge_probability, num_malicious, cfg.topology_seed
    )
    model, learning = cfg.model(), cfg.learning()
    attack = cfg.attack_spec(attack_name)
    specs = cfg.aggregator_specs()
    traces = run_experiment(topology, model, learning, specs, attack, cfg.data_seed)
    stem = f"edge_{_edge_tag(cfg.edge_probability)}_mal_{num_malicious}_out_{attack_name}"
    header = ["iteration"] + [spec.label for spec in specs]
    iteration = traces[0].iteration
    loss = list(zip(iteration, *(t.training_loss for t in traces)))
    msd = list(zip(iteration, *(t.msd for t in traces)))
    return [(f"train_loss_{stem}.csv", header, loss), (f"msd_{stem}.csv", header, msd)]


def cmd_simulate(cfg: ExperimentConfig, threads: int = 1) -> list[Path]:
    """Run the (attack x contamination) grid; one CSV per cell and metric."""
    threads = _one_count(threads, "threads")
    cells = [(a, m) for a in cfg.attack_names for m in cfg.malicious_counts]
    # A worker per cell at most: under fork every worker starts up front.
    workers = min(threads, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_cell, [cfg] * len(cells), *zip(*cells)))
    else:
        results = [_simulate_cell(cfg, a, m) for a, m in cells]
    return _write_outputs(cfg, "simulate", [table for cell in results for table in cell])


def cmd_sc_sweep(cfg: ExperimentConfig) -> list[Path]:
    """Write the sensitivity-curve table and the analytic peak markers.

    A rule's marker is the value its matched SCM attack, crafted against the
    swept spec itself, reports on the sweep's base set; rules no attack
    targets get none.
    """
    base = cfg.sweep_base()
    grid = np.linspace(cfg.sweep_grid_min, cfg.sweep_grid_max, cfg.sweep_grid_points)
    specs = cfg.aggregator_specs()
    count = cfg.sweep_outlier_count
    table = sc_sweep(specs, base, grid, count)
    markers = []
    for spec in specs:
        if spec.kind in SCM_TARGET.values():
            z = float(craft_attack(base[:, None], AttackSpec(spec), count)[0])
            markers.append((spec.label, z, sensitivity_values(spec, base, z, count)))
    return _write_outputs(cfg, "sc-sweep", [
        ("SC.csv", ["outlier_value", *table.names], zip(table.grid, *table.values)),
        ("SC_max.csv", ["aggregator", "outlier_value", "sensitivity"], markers),
    ])


def cmd_efficiency_check(cfg: ExperimentConfig) -> list[Path]:
    """Monte Carlo Gaussian-efficiency report for the configured estimators."""
    rows = monte_carlo_efficiency(
        cfg.aggregator_specs(),
        trials=cfg.efficiency_trials,
        sample_size=cfg.efficiency_sample_size,
        seed=cfg.data_seed,
    )
    for r in rows:
        print(
            f"{r.label:14s} efficiency {r.variance_ratio:#.4g}"
            f"  (95% CI {r.ci_low:#.4g} .. {r.ci_high:#.4g})"
        )
    header = ["estimator", "variance_ratio", "ci_low", "ci_high"]
    return _write_outputs(cfg, "efficiency-check", [("efficiency.csv", header, rows)])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmsim",
        description="Robust-aggregation attack simulator for decentralized learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "run the learning experiment grid and write trace CSVs"),
        ("sc-sweep", "tabulate sensitivity curves over an outlier grid"),
        ("efficiency-check", "Monte Carlo Gaussian-efficiency calibration"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", type=Path, help="config file (defaults apply if omitted)")
        cmd.add_argument("--out", type=Path, help="output directory override")
        cmd.add_argument("--seed", type=int, help="master seed override")
        if name == "simulate":
            cmd.add_argument("--threads", type=int, default=1, help="parallel grid cells")
    return parser


def _load(args) -> ExperimentConfig:
    text = args.config.read_text() if args.config is not None else ""
    cfg = parse_config(text, master_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_directory=str(args.out))
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "simulate":
            cmd_simulate(cfg, threads=args.threads)
        elif args.command == "sc-sweep":
            cmd_sc_sweep(cfg)
        else:
            cmd_efficiency_check(cfg)
    except (TopologyError, ValueError, OSError, MemoryError) as err:
        print(f"scmsim: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
