"""The benchmark's workloads and the output checks of one pass.

A pass is one closed-loop iteration of a workload: the benchmark calls the
scmsim commands in order and waits for each.  Its wall time runs from the
first command call until the last ``manifest.json`` is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scmsim import cli, estimators, sensitivity

# Every simulate workload uses the standard shape (32 agents, p = 0.7,
# dim 10) on the standard topology and true weights (seeds 100 and 200);
# the pass seed reaches scmsim only as --seed, which derives the data seed.
_STANDARD = """\
[topology]
agents = 32
edge_probability = 0.7
malicious_counts = {counts}
seed = 100
[model]
dim = 10
weight_seed = 200
[learning]
iterations = {iterations}
[aggregators]
schemes = {aggregators}
[attack]
schemes = {attacks}
"""

# Relative tolerance of a golden comparison: a later change that moves the
# numbers (e.g. a different fixed-point iteration) must stay within it.
GOLDEN_RTOL = 1e-6
# Oracle draws per pass: each stratum of n gets one base set, which both
# M-estimators are maximized against, as in acceptance criterion 3.
ORACLE_STRATA = ((5, 16), (17, 27), (28, 39), (40, 50))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" or "offline"
    config: str
    threads: int = 1
    golden_files: str = ""  # workload whose golden outputs this one must match
    agents: int = 32
    iterations: int = 0
    aggregators: tuple[str, ...] = ()
    attacks: tuple[str, ...] = ()
    malicious_counts: tuple[int, ...] = ()

    @property
    def golden_source(self) -> str:
        return self.golden_files or self.name

    def agent_rounds(self) -> int:
        """Benign agents x iterations x aggregators, summed over grid cells."""
        return sum(
            (self.agents - m) * self.iterations * len(self.aggregators)
            for _ in self.attacks
            for m in self.malicious_counts
        )

    def input_sizes(self) -> dict:
        if self.kind == "offline":
            return {
                "sc_sweep": "default config: base 100, grid 401, 5 aggregators",
                "efficiency_trials": EFFICIENCY_TRIALS,
                "efficiency_estimators": 5,
                "oracle_calls_per_pass": 2 * len(ORACLE_STRATA),
                "oracle_grid_points": 4001,
            }
        return {
            "agents": self.agents,
            "edge_probability": 0.7,
            "dim": 10,
            "iterations": self.iterations,
            "aggregators": list(self.aggregators),
            "attacks": list(self.attacks),
            "malicious_counts": list(self.malicious_counts),
            "threads": self.threads,
            "agent_rounds_per_pass": self.agent_rounds(),
        }


def _simulate(name, iterations, aggregators, attacks, counts, threads=1, golden=""):
    cfg = _STANDARD.format(
        counts=" ".join(map(str, counts)),
        iterations=iterations,
        aggregators=" ".join(aggregators),
        attacks=" ".join(attacks),
    )
    return Workload(
        name, "simulate", cfg, threads, golden, 32, iterations,
        tuple(aggregators), tuple(attacks), tuple(counts),
    )


# The efficiency check runs one 20k-column chunk, the wide path of the
# estimators; the rest of the offline config is the default.
EFFICIENCY_TRIALS = 20000
# Why each workload exists is recorded in BENCHMARK.json and README.md.
_MEST = dict(iterations=10, aggregators=("talwar", "tukey"), attacks=("talwar_scm", "tukey_scm"), counts=(6,))
WORKLOADS = {
    w.name: w
    for w in (
        _simulate("mest_attack", **_MEST),
        _simulate(
            "orderstat_attack",
            iterations=30,
            aggregators=("sample_mean", "trimmed_mean", "median"),
            attacks=("large_value", "trimmed_scm"),
            counts=(3, 6),
        ),
        Workload("offline", "offline", f"[efficiency]\ntrials = {EFFICIENCY_TRIALS}\n"),
        _simulate("mest_attack_x2", threads=2, golden="mest_attack", **_MEST),
    )
}


@dataclass
class Op:
    """One command call or oracle call, with the reasons it failed."""

    label: str
    errors: list[str] = field(default_factory=list)
    wall: float = 0.0


@dataclass
class PassResult:
    seed: int
    wall: float = 0.0
    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    oracle: list[list] = field(default_factory=list)
    bytes_written: int = 0
    span_range: tuple[int, int] | None = None

    def digests(self) -> dict[str, str]:
        out = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in self.files.items()}
        out.update({f"oracle[{i}]": repr(r) for i, r in enumerate(self.oracle)})
        return out


def _call(op: Op, argv: list[str]) -> None:
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            op.errors.append(f"exit code {rc}")
    except Exception as err:  # a failed operation is counted, not fatal
        op.errors.append(f"raised {type(err).__name__}: {err}")
    op.wall = time.perf_counter() - start


def _collect(op: Op, out: Path, result: PassResult) -> None:
    """Read a command's outputs; check the manifest hashes and finiteness."""
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        op.errors.append(f"no manifest in {out.name}")
        return
    manifest_text = manifest_path.read_text()
    result.bytes_written += len(manifest_text.encode())
    listed = json.loads(manifest_text)["outputs"]
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    if set(listed) != present:
        op.errors.append(f"manifest lists {sorted(listed)}, directory has {sorted(present)}")
    for name in sorted(present):
        data = (out / name).read_bytes()
        result.bytes_written += len(data)
        if hashlib.sha256(data).hexdigest() != listed.get(name):
            op.errors.append(f"{name}: hash differs from manifest")
        text = data.decode()
        values = _csv_values(text)
        if values is None or not np.isfinite(values).all():
            op.errors.append(f"{name}: non-finite or unparsable value")
        result.files[name] = text


def _csv_values(text: str):
    """Numeric cells of a CSV with a header row; non-numeric first columns
    (aggregator labels) are skipped.  None when a cell does not parse."""
    out = []
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if cells and not _is_number(cells[0]):
            cells = cells[1:]
        try:
            out.extend(float(c) for c in cells)
        except ValueError:
            return None
    return np.array(out)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def oracle_draws(seed: int) -> list[tuple[str, int, int, np.ndarray]]:
    rng = np.random.default_rng(seed)
    draws = []
    for lo, hi in ORACLE_STRATA:
        n = int(rng.integers(lo, hi + 1))
        p = int(rng.integers(1, max(2, n // 3 + 1)))
        base = rng.standard_normal(n)
        for label in ("talwar", "tukey"):
            draws.append((label, n, p, base))
    return draws


def _oracle(draws, result: PassResult) -> None:
    specs = {"talwar": estimators.AggregatorSpec.talwar(), "tukey": estimators.AggregatorSpec.tukey()}
    for label, n, p, base in draws:
        op = Op(f"max_sc_numeric[{label}]")
        start = time.perf_counter()
        try:
            z, sc = sensitivity.max_sc_numeric(specs[label], base, count=p)
            if not (math.isfinite(z) and math.isfinite(sc)):
                op.errors.append("non-finite oracle result")
            result.oracle.append([label, n, p, float(z), float(sc)])
        except Exception as err:  # a failed operation is counted, not fatal
            op.errors.append(f"raised {type(err).__name__}: {err}")
            result.oracle.append([label, n, p, None, None])
        op.wall = time.perf_counter() - start
        result.ops.append(op)


def run_pass(wl: Workload, seed: int, work: Path, threads: int | None = None, tracer=None) -> PassResult:
    """Run one pass at master seed ``seed``; outputs are read back and checked."""
    result = PassResult(seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "config.ini"
    cfg.write_text(wl.config)
    common = ["--config", str(cfg), "--seed", str(seed)]
    if wl.kind == "simulate":
        plan = [("simulate", ["--threads", str(threads or wl.threads)])]
    else:
        plan = [("sc-sweep", []), ("efficiency-check", [])]
        draws = oracle_draws(seed)
    root = tracer.open("bench.pass") if tracer else None
    start = time.perf_counter()
    if wl.kind == "offline":
        _oracle(draws, result)
    ops = []
    for command, extra in plan:
        op = Op(command)
        _call(op, [command, *common, "--out", str(work / command), *extra])
        ops.append(op)
    result.wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
        result.span_range = (root, len(tracer.spans))
    for op, (command, _) in zip(ops, plan):
        if not op.errors:
            _collect(op, work / command, result)
        result.ops.append(op)
    return result


def load_golden(bench_dir: Path, name: str) -> dict:
    return json.loads((bench_dir / "golden" / f"{name}.json").read_text())


def compare_golden(result: PassResult, golden: dict) -> float:
    """Mark ops whose outputs leave the golden tolerance; return the largest
    absolute deviation of any output value from the golden outputs."""
    dev = 0.0
    by_label = {op.label: op for op in result.ops}
    for name, text in golden["files"].items():
        op = by_label.get("simulate") or by_label.get(
            "efficiency-check" if name == "efficiency.csv" else "sc-sweep"
        )
        got = result.files.get(name)
        if got is None:
            op.errors.append(f"{name}: missing")
            continue
        if got == text:
            continue
        want, have = _csv_values(text), _csv_values(got)
        if have is None or want is None or want.shape != have.shape:
            op.errors.append(f"{name}: shape differs from golden")
            continue
        diff = np.abs(have - want)
        dev = max(dev, float(diff.max()))
        if (diff > GOLDEN_RTOL * np.maximum(1.0, np.abs(want))).any():
            op.errors.append(f"{name}: deviates from golden by {diff.max():.3g}")
    oracle_ops = [op for op in result.ops if op.label.startswith("max_sc_numeric")]
    for op, want, have in zip(oracle_ops, golden.get("oracle", []), result.oracle):
        if have[3] is None or have[:3] != want[:3]:
            op.errors.append("oracle draw differs from golden")
            continue
        diff = np.abs(np.array(have[3:]) - np.array(want[3:]))
        dev = max(dev, float(diff.max()))
        if (diff > GOLDEN_RTOL * np.maximum(1.0, np.abs(want[3:]))).any():
            op.errors.append(f"oracle result deviates from golden by {diff.max():.3g}")
    return dev
