"""In-memory span recorder that traces scmsim from the outside.

Spans are recorded around the calls into each scmsim module by rebinding
module globals to timing wrappers; no scmsim source file is touched.  A span
is ``[name, start, end, parent, attrs]`` with ``parent`` the index of the
enclosing span (-1 at the root).  The layer of a span is the part of its
name before the first dot; ``bench.*`` spans belong to the benchmark itself.

Simulation cells run in forked pool workers under ``--threads 2``: each
worker writes the spans of one cell to a file, and the parent merges them
when the pool closes, so per-layer numbers cover the workers' time too.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from scmsim import cli, config, estimators, sensitivity, simulation, topology

LAYERS = ("simulation", "attacks", "estimators", "sensitivity", "topology", "config", "cli")
AGGREGATORS = ("sample_mean", "trimmed_mean", "median", "talwar", "tukey")
ATTACKS = ("large_value", "trimmed_scm", "talwar_scm", "tukey_scm")


def _aggregate_attrs(args, kwargs, result):
    shape = np.shape(args[1])
    return {"label": args[0].label, "columns": shape[1], "bytes": 8 * shape[0] * shape[1]}


def _craft_attrs(args, kwargs, result):
    return {"label": args[1].label}


def _fixed_point_attrs(args, kwargs, result):
    _, converged, iterations = result
    return {"iters": int(iterations), "nonconverged": int((~converged).sum())}


def _values_attrs(args, kwargs, result):
    outliers = args[2] if len(args) > 2 else kwargs["outliers"]
    return {"columns": int(np.size(outliers))}


# (owner, attribute, span name, attrs function).  One original bound under
# several names gets one shared wrapper, so no call is recorded twice.
_BINDINGS = (
    (cli, "run_experiment", "simulation.run", None),
    (simulation, "generate_batch", "simulation.generate_batch", None),
    (simulation, "craft_attack", "attacks.craft", _craft_attrs),
    (simulation, "aggregate_matrix", "estimators.aggregate", _aggregate_attrs),
    (sensitivity, "aggregate_matrix", "estimators.aggregate", _aggregate_attrs),
    (estimators, "aggregate_matrix", "estimators.aggregate", _aggregate_attrs),
    (estimators, "_m_estimate_columns", "estimators.fixed_point", _fixed_point_attrs),
    (cli, "monte_carlo_efficiency", "estimators.efficiency", None),
    (cli, "sc_sweep", "sensitivity.sweep", None),
    (cli, "sensitivity_values", "sensitivity.values", _values_attrs),
    (sensitivity, "sensitivity_values", "sensitivity.values", _values_attrs),
    (sensitivity, "max_sc_numeric", "sensitivity.max_sc", None),
    (cli, "generate_topology", "topology.generate", None),
    (topology, "erdos_renyi", "topology.graph", None),
    (config, "parse_config", "config.parse", None),
    (cli, "parse_config", "config.parse", None),
    (cli, "_write_csv", "cli.write", None),
    (cli, "write_manifest", "cli.write", None),
    (sensitivity.SCTable, "save", "cli.write", None),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self, dump_dir: Path):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pid = os.getpid()
        self.dump_dir = dump_dir
        self.missing: list[str] = []
        self._bindings: list[tuple] = []
        wrappers: dict[int, object] = {}
        for owner, attr, name, attrs in _BINDINGS:
            self._bind(owner, attr, wrappers, lambda fn, name=name, attrs=attrs: self._wrap(fn, name, attrs))
        self._bind(cli, "_simulate_cell", wrappers, self._wrap_cell)
        self._bind(cli, "ProcessPoolExecutor", wrappers, self._pool_class)

    def _bind(self, owner, attr, wrappers, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if id(original) not in wrappers:
            wrappers[id(original)] = make(original)
        self._bindings.append((owner, attr, original, wrappers[id(original)]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs is not None:
                tracer.spans[idx][4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _wrap_cell(self, fn):
        tracer = self
        traced = self._wrap(fn, "cli.cell", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return traced(*args, **kwargs)
            # In a forked worker: everything below `mark` is the parent's
            # copy, so only the new spans go to the dump file.
            mark = len(tracer.spans)
            result = traced(*args, **kwargs)
            path = tracer.dump_dir / f"cell-{os.getpid()}-{mark}.json"
            path.write_text(json.dumps({"mark": mark, "spans": tracer.spans[mark:]}))
            return result

        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._bench_span = tracer.open("cli.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._bench_span)
                    tracer.merge_worker_spans()

        return TracedPool

    def merge_worker_spans(self) -> None:
        for path in sorted(self.dump_dir.glob("cell-*.json")):
            dump = json.loads(path.read_text())
            mark, offset = dump["mark"], len(self.spans) - dump["mark"]
            for name, start, end, parent, attrs in dump["spans"]:
                self.spans.append([name, start, end, parent + offset if parent >= mark else parent, attrs])
            path.unlink()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def pass_layer_metrics(spans: list[list], lo: int, hi: int) -> tuple[dict, dict, int]:
    """Per-layer times and counts of the spans with indices in [lo, hi).

    Returns (times in s, counts, span-check failures).  A span's self time is
    its duration minus the part of it its child spans cover.  The check
    requires the children plus self time of each ``simulation.run`` and
    ``sensitivity.max_sc`` span to add up to the span.
    """
    children = defaultdict(list)
    for i in range(lo, hi):
        if spans[i][3] >= lo:
            children[spans[i][3]].append(i)
    times = defaultdict(float)
    counts = defaultdict(int)
    fp_iters = []
    failures = 0
    for i in range(lo, hi):
        name, start, end, parent, attrs = spans[i]
        dur = end - start
        kids = [(spans[c][1], spans[c][2]) for c in children[i]]
        self_time = dur - _covered(kids, start, end)
        layer = name.split(".")[0]
        # simulation.self_s is the run spans' own time (adapt plus the round
        # loop); generate_batch is reported on its own.
        if layer in LAYERS and layer != "simulation":
            times[f"{layer}.self_s"] += self_time
        if name in ("simulation.run", "sensitivity.max_sc"):
            # Self time counts covered time once and only inside the span, so
            # children that overlap or stick out break this sum.
            failures += abs(self_time + sum(e - s for s, e in kids) - dur) > 1e-9
        if name == "simulation.run":
            times["simulation.run_s"] += dur
            times["simulation.self_s"] += self_time
        elif name == "simulation.generate_batch":
            times["simulation.generate_batch_s"] += dur
            counts["simulation.generate_batch_calls"] += 1
        elif name == "attacks.craft":
            times["attacks.craft_s"] += dur
            times[f"attacks.craft_s.{attrs['label']}"] += dur
            counts["attacks.craft_calls"] += 1
        elif name == "estimators.aggregate":
            times["estimators.aggregate_s"] += dur
            times[f"estimators.aggregate_s.{attrs['label']}"] += dur
            counts["estimators.aggregate_calls"] += 1
            counts["estimators.aggregate_columns"] += attrs["columns"]
            counts["estimators.aggregate_bytes"] += attrs["bytes"]
        elif name == "estimators.fixed_point":
            fp_iters.append(attrs["iters"])
            counts["estimators.fp_nonconverged"] += attrs["nonconverged"]
        elif name == "estimators.efficiency":
            times["estimators.efficiency_s"] += dur
        elif name == "sensitivity.values":
            times["sensitivity.values_s"] += dur
            counts["sensitivity.values_calls"] += 1
            counts["sensitivity.values_columns"] += attrs["columns"]
            if parent >= 0 and spans[parent][0] == "sensitivity.max_sc":
                counts["sensitivity.oracle_evals"] += 1
        elif name == "topology.generate":
            times["topology.generate_s"] += dur
        elif name == "topology.graph":
            counts["topology.graph_attempts"] += 1
        elif name == "config.parse":
            times["config.parse_s"] += dur
        elif name == "cli.write":
            times["cli.write_s"] += dur
        elif name == "cli.pool":
            times["cli.pool_s"] += dur
    counts["estimators.fp_iters_max"] = max(fp_iters, default=0)
    counts["estimators.fp_iters_mean"] = float(np.mean(fp_iters)) if fp_iters else 0.0
    return dict(times), dict(counts), failures
