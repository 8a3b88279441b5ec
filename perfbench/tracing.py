"""In-memory span tracing of segdrift's layers, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper under the
name its caller looks up (`segdrift.pipeline.build_problem`, the
`ClusterStore.assign` attribute of the class, ...) and restores the
originals on exit. A span is (name, start, end, parent span, cell); spans
stay in memory until `write`. Counts are taken at the same boundaries from
the traced calls' arguments and results; the time spent taking them is its
own `trace.count` span, so it never lands in a layer's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("worldgen", "frontend", "clustering", "clusteropt", "pipeline", "metrics", "geometry", "cli")

# (module the caller looks the name up in, attribute path, span name)
TARGETS = (
    ("segdrift.cli", "main", "cli.main"),
    ("segdrift.cli", "world_from_file", "worldgen.world_from_file"),
    ("segdrift.cli", "world_to_file", "worldgen.world_to_file"),
    ("segdrift.cli", "run_pipeline", "pipeline.run"),
    ("segdrift.worldgen", "generate_corridor", "worldgen.generate_corridor"),
    ("segdrift.pipeline", "simulate", "frontend.simulate"),
    ("segdrift.clustering", "ClusterStore.assign", "clustering.assign"),
    ("segdrift.clustering", "ClusterStore.recompute_centers", "clustering.recompute_centers"),
    ("segdrift.pipeline", "build_problem", "clusteropt.build_problem"),
    ("segdrift.pipeline", "solve", "clusteropt.solve"),
    ("segdrift.pipeline", "propagate_to_poses", "pipeline.propagate_to_poses"),
    ("segdrift.pipeline", "umeyama_alignment", "geometry.umeyama_alignment"),
    ("segdrift.metrics", "umeyama_alignment", "geometry.umeyama_alignment"),
    ("segdrift.metrics", "evaluate", "metrics.evaluate"),
    ("segdrift.metrics", "ate", "metrics.ate"),
    ("segdrift.metrics", "rpe", "metrics.rpe"),
    ("segdrift.metrics", "associate", "metrics.associate"),
    ("segdrift.metrics", "write_tum", "metrics.write_tum"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
SETUP_SPANS = ("worldgen.generate_corridor",)  # timed once per run, in set-up
CALL_COUNTED = (
    "clustering.assign",
    "clustering.recompute_centers",
    "clusteropt.build_problem",
    "clusteropt.solve",
    "metrics.associate",
    "geometry.umeyama_alignment",
)
COUNT_SPAN = "trace.count"

# Per-cell counts. Each must repeat exactly whenever one (mode, seed) cell
# runs again; `.max` counts are maxima, the rest sums.
COUNTS = (
    "frontend.observations",
    "frontend.points",
    "clustering.assign.joins",
    "clustering.clusters",
    "clusteropt.edges",
    "clusteropt.unique_edges",
    "clusteropt.points.max",
    "clusteropt.lm_iterations",
) + tuple(f"{name}.calls" for name in CALL_COUNTED)


def _count_simulate(counts, args, emap, _before):
    counts["frontend.observations"] += len(emap.observations)
    counts["frontend.points"] += len(emap.points)


def _before_assign(args):
    return len(args[0])  # clusters in the store before this observation


def _count_assign(counts, args, cid, n_before):
    counts["clustering.assign.joins"] += cid < n_before


def _count_build(counts, args, problem, _before):
    edges = problem.edges
    counts["clusteropt.edges"] += len(edges)
    counts["clusteropt.unique_edges"] += len({(e.cluster_id, e.p1_id, e.p2_id, e.sign) for e in edges})
    counts["clusteropt.points.max"] = max(counts["clusteropt.points.max"], problem.n_points)


def _count_solve(counts, args, result, _before):
    counts["clusteropt.lm_iterations"] += result[1].iterations


def _count_run(counts, args, result, _before):
    counts["clustering.clusters"] += len(result.store)


HOOKS = {  # span name -> (before, after)
    "frontend.simulate": (None, _count_simulate),
    "clustering.assign": (_before_assign, _count_assign),
    "clusteropt.build_problem": (None, _count_build),
    "clusteropt.solve": (None, _count_solve),
    "pipeline.run": (None, _count_run),
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counts of one benchmark process. Cell -1 is set-up."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.cell = -1
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []  # patch targets not found, counts that failed

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_cell(self, cell: int) -> None:
        self.cell = cell
        self.counts = dict.fromkeys(COUNTS, 0)

    def end_cell(self) -> dict[str, int]:
        self.cell = -1
        return self.counts

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count_id = self._name_id(COUNT_SPAN)
        calls_key = f"{name}.calls" if name in CALL_COUNTED else None
        before, after = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            token = before(args) if before else None
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.cell)
            if self.cell >= 0:
                if calls_key:
                    self.counts[calls_key] += 1
                if after:
                    c0 = perf_counter()
                    try:
                        after(self.counts, args, result, token)
                    except (AttributeError, TypeError, IndexError) as exc:
                        self._note_missing(f"counting {name} failed ({exc!r})")
                    spans.append((count_id, c0, perf_counter(), parent, self.cell))
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)
            print(f"perfbench: trace: {what}; its metrics read 0", file=sys.stderr)

    @contextmanager
    def install(self):
        patched = []
        try:
            for module_name, path, name in TARGETS:
                try:
                    owner, attr = _resolve(module_name, path)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self._note_missing(f"{module_name}.{path} not found")
                    continue
                setattr(owner, attr, self._wrap(name, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, cell_counts: dict[int, dict[str, int]], wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the given cells: times and counts per cell,
        set-up once per run. `cell_counts` maps a cell to its counts."""
        n_cells = len(cell_counts)
        total = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        for (name_id, start, end, _, cell), self_s in zip(self.spans, self.self_times()):
            name = self.names[name_id]
            in_scope = cell < 0 if name in SETUP_SPANS else cell in cell_counts
            if in_scope:
                total[name] += end - start
                own[name] += self_s
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            per = 1 if name in SETUP_SPANS else n_cells
            out[f"{name}.s"] = total.get(name, 0.0) / per
            out[f"{name}.self_s"] = own.get(name, 0.0) / per
        for layer in LAYERS:
            out[f"module.{layer}.self_s"] = sum(
                out[f"{n}.self_s"] for n in SPAN_NAMES if n.split(".")[0] == layer
            )
        summed = {key: sum(c[key] for c in cell_counts.values()) for key in COUNTS}
        for key in COUNTS:
            if key.endswith(".max"):
                out[key] = float(max(c[key] for c in cell_counts.values()))
            else:
                out[key] = summed[key] / n_cells
        out["clustering.assign.join_ratio"] = _ratio(
            summed["clustering.assign.joins"], summed["clustering.assign.calls"]
        )
        out["clusteropt.unique_edge_ratio"] = _ratio(
            summed["clusteropt.unique_edges"], summed["clusteropt.edges"]
        )
        out[f"{COUNT_SPAN}.s"] = total.get(COUNT_SPAN, 0.0) / n_cells
        out["trace.cells_per_s"] = n_cells / wall_s
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, cell."""
        with open(path, "w") as f:
            for name_id, start, end, parent, cell in self.spans:
                f.write(json.dumps([self.names[name_id], start, end, parent, cell]) + "\n")


def unit(metric: str) -> str:
    if metric == "trace.cells_per_s":
        return "1/s"
    if metric.endswith((".s", ".self_s")):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _ratio(part: int, base: int) -> float:
    return part / base if base else 0.0
