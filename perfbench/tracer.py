"""Spans around calls into each layer's public functions.

A traced round wraps the functions in :data:`TARGETS` from here, outside
the program: every call records a span (name, start, end, parent span)
and, where the layer has one, a work count.  Spans stay in memory and are
written out once the round ends; :func:`aggregate` turns a spans file
into per-name calls, inclusive time, self time (a span minus its child
spans) and counts, and :func:`span_metrics` into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time


def _rows(args, kwargs, out) -> int:
    """Batch rows fed to a layer's ``forward(self, inputs)``."""
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    return int(inputs[0].shape[0])


def _sites(args, kwargs, out) -> int:
    """Fault sites in the plans one ``plan_node`` call drew."""
    sites = 0
    for plan in out or ():
        if plan.kind == "flips":
            sites += len(plan.indices)
        elif plan.kind == "randomize":
            sites += int(plan.noise.size)
    return sites


def _rounds(args, kwargs, out) -> int:
    """Rounds one ``drive_rounds`` call executed."""
    return int(out[2])


def _file_bytes(args, kwargs, out) -> int:
    """Size of the file a store call returned the path of."""
    return os.stat(out).st_size


def _journal_bytes(args, kwargs, out) -> int:
    """Size of the journal file, which every record rewrites whole."""
    return os.stat(args[0].path).st_size


def _length(args, kwargs, out) -> int:
    return len(out)


#: ``(module, attribute path, span name, work count)`` of every wrapped call.
TARGETS = (
    ("repro.nn.layers", "Conv2D.forward", "nn.conv2d", _rows),
    ("repro.nn.layers", "Dense.forward", "nn.dense", _rows),
    ("repro.nn.layers", "MaxPool.forward", "nn.pool", _rows),
    ("repro.nn.layers", "AvgPool.forward", "nn.pool", _rows),
    ("repro.nn.layers", "GlobalAvgPool.forward", "nn.pool", _rows),
    ("repro.nn.tensor", "quantize_array", "nn.quantize", None),
    ("repro.nn.differential", "forward_points", "nn.forward_points", None),
    ("repro.nn.differential", "forward_repeats", "nn.forward_repeats", None),
    ("repro.faults.injector", "BatchedFaultInjector.plan_node", "faults.plan_node", _sites),
    ("repro.dpu.engine", "DPUEngine.run_points", "dpu.run_points", None),
    ("repro.core.session", "AcceleratorSession.plan_point", "core.plan_point", None),
    ("repro.core.session", "AcceleratorSession.finalize_point", "core.finalize_point", None),
    ("repro.core.undervolt", "drive_rounds", "core.drive_rounds", _rounds),
    ("repro.models.zoo", "build", "models.build", None),
    ("repro.runtime.points", "PointCache.store", "points.store", _file_bytes),
    ("repro.runtime.cache", "ResultCache.store", "cache.store", None),
    ("repro.runtime.journal", "CampaignJournal.record_unit", "journal.record", _journal_bytes),
    ("repro.fleet.boards", "mint_fleet", "fleet.mint", _length),
    ("repro.fleet.policy", "prepare_policies", "fleet.prepare", None),
    ("repro.fleet.simulator", "simulate_fleet", "fleet.simulate", _length),
    ("repro.rng", "child_rng", "rng.child_rng", None),
    ("repro.runtime.query", "CharacterizationIndex.__init__", "query.index_open", None),
)

#: Per-layer metrics read from spans: ``name -> (statistic, span names)``.
#: ``self`` is time minus wrapped children, ``incl`` the whole span,
#: ``calls`` the number of spans and ``count`` the summed work counts.
SPAN_METRICS = {
    "nn.conv2d_s": ("self", ("nn.conv2d",)),
    "nn.dense_s": ("self", ("nn.dense",)),
    "nn.pool_s": ("self", ("nn.pool",)),
    "nn.quantize_s": ("self", ("nn.quantize",)),
    "nn.engine_self_s": ("self", ("nn.forward_points", "nn.forward_repeats")),
    "nn.rows": ("count", ("nn.conv2d", "nn.dense", "nn.pool")),
    "faults.plan_s": ("self", ("faults.plan_node",)),
    "faults.sites": ("count", ("faults.plan_node",)),
    "dpu.run_points_s": ("incl", ("dpu.run_points",)),
    "dpu.passes": ("calls", ("dpu.run_points",)),
    "core.plan_point_s": ("incl", ("core.plan_point",)),
    "core.finalize_s": ("incl", ("core.finalize_point",)),
    "core.points": ("calls", ("core.plan_point",)),
    "core.rounds": ("count", ("core.drive_rounds",)),
    "models.build_s": ("incl", ("models.build",)),
    "points.store_s": ("incl", ("points.store",)),
    "points.stores": ("calls", ("points.store",)),
    "points.bytes": ("count", ("points.store",)),
    "cache.store_s": ("incl", ("cache.store",)),
    "journal.record_s": ("incl", ("journal.record",)),
    "journal.records": ("calls", ("journal.record",)),
    "journal.bytes": ("count", ("journal.record",)),
    "fleet.mint_s": ("incl", ("fleet.mint",)),
    "fleet.boards_minted": ("count", ("fleet.mint",)),
    "fleet.prepare_s": ("incl", ("fleet.prepare",)),
    "fleet.simulate_s": ("incl", ("fleet.simulate",)),
    "fleet.board_sims": ("count", ("fleet.simulate",)),
    "rng.child_rng_s": ("incl", ("rng.child_rng",)),
    "rng.streams": ("calls", ("rng.child_rng",)),
    "query.index_open_s": ("incl", ("query.index_open",)),
}


class Tracer:
    """Records one span per wrapped call, in memory, per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.count: list[int] = []
        self._local = threading.local()
        self._append_lock = threading.Lock()

    def wrap(self, span: str, fn, count=None):
        """``fn`` wrapped to record a span named ``span`` per call."""
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        span_id = self._ids[span]
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._append_lock:
                index = len(self.name)
                self.name.append(span_id)
                self.parent.append(stack[-1] if stack else -1)
                self.end.append(0.0)
                self.count.append(0)
                self.start.append(clock())
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if count is not None:
                self.count[index] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target on its owner and on every module that imported it."""
        for module_name, path, span, count in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            traced = self.wrap(span, original, count)
            setattr(owner, attr, traced)
            if outer:
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:  # also `from ... import build as build_workload`
                        setattr(module, alias, traced)

    def write(self, path) -> None:
        """Write every recorded span to ``path`` as one JSON document."""
        with open(path, "w") as f:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "count": self.count,
                },
                f,
            )


def aggregate(path) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``incl`` and ``self`` seconds, ``count``."""
    with open(path) as f:
        spans = json.load(f)
    durations = [e - s for s, e in zip(spans["start"], spans["end"])]
    children = [0.0] * len(durations)
    for index, parent in enumerate(spans["parent"]):
        if parent >= 0:
            children[parent] += durations[index]
    totals = {
        name: {"calls": 0, "incl": 0.0, "self": 0.0, "count": 0} for name in spans["names"]
    }
    for index, span_id in enumerate(spans["name"]):
        entry = totals[spans["names"][span_id]]
        entry["calls"] += 1
        entry["incl"] += durations[index]
        entry["self"] += durations[index] - children[index]
        entry["count"] += spans["count"][index]
    return totals


def span_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The :data:`SPAN_METRICS` of one aggregated round (0 where unused)."""
    metrics = {
        name: float(sum(totals.get(span, {}).get(stat, 0) for span in spans))
        for name, (stat, spans) in SPAN_METRICS.items()
    }
    minted = metrics["fleet.boards_minted"]
    metrics["fleet.mint_useful"] = metrics["fleet.board_sims"] / minted if minted else 0.0
    return metrics
