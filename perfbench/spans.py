"""In-memory span recording around the simulator's public layer boundaries.

A traced run wraps a fixed set of functions (see :data:`BOUNDARIES`) for the
duration of one ``with Tracer(...)`` block; every call becomes a span
``(name, start, end, parent)`` kept in flat columns, so recording costs a few
appends per call and no allocation per span.  On exit the original functions
are put back, so untraced runs execute the unmodified code.

A span's *self time* is its duration minus the time its direct children
cover; a layer's time is the summed self time of the spans named for it.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.replay.engine as replay_engine
import repro.snapshot.serialization as serialization
from repro.ssd.device import SSD
from repro.ssd.engine import TimingEngine
from repro.ssd.stats import SimulationStats
from repro.workloads.traces import RecordStream

__all__ = ["BOUNDARIES", "LAYER_SPANS", "Tracer"]

_MISSING = object()

#: ``(owner, attribute, span name)`` for every wrapped boundary.  ``owner`` is
#: a class (methods) or a module (functions looked up as module globals at
#: call time).  The FTL's ``encode`` is added per run because it is defined
#: on the concrete design class.
BOUNDARIES: tuple[tuple[Any, str, str], ...] = (
    (SSD, "run", "ssd.run"),
    (SSD, "replay", "ssd.replay"),
    (TimingEngine, "execute_buffer", "ssd.execute_buffer"),
    (SimulationStats, "record_latency", "ssd.record_latency"),
    (RecordStream, "__next__", "workloads.next_record"),
    (replay_engine, "iter_trace_requests", "replay.next_chunk"),
    (SSD, "state_dict", "snapshot.state_dict"),
    (replay_engine, "save_snapshot", "snapshot.save_snapshot"),
    (serialization, "load_snapshot", "snapshot.load_snapshot"),
    (SSD, "load_state", "snapshot.load_state"),
)

#: Per-layer time metric -> the span names whose self time it sums.
LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "core.encode_s": ("core.encode",),
    "ssd.engine_s": ("ssd.execute_buffer",),
    "ssd.stats_s": ("ssd.record_latency",),
    "ssd.driver_self_s": ("ssd.run", "ssd.replay"),
    "workloads.parse_s": ("workloads.next_record",),
    "replay.chunk_s": ("replay.next_chunk",),
    "snapshot.checkpoint_s": ("snapshot.state_dict", "snapshot.save_snapshot"),
    "snapshot.restore_s": ("snapshot.load_snapshot", "snapshot.load_state"),
}


class Tracer:
    """Install span wrappers on enter, restore the originals on exit."""

    def __init__(self, run_id: str, ftl_class: type) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_col = array("H")
        self._parent_col = array("q")
        self._start_col = array("d")
        self._end_col = array("d")
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self._boundaries = ((ftl_class, "encode", "core.encode"),) + BOUNDARIES
        #: Bytes written by ``save_snapshot`` calls (checkpoint volume).
        self.snapshot_bytes = 0

    # ------------------------------------------------------------ recording
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, function: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        names, parents = self._name_col, self._parent_col
        starts, ends, stack = self._start_col, self._end_col, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _wrap_generator(self, function: Callable, name: str) -> Callable:
        """Time each ``next()`` of the generator ``function`` returns."""
        step = self._wrap(next, name)

        def traced(*args, **kwargs):
            generator = function(*args, **kwargs)
            while True:
                try:
                    item = step(generator)
                except StopIteration:
                    return
                yield item

        return traced

    def _wrap_save(self, function: Callable, name: str) -> Callable:
        timed = self._wrap(function, name)

        def traced(path, *args, **kwargs):
            result = timed(path, *args, **kwargs)
            self.snapshot_bytes += sum(
                entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file()
            )
            return result

        return traced

    # --------------------------------------------------------- installation
    def __enter__(self) -> "Tracer":
        for owner, attribute, name in self._boundaries:
            original = getattr(owner, attribute)
            if name == "replay.next_chunk":
                wrapper = self._wrap_generator(original, name)
            elif name == "snapshot.save_snapshot":
                wrapper = self._wrap_save(original, name)
            else:
                wrapper = self._wrap(original, name)
            self._installed.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------- analysis
    def __len__(self) -> int:
        return len(self._start_col)

    def self_times(self) -> dict[str, float]:
        """Summed self time (seconds) per span name, for every wrapped name."""
        totals = {name: 0.0 for name in self.names}
        if not len(self):
            return totals
        names = np.frombuffer(self._name_col, dtype=np.uint16)
        parents = np.frombuffer(self._parent_col, dtype=np.int64)
        durations = np.frombuffer(self._end_col) - np.frombuffer(self._start_col)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        per_name = np.bincount(names, weights=durations - covered, minlength=len(self.names))
        for index, name in enumerate(self.names):
            totals[name] = float(per_name[index])
        return totals

    def layer_times(self) -> dict[str, float]:
        """Per-layer self time, keyed by the metric names of :data:`LAYER_SPANS`."""
        self_times = self.self_times()
        return {
            metric: sum(self_times.get(name, 0.0) for name in span_names)
            for metric, span_names in LAYER_SPANS.items()
        }

    def write(self, path: Path) -> None:
        """Write every span (columns plus the name table and run id) to ``path``."""
        np.savez(
            path,
            name=np.frombuffer(self._name_col, dtype=np.uint16),
            parent=np.frombuffer(self._parent_col, dtype=np.int64),
            start=np.frombuffer(self._start_col),
            end=np.frombuffer(self._end_col),
            names=np.asarray(json.dumps(self.names)),
            run_id=np.asarray(self.run_id),
        )
