"""Host-time benchmark of the simulator on the paths figure runs and replays use.

Usage (from the repository root)::

    python3 perfbench/run.py --workload randread --seed 1 --seconds 10 --trace 0

Each run builds the inputs from ``--seed``, sets the device up several times
(the median is ``setup_s``), runs one timed phase through the public entry
points (``SSD.run`` closed loop or ``ReplaySession`` -> ``SSD.replay`` open
loop) and checks the simulated results.  ``--trace 1`` adds a second phase on
a fresh device with span wrappers installed (``spans.py``) and reports the
per-layer metrics instead of the end-to-end ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A failed check exits 1.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no simulator source at {SOURCE_DIR / 'repro'}")
sys.path.insert(0, str(SOURCE_DIR))

import numpy as np  # noqa: E402

from repro.nand.flash import PAGE_VALID  # noqa: E402
from repro.nand.geometry import GEOMETRY_PRESETS, SSDGeometry  # noqa: E402
from repro.replay import (  # noqa: E402
    ReplayPlan,
    ReplayResult,
    ReplaySession,
    state_fingerprint,
)
from repro.snapshot.fingerprint import source_fingerprint  # noqa: E402
from repro.snapshot.serialization import load_snapshot  # noqa: E402
from repro.snapshot.store import SnapshotStore  # noqa: E402
from repro.snapshot.warm import warmup_recipe  # noqa: E402
from repro.ssd.device import FTL_REGISTRY, SSD  # noqa: E402
from repro.ssd.request import CommandPurpose, HostRequest  # noqa: E402
from repro.workloads.fio import FioJob, warmup_writes  # noqa: E402
from repro.workloads.traces import synthesize_websearch, trace_to_requests  # noqa: E402

from refclock import ReferenceClock  # noqa: E402
from spans import Tracer  # noqa: E402

#: Device set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Request size of the sequential fill (the ``fill`` warm-up of the CLI).
FILL_IO_PAGES = 128
#: Replay knobs: fig21's arrival compression and stream count, the CLI's
#: default chunk size, and a checkpoint cadence that writes several per run.
REPLAY_TIME_SCALE = 0.05
REPLAY_STREAMS = 64
REPLAY_CHUNK_REQUESTS = 10_000
REPLAY_CHECKPOINT_EVERY = 40_000
#: ``SSD.verify`` scans the flash array once per mapped page; beyond this
#: many logical pages only the equivalent column check runs.
FULL_VERIFY_MAX_PAGES = 50_000


# ---------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which FTL, how inputs are made, how it is driven."""

    name: str
    why: str
    ftl: str
    #: Requests (closed loop) or trace records (replay) per second of
    #: ``--seconds``, calibrated so the timed phase lasts about that long on a
    #: 2-core x86 host.  Fixing the count, not the time, keeps every simulated
    #: result a function of the seed alone.
    per_second: float
    #: ``"randread"`` or ``"overwrite"`` request lists for ``SSD.run``, or a
    #: ``"trace"`` file for ``ReplaySession``.
    inputs: str
    threads: int = 1

    @property
    def replays(self) -> bool:
        return self.inputs == "trace"


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "randread",
            "fig14 randread: filled learnedftl, uniform 4 KB reads, 64 closed-loop "
            "threads; translation and timing engine, no GC or parsing",
            "learnedftl",
            per_second=85_000,
            inputs="randread",
            threads=64,
        ),
        Workload(
            "websearch_replay",
            "fig21 open-loop replay of a WebSearch1-like trace on filled learnedftl: "
            "parsing, chunking and checkpoints, CMT locality",
            "learnedftl",
            per_second=22_000,
            inputs="trace",
            threads=REPLAY_STREAMS,
        ),
        Workload(
            "overwrite_gc",
            "slice of the steady warm-up overwrite stream on filled learnedftl: "
            "group GC on every write",
            "learnedftl",
            per_second=10,
            inputs="overwrite",
            threads=8,
        ),
        Workload(
            "overwrite_gc_tpftl",
            "the same overwrite slice on tpftl, the paper's baseline: striping GC "
            "and translation-page flushes",
            "tpftl",
            per_second=7,
            inputs="overwrite",
            threads=8,
        ),
    )
}


@dataclass
class Inputs:
    """Everything a workload feeds the simulator, built before any timing."""

    requests: list[HostRequest] | None = None
    trace_path: Path | None = None
    records: int = 0
    expected_requests: int = 0


def make_inputs(workload: Workload, geometry: SSDGeometry, seed: int, seconds: float,
                scratch: Path) -> Inputs:
    """Generate the workload's inputs from ``seed`` (deterministic)."""
    count = max(1, round(workload.per_second * seconds))
    if workload.inputs == "randread":
        requests = list(FioJob.randread(count, seed=seed).requests(geometry))
        return Inputs(requests=requests, expected_requests=len(requests))
    if workload.inputs == "overwrite":
        # The steady warm-up stream (128-page writes, half random) is sized by
        # an overwrite factor; ask for enough passes to cover ``count``.
        factor = count * FILL_IO_PAGES / geometry.num_logical_pages + 1.0
        stream = warmup_writes(geometry, overwrite_factor=factor, io_pages=FILL_IO_PAGES,
                               seed=seed)
        requests = list(islice(stream, count))
        return Inputs(requests=requests, expected_requests=len(requests))
    records = synthesize_websearch(1, num_ios=count, seed=seed)
    path = scratch / "websearch1.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("timestamp,response,iotype,lun,offset,size\n")
        for record in records:
            handle.write(
                f"{record.timestamp_s!r},0,{'R' if record.is_read else 'W'},"
                f"{record.stream_id},{record.offset_bytes},{record.size_bytes}\n"
            )
    expected = sum(
        1 for _ in trace_to_requests(records, geometry, time_scale=REPLAY_TIME_SCALE)
    )
    return Inputs(trace_path=path, records=len(records), expected_requests=expected)


def setup_device(workload: Workload, geometry: SSDGeometry) -> SSD:
    """Device construction plus the sequential fill: what every run pays."""
    ssd = SSD.create(workload.ftl, geometry)
    ssd.fill_sequential(io_pages=FILL_IO_PAGES)
    return ssd


def replay_plan(workload: Workload, geometry: SSDGeometry, inputs: Inputs) -> ReplayPlan:
    return ReplayPlan(
        trace_path=str(inputs.trace_path),
        trace_format="systor",
        ftl_name=workload.ftl,
        geometry=geometry,
        streams=workload.threads,
        chunk_requests=REPLAY_CHUNK_REQUESTS,
        checkpoint_every_requests=REPLAY_CHECKPOINT_EVERY,
        time_scale=REPLAY_TIME_SCALE,
        warmup="fill",
        io_pages=FILL_IO_PAGES,
    )


def fill_image_key(plan: ReplayPlan) -> str:
    """Snapshot-store key under which ``ReplaySession`` looks up the plan's warm image."""
    return SnapshotStore.key_for(
        ftl_name=plan.ftl_name,
        geometry=plan.geometry,
        recipe=warmup_recipe(warmup=plan.warmup, io_pages=plan.io_pages,
                             overwrite_factor=plan.overwrite_factor,
                             threads=plan.warmup_threads, seed=plan.warmup_seed),
        config=plan.config,
        timing=plan.timing,
    )


# ------------------------------------------------------------------- phases
@dataclass
class Phase:
    """Outcome of one timed phase (times in reference and wall seconds)."""

    ref_s: float
    wall_s: float
    device: SSD
    completed: int
    skipped: int = 0
    replay: ReplayResult | None = None
    session: ReplaySession | None = None


def closed_loop_phase(workload: Workload, ssd: SSD, inputs: Inputs,
                      clock: ReferenceClock) -> Phase:
    ssd.reset_stats()
    start = clock.mark()
    result = ssd.run(inputs.requests, threads=workload.threads)
    ref, wall = clock.seconds(start, clock.mark())
    return Phase(ref_s=ref, wall_s=wall, device=ssd, completed=result.requests)


def replay_phase(workload: Workload, geometry: SSDGeometry, inputs: Inputs,
                 store: SnapshotStore, run_dir: Path, clock: ReferenceClock) -> Phase:
    session = ReplaySession(replay_plan(workload, geometry, inputs), run_dir,
                            snapshot_store=store)
    start = clock.mark()
    result = session.run()
    ref, wall = clock.seconds(start, clock.mark())
    return Phase(ref_s=ref, wall_s=wall, device=result.device, completed=result.requests,
                 skipped=result.skipped_lines, replay=result, session=session)


# ------------------------------------------------------------------- checks
def integrity_errors(ssd: SSD) -> list[str]:
    """``SSD.verify``'s invariant, checked on the ``state_dict`` columns.

    Every mapped LPN must point at a valid data page that holds that LPN and
    is the newest valid copy of it.
    """
    state = ssd.state_dict()["ftl"]
    flash, mapping = state["flash"], state["directory"]["ppn"]
    page_state, page_lpn = flash["page_state"], flash["page_lpn"]
    data = (page_state == PAGE_VALID) & (flash["page_translation"] == 0)
    lpns = np.flatnonzero(mapping >= 0)
    ppns = mapping[lpns]
    errors = []
    bad = ~data[ppns] | (page_lpn[ppns] != lpns)
    if bad.any():
        lpn = int(lpns[bad][0])
        errors.append(f"lpn {lpn} maps to ppn {int(mapping[lpn])}, not a valid copy of it")
    valid_ppns = np.flatnonzero(data)
    order = np.lexsort((flash["page_version"][valid_ppns], page_lpn[valid_ppns]))
    by_lpn = valid_ppns[order]
    newest_rows = np.r_[page_lpn[by_lpn][1:] != page_lpn[by_lpn][:-1], True]
    newest = by_lpn[newest_rows]
    newest_lpn = page_lpn[newest]
    mapped = mapping[newest_lpn] >= 0
    stale = mapped & (mapping[newest_lpn] != newest)
    if stale.any():
        lpn = int(newest_lpn[stale][0])
        errors.append(f"lpn {lpn} maps to ppn {int(mapping[lpn])}, but a newer copy exists")
    if ssd.geometry.num_logical_pages <= FULL_VERIFY_MAX_PAGES:
        try:
            ssd.verify()
        except AssertionError as exc:
            errors.append(f"SSD.verify: {exc}")
    return errors


def phase_errors(inputs: Inputs, phase: Phase) -> list[str]:
    errors = [f"integrity: {message}" for message in integrity_errors(phase.device)]
    if phase.completed != inputs.expected_requests:
        errors.append(f"completed {phase.completed} of {inputs.expected_requests} requests")
    if phase.replay is not None:
        result = phase.replay
        if not result.finished or result.records != inputs.records or phase.skipped:
            errors.append(
                f"replay finished={result.finished} records={result.records}/"
                f"{inputs.records} skipped={phase.skipped}"
            )
        final = phase.session.checkpoint_paths()[-1]
        state = load_snapshot(final)
        restored = SSD.create(phase.device.ftl.name, phase.device.geometry)
        restored.load_state(state["device"])
        if state_fingerprint(restored.state_dict()) != result.state_sha:
            errors.append(f"final checkpoint {final.name} does not restore to state_sha")
    return errors


# ------------------------------------------------------------------ metrics
def end_to_end_metrics(phase: Phase, setup_times: list[float],
                       probe_bytes: int) -> dict[str, float]:
    stats = phase.device.stats
    latencies = np.concatenate(
        [np.asarray(stats.read_latencies_us), np.asarray(stats.write_latencies_us)]
    )
    host_pages = stats.host_read_pages + stats.host_write_pages
    return {
        "req_per_s": phase.completed / phase.ref_s,
        "setup_s": statistics.median(setup_times),
        # The reference clock's probe table stays resident for the whole run.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - probe_bytes) / 2**20,
        "sim_mb_s": stats.throughput_mb_s(),
        "sim_mean_us": float(latencies.mean()),
        "sim_flash_pages_per_host_page": (
            (stats.total_flash_reads + stats.total_flash_programs) / host_pages
        ),
    }


def count_metrics(phase: Phase) -> dict[str, float]:
    """Exact per-layer counts and the simulated results they explain."""
    stats = phase.device.stats
    summary = stats.summary()
    reads = stats.read_latency_digest() if len(stats.read_latencies_us) else None
    writes = stats.write_latency_digest() if len(stats.write_latencies_us) else None
    gc_count = stats.gc_count
    replay = phase.replay
    return {
        "core.cmt_hit_ratio": summary["cmt_hit_ratio"],
        "core.model_hit_ratio": summary["model_hit_ratio"],
        "core.translation_reads": stats.flash_reads[CommandPurpose.TRANSLATION_READ],
        "core.gc_count": gc_count,
        "core.gc_pages_moved": stats.gc_pages_moved,
        "core.gc_pages_per_gc": stats.gc_pages_moved / gc_count if gc_count else 0.0,
        "ssd.flash_reads": stats.total_flash_reads,
        "ssd.flash_programs": stats.total_flash_programs,
        "ssd.flash_erases": stats.total_flash_erases,
        "ssd.chip_utilization": summary["utilization"],
        "workloads.records": replay.records if replay else 0,
        "replay.chunks": replay.chunks if replay else 0,
        "snapshot.checkpoints": replay.checkpoints_written if replay else 0,
        "double_read_fraction": summary["double_read_fraction"],
        "waf": summary["write_amplification"],
        "sim_read_samples": reads.count if reads else 0,
        "sim_read_p50_us": reads.p50_us if reads else 0.0,
        "sim_read_p99_us": reads.p99_us if reads else 0.0,
        "sim_read_p999_us": reads.p999_us if reads else 0.0,
        "sim_write_samples": writes.count if writes else 0,
        "sim_write_p50_us": writes.p50_us if writes else 0.0,
        "sim_write_p99_us": writes.p99_us if writes else 0.0,
        "failed_frac": phase.skipped / max(1, phase.completed),
    }


# ---------------------------------------------------------------------- run
@dataclass
class BenchResult:
    """Everything one benchmark run produced (the JSON line is built from it)."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    errors: list[str]
    manifest: dict[str, Any]
    phases: list[Phase] = field(default_factory=list)


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  geometry_name: str = "medium", out_dir: Path | None = None) -> BenchResult:
    """Run one workload; see the module docstring."""
    out_dir = Path(out_dir) if out_dir is not None else BENCH_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=out_dir))
    try:
        with ReferenceClock() as clock:
            return _run(workload_name, seed, seconds, trace, geometry_name, out_dir, scratch,
                        clock)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload_name: str, seed: int, seconds: float, trace: bool, geometry_name: str,
         out_dir: Path, scratch: Path, clock: ReferenceClock) -> BenchResult:
    workload = WORKLOADS[workload_name]
    geometry = SSDGeometry.preset(geometry_name)
    inputs = make_inputs(workload, geometry, seed, seconds, scratch)
    setup_times, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        ssd = None  # free the previous device before building the next
        start = clock.mark()
        ssd = setup_device(workload, geometry)
        ref, wall = clock.seconds(start, clock.mark())
        setup_times.append(ref)
        setup_walls.append(wall)

    store = None
    if workload.replays:
        store = SnapshotStore(scratch / "store")
        store.save(fill_image_key(replay_plan(workload, geometry, inputs)), ssd)
        ssd = None

    def drive(device: SSD | None, label: str) -> Phase:
        if workload.replays:
            return replay_phase(workload, geometry, inputs, store, scratch / label, clock)
        return closed_loop_phase(workload, device, inputs, clock)

    untraced = drive(ssd, "untraced")
    errors = phase_errors(inputs, untraced)
    phases = [untraced]
    if trace:
        device = None if workload.replays else setup_device(workload, geometry)
        tracer = Tracer(f"{workload_name}-seed{seed}", FTL_REGISTRY[workload.ftl])
        with tracer:
            traced = drive(device, "traced")
        phases.append(traced)
        errors += [f"traced: {message}" for message in phase_errors(inputs, traced)]
        if traced.device.stats.summary() != untraced.device.stats.summary():
            errors.append("traced stats.summary() differs from the untraced run")
        tracer.write(out_dir / f"{workload_name}-seed{seed}.spans.npz")
        # Span times are wall seconds; express them in the phase's reference seconds.
        scale = traced.ref_s / traced.wall_s
        metrics = {name: value * scale for name, value in tracer.layer_times().items()}
        metrics.update(count_metrics(untraced))
        metrics["snapshot.checkpoint_mb"] = tracer.snapshot_bytes / 2**20
        metrics["trace.overhead_frac"] = traced.ref_s / untraced.ref_s - 1.0
    else:
        metrics = end_to_end_metrics(untraced, setup_times, clock.table_bytes)
    if store is not None and store.hits != len(phases):
        errors.append(f"replay re-filled instead of restoring the fill image "
                      f"({store.hits} restores for {len(phases)} phases)")

    manifest = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ftl": workload.ftl,
        "geometry_name": geometry_name,
        "geometry": asdict(geometry),
        "host_model": "open loop, ReplaySession" if workload.replays else "closed loop, SSD.run",
        "threads_or_streams": workload.threads,
        "requests": inputs.expected_requests,
        "records": inputs.records,
        "replay": {
            "chunk_requests": REPLAY_CHUNK_REQUESTS,
            "checkpoint_every_requests": REPLAY_CHECKPOINT_EVERY,
            "time_scale": REPLAY_TIME_SCALE,
        } if workload.replays else None,
        "setup_repeats": SETUP_REPEATS,
        "setup_times_s": setup_times,
        "setup_wall_s": setup_walls,
        "phase_ref_s": [phase.ref_s for phase in phases],
        "phase_wall_s": [phase.wall_s for phase in phases],
        "probes": len(clock.probes),
        "probe_median_s": clock.median_probe_s(),
        "source_fingerprint": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }
    attempted = inputs.expected_requests
    failed = attempted - untraced.completed + untraced.skipped
    return BenchResult(
        correct=not errors,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        errors=errors,
        manifest=manifest,
        phases=phases,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--geometry", choices=GEOMETRY_PRESETS, default="medium")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for reports and span files")
    args = parser.parse_args(argv)

    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        specs = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.geometry, args.out)
    metrics = {spec["name"]: {"value": result.metrics[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    report = {"manifest": result.manifest, "errors": result.errors, "metrics": metrics}
    report_path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2), encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for message in result.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
