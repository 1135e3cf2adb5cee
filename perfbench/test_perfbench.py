"""Tests of the benchmark itself, on the ``small`` geometry with tiny inputs.

Run with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from repro.nand.flash import PAGE_INVALID
from repro.ssd.device import SSD
from spans import BOUNDARIES

SECONDS = 0.02
BENCHMARK = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _main_json(capsys, *argv: str) -> tuple[int, dict]:
    code = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_emits_every_metric_with_its_unit(capsys, tmp_path, workload, trace):
    code, result = _main_json(
        capsys, "--workload", workload, "--seed", "3", "--seconds", str(SECONDS),
        "--trace", str(trace), "--geometry", "small", "--out", str(tmp_path),
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in specs
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    report = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert report["manifest"]["source_fingerprint"]
    assert report["manifest"]["requests"] == result["attempted"]


def test_benchmark_workloads_match_the_declared_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_and_untraced_sim_summaries_are_equal(tmp_path, workload):
    result = run.run_benchmark(workload, 5, SECONDS, True, "small", tmp_path)
    assert result.errors == []
    untraced, traced = result.phases
    assert traced.device.stats.summary() == untraced.device.stats.summary()
    assert result.metrics["core.encode_s"] > 0.0
    if workload == "websearch_replay":
        assert result.metrics["workloads.parse_s"] > 0.0
        assert result.metrics["snapshot.checkpoint_s"] > 0.0
        assert result.metrics["snapshot.restore_s"] > 0.0
        assert result.metrics["snapshot.checkpoints"] >= 1
    else:
        assert result.metrics["workloads.parse_s"] == 0.0
        assert result.metrics["snapshot.checkpoint_s"] == 0.0
    assert (tmp_path / f"{workload}-seed5.spans.npz").is_file()


def test_traced_run_restores_every_wrapped_boundary(tmp_path):
    boundaries = [(run.FTL_REGISTRY["learnedftl"], "encode", "core.encode"), *BOUNDARIES]
    originals = {(owner, name): getattr(owner, name) for owner, name, _ in boundaries}
    run.run_benchmark("websearch_replay", 1, SECONDS, True, "small", tmp_path)
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original


def _inputs_signature(workload: str, seed: int, tmp_path: Path):
    spec = run.WORKLOADS[workload]
    geometry = run.SSDGeometry.small()
    scratch = tmp_path / f"{workload}-{seed}"
    scratch.mkdir(parents=True)
    inputs = run.make_inputs(spec, geometry, seed, SECONDS, scratch)
    if inputs.requests is not None:
        return [(r.op, r.lpn, r.npages) for r in inputs.requests]
    return inputs.trace_path.read_bytes()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_a_different_seed_changes_the_inputs(tmp_path, workload):
    first = _inputs_signature(workload, 1, tmp_path / "a")
    assert first == _inputs_signature(workload, 1, tmp_path / "b")
    assert first != _inputs_signature(workload, 2, tmp_path / "c")


@pytest.fixture
def filled_small_device():
    ssd = SSD.create("learnedftl", run.SSDGeometry.small())
    ssd.fill_sequential(io_pages=run.FILL_IO_PAGES)
    ssd.overwrite_random(pages=400, seed=1)
    return ssd


def test_integrity_check_passes_on_a_consistent_device(filled_small_device):
    filled_small_device.verify()
    assert run.integrity_errors(filled_small_device) == []


def test_integrity_check_catches_a_stale_mapping(filled_small_device):
    # Point an overwritten LPN back at its older, invalidated copy.
    flash = filled_small_device.state_dict()["ftl"]["flash"]
    stale = np.flatnonzero((flash["page_state"] == PAGE_INVALID) & (flash["page_lpn"] >= 0))
    assert len(stale)
    lpn = int(flash["page_lpn"][stale[0]])
    filled_small_device.ftl.directory.update(lpn, int(stale[0]))
    with pytest.raises(AssertionError):
        filled_small_device.verify()
    errors = run.integrity_errors(filled_small_device)
    assert errors and any(f"lpn {lpn}" in message for message in errors)


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "randread", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
