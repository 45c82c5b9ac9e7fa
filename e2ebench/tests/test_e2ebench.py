"""Tests of the benchmark harness itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "e2ebench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibration  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from repro.fleet.router import FleetRouter  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for metric in group:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]
    assert lines[-2].startswith("provenance: ")
    provenance = json.loads(lines[-2].split(": ", 1)[1])
    assert {"git_sha", "src_sha256", "cpu", "nproc", "python",
            "numpy"} <= set(provenance)


def test_layer_counts_and_accuracies_repeat_across_runs_of_one_seed():
    runs = [json.loads(_run("serve-monitored", 1).stdout.splitlines()[-1])
            for _ in range(2)]
    repeatable = {name: m["value"] for name, m in runs[0]["metrics"].items()
                  if m["unit"] in ("count", "ratio", "bytes", "windows")
                  and name != "bench.trace_overhead"}
    assert repeatable["monitor.shadow.windows"] > 0
    assert repeatable == {name: runs[1]["metrics"][name]["value"]
                          for name in repeatable}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench")
    out = _run("serve-rf", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# ----------------------------------------------------------------------
# a corrupted emission stream must fail the checks
def _drop_one(emissions):
    return emissions[1:]


def _duplicate_one(emissions):
    return emissions + emissions[:1]


def _shift_index(emissions):
    first = emissions[0]
    shifted = dataclasses.replace(
        first.prediction, sample_index=first.prediction.sample_index + 1)
    return [dataclasses.replace(first, prediction=shifted)] + emissions[1:]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    state = wl.WORKLOADS["serve-rf"].setup(0, wl.TINY, workdir, wl.NO_SPANS)
    yield state, workdir
    wl.WORKLOADS["serve-rf"].teardown(state)


def test_clean_stream_passes_the_checks(served):
    state, workdir = served
    result = wl.WORKLOADS["serve-rf"].run_pass(state, 0, wl.TINY, workdir,
                                               wl.NO_SPANS)
    assert result.problems == [] and result.failed == 0


@pytest.mark.parametrize("corrupt", [_drop_one, _duplicate_one, _shift_index])
def test_corrupted_stream_fails_the_checks(served, monkeypatch, corrupt):
    state, workdir = served
    original = FleetRouter.step
    corrupted = []

    def step(self):
        emissions = original(self)
        if emissions and not corrupted:
            corrupted.append(True)
            return corrupt(emissions)
        return emissions

    monkeypatch.setattr(FleetRouter, "step", step)
    result = wl.WORKLOADS["serve-rf"].run_pass(state, 0, wl.TINY, workdir,
                                               wl.NO_SPANS)
    assert corrupted
    assert result.problems, "corrupted stream passed the checks"


# ----------------------------------------------------------------------
# calibrated timing
def _pass(latencies, kernel_s=()):
    return wl.PassResult(wall_s=1.0, rows=1, latencies_s=latencies,
                         accuracy=1.0, attempted=1, failed=0, problems=[],
                         fingerprint=(), values={}, kernel_s=kernel_s)


def test_timings_scale_to_the_reference_speed_of_nearby_kernel_runs():
    ref = calibration.CALIBRATION_REF_S
    slow, fast = 4 * ref, 2 * ref
    plain, inner = _pass([1.0]), _pass([1.0], kernel_s=(fast, fast))
    walls, latencies = worker._scales([plain, inner], [slow, slow, slow])
    assert walls == pytest.approx([0.25, 1 / 3])
    assert latencies == pytest.approx([0.25, 0.5])


def test_latency_samples_that_do_not_line_up_fail_the_checks():
    problems = []
    typical = worker._typical_latencies(
        [_pass([1.0, 3.0]), _pass([2.0, 1.0]), _pass([9.0, 2.0])],
        [1.0, 1.0, 1.0], problems)
    assert list(typical) == [2.0, 2.0] and problems == []
    worker._typical_latencies([_pass([1.0]), _pass([1.0, 2.0])], [1.0, 1.0],
                              problems)
    assert problems
