"""Tests for the benchmark's own arithmetic, checks and tracing, on tiny windows."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from checks import (
    artifact_differences,
    describe_timing,
    dispatch_seconds,
    plan_jobs,
    result_problems,
    results_digest,
    tail_percentile,
    warm_key_repeat_share,
    warm_keys,
)
from harness import END_TO_END_UNITS, PER_LAYER_UNITS
from layers import LayerTracer
from run import WORKLOAD_NAMES
from workloads import WORKLOADS, regenerate_table2

from repro.config.presets import paper_system
from repro.engine.jobs import SimulationJob, execute_job
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import get_benchmark
from repro.workloads.mixes import make_workload

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = make_workload(
    [get_benchmark("stream_copy"), get_benchmark("gcc_like")], name="pair"
)


def tiny_job(mechanism="dsarp", density_gb=32, seed=0, workload=WORKLOAD):
    config = paper_system(
        density_gb=density_gb, mechanism=mechanism, num_cores=workload.num_cores
    )
    return SimulationJob(config, workload, cycles=300, warmup=50, seed=seed)


@pytest.fixture(scope="module")
def tiny_result():
    job = tiny_job()
    return job, execute_job(job)


# -- percentile sample-count rule ----------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),
        (39, None),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond_it(count, expected):
    assert tail_percentile(count) == expected


def test_describe_timing_states_the_sample_count():
    assert "n=5; too few samples" in describe_timing([1.0, 2.0, 3.0, 4.0, 5.0])
    text = describe_timing([float(value) for value in range(1, 41)])
    assert text == "p50 20.5000 s, p75 30.0000 s (n=40)"


# -- warm-state repeat share ---------------------------------------------------


def test_same_mix_under_two_mechanisms_repeats_every_warm_state():
    assert warm_key_repeat_share([tiny_job("refab"), tiny_job("dsarp")]) == 0.5


def test_seed_changes_every_warm_key():
    assert warm_key_repeat_share([tiny_job(seed=0), tiny_job(seed=1)]) == 0.0


def test_density_keeps_every_warm_key():
    # Density changes refresh timing, not the address map's capacity.
    jobs = [tiny_job(density_gb=8), tiny_job(density_gb=32)]
    assert warm_key_repeat_share(jobs) == 0.5


def test_warm_key_offsets_match_the_simulator():
    job = tiny_job()
    simulator = Simulator(job.config, job.workload, seed=job.seed)
    offsets = [key[2] for key in warm_keys(job)]
    assert offsets == [core.address_offset for core in simulator.cores]


# -- engine.dispatch_s arithmetic ----------------------------------------------


def test_dispatch_seconds_spreads_job_time_over_workers():
    assert dispatch_seconds(10.0, [4.0, 4.0, 6.0, 2.0], workers=2) == 2.0
    assert dispatch_seconds(10.0, [4.0, 4.0], workers=1) == 2.0


# -- correctness checks --------------------------------------------------------


def test_a_real_result_passes_every_check(tiny_result):
    job, result = tiny_result
    assert result_problems(result, job) == []


def test_wrong_window_is_reported(tiny_result):
    job, result = tiny_result
    problems = result_problems(replace(result, cycles=299), job)
    assert any("window 299+50" in problem for problem in problems)


def test_ipc_outside_issue_width_is_reported(tiny_result):
    job, result = tiny_result
    cores = [replace(result.cores[0], ipc=0.0), replace(result.cores[1], ipc=3.5)]
    problems = result_problems(replace(result, cores=cores), job)
    assert len(problems) == 2 and all("IPC" in problem for problem in problems)


def test_controller_device_disagreement_is_reported(tiny_result):
    job, result = tiny_result
    stats = dict(result.controller_stats, served_writes=-1)
    problems = result_problems(replace(result, controller_stats=stats), job)
    writes = result.device_stats["writes"]
    expected = f"controller served_writes -1 != device writes {writes}"
    assert problems == [f"{job.describe()}: {expected}"]


def test_digest_ignores_order_but_not_content(tiny_result):
    _, result = tiny_result
    other = replace(result, cycles=1)
    forward = results_digest([("a", result), ("b", other)])
    assert forward == results_digest([("b", other), ("a", result)])
    assert results_digest([("a", result)]) != results_digest([("a", other)])


def test_artifacts_may_differ_only_in_the_engine_summary(tmp_path):
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    for directory, simulated in ((cold, 9), (warm, 0)):
        directory.mkdir()
        summary = f"Regenerated from the result store: {simulated} simulated"
        index = f"# Paper artifacts\n\n{summary}\n\n| artifact |\n"
        (directory / "index.md").write_text(index)
        (directory / "table2.json").write_text("{}\n")
    assert artifact_differences(cold, warm) == []
    (warm / "table2.json").write_text("{ }\n")
    (warm / "extra.svg").write_text("")
    assert artifact_differences(cold, warm) == [
        "extra.svg: only in one regeneration",
        "table2.json: warm bytes differ from cold",
    ]


def test_plan_records_the_whole_batch_without_simulating(tmp_path):
    jobs = plan_jobs(regenerate_table2, 300, 50, 0, tmp_path)
    eight_core = [job for job in jobs if job.workload.num_cores == 8]
    alone = [job for job in jobs if job.workload.num_cores == 1]
    names = {b.name for job in eight_core for b in job.workload.benchmarks}
    assert len(eight_core) == 5
    assert len(alone) == len(names)
    assert not any(tmp_path.iterdir())


# -- tracing -------------------------------------------------------------------


def test_tracing_records_spans_and_leaves_results_alone(tmp_path):
    job = tiny_job("darp")
    original = (Simulator.__init__, Simulator.run)
    tracer = LayerTracer(tmp_path)
    with tracer:
        traced = execute_job(job)
    assert (Simulator.__init__, Simulator.run) == original
    assert traced.to_dict() == execute_job(job).to_dict()
    seconds, counts = tracer.totals()
    assert counts["sim.builds"] == 1
    assert counts["sim.cycles"] == 350
    assert counts["cache.warm_accesses"] > 0
    assert counts["controller.tick_s"] > 0
    for span in ("sim.build_s", "sim.run_s", "cpu.tick_s", "core.refresh_s"):
        assert seconds[span] > 0.0


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
