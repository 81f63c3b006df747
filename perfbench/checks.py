"""Planning, correctness checks and the arithmetic behind the metrics.

Everything here is a pure function of job specs, results and files, so
``test_perfbench.py`` covers it on a tiny window.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path
from typing import Callable, Optional

from repro.dram.address import AddressMapper
from repro.engine.executor import JobExecutor
from repro.sim.runner import ExperimentRunner

#: Percentiles considered for a timing's tail, in tenths, highest first
#: (integers, so that the sample-count test is exact).
TAIL_PERMILLES = (999, 990, 950, 900, 750)

#: The ``index.md`` line the paper report fills with engine counters: the
#: one line a warm regeneration may legitimately change.
ENGINE_SUMMARY_PREFIX = "Regenerated from the result store:"

#: Offset of the functional-warmup trace seed from the timed trace's seed.
WARMUP_TRACE_SEED_OFFSET = 7919


class _PlanComplete(Exception):
    """Raised by :class:`_PlanRecorder` once the batch is recorded."""


class _PlanRecorder(JobExecutor):
    """An executor that records the first batch it is given and stops."""

    def __init__(self) -> None:
        super().__init__()
        self.jobs: list = []

    def _execute_pending(self, pending, total, progress, store):
        self.jobs = [job for _, job in pending]
        raise _PlanComplete


def plan_jobs(
    regenerate: Callable, cycles: int, warmup: int, seed: int, out_dir: Path
) -> list:
    """The distinct jobs a regeneration submits, without simulating any.

    Every workload issues its whole plan as the first engine batch, so
    recording that batch is the plan; the cold pass later checks that it
    simulated exactly these jobs.
    """
    recorder = _PlanRecorder()
    runner = ExperimentRunner(
        cycles=cycles,
        warmup=warmup,
        seed=seed,
        executor=recorder,
    )
    try:
        regenerate(runner, out_dir)
    except _PlanComplete:
        return recorder.jobs
    raise RuntimeError("regeneration finished without submitting a batch")


def warm_keys(job) -> list[tuple]:
    """The functional-warmup key of each core of a job.

    A core's warmed LLC is a pure function of (benchmark, warmup trace
    seed, address offset, cache config); the offset depends only on the
    DRAM capacity and the core count.
    """
    workload = job.workload
    capacity = AddressMapper(job.config.dram.organization).capacity_bytes
    region = capacity // max(1, workload.num_cores)
    trace_seed = workload.seed + job.seed + WARMUP_TRACE_SEED_OFFSET
    return [
        (benchmark.name, trace_seed, core_id * region, job.config.cache)
        for core_id, benchmark in enumerate(workload.benchmarks)
    ]


def warm_key_repeat_share(jobs: list) -> float:
    """Share of per-core warmups whose key already occurred in the batch."""
    seen: set = set()
    repeats = total = 0
    for job in jobs:
        for key in warm_keys(job):
            total += 1
            if key in seen:
                repeats += 1
            seen.add(key)
    return repeats / total if total else 0.0


def tail_percentile(count: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it, if any."""
    for permille in TAIL_PERMILLES:
        if count * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return None


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def describe_timing(values: list[float]) -> str:
    """Median, the tail percentile the sample count supports, and the count."""
    text = f"p50 {statistics.median(values):.4f} s"
    tail = tail_percentile(len(values))
    if tail is None:
        return f"{text} (n={len(values)}; too few samples for a tail percentile)"
    return f"{text}, p{tail:g} {percentile(values, tail):.4f} s (n={len(values)})"


def dispatch_seconds(
    cold_wall_s: float,
    job_elapsed: list[float],
    workers: int,
) -> float:
    """Cold wall clock not explained by simulation spread over the workers."""
    return cold_wall_s - sum(job_elapsed) / workers


def result_problems(result, job) -> list[str]:
    """Invariants every simulated result must satisfy."""
    label = job.describe()
    problems = []
    if result.cycles != job.cycles or result.warmup_cycles != job.warmup:
        window = f"window {result.cycles}+{result.warmup_cycles}"
        problems.append(f"{label}: {window} != requested {job.cycles}+{job.warmup}")
    width = job.config.cpu.issue_width
    for core in result.cores:
        if not 0.0 < core.ipc <= width:
            ipc = f"core {core.core_id} IPC {core.ipc}"
            problems.append(f"{label}: {ipc} not in (0, {width}]")
    controller, device = result.controller_stats, result.device_stats
    for served, issued in (("served_reads", "reads"), ("served_writes", "writes")):
        if controller[served] != device[issued]:
            ours = f"controller {served} {controller[served]}"
            problems.append(f"{label}: {ours} != device {issued} {device[issued]}")
    return problems


def results_digest(pairs: list) -> str:
    """SHA-256 over every (job key, result dict) pair, in key order."""
    digest = hashlib.sha256()
    for key, result in sorted(pairs, key=lambda pair: pair[0]):
        digest.update(key.encode())
        digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def modelled_counts(results: list) -> dict[str, float]:
    """Deterministic per-layer counts aggregated over a workload's results."""
    cores = [core for result in results for core in result.cores]
    core_cycles = sum(result.cycles * len(result.cores) for result in results)

    def total(section: str, name: str) -> int:
        return sum(getattr(result, section)[name] for result in results)

    device = {name: total("device_stats", name) for name in results[0].device_stats}
    refresh = {name: total("refresh_stats", name) for name in results[0].refresh_stats}
    read_latency = total("controller_stats", "total_read_latency")
    served_reads = total("controller_stats", "served_reads")
    rejected = total("controller_stats", "rejected_enqueues")
    accesses = device["reads"] + device["writes"]
    energy = total("energy", "total_nj") / total("energy", "accesses")
    return {
        "cpu.ipc_mean": sum(core.ipc for core in cores) / len(cores),
        "cpu.stall_share": sum(core.stall_cycles for core in cores) / core_cycles,
        "cache.mpki_mean": sum(core.mpki for core in cores) / len(cores),
        "controller.avg_read_latency_cycles": read_latency / served_reads,
        "controller.row_hit_share": 1.0 - device["activates"] / accesses,
        "controller.rejected_enqueues": rejected,
        "core.per_bank_refreshes": device["per_bank_refreshes"],
        "core.all_bank_refreshes": device["all_bank_refreshes"],
        "core.postponed": refresh["postponed"],
        "core.pulled_in": refresh["pulled_in"],
        "core.forced": refresh["forced"],
        "core.write_mode_refreshes": refresh["write_mode_refreshes"],
        "dram.activates": device["activates"],
        "dram.subarray_conflicts": device["subarray_conflicts"],
        "power.energy_per_access_nj": energy,
    }


def artifact_differences(cold_dir: Path, warm_dir: Path) -> list[str]:
    """Files that differ between two regenerations of the same artifacts.

    The engine-summary line of the paper report's ``index.md`` is the one
    allowed difference: it counts simulations, which a warm pass skips.
    """

    def comparable(path: Path) -> bytes:
        data = path.read_bytes()
        if path.name != "index.md":
            return data
        lines = data.decode("utf-8").splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(ENGINE_SUMMARY_PREFIX)]
        return "".join(kept).encode("utf-8")

    cold = {path.name for path in cold_dir.iterdir()}
    warm = {path.name for path in warm_dir.iterdir()}
    problems = [f"{name}: only in one regeneration" for name in sorted(cold ^ warm)]
    for name in sorted(cold & warm):
        if comparable(cold_dir / name) != comparable(warm_dir / name):
            problems.append(f"{name}: warm bytes differ from cold")
    return problems
