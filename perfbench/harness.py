"""Cold and warm regeneration passes, their checks, and the two run modes.

An untraced run (``--trace 0``) repeats [cold pass, warm passes] until
the time budget is spent and reports the end-to-end metrics: medians of
the long cold passes and jobs, the fastest of the short set-ups and warm
passes.
A traced run (``--trace 1``) makes one untraced iteration and one traced
iteration of the same plan and reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from checks import (
    artifact_differences,
    describe_timing,
    dispatch_seconds,
    modelled_counts,
    plan_jobs,
    result_problems,
    results_digest,
    warm_key_repeat_share,
)
from layers import LayerTracer
from workloads import (
    PAPER_DSARP_OVER_REFPB_32GB,
    WORKLOADS,
    WorkloadSpec,
    golden_mismatches,
)

from repro.engine.executor import ParallelExecutor, SerialExecutor
from repro.engine.progress import SOURCE_SIMULATED
from repro.engine.store import open_store
from repro.sim.runner import ExperimentRunner

#: Fresh-process set-ups at each end of an untraced run; ``setup_s`` is
#: the fastest of them.
SETUP_PROBES = 3
#: Warm passes per cold pass: at least this many, and until they have
#: taken ``WARM_MIN_S``; after the last cold pass they also fill the rest
#: of the run's time.  ``warm_s`` is the fastest of them.  Short passes
#: report their fastest sample because a shared host's CPU alternates
#: between two speeds about 2x apart, for seconds to minutes at a time,
#: and the median of millisecond samples flips between the two.
WARM_REPEATS = 5
WARM_MIN_S = 6.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sim.build_s": "s",
    "sim.run_s": "s",
    "sim.host_ns_per_core_cycle": "ns",
    "sim.kernel_steps": "count",
    "sim.skip_share": "ratio",
    "sim.plan_s": "s",
    "cache.warm_s": "s",
    "cache.warm_accesses": "count",
    "cache.run_s": "s",
    "cpu.tick_s": "s",
    "controller.tick_s": "s",
    "controller.skip_s": "s",
    "core.refresh_s": "s",
    "engine.dispatch_s": "s",
    "engine.store_put_s": "s",
    "engine.store_get_s": "s",
    "engine.jobs": "count",
    "engine.simulated": "count",
    "engine.store_hits": "count",
    "engine.memory_hits": "count",
    "engine.shards": "count",
    "engine.steals": "count",
    "engine.retries": "count",
    "engine.timeouts": "count",
    "engine.worker_failures": "count",
    "report.render_s": "s",
    "workloads.warm_key_repeat_share": "ratio",
    "obs.trace_overhead_share": "ratio",
    "cpu.ipc_mean": "instr/cycle",
    "cpu.stall_share": "ratio",
    "cache.mpki_mean": "1/kinstr",
    "controller.avg_read_latency_cycles": "cycles",
    "controller.row_hit_share": "ratio",
    "controller.rejected_enqueues": "count",
    "core.per_bank_refreshes": "count",
    "core.all_bank_refreshes": "count",
    "core.postponed": "count",
    "core.pulled_in": "count",
    "core.forced": "count",
    "core.write_mode_refreshes": "count",
    "dram.activates": "count",
    "dram.subarray_conflicts": "count",
    "power.energy_per_access_nj": "nJ",
    "metrics.ws_gain_dsarp_vs_refpb_pct": "%",
    "metrics.paper_gap_pp": "pp",
}

ENGINE_COUNTERS = (
    "jobs",
    "simulated",
    "store_hits",
    "memory_hits",
    "shards",
    "steals",
    "retries",
    "timeouts",
    "worker_failures",
)


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


def source_digest(src: Path) -> str:
    """Identity of the program sources, so digests compare like with like."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Pass:
    """One regeneration of a workload's artifacts."""

    wall_s: float
    summary: dict
    events: list
    ws_gain: Optional[float]

    @property
    def simulated_events(self) -> list:
        return [event for event in self.events if event.source == SOURCE_SIMULATED]


def regenerate(spec: WorkloadSpec, seed: int, store_path: Path, out_dir: Path) -> Pass:
    """Open the store, resolve every job through a fresh runner, write artifacts."""
    if spec.parallel:
        executor = ParallelExecutor(workers=worker_count())
    else:
        executor = SerialExecutor()
    events: list = []
    start = perf_counter()
    runner = ExperimentRunner(
        cycles=spec.cycles,
        warmup=spec.warmup,
        seed=seed,
        executor=executor,
        store=open_store(store_path),
        progress=events.append,
    )
    ws_gain = spec.regenerate(runner, out_dir)
    return Pass(perf_counter() - start, runner.summary(), events, ws_gain)


@dataclass
class Ledger:
    """Jobs attempted and failed, and every problem found, over a run."""

    attempted: int = 0
    failed_keys: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    def fail(self, problem: str, key: Optional[str] = None) -> None:
        self.problems.append(problem)
        if key is not None:
            self.failed_keys.add(key)


class Iteration:
    """A fresh store, one cold pass and its warm passes, all checked.

    With a ``tracer`` the passes run traced; the checks after them never do.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int,
        plan: list,
        scratch: Path,
        ledger: Ledger,
        tag: str,
        tracer: Optional[LayerTracer] = None,
    ):
        self.spec, self.seed, self.plan = spec, seed, plan
        self.scratch, self.ledger, self.tag = scratch, ledger, tag
        self.tracing = tracer if tracer is not None else contextlib.nullcontext()
        self.store_path = scratch / "store.jsonl"
        self.cold_dir = scratch / "cold"
        self.cold: Optional[Pass] = None
        #: Wall clock of every warm pass, and the last warm pass itself
        #: (keeping every pass's events would inflate peak RSS).
        self.warm: list[float] = []
        self.last_warm: Optional[Pass] = None

    def run_cold(self) -> tuple[str, dict]:
        """Run the cold pass; check it; return its result digest and counts."""
        with self.tracing:
            self.cold = regenerate(self.spec, self.seed, self.store_path, self.cold_dir)
        tag, ledger, plan = self.tag, self.ledger, self.plan
        ledger.attempted += len(plan)
        simulated = self.cold.summary["simulated"]
        if simulated != len(plan):
            ledger.fail(f"{tag}: simulated {simulated} jobs, planned {len(plan)}")
        for event in self.cold.simulated_events:
            if event.attempts > 1:
                problem = f"{tag}: {event.label} needed {event.attempts} attempts"
                ledger.fail(problem, f"{tag}:{event.key}")
        store = open_store(self.store_path)
        pairs = []
        for job in plan:
            key = job.key()
            result = store.get(key)
            if result is None:
                problem = f"{tag}: {job.describe()} has no stored result"
                ledger.fail(problem, f"{tag}:{key}")
                continue
            for problem in result_problems(result, job):
                ledger.fail(f"{tag}: {problem}", f"{tag}:{key}")
            pairs.append((key, result))
        if self.spec.golden and self.seed == 0:
            for problem in golden_mismatches(self.cold_dir):
                ledger.fail(f"{tag}: {problem}")
        counts = modelled_counts([result for _, result in pairs])
        return results_digest(pairs), counts

    def run_warm(self) -> Pass:
        """Run one warm pass and check it against the cold pass."""
        warm_dir = self.scratch / "warm"
        shutil.rmtree(warm_dir, ignore_errors=True)
        with self.tracing:
            warm = regenerate(self.spec, self.seed, self.store_path, warm_dir)
        simulated = warm.summary["simulated"]
        if simulated != 0:
            self.ledger.fail(f"{self.tag}: warm pass simulated {simulated} jobs")
        for problem in artifact_differences(self.cold_dir, warm_dir):
            self.ledger.fail(f"{self.tag}: {problem}")
        self.warm.append(warm.wall_s)
        self.last_warm = warm
        return warm


def check_repeat(
    digests: Path,
    name: str,
    seed: int,
    src_id: str,
    results: tuple[str, dict],
    ledger: Ledger,
) -> None:
    """Results of one (workload, seed, sources) must match every earlier run."""
    record = digests / f"{name}-{seed}-{src_id}.json"
    digest, counts = results
    current = json.loads(json.dumps({"digest": digest, "counts": counts}))
    if not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(current, sort_keys=True), encoding="utf-8")
    elif json.loads(record.read_text(encoding="utf-8")) != current:
        ledger.fail(f"results differ from an earlier run of this seed ({record})")


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(name: str, seed: int, work: Path, started: float) -> dict:
    """One set-up, timed from interpreter start-up: plan and store creation."""
    spec = WORKLOADS[name]
    scratch = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    try:
        plan = plan_jobs(spec.regenerate, spec.cycles, spec.warmup, seed, scratch)
        open_store(scratch / "store.jsonl")
        return {
            "setup_s": perf_counter() - started,
            "jobs": len(plan),
            "warm_key_repeat_share": warm_key_repeat_share(plan),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def probe_setups(run_py: Path, name: str, seed: int) -> list[float]:
    """Time ``SETUP_PROBES`` set-ups in a row, each in a fresh interpreter."""
    command = [sys.executable, str(run_py), "--setup-probe"]
    command += ["--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(completed.stdout.splitlines()[-1])["setup_s"])
    return samples


def paper_error_line(ws_gain: Optional[float]) -> str:
    """The simulated speed-up beside the paper's, with the model's caveat."""
    caveat = "The model has no hardware reference and is otherwise unvalidated."
    if ws_gain is None:
        return f"  no simulated speed-up in this workload (DSARP only). {caveat}"
    paper = PAPER_DSARP_OVER_REFPB_32GB
    gain = f"simulated {ws_gain:+.2f}% vs paper Table 2 {paper:+.1f}%"
    error = f"error {ws_gain - paper:+.2f} pp"
    return f"  DSARP over REFpb at 32 Gb (gmean WS): {gain} -> {error}. {caveat}"


def run_untraced(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    work: Path,
    digests: Path,
    src_id: str,
    run_py: Path,
) -> tuple[dict, Ledger]:
    """Repeat [cold pass, warm passes] within ``seconds``; report the metrics."""
    ledger = Ledger()
    setups = probe_setups(run_py, spec.name, seed)
    plan = plan_jobs(spec.regenerate, spec.cycles, spec.warmup, seed, work / "plan")
    iterations: list[Iteration] = []
    first = None
    started = perf_counter()
    while True:
        begun = perf_counter()
        scratch = Path(tempfile.mkdtemp(prefix="iter-", dir=work))
        tag = f"iteration {len(iterations)}"
        try:
            it = Iteration(spec, seed, plan, scratch, ledger, tag)
            results = it.run_cold()
            warm_s = 0.0
            while len(it.warm) < WARM_REPEATS or warm_s < WARM_MIN_S:
                warm_s += it.run_warm().wall_s
            now = perf_counter()
            last = now - started + (now - begun) > seconds
            # No further cold pass fits: spend the rest on warm passes.
            while last and perf_counter() - started < seconds:
                it.run_warm()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if first is None:
            first = results
            check_repeat(digests, spec.name, seed, src_id, results, ledger)
        elif results != first:
            ledger.fail(f"{tag}: results differ from iteration 0")
        iterations.append(it)
        # Free the finished iteration's simulators now, so that peak RSS
        # does not depend on how many iterations fit in the budget.
        gc.collect()
        if last:
            break
    setups += probe_setups(run_py, spec.name, seed)

    colds = [it.cold.wall_s for it in iterations]
    warms = [wall for it in iterations for wall in it.warm]
    jobs = [e.elapsed_s for it in iterations for e in it.cold.simulated_events]
    metrics = {
        "setup_s": min(setups),
        "cold_s": statistics.median(colds),
        "warm_s": min(warms),
        "job_p50_s": statistics.median(jobs),
        "peak_rss_mb": peak_rss_mb(),
    }
    passes = f"{len(colds)} cold passes of {len(plan)} jobs, {len(warms)} warm"
    print(f"{spec.name} seed {seed}: {passes}, {worker_count()} CPUs")
    for name, values, what in (
        ("setup_s", setups, "fresh-process set-ups"),
        ("warm_s", warms, "warm passes, 0 simulated in each"),
    ):
        median = statistics.median(values)
        fastest = f"fastest of {len(values)} {what}; median {median:.4f} s"
        print(f"  {name:12s} {metrics[name]:.4f} s ({fastest})")
    print(f"  cold_s       {metrics['cold_s']:.4f} s (median of {len(colds)})")
    print(f"  job_s        {describe_timing(jobs)}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  failed_share {ledger.failed}/{ledger.attempted}")
    print(f"  result digest {first[0]}")
    print(paper_error_line(iterations[0].cold.ws_gain))
    return metrics, ledger


def run_traced(
    spec: WorkloadSpec,
    seed: int,
    work: Path,
    digests: Path,
    src_id: str,
) -> tuple[dict, Ledger]:
    """One untraced and one traced iteration; report the per-layer metrics."""
    ledger = Ledger()
    planned = perf_counter()
    plan = plan_jobs(spec.regenerate, spec.cycles, spec.warmup, seed, work / "plan")
    plan_s = perf_counter() - planned
    untraced_dir = Path(tempfile.mkdtemp(prefix="iter-", dir=work))
    traced_dir = Path(tempfile.mkdtemp(prefix="iter-", dir=work))
    try:
        untraced = Iteration(spec, seed, plan, untraced_dir, ledger, "untraced")
        results = untraced.run_cold()
        untraced.run_warm()
        check_repeat(digests, spec.name, seed, src_id, results, ledger)
        tracer = LayerTracer(traced_dir / "spans")
        traced = Iteration(spec, seed, plan, traced_dir, ledger, "traced", tracer)
        if traced.run_cold() != results:
            ledger.fail("traced results differ from untraced results")
        traced.run_warm()
        seconds, calls = tracer.totals()
    finally:
        shutil.rmtree(untraced_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
    if calls["sim.builds"] != len(plan):
        covered = f"spans cover {calls['sim.builds']} of {len(plan)} simulations"
        ledger.fail(f"{covered}; worker processes must be forked to inherit shims")

    cold, warm = untraced.cold, untraced.last_warm
    traced_cold = traced.cold.wall_s
    workers = worker_count() if spec.parallel else 1
    elapsed = [event.elapsed_s for event in cold.simulated_events]
    ws_gain = cold.ws_gain
    metrics = {
        "sim.build_s": seconds["sim.build_s"],
        "sim.run_s": seconds["sim.run_s"],
        "sim.host_ns_per_core_cycle": (
            seconds["sim.run_s"] * 1e9 / max(1, calls["sim.core_cycles"])
        ),
        "sim.kernel_steps": calls["controller.tick_s"],
        "sim.skip_share": calls["sim.skipped_cycles"] / max(1, calls["sim.cycles"]),
        "sim.plan_s": seconds["runner_s"] - seconds["executor_s"],
        "cache.warm_s": seconds["cache.warm_s"],
        "cache.warm_accesses": calls["cache.warm_accesses"],
        "cache.run_s": seconds["cache.run_s"],
        "cpu.tick_s": seconds["cpu.tick_s"],
        "controller.tick_s": seconds["controller.tick_s"],
        "controller.skip_s": seconds["controller.skip_s"],
        "core.refresh_s": seconds["core.refresh_s"],
        "engine.dispatch_s": dispatch_seconds(cold.wall_s, elapsed, workers),
        "engine.store_put_s": seconds["engine.store_put_s"],
        "engine.store_get_s": seconds["engine.store_get_s"],
    }
    for name in ENGINE_COUNTERS:
        metrics[f"engine.{name}"] = cold.summary[name] + warm.summary[name]
    traced_passes = traced_cold + traced.last_warm.wall_s
    metrics["report.render_s"] = traced_passes - seconds["runner_s"]
    metrics["workloads.warm_key_repeat_share"] = warm_key_repeat_share(plan)
    metrics["obs.trace_overhead_share"] = traced_cold / cold.wall_s - 1.0
    metrics.update(results[1])
    gap = None if ws_gain is None else ws_gain - PAPER_DSARP_OVER_REFPB_32GB
    metrics["metrics.ws_gain_dsarp_vs_refpb_pct"] = ws_gain or 0.0
    metrics["metrics.paper_gap_pp"] = gap or 0.0

    timings = f"untraced cold {cold.wall_s:.3f} s, traced cold {traced_cold:.3f} s"
    print(f"{spec.name} seed {seed} traced: {len(plan)} jobs, {timings}")
    print(f"  plan recorded in {plan_s:.4f} s")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    if ws_gain is None:
        print("  (metrics.* read 0: this workload runs no DSARP/REFpb pair)")
    print(f"  failed_share {ledger.failed}/{ledger.attempted}")
    print(f"  result digest {results[0]}")
    print(paper_error_line(ws_gain))
    return metrics, ledger
