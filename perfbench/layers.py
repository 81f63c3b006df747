"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer with
timing shims for the duration of a traced pass and restores them after.
Nothing inside ``src/`` knows it is being traced.

Worker processes are forked by the parallel executor after the shims are
installed, so they inherit them.  A worker's first simulation clears the
totals it inherited from the parent, and every finished run rewrites the
worker's own ``<dump_dir>/<pid>-<token>.json`` (the token keeps a reused
pid from overwriting an earlier worker's dump); :meth:`totals` adds the
dumps to the parent's own totals.

Spans nest: ``sim.run_s`` contains ``cpu.tick_s``, ``controller.tick_s``
and ``controller.skip_s``; ``cpu.tick_s`` contains ``cache.run_s``;
``controller.tick_s`` contains ``core.refresh_s``; ``sim.build_s``
contains ``cache.warm_s``.  A span is recorded only at its outermost
call, so an override calling its base class is not counted twice.
"""

from __future__ import annotations

import json
import os
import uuid
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro.cache.llc import LastLevelCache
from repro.controller.memory_controller import MemorySystem
from repro.core.base import RefreshPolicy
from repro.cpu.core_model import Core
from repro.engine.executor import JobExecutor
from repro.engine.store import ResultStore
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import Simulator


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class LayerTracer:
    """Accumulates host seconds and call counts per layer span."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.token = ""
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._building = False
        self._patches: list[tuple[type, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self._patch(Simulator, "__init__", self._wrap_build)
        self._patch(Simulator, "run", self._wrap_run)
        self._patch(LastLevelCache, "access", self._wrap_cache)
        self._patch(Core, "tick", self._span("cpu.tick_s"))
        self._patch(MemorySystem, "tick_event", self._span("controller.tick_s", True))
        self._patch(MemorySystem, "next_skip_event", self._span("controller.skip_s"))
        self._patch(MemorySystem, "skip_idle_cycles", self._wrap_skip)
        for policy in _subclasses(RefreshPolicy):
            for name in ("pre_demand", "post_demand"):
                if name in vars(policy):
                    self._patch(policy, name, self._span("core.refresh_s"))
        for store in _subclasses(ResultStore):
            for name in ("get", "put"):
                if name in vars(store):
                    self._patch(store, name, self._span(f"engine.store_{name}_s"))
        for name in ("simulate_many", "run_many"):
            self._patch(ExperimentRunner, name, self._span("runner_s"))
        self._patch(JobExecutor, "run", self._span("executor_s"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner: type, name: str, make) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    # -- shims ---------------------------------------------------------------

    def _span(self, name: str, count: bool = False):
        seconds, counts, depth = self.seconds, self.counts, self._depth

        def make(original):
            def shim(*args, **kwargs):
                if count:
                    counts[name] += 1
                if depth[name]:
                    return original(*args, **kwargs)
                depth[name] += 1
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - start
                    depth[name] -= 1

            return shim

        return make

    def _wrap_build(self, original):
        tracer = self

        def shim(simulator, *args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._reset()
            tracer._building = True
            start = perf_counter()
            try:
                return original(simulator, *args, **kwargs)
            finally:
                tracer.seconds["sim.build_s"] += perf_counter() - start
                tracer.counts["sim.builds"] += 1
                tracer._building = False

        return shim

    def _wrap_run(self, original):
        tracer = self

        def shim(simulator, cycles, warmup=0):
            start = perf_counter()
            result = original(simulator, cycles, warmup)
            tracer.seconds["sim.run_s"] += perf_counter() - start
            tracer.counts["sim.cycles"] += cycles + warmup
            tracer.counts["sim.core_cycles"] += (cycles + warmup) * len(simulator.cores)
            if os.getpid() != tracer.owner_pid:
                tracer._dump()
            return result

        return shim

    def _wrap_cache(self, original):
        tracer = self
        seconds, counts = self.seconds, self.counts

        def shim(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                if tracer._building:
                    seconds["cache.warm_s"] += perf_counter() - start
                    counts["cache.warm_accesses"] += 1
                else:
                    seconds["cache.run_s"] += perf_counter() - start

        return shim

    def _wrap_skip(self, original):
        seconds, counts = self.seconds, self.counts

        def shim(memory, count):
            start = perf_counter()
            try:
                return original(memory, count)
            finally:
                seconds["controller.skip_s"] += perf_counter() - start
                counts["sim.skipped_cycles"] += count

        return shim

    # -- totals --------------------------------------------------------------

    def _reset(self) -> None:
        """Forget totals inherited across a fork; this process starts at 0."""
        self.pid = os.getpid()
        self.token = f"{self.pid}-{uuid.uuid4().hex}"
        self.seconds.clear()
        self.counts.clear()
        self._depth.clear()

    def _dump(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"{self.token}.json"
        partial = path.with_suffix(".tmp")
        partial.write_text(
            json.dumps({"seconds": self.seconds, "counts": self.counts}),
            encoding="utf-8",
        )
        partial.replace(path)

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """This process's totals plus every worker's last dump."""
        seconds = defaultdict(float, self.seconds)
        counts = defaultdict(int, self.counts)
        for path in sorted(self.dump_dir.glob("*.json")):
            dump = json.loads(path.read_text(encoding="utf-8"))
            for name, value in dump["seconds"].items():
                seconds[name] += value
            for name, value in dump["counts"].items():
                counts[name] += value
        return seconds, counts
