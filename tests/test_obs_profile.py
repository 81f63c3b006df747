"""Span profiler: aggregation, the module-global protocol, CLI surface."""

from __future__ import annotations

import io

import pytest

import repro.obs.profile as obs_profile
from repro import artifacts
from repro.cli import main
from repro.obs.profile import SpanProfiler


@pytest.fixture(autouse=True)
def profiler_off():
    """Every test starts and ends with profiling disabled."""
    obs_profile.disable()
    yield
    obs_profile.disable()


class TestSpanProfiler:
    def test_aggregates_count_total_max(self):
        profiler = SpanProfiler()
        profiler.add("kernel.step", 0.5)
        profiler.add("kernel.step", 1.5)
        profiler.add("other", 0.1)
        rows = profiler.hotspots()
        assert rows[0] == ("kernel.step", 2, 2.0, 1.5)
        assert rows[1] == ("other", 1, 0.1, 0.1)

    def test_hotspots_sorted_by_total_descending(self):
        profiler = SpanProfiler()
        profiler.add("small", 0.1)
        profiler.add("large", 5.0)
        profiler.add("medium", 1.0)
        assert [name for name, *_ in profiler.hotspots()] == [
            "large",
            "medium",
            "small",
        ]

    def test_format_table_and_top(self):
        profiler = SpanProfiler()
        for index in range(5):
            profiler.add(f"span{index}", float(index + 1))
        table = profiler.format_table(top=2)
        assert "span4" in table
        assert "span3" in table
        assert "span0" not in table
        assert "total (s)" in table

    def test_format_table_empty(self):
        assert SpanProfiler().format_table() == "no spans recorded\n"

    def test_reset(self):
        profiler = SpanProfiler()
        profiler.add("x", 1.0)
        profiler.reset()
        assert profiler.spans == {}


class TestGlobalProtocol:
    def test_enable_disable_cycle(self):
        assert obs_profile.active() is None
        profiler = obs_profile.enable()
        assert obs_profile.active() is profiler
        assert obs_profile.enable() is profiler  # idempotent
        returned = obs_profile.disable()
        assert returned is profiler
        assert obs_profile.active() is None

    def test_span_records_when_enabled(self):
        profiler = obs_profile.enable()
        with obs_profile.span("unit"):
            pass
        assert profiler.spans["unit"][0] == 1

    def test_span_noop_when_disabled(self):
        with obs_profile.span("ignored"):
            pass
        assert obs_profile.active() is None

    def test_simulation_records_kernel_spans(self):
        from repro.sim.simulator import Simulator

        from tests.conftest import small_system, small_workload

        profiler = obs_profile.enable()
        Simulator(small_system("refab"), small_workload()).run(500, warmup=100)
        spans = profiler.spans
        assert "sim.warmup" in spans
        assert "sim.measure" in spans
        assert "kernel.step_event" in spans
        assert "controller.horizon_scan" in spans


def _register_stub(monkeypatch, name, experiment):
    """Make ``experiment`` runnable as ``repro profile <name>``."""
    stub = artifacts.Artifact(name, name, name, experiment, lambda payload: [])
    monkeypatch.setattr(artifacts, "ARTIFACTS", artifacts.ARTIFACTS + (stub,))


def test_profile_cli_prints_hotspot_table(monkeypatch):
    # A real experiment costs ~10s of simulator construction; a registry
    # stub keeps the CLI path end-to-end (parser -> runner -> engine ->
    # profiler table) while simulating one small cell.
    from tests.conftest import small_system, small_workload

    def tiny(runner, scale):
        return runner.simulate(small_system("refab"), small_workload())

    _register_stub(monkeypatch, "tiny", tiny)
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(
        ["profile", "tiny", "--cycles", "400", "--warmup", "80", "--top", "3"],
        stdout=stdout,
        stderr=stderr,
    )
    assert code == 0
    table = stdout.getvalue()
    assert "engine.job" in table
    assert "total (s)" in table
    # --top bounds the table to header + rule + N rows.
    assert len(table.strip().splitlines()) == 2 + 3
    # The CLI tears the global profiler down when it is done.
    assert obs_profile.active() is None


def test_profile_cli_attributes_llc_warmup(monkeypatch):
    from repro.config.presets import paper_system
    from repro.workloads.mixes import make_workload_category

    def eight_core(runner, scale):
        return runner.simulate(paper_system(), make_workload_category(50, 0))

    _register_stub(monkeypatch, "eight_core", eight_core)
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(
        ["profile", "eight_core", "--cycles", "200", "--warmup", "50"],
        stdout=stdout,
        stderr=stderr,
    )
    assert code == 0
    rows = {line.split()[0]: line.split() for line in stdout.getvalue().splitlines()}
    # One functional-warmup span per simulator, beside the DRAM warmup window.
    assert rows["sim.llc_warmup"][1] == "1"
    assert "sim.warmup" in rows
