"""Every runnable paper result, declared once.

Each :class:`Artifact` names one of the paper's Tables 2-6 / Figures 5-16
(or one of the two Section 6.1.2 ablations) and carries everything the
three consumers need:

* ``repro run`` / ``repro profile`` / ``repro list`` call ``experiment``
  (a :mod:`repro.sim.experiments` function, whose docstring is the
  description) and print its payload as canonical JSON;
* ``repro report paper`` (:mod:`repro.report.paper`) renders the charted
  entries as JSON, markdown, LaTeX (from ``tabulate``) and SVG (from
  ``chart``);
* ``repro bench`` (:mod:`repro.bench.suite`) registers one spec per entry
  under its ``bench`` name: the text artifact is the tables'
  ``to_text()``, ``metrics`` are the gated fidelity numbers and
  ``checks`` the paper-trend assertions.

To add or change an artifact, edit its entry here; nothing else lists it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis import figures as fig
from repro.analysis import tables as tab
from repro.analysis.model import Chart, Table
from repro.metrics.speedup import geometric_mean
from repro.sim import experiments


@dataclass(frozen=True)
class Artifact:
    """One regenerable paper result.

    ``experiment`` takes ``runner=`` and ``scale=`` keywords, or nothing
    at all when the result needs no simulation (Figure 5).  ``checks``
    raises ``AssertionError`` when a payload violates the paper's trends;
    for simulated artifacts the trends only hold at the full window.
    """

    name: str
    bench: str
    title: str
    experiment: Callable
    tabulate: Callable[[object], list[Table]]
    chart: Optional[Callable[[object], Chart]] = None
    metrics: Optional[Callable[[object], dict]] = None
    checks: Optional[Callable[[object], None]] = None

    @property
    def simulates(self) -> bool:
        return "runner" in inspect.signature(self.experiment).parameters

    @property
    def description(self) -> str:
        """The experiment docstring's first line."""
        doc = inspect.getdoc(self.experiment)
        return doc.splitlines()[0].strip().rstrip(".") if doc else ""

    def payload(self, runner, scale) -> object:
        if not self.simulates:
            return self.experiment()
        return self.experiment(runner=runner, scale=scale)

    def text(self, payload: object) -> str:
        """The fixed-width text form: every table block, blank-line separated."""
        return "\n\n".join(table.to_text() for table in self.tabulate(payload))


def _density_series(result: dict, kind: str, title: str, y_label: str) -> Chart:
    """``{density: {mechanism: value}}`` -> one series per mechanism."""
    densities = sorted(result)
    mechanisms = list(next(iter(result.values())).keys())
    return Chart.build(
        title,
        [f"{d}Gb" for d in densities],
        {m: [result[d][m] for d in densities] for m in mechanisms},
        kind=kind,
        y_label=y_label,
    )


def _flat(result: dict, key: str) -> dict:
    """``{outer: {inner: value}}`` -> ``{key.format(inner=, outer=): value}``."""
    return {
        key.format(outer=outer, inner=inner): value
        for outer, entry in result.items()
        for inner, value in entry.items()
    }


# -- Figure 5: refresh-latency scaling trend (no simulation) -----------------


def _chart_figure5(points) -> Chart:
    return Chart.build(
        "Figure 5: refresh latency (tRFCab) trend",
        [p.density_gb for p in points],
        {
            "present": [p.present_ns for p in points],
            "projection 1": [p.projection1_ns for p in points],
            "projection 2": [p.projection2_ns for p in points],
        },
        kind="line",
        y_label="tRFCab (ns)",
    )


def _metrics_figure5(points) -> dict:
    by_density = {p.density_gb: p for p in points}
    return {
        f"projection2_ns_{density}gb": by_density[density].projection2_ns
        for density in (16, 32, 64)
    } | {"projection1_ns_64gb": by_density[64].projection1_ns}


def _checks_figure5(points) -> None:
    by_density = {p.density_gb: p for p in points}
    # The paper's Projection 2 values: 530 ns (16 Gb), 890 ns (32 Gb), 1.6 us (64 Gb).
    assert round(by_density[16].projection2_ns) == 530
    assert round(by_density[32].projection2_ns) == 890
    assert round(by_density[64].projection2_ns) == 1610
    # Projection 1 is the more pessimistic extrapolation.
    assert by_density[64].projection1_ns > by_density[64].projection2_ns


# -- Figure 6: performance degradation due to all-bank refresh ---------------


def _chart_figure6(result: dict) -> Chart:
    densities = sorted(next(iter(result.values())).keys())
    categories = sorted(k for k in result if k >= 0)
    return Chart.build(
        "Figure 6: performance loss due to REFab",
        [f"{c}%" for c in categories],
        {f"{d}Gb": [result[c][d] for c in categories] for d in densities},
        kind="bar",
        y_label="WS loss (%)",
    )


def _metrics_figure6(result) -> dict:
    # Category -1 is the all-category average the paper quotes.
    return {
        f"avg_loss_pct_{density}gb": loss for density, loss in result[-1].items()
    } | {
        f"intensive_loss_pct_{density}gb": loss
        for density, loss in result[100].items()
    }


def _checks_figure6(result) -> None:
    average = result[-1]
    # Refresh hurts, and hurts more at higher density (the paper's trend).
    assert average[32] > average[8] > 0
    # The most memory-intensive category suffers more than the least at 32 Gb.
    assert result[100][32] > result[0][32]


# -- Figure 7: REFab versus REFpb loss ---------------------------------------


def _chart_figure7(result: dict) -> Chart:
    return _density_series(
        result, "bar", "Figure 7: performance loss due to REFab and REFpb",
        "WS loss (%)"
    )


def _checks_figure7(result) -> None:
    for density, losses in result.items():
        # Per-bank refresh always loses less than all-bank refresh.
        assert losses["refpb"] < losses["refab"]
    # Both penalties grow with density.
    assert result[32]["refab"] > result[8]["refab"]
    assert result[32]["refpb"] >= result[8]["refpb"]


# -- Figure 12: per-workload sweep -------------------------------------------


def _chart_figure12(sweep: dict) -> Chart:
    # One bar group per workload at the largest density (the paper's
    # headline panel); the per-density tables carry the full data.
    density = max(sweep)
    per_workload = sweep[density]
    mechanisms = sorted(next(iter(per_workload.values())).keys())
    names = sorted(per_workload)
    return Chart.build(
        f"Figure 12 ({density}Gb): WS normalized to REFab",
        names,
        {m: [per_workload[w][m] for w in names] for m in mechanisms},
        kind="bar",
        y_label="normalized WS",
    )


def _metrics_figure12(sweep) -> dict:
    metrics = {}
    for density, per_workload in sweep.items():
        for mechanism in ("refpb", "dsarp"):
            values = [norms[mechanism] for norms in per_workload.values()]
            metrics[f"{mechanism}_gmean_norm_{density}gb"] = geometric_mean(values)
    return metrics


def _checks_figure12(sweep) -> None:
    for density, per_workload in sweep.items():
        dsarp = geometric_mean([norms["dsarp"] for norms in per_workload.values()])
        refpb = geometric_mean([norms["refpb"] for norms in per_workload.values()])
        # DSARP improves over REFab on average, and beats REFpb on average.
        assert dsarp > 1.0
        assert dsarp >= refpb
    # The benefit of DSARP over REFab grows with density (the headline trend).
    dsarp_by_density = {
        density: geometric_mean([n["dsarp"] for n in per_workload.values()])
        for density, per_workload in sweep.items()
    }
    assert dsarp_by_density[32] > dsarp_by_density[8]


# -- Figure 13: all mechanisms -----------------------------------------------


def _chart_figure13(result: dict) -> Chart:
    return _density_series(
        result, "bar", "Figure 13: average WS improvement over REFab (%)",
        "improvement (%)"
    )


def _checks_figure13(result) -> None:
    for density, improvements in result.items():
        # The ideal no-refresh system bounds everything (within noise).
        for mechanism, value in improvements.items():
            assert value <= improvements["none"] + 2.0, (density, mechanism)
        # DSARP improves over REFab and over plain per-bank refresh.
        assert improvements["dsarp"] > 0
        assert improvements["dsarp"] >= improvements["refpb"] - 0.5
        # Elastic refresh gives little benefit over REFab (paper: ~1.8 %).
        assert improvements["elastic"] < improvements["dsarp"]
    # Benefits grow with density.
    assert result[32]["dsarp"] > result[8]["dsarp"]
    assert result[32]["none"] > result[8]["none"]


# -- Figure 14: energy per access --------------------------------------------


def _chart_figure14(result: dict) -> Chart:
    return _density_series(
        result, "bar", "Figure 14: energy per access (nJ)", "nJ/access"
    )


def _metrics_figure14(result) -> dict:
    return {
        f"dsarp_saving_vs_refab_{density}gb": 1.0 - energy["dsarp"] / energy["refab"]
        for density, energy in result.items()
    }


def _checks_figure14(result) -> None:
    for density, energies in result.items():
        # Refresh costs energy: the ideal no-refresh system is cheapest.
        assert energies["none"] <= energies["refab"]
        # DSARP reduces energy per access relative to all-bank refresh.
        assert energies["dsarp"] < energies["refab"]
    # The energy penalty of REFab grows with density, so DSARP's relative
    # saving grows too (paper: 3.0 % -> 9.0 %).
    saving_8 = 1 - result[8]["dsarp"] / result[8]["refab"]
    saving_32 = 1 - result[32]["dsarp"] / result[32]["refab"]
    assert saving_32 > saving_8


# -- Figure 15: memory-intensity sensitivity ---------------------------------


def _chart_figure15(result: dict) -> Chart:
    categories = sorted(result)
    densities = sorted(next(iter(result.values())).keys())
    series = {}
    for density in densities:
        series[f"vs REFab {density}Gb"] = [
            result[c][density]["vs_refab"] for c in categories
        ]
        series[f"vs REFpb {density}Gb"] = [
            result[c][density]["vs_refpb"] for c in categories
        ]
    return Chart.build(
        "Figure 15: DSARP improvement by memory intensity",
        [f"{c}%" for c in categories],
        series,
        kind="bar",
        y_label="improvement (%)",
    )


def _metrics_figure15(result) -> dict:
    return {
        f"vs_refab_pct_cat{category}_{density}gb": values["vs_refab"]
        for category, by_density in result.items()
        for density, values in by_density.items()
    }


def _checks_figure15(result) -> None:
    # DSARP's gain over REFab for memory-intensive workloads exceeds the
    # gain for non-intensive workloads at the highest density.
    assert result[100][32]["vs_refab"] > result[0][32]["vs_refab"]
    # And the intensive-workload gain grows with density.
    assert result[100][32]["vs_refab"] > result[100][8]["vs_refab"]


# -- Figure 16: DDR4 fine-granularity refresh --------------------------------


def _chart_figure16(result: dict) -> Chart:
    return _density_series(
        result, "bar", "Figure 16: WS normalized to REFab (FGR / AR / DSARP)",
        "normalized WS"
    )


def _checks_figure16(result) -> None:
    for density, normalized in result.items():
        # Fine-granularity refresh at 4x rate is worse than plain REFab.
        assert normalized["fgr4x"] < 1.0
        # 4x is worse than 2x (its aggregate refresh overhead is larger).
        assert normalized["fgr4x"] <= normalized["fgr2x"] + 0.02
        # DSARP beats REFab, FGR and AR.
        assert normalized["dsarp"] > 1.0
        assert normalized["dsarp"] > normalized["fgr2x"]
        assert normalized["dsarp"] > normalized["ar"]


# -- Table 2: improvement summary (the paper's headline numbers) -------------


def _chart_table2(summary: dict) -> Chart:
    densities = sorted(summary)
    mechanisms = ("darp", "sarppb", "dsarp")
    return Chart.build(
        "Table 2: gmean WS improvement over REFpb (%)",
        [f"{d}Gb" for d in densities],
        {m: [summary[d][m]["gmean_refpb"] for d in densities] for m in mechanisms},
        kind="bar",
        y_label="gmean improvement (%)",
    )


def _metrics_table2(summary) -> dict:
    # The DSARP rows are the paper's headline: 3.3 / 7.2 / 15.2 % gmean
    # over REFpb at 8 / 16 / 32 Gb.
    return {
        f"{mechanism}_{kind}_{density}gb": value
        for density, mechanisms in summary.items()
        for mechanism, entry in mechanisms.items()
        for kind, value in entry.items()
    }


def _checks_table2(summary) -> None:
    for density, mechanisms in summary.items():
        for name, entry in mechanisms.items():
            # Max improvements bound the gmean improvements.
            assert entry["max_refab"] >= entry["gmean_refab"]
            assert entry["max_refpb"] >= entry["gmean_refpb"]
        # DSARP improves over REFab on average at every density.
        assert mechanisms["dsarp"]["gmean_refab"] > 0
    # DSARP's benefit over REFab grows with DRAM density.
    assert summary[32]["dsarp"]["gmean_refab"] > summary[8]["dsarp"]["gmean_refab"]


# -- Table 3: core-count sensitivity -----------------------------------------


def _chart_table3(result: dict) -> Chart:
    cores = sorted(result)
    keys = (
        "weighted_speedup_improvement",
        "harmonic_speedup_improvement",
        "maximum_slowdown_reduction",
        "energy_per_access_reduction",
    )
    return Chart.build(
        "Table 3: DSARP vs REFab across core counts",
        [str(c) for c in cores],
        {key: [result[c][key] for c in cores] for key in keys},
        kind="line",
        y_label="improvement (%)",
    )


def _checks_table3(result) -> None:
    for cores, entry in result.items():
        # DSARP never degrades weighted speedup relative to REFab.
        assert entry["weighted_speedup_improvement"] > 0
        assert entry["energy_per_access_reduction"] > 0
    # The benefit does not shrink as core count (memory pressure) grows.
    assert (
        result[8]["weighted_speedup_improvement"]
        >= result[2]["weighted_speedup_improvement"] * 0.5
    )


# -- Table 4: tFAW sensitivity -----------------------------------------------


def _chart_table4(result: dict) -> Chart:
    tfaws = sorted(result)
    return Chart.build(
        "Table 4: SARPpb over REFpb vs tFAW",
        [str(t) for t in tfaws],
        {"WS improvement": [result[t] for t in tfaws]},
        kind="line",
        y_label="improvement (%)",
    )


def _checks_table4(result) -> None:
    tfaws = sorted(result)
    # SARPpb improves over REFpb at the default tFAW of 20 cycles.
    assert result[20] > 0
    # Tightening tFAW (larger values) never increases SARPpb's benefit
    # beyond what the loosest setting achieves.
    assert max(result.values()) >= result[tfaws[-1]]


# -- Table 5: subarray-count sensitivity -------------------------------------


def _chart_table5(result: dict) -> Chart:
    counts = sorted(result)
    return Chart.build(
        "Table 5: effect of subarrays per bank",
        [str(c) for c in counts],
        {"WS improvement": [result[c] for c in counts]},
        kind="line",
        y_label="improvement (%)",
    )


def _checks_table5(result) -> None:
    # One subarray per bank means SARP cannot parallelize anything.
    assert abs(result[1]) < 1.5
    # More subarrays reduce the probability of a subarray conflict, so the
    # benefit at 64 subarrays exceeds the benefit at 1.
    assert result[64] > result[1]
    # And the large-subarray-count regime beats the single-subarray case by
    # a clear margin (the paper's trend).
    assert max(result[c] for c in (16, 32, 64)) > result[2]


# -- Table 6: 64 ms retention time -------------------------------------------


def _chart_table6(result: dict) -> Chart:
    densities = sorted(result)
    keys = ("gmean_refpb", "gmean_refab", "max_refpb", "max_refab")
    return Chart.build(
        "Table 6: DSARP improvement with 64 ms retention",
        [f"{d}Gb" for d in densities],
        {key: [result[d][key] for d in densities] for key in keys},
        kind="bar",
        y_label="improvement (%)",
    )


def _checks_table6(result) -> None:
    for density, entry in result.items():
        assert entry["gmean_refab"] > -1.0  # never a real regression
    # The improvement over REFab grows with density even at 64 ms.
    assert result[32]["gmean_refab"] > result[8]["gmean_refab"]
    # And DSARP still improves over REFab at the highest density.
    assert result[32]["gmean_refab"] > 0


# -- Ablations (Section 6.1.2): DARP components, DSARP additivity ------------


def _checks_darp_components(result) -> None:
    for density, entry in result.items():
        # Out-of-order refresh alone already improves over REFab.
        assert entry["out_of_order_only"] > 0
        # Full DARP is at least comparable to its out-of-order component
        # (write-refresh parallelization should not hurt).
        assert entry["darp"] >= entry["out_of_order_only"] - 1.5


def _checks_dsarp_additivity(result) -> None:
    # Every component improves over REFab at 32 Gb.
    assert result["darp"] > 0
    assert result["sarppb"] > 0
    # The combination is at least as good as DARP alone (within noise) and
    # improves on REFab by more than either component degrades.
    assert result["dsarp"] >= result["darp"] - 1.0
    assert result["dsarp"] > 0


ARTIFACTS: tuple[Artifact, ...] = (
    Artifact(
        "figure5", "figure05_trfc_trend",
        "Figure 5: refresh latency (tRFCab) trend",
        experiments.figure5_refresh_latency_trend, fig.tabulate_figure5,
        chart=_chart_figure5, metrics=_metrics_figure5, checks=_checks_figure5,
    ),
    Artifact(
        "figure6", "figure06_refab_loss",
        "Figure 6: performance loss due to REFab",
        experiments.figure6_refab_performance_loss, fig.tabulate_figure6,
        chart=_chart_figure6, metrics=_metrics_figure6, checks=_checks_figure6,
    ),
    Artifact(
        "figure7", "figure07_refab_vs_refpb",
        "Figure 7: performance loss due to REFab and REFpb",
        experiments.figure7_refab_vs_refpb_loss, fig.tabulate_figure7,
        chart=_chart_figure7,
        metrics=lambda result: _flat(result, "{inner}_loss_pct_{outer}gb"),
        checks=_checks_figure7,
    ),
    Artifact(
        "figure12", "figure12_workload_sweep",
        "Figure 12: per-workload WS normalized to REFab",
        experiments.figure12_workload_sweep, fig.tabulate_figure12,
        chart=_chart_figure12, metrics=_metrics_figure12, checks=_checks_figure12,
    ),
    Artifact(
        "figure13", "figure13_all_mechanisms",
        "Figure 13: average WS improvement over REFab",
        experiments.figure13_all_mechanisms, fig.tabulate_figure13,
        chart=_chart_figure13,
        metrics=lambda result: _flat(result, "{inner}_improvement_pct_{outer}gb"),
        checks=_checks_figure13,
    ),
    Artifact(
        "figure14", "figure14_energy",
        "Figure 14: energy per access",
        experiments.figure14_energy_per_access, fig.tabulate_figure14,
        chart=_chart_figure14, metrics=_metrics_figure14, checks=_checks_figure14,
    ),
    Artifact(
        "figure15", "figure15_memory_intensity",
        "Figure 15: DSARP improvement by memory intensity",
        experiments.figure15_memory_intensity, fig.tabulate_figure15,
        chart=_chart_figure15, metrics=_metrics_figure15, checks=_checks_figure15,
    ),
    Artifact(
        "figure16", "figure16_fgr",
        "Figure 16: WS normalized to REFab (FGR / AR / DSARP)",
        experiments.figure16_fgr_comparison, fig.tabulate_figure16,
        chart=_chart_figure16,
        metrics=lambda result: _flat(result, "{inner}_norm_{outer}gb"),
        checks=_checks_figure16,
    ),
    Artifact(
        "table2", "table2_summary",
        "Table 2: WS improvement of DARP/SARPpb/DSARP",
        experiments.table2_improvement_summary, tab.tabulate_table2,
        chart=_chart_table2, metrics=_metrics_table2, checks=_checks_table2,
    ),
    Artifact(
        "table3", "table3_core_count",
        "Table 3: DSARP vs REFab across core counts",
        experiments.table3_core_count, tab.tabulate_table3,
        chart=_chart_table3,
        metrics=lambda result: _flat(result, "{inner}_{outer}core"),
        checks=_checks_table3,
    ),
    Artifact(
        "table4", "table4_tfaw",
        "Table 4: SARPpb over REFpb vs tFAW",
        experiments.table4_tfaw_sensitivity, tab.tabulate_table4,
        chart=_chart_table4,
        metrics=lambda result: {
            f"improvement_pct_tfaw{tfaw}": v for tfaw, v in result.items()
        },
        checks=_checks_table4,
    ),
    Artifact(
        "table5", "table5_subarrays",
        "Table 5: effect of subarrays per bank",
        experiments.table5_subarray_sensitivity, tab.tabulate_table5,
        chart=_chart_table5,
        metrics=lambda result: {
            f"improvement_pct_{count}subarrays": v for count, v in result.items()
        },
        checks=_checks_table5,
    ),
    Artifact(
        "table6", "table6_refresh_interval",
        "Table 6: DSARP improvement with 64 ms retention",
        experiments.table6_refresh_interval, tab.tabulate_table6,
        chart=_chart_table6,
        metrics=lambda result: _flat(result, "{inner}_{outer}gb"),
        checks=_checks_table6,
    ),
    Artifact(
        "darp_components", "ablation_darp_components",
        "Section 6.1.2: DARP component breakdown",
        experiments.darp_component_breakdown, tab.tabulate_darp_components,
        metrics=lambda result: _flat(result, "{inner}_pct_{outer}gb"),
        checks=_checks_darp_components,
    ),
    Artifact(
        "dsarp_additivity", "ablation_dsarp_additivity",
        "DSARP additivity ablation (32 Gb)",
        experiments.dsarp_additivity, tab.tabulate_dsarp_additivity,
        metrics=lambda result: {
            f"{name}_improvement_pct": value for name, value in result.items()
        },
        checks=_checks_dsarp_additivity,
    ),
)
