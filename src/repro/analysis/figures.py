"""Tabular rendering of the paper's figure-level data series.

Each ``tabulate_figureN`` function accepts the corresponding experiment
function's return value (see :mod:`repro.sim.experiments`) and reduces the
same series the paper plots to one or more
:class:`~repro.analysis.model.Table` blocks, which :mod:`repro.artifacts`
renders as fixed-width text and the report subsystem as markdown, LaTeX
and plots.
"""

from __future__ import annotations

from repro.analysis.model import Table


def tabulate_figure5(points) -> list[Table]:
    """Figure 5: refresh latency (tRFCab) trend vs density."""
    rows = []
    for point in points:
        present = f"{point.present_ns:.0f}" if point.present_ns is not None else "-"
        rows.append(
            [
                point.density_gb,
                present,
                f"{point.projection1_ns:.0f}",
                f"{point.projection2_ns:.0f}",
            ]
        )
    return [Table.build(
        ["Density (Gb)", "Present (ns)", "Projection 1 (ns)", "Projection 2 (ns)"],
        rows,
        title="Figure 5: refresh latency (tRFCab) trend",
    )]


def tabulate_figure6(result: dict) -> list[Table]:
    """Figure 6: % performance loss of REFab vs the ideal, by category."""
    densities = sorted(next(iter(result.values())).keys())
    rows = []
    for category in sorted(k for k in result if k >= 0):
        rows.append(
            [f"{category}%"] + [f"{result[category][d]:.1f}" for d in densities]
        )
    rows.append(["Mean"] + [f"{result[-1][d]:.1f}" for d in densities])
    return [Table.build(
        ["Intensive share"] + [f"{d}Gb loss (%)" for d in densities],
        rows,
        title="Figure 6: performance loss due to REFab",
    )]


def tabulate_figure7(result: dict) -> list[Table]:
    """Figure 7: % performance loss of REFab and REFpb vs the ideal."""
    rows = []
    for density in sorted(result):
        rows.append(
            [
                f"{density}Gb",
                f"{result[density]['refab']:.1f}",
                f"{result[density]['refpb']:.1f}",
            ]
        )
    return [Table.build(
        ["Density", "REFab loss (%)", "REFpb loss (%)"],
        rows,
        title="Figure 7: performance loss due to REFab and REFpb",
    )]


def tabulate_figure12(sweep: dict) -> list[Table]:
    """Figure 12: per-workload WS normalized to REFab (one block per density)."""
    blocks = []
    for density in sorted(sweep):
        per_workload = sweep[density]
        mechanisms = sorted(next(iter(per_workload.values())).keys())
        rows = []
        for name in sorted(per_workload):
            rows.append(
                [name] + [f"{per_workload[name][m]:.3f}" for m in mechanisms]
            )
        blocks.append(
            Table.build(
                ["Workload"] + mechanisms,
                rows,
                title=f"Figure 12 ({density}Gb): WS normalized to REFab",
            )
        )
    return blocks


def tabulate_figure13(result: dict) -> list[Table]:
    """Figure 13: average WS improvement over REFab for all mechanisms."""
    mechanisms = list(next(iter(result.values())).keys())
    rows = []
    for density in sorted(result):
        rows.append(
            [f"{density}Gb"] + [f"{result[density][m]:+.1f}" for m in mechanisms]
        )
    return [Table.build(
        ["Density"] + mechanisms,
        rows,
        title="Figure 13: average WS improvement over REFab (%)",
    )]


def tabulate_figure14(result: dict) -> list[Table]:
    """Figure 14: energy per access for all mechanisms."""
    mechanisms = list(next(iter(result.values())).keys())
    rows = []
    for density in sorted(result):
        rows.append(
            [f"{density}Gb"] + [f"{result[density][m]:.1f}" for m in mechanisms]
        )
    return [Table.build(
        ["Density"] + mechanisms,
        rows,
        title="Figure 14: energy per access (nJ)",
    )]


def tabulate_figure15(result: dict) -> list[Table]:
    """Figure 15: DSARP gains over REFab / REFpb by memory intensity."""
    categories = sorted(result)
    densities = sorted(next(iter(result.values())).keys())
    rows = []
    for category in categories:
        for density in densities:
            entry = result[category][density]
            rows.append(
                [
                    f"{category}%",
                    f"{density}Gb",
                    f"{entry['vs_refab']:+.1f}",
                    f"{entry['vs_refpb']:+.1f}",
                ]
            )
    return [Table.build(
        ["Intensive share", "Density", "vs REFab (%)", "vs REFpb (%)"],
        rows,
        title="Figure 15: DSARP improvement by memory intensity",
    )]


def tabulate_figure16(result: dict) -> list[Table]:
    """Figure 16: WS normalized to REFab for FGR / AR / DSARP."""
    mechanisms = list(next(iter(result.values())).keys())
    rows = []
    for density in sorted(result):
        rows.append(
            [f"{density}Gb"] + [f"{result[density][m]:.3f}" for m in mechanisms]
        )
    return [Table.build(
        ["Density"] + mechanisms,
        rows,
        title="Figure 16: WS normalized to REFab (FGR / AR / DSARP)",
    )]
