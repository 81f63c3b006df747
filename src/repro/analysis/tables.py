"""Tabular rendering of the paper's table-level experiment results.

Each ``tabulate_*`` function accepts the corresponding experiment
function's return value (see :mod:`repro.sim.experiments`) and reduces it
to renderer-independent :class:`~repro.analysis.model.Table` blocks with
the same rows/columns as the paper's table.  :mod:`repro.artifacts` renders
them as fixed-width text (``repro bench`` writes that to ``results/*.txt``)
and the report subsystem as markdown and LaTeX.
"""

from __future__ import annotations

from repro.analysis.model import Table


def tabulate_table2(summary: dict) -> list[Table]:
    """Table 2: max / gmean WS improvement over REFpb and REFab."""
    rows = []
    for density in sorted(summary):
        for mechanism in ("darp", "sarppb", "dsarp"):
            entry = summary[density][mechanism]
            rows.append(
                [
                    f"{density}Gb",
                    mechanism.upper(),
                    f"{entry['max_refpb']:.1f}",
                    f"{entry['max_refab']:.1f}",
                    f"{entry['gmean_refpb']:.1f}",
                    f"{entry['gmean_refab']:.1f}",
                ]
            )
    return [Table.build(
        ["Density", "Mechanism", "Max% vs REFpb", "Max% vs REFab",
         "Gmean% vs REFpb", "Gmean% vs REFab"],
        rows,
        title="Table 2: WS improvement of DARP/SARPpb/DSARP",
    )]


def tabulate_table3(result: dict) -> list[Table]:
    """Table 3: DSARP effect on multi-core system metrics."""
    rows = []
    for cores in sorted(result):
        entry = result[cores]
        rows.append(
            [
                cores,
                f"{entry['weighted_speedup_improvement']:.1f}",
                f"{entry['harmonic_speedup_improvement']:.1f}",
                f"{entry['maximum_slowdown_reduction']:.1f}",
                f"{entry['energy_per_access_reduction']:.1f}",
            ]
        )
    return [Table.build(
        ["Cores", "WS improv. (%)", "HS improv. (%)",
         "Max-slowdown red. (%)", "Energy/access red. (%)"],
        rows,
        title="Table 3: DSARP vs REFab across core counts",
    )]


def tabulate_table4(result: dict) -> list[Table]:
    """Table 4: SARPpb improvement over REFpb as tFAW/tRRD vary."""
    tfaws = sorted(result)
    rows = [
        ["tFAW/tRRD (cycles)"] + [f"{t}/{max(1, t // 5)}" for t in tfaws],
        ["WS improvement (%)"] + [f"{result[t]:.1f}" for t in tfaws],
    ]
    return [Table.build(
        ["metric"] + [str(t) for t in tfaws],
        rows,
        title="Table 4: SARPpb over REFpb vs tFAW",
    )]


def tabulate_table5(result: dict) -> list[Table]:
    """Table 5: SARPpb improvement over REFpb as subarrays per bank vary."""
    counts = sorted(result)
    rows = [["WS improvement (%)"] + [f"{result[c]:.1f}" for c in counts]]
    return [Table.build(
        ["Subarrays-per-bank"] + [str(c) for c in counts],
        rows,
        title="Table 5: effect of subarrays per bank",
    )]


def tabulate_table6(result: dict) -> list[Table]:
    """Table 6: DSARP improvement at 64 ms retention."""
    rows = []
    for density in sorted(result):
        entry = result[density]
        rows.append(
            [
                f"{density}Gb",
                f"{entry['max_refpb']:.1f}",
                f"{entry['max_refab']:.1f}",
                f"{entry['gmean_refpb']:.1f}",
                f"{entry['gmean_refab']:.1f}",
            ]
        )
    return [Table.build(
        ["Density", "Max% vs REFpb", "Max% vs REFab",
         "Gmean% vs REFpb", "Gmean% vs REFab"],
        rows,
        title="Table 6: DSARP improvement with 64 ms retention",
    )]


def tabulate_darp_components(result: dict) -> list[Table]:
    """Section 6.1.2: out-of-order refresh alone versus full DARP."""
    rows = [
        [f"{density}Gb", f"{entry['out_of_order_only']:+.1f}", f"{entry['darp']:+.1f}"]
        for density, entry in sorted(result.items())
    ]
    return [Table.build(
        ["Density", "Out-of-order only (% over REFab)", "Full DARP (% over REFab)"],
        rows,
        title="Section 6.1.2: DARP component breakdown",
    )]


def tabulate_dsarp_additivity(result: dict) -> list[Table]:
    """Ablation: DARP, SARPpb and DSARP over REFab at one density."""
    rows = [[name, f"{value:+.2f}"] for name, value in result.items()]
    return [Table.build(
        ["Mechanism", "WS improvement over REFab (%)"],
        rows,
        title="DSARP additivity ablation (32 Gb)",
    )]
