"""Golden regression fixtures pinning headline paper numbers.

The Table 2 summary (max / gmean weighted-speedup improvements of DARP,
SARPpb and DSARP over the REFpb and REFab baselines, per density) and one
Figure 13 row (the 32 Gb average improvement of every mechanism over
REFab) are pinned to checked-in JSON under ``tests/golden/``.  Any kernel
or model change that shifts these numbers — however slightly — fails here,
so the paper's reproduced results cannot drift silently.

The fixtures are computed at a reduced, deterministic scale (short windows,
one workload per intensity category) so the suite stays fast; they are
regenerated intentionally with::

    pytest tests/test_golden_regression.py --update-golden
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.config.obs_config import ObsConfig
from repro.report.paper import (
    GOLDEN_CYCLES,
    GOLDEN_SCALE,
    GOLDEN_WARMUP,
    canonical,
)
from repro.sim import experiments
from repro.sim.runner import ExperimentRunner

#: The reduced but fixed golden identity (window and scale) is declared once
#: in :mod:`repro.report.paper`: changing any of it requires regenerating
#: the goldens.  Its density set pins the smallest and largest Table 2 rows
#: (the 16 Gb row interpolates between them and would double the fixture
#: cost for little extra signal).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    """One memoizing runner for the module: REFab/alone runs are shared."""
    return ExperimentRunner(cycles=GOLDEN_CYCLES, warmup=GOLDEN_WARMUP)


def check_golden(name: str, payload: object, update: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    data = canonical(payload)
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture {path.name} regenerated")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"`pytest {__file__} --update-golden`"
    )
    golden = json.loads(path.read_text())
    assert data == golden, (
        f"{name} drifted from the pinned golden values; if the change is "
        f"intentional, regenerate with `pytest {pathlib.Path(__file__).name} "
        f"--update-golden` and commit the diff"
    )


def test_table2_summary_pinned(runner, update_golden):
    """Table 2: DARP/SARPpb/DSARP improvements over REFpb and REFab."""
    result = experiments.table2_improvement_summary(runner=runner, scale=GOLDEN_SCALE)
    check_golden("table2_summary", result, update_golden)


def test_figure13_32gb_row_pinned(runner, update_golden):
    """Figure 13, 32 Gb row: average % WS improvement over REFab."""
    result = experiments.figure13_all_mechanisms(runner=runner, scale=GOLDEN_SCALE)
    check_golden("figure13_32gb_row", result[32], update_golden)


def test_table2_summary_with_observability_identical(update_golden):
    """Tracing and epoch sampling must not move a single pinned number.

    Reruns the Table 2 pipeline with the command tracer armed (in-memory
    only) and an awkward epoch interval that never divides the window,
    then compares against the same checked-in fixture the plain runner is
    held to — the strongest statement that observability is pure.
    """
    if update_golden:
        pytest.skip("golden regeneration uses the plain runner")
    golden_path = GOLDEN_DIR / "table2_summary.json"
    assert golden_path.exists(), "generate the plain fixture first"
    obs = ObsConfig(trace=True, epoch_interval=293)
    runner = ExperimentRunner(cycles=GOLDEN_CYCLES, warmup=GOLDEN_WARMUP, obs=obs)
    result = experiments.table2_improvement_summary(runner=runner, scale=GOLDEN_SCALE)
    assert canonical(result) == json.loads(golden_path.read_text())
