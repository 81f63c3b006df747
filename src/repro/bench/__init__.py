"""repro.bench: the declarative performance-benchmark subsystem.

Turns the repo's benchmarks into first-class, machine-readable,
regression-gated artifacts:

* :mod:`repro.bench.spec`    — :class:`BenchSpec` and the registry;
* :mod:`repro.bench.suite`   — the standard suite (one spec per paper
  artifact of :mod:`repro.artifacts`, plus the engine and kernel benches);
* :mod:`repro.bench.run`     — the execution harness and the
  schema-versioned :class:`BenchDocument` JSON result format;
* :mod:`repro.bench.compare` — the baseline regression gate with
  per-benchmark thresholds, noise floors and a markdown report.

Driven by the ``repro bench`` CLI (``list`` / ``run`` / ``compare``)::

    repro bench run --tier quick --workers 4 --json BENCH_2026-07-30.json
    repro bench compare benchmarks/baseline.json BENCH_2026-07-30.json \\
        --max-regression 25%
"""

from repro.bench.compare import (
    DEFAULT_FIDELITY_TOLERANCE,
    DEFAULT_MAX_REGRESSION,
    DEFAULT_NOISE_FLOOR_S,
    Comparison,
    ComparisonEntry,
    compare_documents,
)
from repro.bench.run import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BenchContext,
    BenchDocument,
    BenchRecord,
    artifact_dir,
    default_json_path,
    run_specs,
)
from repro.bench.spec import (
    TIERS,
    BenchError,
    BenchSpec,
    all_specs,
    get_spec,
    load_suite,
    register,
)

__all__ = [
    "BenchContext",
    "BenchDocument",
    "BenchError",
    "BenchRecord",
    "BenchSpec",
    "Comparison",
    "ComparisonEntry",
    "DEFAULT_FIDELITY_TOLERANCE",
    "DEFAULT_MAX_REGRESSION",
    "DEFAULT_NOISE_FLOOR_S",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "TIERS",
    "all_specs",
    "artifact_dir",
    "compare_documents",
    "default_json_path",
    "get_spec",
    "load_suite",
    "register",
    "run_specs",
]
