"""repro.verify — differential verification: fuzzing oracle + invariants.

The standing correctness tooling for the analytical pipeline: a seeded
adversarial trace corpus (:mod:`repro.verify.generators`), an oracle
grid running every engine x store warmth bit-identically against a
paper-faithful reference run, itself checked exactly against the cache
simulator
(:mod:`repro.verify.oracle`), simulator-free metamorphic invariants
(:mod:`repro.verify.invariants`), delta-debugging trace shrinking
(:mod:`repro.verify.shrink`) and a persisted failure corpus replayed
ahead of every run (:mod:`repro.verify.corpus`) — orchestrated by
:func:`repro.verify.runner.run_verify` and exposed as ``repro verify``
on the command line.
"""

from repro.verify.corpus import (
    CrashArtifact,
    default_corpus_dir,
    load_corpus,
    regression_entries,
    save_crash,
    seed_regression_corpus,
)
from repro.verify.generators import (
    CorpusEntry,
    anchor_entries,
    corpus_stream,
    default_budgets,
    paper_trace,
)
from repro.verify.invariants import (
    METAMORPHIC_LAWS,
    Violation,
    check_laws,
    structural_violations,
)
from repro.verify.oracle import (
    REFERENCE_CELL,
    Divergence,
    GridCell,
    GridOutcome,
    grid_cells,
    policy_divergences,
    reference_explorer,
    run_grid,
    stream_divergences,
)
from repro.verify.runner import (
    LAW_MODES,
    REPORT_SCHEMA,
    VerifyConfig,
    VerifyFailure,
    VerifyReport,
    run_verify,
)
from repro.verify.shrink import ShrinkResult, shrink_trace

__all__ = [
    "METAMORPHIC_LAWS",
    "LAW_MODES",
    "REFERENCE_CELL",
    "REPORT_SCHEMA",
    "CorpusEntry",
    "CrashArtifact",
    "Divergence",
    "GridCell",
    "GridOutcome",
    "ShrinkResult",
    "VerifyConfig",
    "VerifyFailure",
    "VerifyReport",
    "Violation",
    "anchor_entries",
    "check_laws",
    "corpus_stream",
    "default_budgets",
    "default_corpus_dir",
    "grid_cells",
    "load_corpus",
    "paper_trace",
    "policy_divergences",
    "reference_explorer",
    "regression_entries",
    "run_grid",
    "stream_divergences",
    "run_verify",
    "save_crash",
    "seed_regression_corpus",
    "shrink_trace",
    "structural_violations",
]
