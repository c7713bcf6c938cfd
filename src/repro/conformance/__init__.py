"""Differential conformance tooling: the shipped correctness harness.

The optimized exchange stack (marking games, lazy pruning, analysis
caches, concurrent prefetching, resilient invocation) must never drift
from the paper's declarative semantics.  This package keeps it honest
with four cooperating pieces:

- :mod:`repro.conformance.reference` — an *executable specification*:
  a reference interpreter that evaluates safe and possible rewriting
  (Definitions 4-7) directly as game trees, with no automata, for any
  depth bound ``k``;
- :mod:`repro.conformance.fuzzer` — seeded generation of word-level
  rewriting problems and whole document-exchange scenarios (schemas,
  intensional documents, fault schedules);
- :mod:`repro.conformance.differential` — runs one scenario through a
  matrix of engine configurations (sequential vs. concurrent, lazy vs.
  eager, traced vs. untraced, plain vs. resilient) and reports any
  divergence in output bytes, invocation counts or cache accounting;
- :mod:`repro.conformance.corpus` — serializes failing scenarios to
  replayable JSON corpus entries, with automatic greedy shrinking.

The ``repro fuzz`` CLI subcommand is the operational entry point; the
regression tests replay ``tests/corpus/*.json`` on every run.
"""

from repro.conformance.corpus import (
    document_entry,
    edit_entry,
    edit_scenario_from_entry,
    load_entry,
    replay_entry,
    save_entry,
    shrink_document_scenario,
    shrink_edit_scenario,
    shrink_word_scenario,
    word_entry,
)
from repro.conformance.differential import (
    DEFAULT_MATRIX,
    EDIT_MATRIX,
    ConfigOutcome,
    Disagreement,
    DifferentialReport,
    EngineConfig,
    run_config,
    run_document_scenario,
    run_edit_scenario,
    run_word_scenario,
)
from repro.conformance.fuzzer import (
    DocumentScenario,
    EditScenario,
    WordScenario,
    fuzz_document_scenario,
    fuzz_edit_scenario,
    fuzz_word_scenario,
)
from repro.conformance.reference import (
    ReferenceVerdict,
    output_language_bound,
    reference_can_rewrite,
    reference_possible,
    reference_safe,
)

__all__ = [
    "ConfigOutcome",
    "DEFAULT_MATRIX",
    "EDIT_MATRIX",
    "Disagreement",
    "DifferentialReport",
    "DocumentScenario",
    "EditScenario",
    "EngineConfig",
    "ReferenceVerdict",
    "WordScenario",
    "document_entry",
    "edit_entry",
    "edit_scenario_from_entry",
    "fuzz_document_scenario",
    "fuzz_edit_scenario",
    "fuzz_word_scenario",
    "load_entry",
    "output_language_bound",
    "reference_can_rewrite",
    "reference_possible",
    "reference_safe",
    "replay_entry",
    "run_config",
    "run_document_scenario",
    "run_edit_scenario",
    "run_word_scenario",
    "save_entry",
    "shrink_document_scenario",
    "shrink_edit_scenario",
    "shrink_word_scenario",
    "word_entry",
]
