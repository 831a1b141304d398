"""Adversarial workload fuzzer: mutate, evaluate, minimize, archive.

The Perun-style loop over GraphTides workloads: seeded mutators
(:mod:`repro.fuzz.mutators`) perturb generator configs and stream files
in both on-disk formats, an evaluator (:mod:`repro.fuzz.evaluator`)
runs each candidate through the real parse → round-trip → platform →
replay pipeline behind a watchdog, a ddmin minimizer
(:mod:`repro.fuzz.minimizer`) shrinks findings, and survivors land in a
versioned regression corpus (:mod:`repro.fuzz.corpus`) replayed by CI
and the robustness experiment.
"""

from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry, save_entry
from repro.fuzz.engine import Finding, FuzzConfig, FuzzReport, run_fuzz
from repro.fuzz.evaluator import (
    Baseline,
    EvaluatorConfig,
    Verdict,
    calibrate,
    evaluate,
)
from repro.fuzz.minimizer import ddmin, minimize_workload
from repro.fuzz.mutators import (
    BYTE_MUTATORS,
    ESCAPE_DICTIONARY,
    EVENT_MUTATORS,
    apply_byte_mutator,
    apply_event_mutators,
)
from repro.fuzz.workload import (
    BaseConfig,
    Workload,
    build_base,
    bytes_to_events,
    events_to_bytes,
)

__all__ = [
    "BaseConfig",
    "Baseline",
    "BYTE_MUTATORS",
    "CorpusEntry",
    "ESCAPE_DICTIONARY",
    "EVENT_MUTATORS",
    "EvaluatorConfig",
    "Finding",
    "FuzzConfig",
    "FuzzReport",
    "Verdict",
    "Workload",
    "apply_byte_mutator",
    "apply_event_mutators",
    "build_base",
    "bytes_to_events",
    "calibrate",
    "events_to_bytes",
    "ddmin",
    "evaluate",
    "load_corpus",
    "minimize_workload",
    "replay_entry",
    "run_fuzz",
    "save_entry",
]
