"""repro.analysis — project-specific static analysis + runtime invariants.

The reproduction's headline claims (bit-identical parallel≡sequential
determinism, the seconds-only ``n + w + s`` decomposition, the
``observables()`` and refusal-taxonomy protocols) rest on conventions no
generic linter knows about.  This subsystem enforces them twice over:

* **statically** — ``python -m repro.analysis src tests`` runs both
  analysis tiers: the per-file rule pack (:mod:`repro.analysis.rules`,
  codes ``RPR001``…) and the whole-program call-graph analyses built on
  :mod:`repro.analysis.callgraph` — hot-path purity/taint (``RPR101``),
  task-callable picklability (``RPR102``) and seed-flow checking
  (``RPR103``).  Results are cached incrementally
  (:mod:`repro.analysis.cache`), gated against the checked-in
  ``analysis-baseline.json`` (:mod:`repro.analysis.baseline` — CI fails
  only on *new* findings) and exportable as SARIF 2.1.0
  (:mod:`repro.analysis.sarif`).  Suppress a deliberate exception with
  ``# repro: noqa[RPRnnn]  -- reason`` (stale suppressions are
  themselves findings, code ``RPR000``).
* **dynamically** — :mod:`repro.analysis.invariants` checks virtual-time
  monotonicity, per-station request conservation and non-negative
  occupancy while a simulation runs.  Opt in with ``REPRO_CHECK=1`` (or
  ``--check-invariants`` on any CLI experiment); off, the simulator's
  hot paths are untouched.

Rule catalog, rationale and how to add a rule: ``docs/static_analysis.md``.
"""

from __future__ import annotations

import importlib
from typing import Any

# name -> module providing it.  Loaded on first access (PEP 562): the
# simulator imports repro.analysis.invariants on every run, and that must
# not pay for the call graph, cache, rules and SARIF writer.
_EXPORTS = {
    "Finding": "repro.analysis.engine",
    "Rule": "repro.analysis.engine",
    "rule": "repro.analysis.engine",
    "registered_rules": "repro.analysis.engine",
    "analyze_file": "repro.analysis.engine",
    "analyze_paths": "repro.analysis.engine",
    "collect_raw_findings": "repro.analysis.engine",
    "apply_suppressions": "repro.analysis.engine",
    "render_text": "repro.analysis.engine",
    "render_json": "repro.analysis.engine",
    "CallGraph": "repro.analysis.callgraph",
    "ModuleSummary": "repro.analysis.callgraph",
    "extract_module": "repro.analysis.callgraph",
    "link": "repro.analysis.callgraph",
    "shortest_chains": "repro.analysis.callgraph",
    "render_chain": "repro.analysis.callgraph",
    "check_purity": "repro.analysis.purity",
    "check_picklability": "repro.analysis.purity",
    "check_seedflow": "repro.analysis.seedflow",
    "DEFAULT_HOT_ROOTS": "repro.analysis.purity",
    "ProjectReport": "repro.analysis.cache",
    "analyze_project": "repro.analysis.cache",
    "rule_pack_digest": "repro.analysis.cache",
    "Baseline": "repro.analysis.baseline",
    "BaselineDiff": "repro.analysis.baseline",
    "BaselineEntry": "repro.analysis.baseline",
    "fingerprint": "repro.analysis.baseline",
    "update_baseline": "repro.analysis.baseline",
    "render_sarif": "repro.analysis.sarif",
    "sarif_document": "repro.analysis.sarif",
    "InvariantChecker": "repro.analysis.invariants",
    "InvariantViolation": "repro.analysis.invariants",
    "checks_enabled": "repro.analysis.invariants",
    "DETERMINISM_PACKAGES": "repro.analysis.rules",
    "SIM_PACKAGES": "repro.analysis.rules",
    "RULE_PACK_VERSION": "repro.analysis.rules",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(__all__)
