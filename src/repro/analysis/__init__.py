"""repro-lint: AST-based static enforcement of the repo's invariants.

``python -m repro.analysis src tests benchmarks`` runs every registered
rule (RPR001-RPR005, RPR007) and exits non-zero on unsuppressed findings; see
:mod:`repro.analysis.core` for the framework and
:mod:`repro.analysis.rules` for the rule set.
"""

from .baseline import load_baseline, split_by_baseline, write_baseline
from .cli import main
from .core import (
    REGISTRY,
    AnalysisResult,
    Finding,
    ModuleContext,
    Project,
    Rule,
    all_rules,
    analyze_project,
    analyze_sources,
    register,
)

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleContext",
    "Project",
    "REGISTRY",
    "Rule",
    "all_rules",
    "analyze_project",
    "analyze_sources",
    "load_baseline",
    "main",
    "register",
    "split_by_baseline",
    "write_baseline",
]
