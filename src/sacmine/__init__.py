"""sacmine: attendance credibility scoring, reliability and classification.

Pipeline: parse raw attendance event logs, clean them, aggregate to
module-term records, score each module's Student Attendance Credibility
(SAC), check the measure's internal consistency with Cronbach's alpha,
and classify modules into strength classes with an entropy-based
decision tree whose rules can be read off as IF/THEN lines.
"""

__version__ = "0.1.0"

# Each exported name is imported from its submodule on first use (PEP 562),
# so importing the package, or the CLI, loads no submodule it does not need.
_EXPORTS = {
    "credibility": (
        "ModuleTermRecord",
        "SacStrength",
        "WeekObservation",
        "ZComponents",
        "attendance_average",
        "sac",
        "strength_bin",
        "z_components",
    ),
    "dtree": (
        "AttributeSpec",
        "Dataset",
        "EvalReport",
        "Instance",
        "Leaf",
        "Rule",
        "RuleSet",
        "Split",
        "build_tree",
        "entropy",
        "evaluate",
        "extract_rules",
        "gain_ratio",
        "info_gain",
        "predict",
        "rank_attributes",
        "split_dataset",
    ),
    "ingest": (
        "AttendanceEvent",
        "CleaningReport",
        "RosterEntry",
        "aggregate",
        "clean_events",
        "parse_events",
    ),
    "reliability": ("AlphaBreakdown", "SacPanel", "column_variance", "cronbach_alpha"),
    "synthgen": ("GenParams", "generate_events", "generate_rule_labeled_dataset"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
