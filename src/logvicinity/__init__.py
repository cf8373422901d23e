"""Failure detection for HPC clusters from passively collected syslog.

Entries are grouped into comparable node vicinities; a node whose recent
log volume deviates from its group's consensus is flagged, flags are
collapsed into suspected outages, and outages are cross-checked against
job and maintenance records.

Importing the package loads no module: each name below is imported from
its module on first use (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {
    "anonymize": ("DEFAULT_RULES", "SubstitutionRuleSet", "anonymize_stream",
                  "fnv1a_32", "read_anonymized", "write_anonymized"),
    "classify": ("FailureEvent", "classify_all", "classify_outage"),
    "datasources": ("JobRecord", "Scope", "Window", "load_job_report",
                    "load_maintenance", "load_outage_db", "parse_scope"),
    "detect": ("SGIndex", "SweepResult", "filter_frequent_anonymized",
               "filter_frequent_raw", "observation_moments", "run_detection",
               "split_groups"),
    "evaluate": ("EvaluationReport", "ExtractedEvent", "InjectedFailure",
                 "MatchResult", "load_scored", "load_truth",
                 "match_detections", "render_reports", "score"),
    "model": ("EventTable", "Topology", "load_topology",
              "parse_syslog_stream", "parse_syslog_table", "save_topology",
              "write_syslog"),
    "names": ("NodeId", "ObservationRange", "SyslogParseError",
              "UnknownNodeError", "VARIANTS", "parse_node_name"),
    "outages": ("BootEvent", "BootFootprintSpec", "OutageEvent",
                "detect_boot_events", "detect_outages", "load_footprint"),
    "pipeline": ("VariantRun", "detect_and_classify",
                 "extract_events", "prepare_stream", "run_variant",
                 "run_variants", "sweep_perspective"),
    "synth": ("GeneratedCorpus", "GeneratorSpec", "GroundTruth",
              "desk_topology", "generate", "scale_topology",
              "taurus_topology", "write_corpus_files"),
    "vicinity": ("VicinityAssignment", "allocation_groups",
                 "allocation_schedule", "allocation_vicinity",
                 "combined_vicinity", "hardware_vicinity",
                 "location_vicinity", "time_of_failure_vicinity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
