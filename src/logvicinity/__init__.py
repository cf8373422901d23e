"""Failure detection for HPC clusters from passively collected syslog.

Entries are grouped into comparable node vicinities; a node whose recent
log volume deviates from its group's consensus is flagged, flags are
collapsed into suspected outages, and outages are cross-checked against
job and maintenance records.
"""

__version__ = "0.1.0"

from .anonymize import (DEFAULT_RULES, SubstitutionRuleSet, anonymize_stream,
                        fnv1a_32, read_anonymized, write_anonymized)
from .classify import FailureEvent, classify_all, classify_outage
from .datasources import (JobRecord, MaintenanceWindow, OutageRecord, Scope,
                          load_job_report, load_maintenance, load_outage_db,
                          parse_scope)
from .detect import (DetectionResult, SGIndex, SweepResult, ThresholdReport,
                     filter_frequent_anonymized, filter_frequent_raw,
                     kmeans_1d_2, observation_moments, run_detection,
                     split_groups)
from .evaluate import (EvaluationReport, MatchResult, match_detections,
                       render_reports, score)
from .model import (EventTable, LogEntry, NodeId, ObservationRange,
                    SyslogParseError, Topology, UnknownNodeError,
                    load_topology, parse_node_name, parse_syslog_line,
                    parse_syslog_stream, parse_syslog_table, save_topology,
                    write_syslog)
from .outages import (BootEvent, BootFootprintSpec, OutageEvent,
                      detect_boot_events, detect_outages, load_footprint)
from .pipeline import (ExtractedEvent, VariantRun, VARIANTS,
                       detect_and_classify, extract_events, prepare_stream,
                       run_variant, run_variants, sweep_perspective)
from .synth import (GeneratedCorpus, GeneratorSpec, GroundTruth,
                    InjectedFailure, desk_topology, generate, load_truth,
                    scale_topology, taurus_topology, write_corpus_files)
from .vicinity import (VicinityAssignment, allocation_vicinity,
                       combined_vicinity, hardware_vicinity,
                       location_vicinity, time_of_failure_vicinity)
