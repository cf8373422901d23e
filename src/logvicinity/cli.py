"""Command line front end: generate, ingest, detect, classify, evaluate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .names import (CV_THRESHOLD, DEFAULT_ALPHA, DEFAULT_BURST_FACTOR,
                    DEFAULT_BURST_MINUTES, DEFAULT_CADENCE, DEFAULT_MIN_GAP,
                    DEFAULT_PERCENTILE, DEFAULT_SILENCE_THRESHOLD,
                    DEFAULT_TAU_MIN, DEFAULT_TOLERANCE, DEFAULT_WINDOW, LABELS,
                    PERSPECTIVES, VARIANTS, ObservationRange, canonical_node,
                    check_nonnegative, iso, parse_iso, read_records,
                    run_manifest, topen)

# Nothing here calls BLAS, so numpy's bundled OpenBLAS would only start a
# worker thread that spins; set before any subcommand imports numpy, and a
# value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _data_file(name: str) -> str:
    from importlib.resources import files as resource_files
    return str(resource_files("logvicinity").joinpath("data", name))


def _load_config(path) -> dict:
    """key=value records; '#' comments; values as text, for build_parser."""
    def row(line):
        key, eq, value = line.split("#", 1)[0].partition("=")
        if not eq:
            raise ValueError("expected key=value")
        return key.strip().replace("-", "_"), value.strip()

    return dict(read_records(path, row, sep=None))


def _config_value(action, text: str):
    """A config value's text read by its option's type, as the flag's
    value would be; a switch takes true or false."""
    kind = bool if action.nargs == 0 else action.type or str
    try:
        return ({"true": True, "false": False}[text.lower()] if kind is bool
                else kind(text))
    except (KeyError, ValueError):
        raise ValueError(f"config key {action.dest!r}: invalid "
                         f"{kind.__name__} value: {text!r}") from None


def _scan_config_path(argv):
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def _rules_from(args):
    from .anonymize import SubstitutionRuleSet, load_rules
    path = getattr(args, "rules", None)
    return load_rules(path) if path else SubstitutionRuleSet()


def _footprint_from(args):
    from .outages import load_footprint
    path = getattr(args, "footprint", None) or _data_file("boot.footprint")
    return load_footprint(path)


def _year_from(args) -> int:
    year = getattr(args, "year", None)
    if year is None:
        year = datetime.now(timezone.utc).year
        # syslog lines carry no year; a wrong guess shifts every timestamp
        print(f"warning: no --year given, assuming the corpus is from {year}",
              file=sys.stderr)
    elif not 1 <= year <= 9999:
        raise ValueError(f"--year {year} is out of range 1..9999")
    return year


def _read_corpus(args):
    """(table, topology, ParseStats or None) of --corpus and --topology.

    A raw corpus is parsed and a pars-lite one (--anonymized) read, under
    one node rule: with a topology, the rows of any other node are
    skipped; without one, every canonical node name is a node.
    """
    from .model import load_topology, parse_syslog_table
    topology = load_topology(args.topology) if args.topology else None
    if getattr(args, "anonymized", False):
        import numpy as np
        from .anonymize import read_anonymized
        table, _version = read_anonymized(args.corpus)
        known = set(topology.nodes) if topology else set(table.nodes)
        keep = np.array([node in known for node in table.nodes], dtype=bool)
        return (table if keep.all() else table.take(keep[table.node]),
                topology, None)
    resolver = topology.resolver() if topology else canonical_node
    with topen(args.corpus, "rb") as fh:
        table, stats = parse_syslog_table(
            fh, _year_from(args), resolver,
            skip_unknown=not getattr(args, "strict", False))
    return table, topology, stats


def _read_records(args):
    """(jobs, outage-db windows, maintenance windows) of --jobs-file,
    --outage-db and --maintenance; a file not given holds no records."""
    from . import datasources
    return tuple(load(path) if path else [] for load, path in (
        (datasources.load_job_report, getattr(args, "jobs_file", None)),
        (datasources.load_outage_db, getattr(args, "outage_db", None)),
        (datasources.load_maintenance, getattr(args, "maintenance", None))))


def _range_from(args, table) -> ObservationRange:
    start = getattr(args, "time_from", None)
    end = getattr(args, "time_to", None)
    if not len(table) and (start is None or end is None):
        raise ValueError("empty corpus and no --from/--to bounds given")
    start = parse_iso(start) if start else int(table.ts.min())
    end = parse_iso(end) if end else int(table.ts.max())
    return ObservationRange(start, end)


def _check_moments(args, obs_range) -> None:
    """Refuse a range too short for one observation moment: its sweep
    would judge nothing."""
    from .detect import observation_moments
    if not observation_moments(obs_range.start, obs_range.end, args.cadence,
                               args.window):
        raise ValueError(f"the range {iso(obs_range.start)} to "
                         f"{iso(obs_range.end)} holds no observation moment: "
                         f"it is shorter than one window ({args.window} s)")


def _config_of(args) -> dict:
    skip = {"func", "config", "manifest"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        out[key] = value
    return out


def _emit_manifest(args, default_path, extra=None) -> None:
    path = getattr(args, "manifest", None) or default_path
    if not path:
        return
    manifest = run_manifest(_config_of(args), seed=getattr(args, "seed", None))
    if extra:
        manifest.update(extra)
    with topen(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each imports the modules it runs, so `evaluate` needs no numpy

def cmd_generate(args) -> int:
    from .synth import generate, write_corpus_files
    spec = _spec_from(args)
    gen = generate(spec)
    paths = write_corpus_files(gen, args.out, compress=args.gzip)
    _emit_manifest(args, os.path.join(args.out, "run_manifest.json"),
                   extra={"outputs": paths, **_corpus_range(spec)})
    print(f"{len(gen.entries)} entries on {len(gen.topology)} nodes, "
          f"{len(gen.truth.failures)} injected failures -> {args.out}")
    return 0


def _corpus_range(spec) -> dict:
    """A generated corpus's range for its manifest; year is the --year to
    parse its corpus.log with."""
    start = iso(spec.start)
    return {"start": start, "end": iso(spec.end), "year": int(start[:4])}


def _spec_from(args):
    from .synth import (GeneratorSpec, desk_topology, scale_topology,
                        taurus_topology)
    if getattr(args, "taurus_scale", None):
        topology = scale_topology(taurus_topology(), args.taurus_scale)
    else:
        topology = desk_topology()
    kwargs = {}
    if getattr(args, "start", None):
        kwargs["start"] = parse_iso(args.start)
    return GeneratorSpec(
        topology=topology, days=args.days, seed=args.seed,
        failure_count=args.failures, storm_count=args.storms,
        background_jobs=args.background_jobs,
        maintenance=not args.no_maintenance, **kwargs)


def cmd_parse(args) -> int:
    from .model import write_syslog
    table, _topology, stats = _read_corpus(args)
    if args.output:
        write_syslog(table, args.output)
    summary = {
        "entries": stats.parsed,
        "skipped_unknown": stats.skipped_unknown,
        "lines_one_by_one": stats.lines_one_by_one,
        "nodes": len(table.nodes),
        "from": iso(int(table.ts.min())) if len(table) else None,
        "to": iso(int(table.ts.max())) if len(table) else None,
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    _emit_manifest(args, f"{args.output}.manifest.json" if args.output else None)
    return 0


def cmd_anonymize(args) -> int:
    from .anonymize import write_anonymized
    rules = _rules_from(args)
    table, _topology, _stats = _read_corpus(args)
    write_anonymized(table, args.output, rules)
    _emit_manifest(args, f"{args.output}.manifest.json")
    print(f"anonymized {len(table)} entries -> {args.output}")
    return 0


def cmd_detect_outages(args) -> int:
    from .outages import detect_outages, write_outages
    table, _topology, _stats = _read_corpus(args)
    obs_range = _range_from(args, table)
    outages = detect_outages(
        table, _footprint_from(args), _rules_from(args), obs_range,
        silence_threshold=args.silence_threshold,
        burst_factor=args.burst_factor, burst_minutes=args.burst_minutes,
        min_gap=args.min_gap)
    write_outages(outages, args.output)
    _emit_manifest(args, f"{args.output}.manifest.json")
    print(f"{len(outages)} outages -> {args.output}")
    return 0


def cmd_classify(args) -> int:
    from .classify import classify_all, write_classified
    from .outages import load_outages
    outages = load_outages(args.outages)
    jobs, odb, maint = _read_records(args)
    events = classify_all(outages, maint, jobs, odb, args.correlation_window)
    write_classified(events, args.output)
    _emit_manifest(args, f"{args.output}.manifest.json")
    tally = {label: 0 for label in LABELS}
    for ev in events:
        tally[ev.label] += 1
    print("  ".join(f"{label}={count}" for label, count in tally.items()))
    if events and (jobs or odb or maint) and all(
            ev.evidence == ("no_job_info",) for ev in events):
        # syslog lines carry no year, so a wrong --year on detect-outages
        # shifts every outage by whole years and nothing correlates
        print("warning: no outage matched any job, outage-db, or "
              "maintenance record; if the corpus is not from the current "
              "year, rerun detect-outages with --year", file=sys.stderr)
    return 0


def cmd_detect_anomalies(args) -> int:
    from .classify import load_classified
    from .detect import write_verdicts
    from .evaluate import write_events
    from .pipeline import run_variant
    if args.anonymized and args.variant not in ("anonymized",
                                                "filtered_anonymized"):
        raise ValueError("anonymized input supports only the anonymized "
                         "and filtered_anonymized variants")
    table, topology, _stats = _read_corpus(args)
    obs_range = _range_from(args, table)
    if args.vicinity != "time_of_failure":  # it judges at the failures
        _check_moments(args, obs_range)
    jobs, _odb, maint = _read_records(args)
    run = run_variant(
        table, topology, obs_range, args.variant, _rules_from(args), maint,
        perspective=args.vicinity, jobs=jobs if args.jobs_file else None,
        failures=(load_classified(args.failures_file)
                  if args.failures_file else None),
        window=args.window, cadence=args.cadence, alpha=args.alpha,
        tau_min=args.tau_min, percentile=args.percentile,
        cv_threshold=args.cv_threshold)

    sweep = run.sweep
    flagged = int((sweep.code != 0).sum())
    if args.output:
        write_verdicts(sweep, args.output)
    if args.events:
        write_events(run.events, args.events)
        print(f"{flagged} flagged node-moments, {len(run.events)} events")
    else:
        judged = len(set(sweep.at.tolist()))  # moments with a usable group
        print(f"{flagged} flagged node-moments over {judged} moments")
    if sweep.skipped_groups:
        for name, size in sweep.skipped_groups:
            print(f"skipped group {name} (size {size})", file=sys.stderr)
    _emit_manifest(args, f"{args.output}.manifest.json" if args.output else None)
    return 0


def cmd_evaluate(args) -> int:
    from .evaluate import load_scored, render_reports, score
    report = score(load_scored(args.detected), load_scored(args.truth),
                   args.tolerance)
    print(render_reports({args.name: report}, args.format))
    _emit_manifest(args, None)
    return 0


def cmd_pipeline(args) -> int:
    from .classify import write_classified
    from .evaluate import load_scored, render_reports, score, write_events
    from .pipeline import detect_and_classify, run_variants
    # --tolerance is also the correlation window: named as the flag, and
    # checked before any sweep
    check_nonnegative(tolerance=args.tolerance)
    workdir = args.workdir
    os.makedirs(workdir, exist_ok=True)
    rules = _rules_from(args)
    footprint = _footprint_from(args)

    if args.generate:
        from .synth import generate, write_corpus_files
        spec = _spec_from(args)
        gen = generate(spec)
        write_corpus_files(gen, workdir, compress=args.gzip)
        table, topology = gen.entries, gen.topology
        truth = gen.truth.failures
        jobs, odb = gen.truth.jobs, gen.truth.outage_records
        maint = gen.truth.maintenance
        obs_range = gen.range
    else:
        if not args.corpus or not args.topology:
            raise ValueError("pipeline needs --generate or --corpus + --topology")
        table, topology, _stats = _read_corpus(args)
        truth = load_scored(args.truth) if args.truth else None
        jobs, odb, maint = _read_records(args)
        obs_range = _range_from(args, table)
    _check_moments(args, obs_range)

    runs = run_variants(
        table, topology, obs_range, rules, maint,
        variants=VARIANTS if args.variant == "all" else (args.variant,),
        window=args.window, cadence=args.cadence, alpha=args.alpha,
        tau_min=args.tau_min, percentile=args.percentile,
        cv_threshold=args.cv_threshold)

    classified = detect_and_classify(
        table, footprint, rules, obs_range, jobs=jobs, outage_records=odb,
        maintenance=maint, correlation_window=args.tolerance)
    write_classified(classified, os.path.join(workdir, "classified.csv"))
    for name, run in runs.items():
        write_events(run.events, os.path.join(workdir, f"events_{name}.tsv"))

    if truth is not None:
        reports = {name: score(run.events, truth, args.tolerance)
                   for name, run in runs.items()}
        regular = [ev for ev in classified if ev.label == "regular_failure"]
        reports["classified_outages"] = score(regular, truth, args.tolerance)
        text = render_reports(reports, args.format)
        print(text)
        with topen(os.path.join(workdir, f"report.{args.format}"), "w") as fh:
            fh.write(text + "\n")
    else:
        for name, run in runs.items():
            print(f"{name}: {len(run.events)} events")

    _emit_manifest(args, os.path.join(workdir, "run_manifest.json"),
                   extra=_corpus_range(spec) if args.generate else None)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--manifest", help="run manifest path (JSON)")


def _add_corpus_opts(p, anonymized_ok=True, topology_required=False):
    p.add_argument("--corpus", required=True, help="syslog file (.gz ok)")
    p.add_argument("--year", type=int, help="calendar year of the first entries")
    if anonymized_ok:
        p.add_argument("--anonymized", action="store_true",
                       help="corpus is an anonymized key file")
    p.add_argument("--topology", required=topology_required,
                   help="restrict to known nodes")


def _add_record_opts(p):
    p.add_argument("--jobs-file", help="job report CSV")
    p.add_argument("--outage-db", help="user-visible outage records")
    p.add_argument("--maintenance", help="announced maintenance windows")


def _add_detect_params(p):
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--cadence", type=int, default=DEFAULT_CADENCE)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--tau-min", type=float, default=DEFAULT_TAU_MIN)
    p.add_argument("--percentile", type=float, default=DEFAULT_PERCENTILE)
    p.add_argument("--cv-threshold", type=float, default=CV_THRESHOLD)
    p.add_argument("--from", dest="time_from", help="observation start (ISO)")
    p.add_argument("--to", dest="time_to", help="observation end (ISO)")


def _add_generator_opts(p):
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--days", type=float, default=7.0)
    p.add_argument("--failures", type=int, default=40)
    p.add_argument("--storms", type=int, default=60)
    p.add_argument("--background-jobs", type=int, default=150)
    p.add_argument("--no-maintenance", action="store_true")
    p.add_argument("--taurus-scale", type=float,
                   help="use the Taurus layout scaled by this factor")
    p.add_argument("--start", help="corpus start instant (ISO)")
    p.add_argument("--gzip", action="store_true", help="compress the corpus")


def build_parser(config_defaults=None) -> argparse.ArgumentParser:
    """Assemble the full parser; config_defaults override built-in defaults.

    Overrides must be installed as subparser defaults (not preset on the
    namespace): subcommands parse into a fresh namespace and would clobber
    preset values with their own defaults. Explicit flags still win.
    """
    parser = _Parser(prog="logvicinity",
                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    made = []

    def add_parser(*a, **kw):
        p = sub.add_parser(*a, **kw)
        made.append(p)
        return p

    p = add_parser("generate", help="synthesize a corpus with ground truth")
    _add_common(p)
    _add_generator_opts(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = add_parser("parse", help="parse and validate a syslog corpus")
    _add_common(p)
    _add_corpus_opts(p, anonymized_ok=False)
    p.add_argument("--strict", action="store_true",
                   help="fail on unknown hostnames instead of skipping")
    p.add_argument("--output", help="write the normalized corpus here")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_parse)

    p = add_parser("anonymize", help="substitute + hash a corpus")
    _add_common(p)
    _add_corpus_opts(p, anonymized_ok=False)
    p.add_argument("--rules", help="substitution rules file")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_anonymize)

    p = add_parser("detect-outages", help="boot-anchored outage detection")
    _add_common(p)
    _add_corpus_opts(p)
    p.add_argument("--footprint", help="boot footprint file")
    p.add_argument("--rules")
    p.add_argument("--silence-threshold", type=int,
                   default=DEFAULT_SILENCE_THRESHOLD)
    p.add_argument("--burst-factor", type=float, default=DEFAULT_BURST_FACTOR)
    p.add_argument("--burst-minutes", type=int, default=DEFAULT_BURST_MINUTES)
    p.add_argument("--min-gap", type=int, default=DEFAULT_MIN_GAP)
    p.add_argument("--from", dest="time_from")
    p.add_argument("--to", dest="time_to")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_detect_outages)

    p = add_parser("classify", help="label outages against records")
    _add_common(p)
    p.add_argument("--outages", required=True,
                   help="output of detect-outages")
    _add_record_opts(p)
    p.add_argument("--correlation-window", type=int,
                   default=DEFAULT_TOLERANCE)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_classify)

    p = add_parser("detect-anomalies",
                       help="vicinity-based frequency anomaly sweep")
    _add_common(p)
    _add_corpus_opts(p, topology_required=True)
    p.add_argument("--vicinity", choices=PERSPECTIVES, default="combined")
    p.add_argument("--variant", choices=VARIANTS, default="raw")
    p.add_argument("--rules")
    _add_detect_params(p)
    p.add_argument("--jobs-file", help="job report (allocation vicinity)")
    p.add_argument("--failures-file",
                   help="classified events (time_of_failure vicinity)")
    p.add_argument("--maintenance",
                   help="drop events anchored inside announced windows")
    p.add_argument("--output", help="verdict TSV")
    p.add_argument("--events", help="extracted suspected-outage events TSV")
    p.set_defaults(func=cmd_detect_anomalies)

    p = add_parser("evaluate", help="score detections against truth")
    _add_common(p)
    p.add_argument("--detected", required=True,
                   help="events TSV or classified CSV")
    p.add_argument("--truth", required=True)
    p.add_argument("--tolerance", type=int, default=DEFAULT_TOLERANCE)
    p.add_argument("--name", default="detected", help="report row label")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("pipeline", help="one-shot end-to-end run")
    _add_common(p)
    p.add_argument("--workdir", default="lv_run")
    p.add_argument("--generate", action="store_true",
                   help="synthesize the corpus instead of reading one")
    _add_generator_opts(p)
    p.add_argument("--corpus")
    p.add_argument("--year", type=int)
    p.add_argument("--topology")
    p.add_argument("--truth")
    _add_record_opts(p)
    p.add_argument("--footprint")
    p.add_argument("--rules")
    p.add_argument("--variant", choices=VARIANTS + ("all",), default="all")
    _add_detect_params(p)
    p.add_argument("--tolerance", type=int, default=DEFAULT_TOLERANCE)
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.set_defaults(func=cmd_pipeline)

    if config_defaults:
        # one file serves every subcommand, so a key need only be one's option
        known = {a.dest for p in made for a in p._actions} - {"help"}
        unknown = sorted(set(config_defaults) - known)
        if unknown:
            raise ValueError(f"no subcommand has config key {unknown[0]!r}")
        for p in made:
            p.set_defaults(**{a.dest: _config_value(a, config_defaults[a.dest])
                              for a in p._actions if a.dest in config_defaults})
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config_path = _scan_config_path(argv)
    try:
        defaults = _load_config(config_path) if config_path else None
        try:
            parser = build_parser(defaults)
        except ValueError as exc:  # an unknown key or a bad value
            raise ValueError(f"{config_path}: {exc}") from None
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
