"""Command line front end: generate, ingest, detect, classify, evaluate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from importlib.resources import files as resource_files

from . import __version__
from .anonymize import (SubstitutionRuleSet, anonymize_stream, load_rules,
                        write_anonymized, read_anonymized)
from .classify import (LABELS, classify_all, load_classified,
                       write_classified)
from .datasources import load_job_report, load_maintenance, load_outage_db
from .detect import (DEFAULT_ALPHA, DEFAULT_CADENCE, DEFAULT_PERCENTILE,
                     DEFAULT_TAU_MIN, DEFAULT_WINDOW, CV_THRESHOLD, SGIndex,
                     write_verdicts)
from .evaluate import DEFAULT_TOLERANCE, render_reports, score
from .model import (ObservationRange, SyslogParseError, UnknownNodeError,
                    format_syslog_line, iso, load_topology, parse_iso,
                    parse_node_name, parse_syslog_stream, topen)
from .outages import (DEFAULT_BURST_FACTOR, DEFAULT_BURST_MINUTES,
                      DEFAULT_MIN_GAP, DEFAULT_SILENCE_THRESHOLD,
                      detect_outages, load_footprint, load_outages,
                      write_outages)
from .pipeline import (VARIANTS, detect_and_classify, drop_maintenance_events,
                       extract_events, run_manifest, run_variants,
                       sweep_perspective, write_events)
from .synth import (GeneratorSpec, desk_topology, generate, load_truth,
                    scale_topology, taurus_topology, write_corpus_files)
from .vicinity import PERSPECTIVES


def _data_file(name: str) -> str:
    return str(resource_files("logvicinity").joinpath("data", name))


def _atomic_write(path, writer) -> None:
    """Write via temp file + rename so readers never see partial output."""
    # the temp name keeps a .gz suffix: writers compress by the file name
    suffix = ".gz" if str(path).endswith(".gz") else ""
    tmp = f"{path}.tmp.{os.getpid()}{suffix}"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path) -> dict:
    """key=value lines; '#' comments; values coerced to int/float/bool."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if value.lower() in ("true", "false"):
                out[key] = value.lower() == "true"
                continue
            for cast in (int, float):
                try:
                    out[key] = cast(value)
                    break
                except ValueError:
                    continue
            else:
                out[key] = value
    return out


def _scan_config_path(argv):
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def _rules_from(args) -> SubstitutionRuleSet:
    path = getattr(args, "rules", None)
    return load_rules(path) if path else SubstitutionRuleSet()


def _footprint_from(args):
    path = getattr(args, "footprint", None) or _data_file("boot.footprint")
    return load_footprint(path)


def _year_from(args) -> int:
    return getattr(args, "year", None) or datetime.now(timezone.utc).year


def _read_raw(args, topology=None):
    """Parse a raw syslog corpus file into a list of entries."""
    resolver = topology.resolver() if topology else parse_node_name
    with topen(args.corpus) as fh:
        gen, stats = parse_syslog_stream(fh, _year_from(args), resolver,
                                         skip_unknown=not getattr(args, "strict", False))
        entries = list(gen)
    return entries, stats


def _read_stream(args, topology=None):
    """Raw or anonymized corpus, according to --anonymized."""
    if getattr(args, "anonymized", False):
        entries, _version = read_anonymized(args.corpus)
        return entries
    entries, _stats = _read_raw(args, topology)
    return entries


def _range_from(args, entries) -> ObservationRange:
    start = getattr(args, "time_from", None)
    end = getattr(args, "time_to", None)
    if not entries and (start is None or end is None):
        raise ValueError("empty corpus and no --from/--to bounds given")
    start = parse_iso(start) if start else min(e.timestamp for e in entries)
    end = parse_iso(end) if end else max(e.timestamp for e in entries)
    return ObservationRange(start, end)


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
    _atomic_write(path, lambda tmp: _dump_json(manifest, tmp))


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    spec = _spec_from(args)
    gen = generate(spec)
    paths = write_corpus_files(gen, args.out, compress=args.gzip)
    _emit_manifest(args, os.path.join(args.out, "run_manifest.json"),
                   extra={"outputs": paths})
    print(f"{len(gen.entries)} entries on {len(gen.topology)} nodes, "
          f"{len(gen.truth.failures)} injected failures -> {args.out}")
    return 0


def _spec_from(args) -> GeneratorSpec:
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
    topology = load_topology(args.topology) if args.topology else None
    entries, stats = _read_raw(args, topology)
    if args.output:
        _atomic_write(args.output, lambda tmp: _write_corpus(entries, tmp))
    summary = {
        "entries": stats.parsed,
        "skipped_unknown": stats.skipped_unknown,
        "nodes": len({e.node for e in entries}),
        "from": iso(min(e.timestamp for e in entries)) if entries else None,
        "to": iso(max(e.timestamp for e in entries)) if entries else None,
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    _emit_manifest(args, f"{args.output}.manifest.json" if args.output else None)
    return 0


def _write_corpus(entries, path) -> None:
    with topen(path, "w") as fh:
        for e in entries:
            fh.write(format_syslog_line(e) + "\n")


def cmd_anonymize(args) -> int:
    rules = _rules_from(args)
    topology = load_topology(args.topology) if args.topology else None
    entries, _stats = _read_raw(args, topology)
    _atomic_write(args.output, lambda tmp: write_anonymized(
        anonymize_stream(entries, rules), tmp, rules))
    _emit_manifest(args, f"{args.output}.manifest.json")
    print(f"anonymized {len(entries)} entries -> {args.output}")
    return 0


def cmd_detect_outages(args) -> int:
    topology = load_topology(args.topology) if args.topology else None
    entries = _read_stream(args, topology)
    obs_range = _range_from(args, entries)
    outages = detect_outages(
        entries, _footprint_from(args), _rules_from(args), obs_range,
        silence_threshold=args.silence_threshold,
        burst_factor=args.burst_factor, burst_minutes=args.burst_minutes,
        min_gap=args.min_gap)
    _atomic_write(args.output, lambda tmp: write_outages(outages, tmp))
    _emit_manifest(args, f"{args.output}.manifest.json")
    print(f"{len(outages)} outages -> {args.output}")
    return 0


def cmd_classify(args) -> int:
    outages = load_outages(args.outages)
    jobs = load_job_report(args.jobs_file) if args.jobs_file else []
    odb = load_outage_db(args.outage_db) if args.outage_db else []
    maint = load_maintenance(args.maintenance) if args.maintenance else []
    events = classify_all(outages, maint, jobs, odb, args.correlation_window)
    _atomic_write(args.output, lambda tmp: write_classified(events, tmp))
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
    topology = load_topology(args.topology)
    rules = _rules_from(args)
    entries = _read_stream(args, topology)
    obs_range = _range_from(args, entries)

    from .pipeline import prepare_stream
    if getattr(args, "anonymized", False):
        if args.variant not in ("anonymized", "filtered_anonymized"):
            raise ValueError("anonymized input supports only the anonymized "
                             "and filtered_anonymized variants")
        if args.variant == "filtered_anonymized":
            from .detect import filter_frequent_anonymized
            stream, _dropped = filter_frequent_anonymized(
                entries, args.percentile, args.cv_threshold)
        else:
            stream = entries
    else:
        stream, _dropped = prepare_stream(entries, args.variant, rules,
                                          args.percentile, args.cv_threshold)
    index = SGIndex(stream)

    jobs = load_job_report(args.jobs_file) if args.jobs_file else None
    failures = load_classified(args.failures_file) if args.failures_file else None
    sweep = sweep_perspective(index, args.vicinity, topology, obs_range,
                              jobs=jobs, failures=failures,
                              window=args.window, cadence=args.cadence,
                              alpha=args.alpha, tau_min=args.tau_min)

    flagged = sum(1 for res in sweep.results
                  for v in res.verdicts.values() if v != "normal")
    if args.output:
        _atomic_write(args.output, lambda tmp: write_verdicts(sweep, tmp))
    if args.events:
        maint = load_maintenance(args.maintenance) if args.maintenance else []
        events = drop_maintenance_events(
            extract_events(sweep, index, args.cadence), maint)
        _atomic_write(args.events, lambda tmp: write_events(events, tmp))
        print(f"{flagged} flagged node-moments, {len(events)} events")
    else:
        print(f"{flagged} flagged node-moments over {len(sweep.moments)} moments")
    if sweep.skipped_groups:
        for name, size in sweep.skipped_groups:
            print(f"skipped group {name} (size {size})", file=sys.stderr)
    _emit_manifest(args, f"{args.output}.manifest.json" if args.output else None)
    return 0


def _load_instants(path) -> list:
    """(node, instant) pairs from events TSV, classified CSV, or truth CSV.

    Classified rows keep only the regular_failure label; other shapes keep
    every row.
    """
    out = []
    with topen(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cells = line.split("\t") if "\t" in line else line.split(",")
            if cells[0] == "node":
                continue
            if len(cells) >= 3 and cells[2] in LABELS:
                if cells[2] != "regular_failure":
                    continue
            out.append((parse_node_name(cells[0]), parse_iso(cells[1])))
    return out


def cmd_evaluate(args) -> int:
    detected = _load_instants(args.detected)
    truth = _load_instants(args.truth)
    report = score(detected, truth, args.tolerance)
    print(render_reports({args.name: report}, args.format))
    _emit_manifest(args, None)
    return 0


def cmd_pipeline(args) -> int:
    workdir = args.workdir
    os.makedirs(workdir, exist_ok=True)
    rules = _rules_from(args)
    footprint = _footprint_from(args)

    if args.generate:
        spec = _spec_from(args)
        gen = generate(spec)
        write_corpus_files(gen, workdir, compress=args.gzip)
        entries, topology = gen.entries, gen.topology
        truth = [(f.node, f.outage_time) for f in gen.truth.failures]
        jobs, odb = gen.truth.jobs, gen.truth.outage_records
        maint = gen.truth.maintenance
        obs_range = gen.range
    else:
        if not args.corpus or not args.topology:
            raise ValueError("pipeline needs --generate or --corpus + --topology")
        topology = load_topology(args.topology)
        entries, _stats = _read_raw(args, topology)
        truth = ([(f.node, f.outage_time) for f in load_truth(args.truth)]
                 if args.truth else None)
        jobs = load_job_report(args.jobs_file) if args.jobs_file else []
        odb = load_outage_db(args.outage_db) if args.outage_db else []
        maint = load_maintenance(args.maintenance) if args.maintenance else []
        obs_range = _range_from(args, entries)

    runs = run_variants(
        entries, topology, obs_range, rules, maint,
        variants=VARIANTS if args.variant == "all" else (args.variant,),
        window=args.window, cadence=args.cadence, alpha=args.alpha,
        tau_min=args.tau_min, percentile=args.percentile,
        cv_threshold=args.cv_threshold)

    classified = detect_and_classify(
        entries, footprint, rules, obs_range, jobs=jobs, outage_records=odb,
        maintenance=maint, correlation_window=args.tolerance)
    _atomic_write(os.path.join(workdir, "classified.csv"),
                  lambda tmp: write_classified(classified, tmp))
    for name, run in runs.items():
        _atomic_write(os.path.join(workdir, f"events_{name}.tsv"),
                      lambda tmp, r=run: write_events(r.events, tmp))

    if truth is not None:
        reports = {name: score(run.events, truth, args.tolerance)
                   for name, run in runs.items()}
        regular = [(ev.node, ev.outage_time) for ev in classified
                   if ev.label == "regular_failure"]
        reports["classified_outages"] = score(regular, truth, args.tolerance)
        text = render_reports(reports, args.format)
        print(text)
        _atomic_write(os.path.join(workdir, f"report.{args.format}"),
                      lambda tmp: _write_text(text + "\n", tmp))
    else:
        for name, run in runs.items():
            print(f"{name}: {len(run.events)} events")

    _emit_manifest(args, os.path.join(workdir, "run_manifest.json"))
    return 0


def _write_text(text, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--manifest", help="run manifest path (JSON)")


def _add_corpus_opts(p, anonymized_ok=True):
    p.add_argument("--corpus", required=True, help="syslog file (.gz ok)")
    p.add_argument("--year", type=int, help="calendar year of the first entries")
    if anonymized_ok:
        p.add_argument("--anonymized", action="store_true",
                       help="corpus is an anonymized key file")


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
    p.add_argument("--topology", help="restrict to known nodes")
    p.add_argument("--strict", action="store_true",
                   help="fail on unknown hostnames instead of skipping")
    p.add_argument("--output", help="write the normalized corpus here")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_parse)

    p = add_parser("anonymize", help="substitute + hash a corpus")
    _add_common(p)
    _add_corpus_opts(p, anonymized_ok=False)
    p.add_argument("--topology")
    p.add_argument("--rules", help="substitution rules file")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_anonymize)

    p = add_parser("detect-outages", help="boot-anchored outage detection")
    _add_common(p)
    _add_corpus_opts(p)
    p.add_argument("--topology")
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
    p.add_argument("--jobs-file", help="job report CSV")
    p.add_argument("--outage-db", help="user-visible outage records")
    p.add_argument("--maintenance", help="announced maintenance windows")
    p.add_argument("--correlation-window", type=int,
                   default=DEFAULT_TOLERANCE)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_classify)

    p = add_parser("detect-anomalies",
                       help="vicinity-based frequency anomaly sweep")
    _add_common(p)
    _add_corpus_opts(p)
    p.add_argument("--topology", required=True)
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
    p.add_argument("--jobs-file")
    p.add_argument("--outage-db")
    p.add_argument("--maintenance")
    p.add_argument("--footprint")
    p.add_argument("--rules")
    p.add_argument("--variant", choices=VARIANTS + ("all",), default="all")
    _add_detect_params(p)
    p.add_argument("--tolerance", type=int, default=DEFAULT_TOLERANCE)
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.set_defaults(func=cmd_pipeline)

    if config_defaults:
        overrides = {k: v for k, v in config_defaults.items() if k != "func"}
        for p in made:
            p.set_defaults(**overrides)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config_path = _scan_config_path(argv)
    try:
        defaults = _load_config(config_path) if config_path else None
        parser = build_parser(defaults)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, SyslogParseError,
            UnknownNodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
