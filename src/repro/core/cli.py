"""Command-line interface: table discovery over a directory of CSV files.

Usage::

    python -m repro stats     <lake_dir>
    python -m repro build     <lake_dir> [--jobs 4] [--save snapdir]
    python -m repro keyword   <lake_dir> --query "air quality" [-k 5]
    python -m repro join      <lake_dir> --table cities --column 0 [-k 5]
    python -m repro union     <lake_dir> --table cities [-k 5] [--method starmie]
    python -m repro query     <lake_dir> --engine josie --table cities
                              [--explain] [--load snapdir]
    python -m repro navigate  <lake_dir> --intent "city population"
    python -m repro domains   <lake_dir>
    python -m repro profile   <lake_dir> [-o report.json] [--no-embeddings]
    python -m repro serve-metrics <lake_dir> [--port 9095] [--duration 60]
    python -m repro bench     <lake_dir> [-o BENCH_queries.json] [--repeat 3]
    python -m repro bench-compare old.json new.json [--threshold 0.2]
    python -m repro slo       [--log queries.jsonl | --url http://host:9095]
    python -m repro inspect   <lake_dir> [--json]
    python -m repro engines   [<lake_dir>] [--json]
    python -m repro top       --url http://host:9095 [--interval 2]

Every command ingests ``lake_dir`` (recursively, all ``*.csv``), runs the
offline pipeline stages it needs, and prints results to stdout.

``query --engine`` takes a search engine listed by ``repro engines``,
``federated``, or a legacy name (:data:`LEGACY_ENGINES`); ``keyword``,
``join`` and ``union`` are ``query`` with fewer options.  A command that
fails exits non-zero with a one-line message.

All commands accept ``-v/--verbose`` (repeatable: ``-v`` INFO, ``-vv``
DEBUG, to stderr), ``--profile`` (print the tracing span tree and the
metrics snapshot after the command's own output), ``--trace-out FILE``
(write a Chrome/Perfetto trace of the run), and ``--metrics-out FILE``
(write the Prometheus text page).  ``profile`` is the batch variant: it
runs the full offline pipeline with tracing on and emits a
machine-readable JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from repro import obs
from repro.bench.harness import BenchTrajectory, compare_trajectories
from repro.core.config import DiscoveryConfig
from repro.core.engine import FEDERATED_LABEL, REGISTRY, QueryRequest
from repro.core.errors import DiscoveryError
from repro.core.system import JOIN_METHODS, UNION_METHODS, DiscoverySystem
from repro.datalake.lake import DataLake
from repro.datalake.table import ColumnRef
from repro.obs import METRICS, TRACER
from repro.obs.server import ObservabilityServer
from repro.search.explain import summarize_results

log = obs.get_logger("core.cli")

#: Legacy ``query --engine`` spellings -> registry engine.  A dict is keyed
#: by ``--method``, its first key the default.
LEGACY_ENGINES: dict[str, str | dict[str, str]] = {
    "join": JOIN_METHODS,
    "containment": "lshensemble",
    "fuzzy": "pexeso",
    "correlated": "qcr",
    "union": UNION_METHODS,
}

#: ``query`` option defaults.  The ``keyword``, ``join`` and ``union``
#: subcommands run as ``query`` and take these for the options they lack.
QUERY_DEFAULTS = {
    "query": None,
    "table": None,
    "column": 0,
    "key_columns": "0",
    "value_column": 1,
    "method": None,
    "explain": False,
    "load": None,
}


def query_engines() -> list[str]:
    """``query --engine`` choices: every registered search engine, the
    federated dispatcher, and the legacy spellings."""
    search = [c.name for c in REGISTRY.all() if c.category == "search"]
    return [*search, FEDERATED_LABEL, *LEGACY_ENGINES]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="table discovery over a directory of CSVs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="log to stderr (-v info, -vv debug)",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="print tracing spans and metrics after the command",
        )
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="write a Chrome/Perfetto trace-event JSON of the run",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="write the Prometheus text-exposition metrics page",
        )

    def lake_arg(p):
        p.add_argument("lake_dir", help="directory of CSV files")
        p.add_argument("-k", type=int, default=5, help="results to return")
        common(p)

    p = sub.add_parser("stats", help="lake statistics")
    p.add_argument("lake_dir")
    common(p)

    p = sub.add_parser(
        "build",
        help="run the offline pipeline (optionally in parallel over the "
        "stage DAG) and optionally save an index snapshot",
    )
    p.add_argument("lake_dir", help="directory of CSV files")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads for the stage DAG (1 = sequential)",
    )
    p.add_argument(
        "--save",
        metavar="DIR",
        help="persist the built indexes as a snapshot directory "
        "(reload with `repro query --load DIR`)",
    )
    p.add_argument(
        "--skip",
        action="append",
        default=[],
        metavar="STAGE",
        help="skip a pipeline stage by name (repeatable)",
    )
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and everything that needs it)",
    )
    common(p)

    p = sub.add_parser("keyword", help="metadata keyword search")
    lake_arg(p)
    p.add_argument("--query", required=True)
    p.set_defaults(**QUERY_DEFAULTS, engine="keyword")

    p = sub.add_parser("join", help="joinable column search")
    lake_arg(p)
    p.add_argument("--table", required=True)
    p.add_argument("--column", type=int)
    p.add_argument("--method", choices=list(JOIN_METHODS))
    p.set_defaults(**QUERY_DEFAULTS, engine="join")

    p = sub.add_parser("union", help="unionable table search")
    lake_arg(p)
    p.add_argument("--table", required=True)
    p.add_argument("--method", choices=["starmie", "tus"])
    p.set_defaults(**QUERY_DEFAULTS, engine="union")

    p = sub.add_parser(
        "query",
        help="run one online query against any engine; --explain prints "
        "the per-stage candidate funnel",
    )
    lake_arg(p)
    p.add_argument(
        "--engine",
        required=True,
        choices=query_engines(),
        help="registered search engine, federated, or a legacy name",
    )
    p.add_argument("--query", help="keyword text (engine=keyword)")
    p.add_argument("--table", help="query table name (all other engines)")
    p.add_argument("--column", type=int, help="query column index")
    p.add_argument(
        "--key-columns",
        help="comma-separated key column indexes (engine=mate)",
    )
    p.add_argument(
        "--value-column",
        type=int,
        help="numeric value column (engine=qcr)",
    )
    p.add_argument(
        "--method",
        help="engine=join: exact|containment; engine=union: "
        "starmie|tus|santos",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print EXPLAIN provenance: the per-stage candidate funnel",
    )
    p.add_argument(
        "--load",
        metavar="DIR",
        help="load the indexes from a snapshot directory (written by "
        "`repro build --save`) instead of rebuilding the pipeline; the "
        "snapshot must match the lake or the query is refused",
    )
    p.set_defaults(**QUERY_DEFAULTS)

    p = sub.add_parser("navigate", help="navigate the lake by intent")
    lake_arg(p)
    p.add_argument("--intent", required=True)

    p = sub.add_parser("domains", help="discover value domains")
    lake_arg(p)

    p = sub.add_parser(
        "profile",
        help="run the full offline pipeline and emit a JSON "
        "observability report (span tree + metrics)",
    )
    p.add_argument("lake_dir", help="directory of CSV files")
    p.add_argument(
        "-o", "--output", help="write the JSON report here instead of stdout"
    )
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and everything that needs it)",
    )
    common(p)

    p = sub.add_parser(
        "serve-metrics",
        help="serve /metrics (Prometheus), /health, /querylog, /trace "
        "over HTTP from a background thread",
    )
    p.add_argument(
        "lake_dir",
        nargs="?",
        help="optional: build the pipeline on this lake and run warmup "
        "queries so the endpoint has data",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9095)
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit (default: until interrupted)",
    )
    common(p)

    p = sub.add_parser(
        "bench",
        help="time every online query path on a lake; write a "
        "BENCH_<experiment>.json trajectory",
    )
    p.add_argument("lake_dir", help="directory of CSV files")
    p.add_argument(
        "-o",
        "--output",
        default=".",
        help="output file, or a directory to get BENCH_<experiment>.json",
    )
    p.add_argument("--experiment", default="queries")
    p.add_argument("--repeat", type=int, default=3)
    common(p)

    p = sub.add_parser(
        "bench-compare",
        help="regression gate: compare two BENCH_*.json trajectories; "
        "exits 1 on latency regressions beyond the threshold",
    )
    p.add_argument("old", help="baseline trajectory JSON")
    p.add_argument("new", help="candidate trajectory JSON")
    p.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed latency growth factor (0.2 = +20%%)",
    )
    p.add_argument(
        "--report-only",
        action="store_true",
        help="print the comparison but always exit 0",
    )
    common(p)

    p = sub.add_parser(
        "slo",
        help="evaluate SLO burn rates over a query log; exits 1 on breach "
        "(cron/CI friendly)",
    )
    p.add_argument(
        "--log",
        metavar="FILE",
        help="JSONL query log (as written by the QUERY_LOG sink)",
    )
    p.add_argument(
        "--url",
        metavar="URL",
        help="fetch /querylog from a running observability server instead",
    )
    p.add_argument(
        "--objective",
        action="append",
        default=[],
        metavar="ENGINE:P95_MS:ERROR_RATE[:WINDOW_S]",
        help="objective spec (repeatable; empty field skips the signal; "
        "default: *:500:0.05:3600)",
    )
    p.add_argument(
        "--burn-threshold",
        type=float,
        default=1.0,
        help="burn rate at/above which both windows must be to breach",
    )
    p.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    common(p)

    p = sub.add_parser(
        "inspect",
        help="build the pipeline and report per-index introspection stats "
        "(sizes, skew, memory footprint)",
    )
    p.add_argument("lake_dir", help="directory of CSV files")
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and the indexes that need it)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the reports as JSON"
    )
    common(p)

    p = sub.add_parser(
        "engines",
        help="list the registered discovery engines (stage, dependencies, "
        "query label, index kind); with a lake, also build it and report "
        "per-engine built status and item counts",
    )
    p.add_argument(
        "lake_dir",
        nargs="?",
        help="optional: build the pipeline on this lake and report which "
        "engines came up and how many items each indexed",
    )
    p.add_argument(
        "--no-embeddings",
        action="store_true",
        help="skip the embedding stage (and the engines that need it)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the listing as JSON"
    )
    common(p)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a running observability server "
        "(per-engine QPS, p50/p95, error rate, SLO burn)",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:9095",
        help="observability server base URL",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (s)"
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render N frames then exit (default: until interrupted)",
    )
    p.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="QPS window in seconds",
    )
    common(p)
    return parser


def _system(lake_dir: str, need_embeddings: bool, domains: bool = False):
    log.info("loading lake from %s", lake_dir)
    lake = DataLake.from_directory(lake_dir)
    config = DiscoveryConfig(
        enable_embeddings=need_embeddings,
        enable_domains=domains,
        embedding_min_count=1,
    )
    log.info("building offline pipeline (embeddings=%s)", need_embeddings)
    return DiscoverySystem(lake, config).build()


def _run_profile(args, out) -> int:
    """The ``profile`` subcommand: trace a full offline build, dump JSON."""
    obs.reset()
    obs.enable_tracing()
    try:
        lake = DataLake.from_directory(args.lake_dir)
        config = DiscoveryConfig(
            enable_embeddings=not args.no_embeddings,
            enable_domains=True,
            embedding_min_count=1,
        )
        system = DiscoverySystem(lake, config).build()
        report = obs.report(
            extra={
                "lake_dir": str(args.lake_dir),
                "lake": lake.stats(),
                "stage_seconds": system.stats.stage_seconds,
            }
        )
        text = json.dumps(report, indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text + "\n")
            print(f"wrote {args.output}", file=out)
        else:
            print(text, file=out)
        return 0
    finally:
        obs.disable_tracing()


def _run_build(args, out) -> int:
    """The ``build`` subcommand: parallel offline build + snapshot save."""
    lake = DataLake.from_directory(args.lake_dir)
    config = DiscoveryConfig(
        enable_embeddings=not args.no_embeddings,
        embedding_min_count=1,
        build_jobs=max(1, args.jobs),
    )
    t0 = time.perf_counter()
    system = DiscoverySystem(lake, config).build(skip=set(args.skip))
    wall_ms = (time.perf_counter() - t0) * 1000
    stats = system.stats
    print(f"lake: {stats.tables} tables, {stats.columns} columns", file=out)
    print(f"vocabulary: {stats.vocabulary} values", file=out)
    if stats.domains_found:
        print(f"domains discovered: {stats.domains_found}", file=out)
    for stage, seconds in stats.stage_seconds.items():
        print(f"  {stage:<18} {seconds * 1000:8.1f} ms", file=out)
    print(
        f"built in {wall_ms:.1f} ms wall with {config.build_jobs} job(s) "
        f"(peak stage concurrency "
        f"{system.provenance['max_concurrent_stages']})",
        file=out,
    )
    if args.save:
        manifest = system.save(args.save)
        print(
            f"saved snapshot to {args.save} "
            f"(config {manifest.config_hash}, "
            f"lake {manifest.lake_fingerprint[:12]})",
            file=out,
        )
    return 0


def _run_query(args, out) -> int:
    """The ``query`` subcommand (and ``keyword``/``join``/``union``): one
    online query through ``DiscoverySystem.query``, optionally EXPLAINed."""
    name = _engine_name(args)
    if args.load:
        lake = DataLake.from_directory(args.lake_dir)
        system = DiscoverySystem.load(args.load, lake=lake)
    else:
        embeddings = _needs_embeddings(name)
        system = _system(args.lake_dir, need_embeddings=embeddings)
    request = _request(args, system.lake)
    if name == FEDERATED_LABEL:
        query = args.table or args.query
        if query is None:
            raise SystemExit(f"--table or --query is required for {name}")
        hits, report = system.search(query, k=args.k), None
    else:
        engine = system.engines[name]
        if not engine.accepts(request):
            raise SystemExit(
                f"{_missing_flag(engine, request)} is required for "
                f"engine={args.engine}"
            )
        res = system.query(name, request)
        hits, report = res if request.explain else (res, None)
    if report is not None:
        print(report.render(), file=out)
    else:
        for ident, score in summarize_results(hits, limit=len(hits)):
            print(f"{ident}\t{score:.3f}", file=out)
    return 0


def _engine_name(args) -> str:
    """The registry engine (or ``federated``) a query command names."""
    alias = LEGACY_ENGINES.get(args.engine, args.engine)
    if isinstance(alias, str):
        return alias
    method = args.method or next(iter(alias))
    if method not in alias:
        raise SystemExit(
            f"unknown {args.engine} method {method!r}; "
            f"choose from {', '.join(alias)}"
        )
    return alias[method]


def _needs_embeddings(name: str) -> bool:
    """Whether serving ``name`` needs the embedding stage (federated asks
    every registered engine)."""
    classes = [REGISTRY.get(name)] if name in REGISTRY else REGISTRY.all()
    return any("embeddings" in cls.depends_on for cls in classes)


def _request(args, lake: DataLake) -> QueryRequest:
    """One request carrying every input the options give; each engine
    reads the fields it understands."""
    table = lake.table(args.table) if args.table else None
    return QueryRequest(
        k=args.k,
        text=args.query,
        table=table,
        column=lake.column(ColumnRef(args.table, args.column))
        if table
        else None,
        exclude_table=args.table,
        key_columns=tuple(
            int(c) for c in args.key_columns.split(",") if c != ""
        ),
        key_column=args.column,
        value_column=args.value_column,
        explain=args.explain,
    )


def _missing_flag(engine, request: QueryRequest) -> str:
    """The option whose absence makes ``engine`` refuse ``request``."""
    if engine.accepts(replace(request, text="?")):
        return "--query"
    return "--table" if request.table is None else "--key-columns"


def _run_serve_metrics(args, out) -> int:
    """The ``serve-metrics`` subcommand: background HTTP telemetry."""
    if args.lake_dir:
        system = _system(args.lake_dir, need_embeddings=False)
        # Warmup queries so /metrics and /querylog have per-engine series.
        names = system.lake.table_names()
        if names:
            table = system.lake.table(names[0])
            system.keyword_search(" ".join(table.header[:2]) or "data", k=3)
            text_cols = [i for i, _ in table.text_columns()]
            if text_cols:
                system.joinable_search(
                    ColumnRef(table.name, text_cols[0]), k=3
                )
                system.multi_attribute_search(table, [text_cols[0]], k=3)
        # Publish index introspection so /indexstats has this build's data.
        system.index_stats()
    server = ObservabilityServer(args.host, args.port).start()
    print(
        f"serving {server.url}/metrics /health /querylog /trace /slo "
        "/indexstats",
        file=out,
    )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive loop
            while True:
                time.sleep(1)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
    return 0


def _run_bench(args, out) -> int:
    """The ``bench`` subcommand: time each online query path, write a
    ``BENCH_<experiment>.json`` trajectory."""
    lake = DataLake.from_directory(args.lake_dir)
    config = DiscoveryConfig(enable_embeddings=True, embedding_min_count=1)
    traj = BenchTrajectory(
        experiment=args.experiment,
        meta={"lake": lake.stats(), "repeat": args.repeat},
    )
    t0 = time.perf_counter()
    system = DiscoverySystem(lake, config).build()
    traj.add("pipeline.build", (time.perf_counter() - t0) * 1000)

    # One request carrying every input the first table offers; each case
    # runs when its engine accepts it.
    table = system.lake.table(system.lake.table_names()[0])
    key = next((i for i, _ in table.text_columns()), None)
    value = next((i for i, _ in table.numeric_columns()), None)
    request = QueryRequest(
        k=5,
        text=" ".join(table.header[:2]) or "data",
        table=table,
        column=None if key is None else table.columns[key],
        exclude_table=table.name,
        key_columns=None if key is None else (key,),
        key_column=key,
        value_column=value,
    )
    cases = {
        "query.keyword": "keyword",
        "query.join.exact": "josie",
        "query.join.containment": "lshensemble",
        "query.fuzzy_join": "pexeso",
        "query.multi_attribute": "mate",
        "query.correlated": "qcr",
        "query.union.starmie": "starmie",
        "query.union.tus": "tus",
    }
    for name, engine in cases.items():
        if not system.engines[engine].accepts(request):
            continue
        try:
            stats = traj.add_timed(
                name,
                lambda: system.query(engine, request),
                repeat=args.repeat,
            )
            log.info("bench %s: %.3f ms", name, stats["latency_ms"])
        except Exception as exc:
            log.warning("bench %s skipped: %s", name, exc)
    path = traj.write(args.output)
    print(f"wrote {path} ({len(traj.records)} records)", file=out)
    return 0


def _run_slo(args, out) -> int:
    """The ``slo`` subcommand: the SLO burn-rate gate."""
    from repro.obs import health
    from repro.obs.querylog import QueryRecord, load_jsonl

    if args.log and args.url:
        raise SystemExit("give either --log or --url, not both")
    if args.log:
        records = load_jsonl(args.log)
    elif args.url:
        import json as _json
        import urllib.request

        with urllib.request.urlopen(
            args.url.rstrip("/") + "/querylog", timeout=10
        ) as resp:
            payload = _json.loads(resp.read().decode("utf-8"))
        records = [QueryRecord.from_dict(d) for d in payload["records"]]
    else:
        records = obs.QUERY_LOG.records()
    objectives = (
        tuple(health.SloObjective.parse(s) for s in args.objective)
        or health.DEFAULT_OBJECTIVES
    )
    report = health.evaluate(
        records, objectives, burn_threshold=args.burn_threshold
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def _run_inspect(args, out) -> int:
    """The ``inspect`` subcommand: per-index introspection reports."""
    system = _system(args.lake_dir, need_embeddings=not args.no_embeddings)
    reports = system.index_stats()
    if args.json:
        print(
            json.dumps([r.to_dict() for r in reports], indent=2), file=out
        )
    else:
        total = sum(r.memory_bytes for r in reports)
        print(
            f"{len(reports)} indexes, estimated {total / 1024:.1f} KiB total",
            file=out,
        )
        prov = system.provenance
        if prov:
            fields = ", ".join(
                f"{k}={v}" for k, v in sorted(prov.items()) if k != "source"
            )
            print(f"provenance: {prov.get('source', '?')} ({fields})", file=out)
        for r in reports:
            print(r.render(), file=out)
    return 0


def _run_engines(args, out) -> int:
    """The ``engines`` subcommand: the engine registry, optionally
    enriched with built status and item counts from a live build."""
    from repro.core.engine import REGISTRY

    rows: list[dict] = []
    if args.lake_dir:
        system = _system(
            args.lake_dir, need_embeddings=not args.no_embeddings
        )
        for engine in system.engines.values():
            row = engine.describe()
            row["built"] = engine.is_built()
            row["items"] = (
                engine.items(engine.stats()) if engine.is_built() else 0
            )
            rows.append(row)
    else:
        rows = [cls().describe() for cls in REGISTRY.all()]
    if args.json:
        print(json.dumps(rows, indent=2), file=out)
        return 0
    print(f"{len(rows)} registered engines", file=out)
    for row in rows:
        deps = ",".join(row["depends_on"]) or "-"
        line = (
            f"{row['name']:<12} stage={row['stage']:<17} "
            f"label={row['query_label']:<15} kind={row['kind']:<18} "
            f"deps={deps}"
        )
        if "built" in row:
            line += (
                f" built={'yes' if row['built'] else 'no':<3}"
                f" items={row['items']}"
            )
        print(line, file=out)
    return 0


def _run_top(args, out) -> int:
    """The ``top`` subcommand: the live terminal dashboard."""
    from repro.obs.top import TopDashboard

    dash = TopDashboard(args.url, window_s=args.window)
    try:
        frames = dash.run(
            iterations=args.iterations,
            interval=args.interval,
            out=out,
            clear=out.isatty() if hasattr(out, "isatty") else False,
        )
    except OSError as exc:  # URLError subclasses OSError
        raise SystemExit(f"cannot reach {args.url}: {exc}")
    return 0 if frames else 1


def _run_bench_compare(args, out) -> int:
    """The ``bench-compare`` subcommand: the latency regression gate."""
    old = BenchTrajectory.load(args.old)
    new = BenchTrajectory.load(args.new)
    cmp = compare_trajectories(old, new, threshold=args.threshold)
    print(cmp.render(), file=out)
    if args.report_only:
        return 0
    return 0 if cmp.ok else 1


def _run_stats(args, out) -> int:
    """The ``stats`` subcommand: lake statistics, no pipeline."""
    lake = DataLake.from_directory(args.lake_dir)
    for key, value in lake.stats().items():
        print(f"{key:>8}: {value}", file=out)
    return 0


def _run_navigate(args, out) -> int:
    """The ``navigate`` subcommand: tables at the node reached by intent."""
    system = _system(args.lake_dir, need_embeddings=True)
    for name in system.navigate(args.intent):
        print(name, file=out)
    return 0


def _run_domains(args, out) -> int:
    """The ``domains`` subcommand: the discovered value domains."""
    system = _system(args.lake_dir, need_embeddings=False, domains=True)
    for i, domain in enumerate(system.domains[: args.k]):
        sample = ", ".join(sorted(domain.values)[:5])
        print(
            f"domain {i}: {len(domain)} values "
            f"({len(domain.columns)} columns) e.g. {sample}",
            file=out,
        )
    return 0


#: subcommand -> its runner
COMMANDS = {
    "stats": _run_stats,
    "build": _run_build,
    "keyword": _run_query,
    "join": _run_query,
    "union": _run_query,
    "query": _run_query,
    "navigate": _run_navigate,
    "domains": _run_domains,
    "profile": _run_profile,
    "serve-metrics": _run_serve_metrics,
    "bench": _run_bench,
    "bench-compare": _run_bench_compare,
    "slo": _run_slo,
    "inspect": _run_inspect,
    "engines": _run_engines,
    "top": _run_top,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    obs.configure_logging(getattr(args, "verbose", 0))
    # `profile` manages tracing itself; --profile wraps any other command,
    # and --trace-out implies span collection (a trace needs spans).
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    capturing = (
        getattr(args, "profile", False) or bool(trace_out)
    ) and args.command != "profile"
    if capturing:
        obs.reset()
        obs.enable_tracing()
    try:
        return COMMANDS[args.command](args, out)
    except DiscoveryError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from exc
    finally:
        if capturing:
            obs.disable_tracing()
        if capturing and getattr(args, "profile", False):
            print("\n-- profile: spans --", file=out)
            print(TRACER.render(), file=out)
            print("\n-- profile: metrics --", file=out)
            print(METRICS.render(), file=out)
        if trace_out:
            with open(trace_out, "w", encoding="utf-8") as f:
                json.dump(TRACER.to_chrome_trace(), f)
                f.write("\n")
            print(f"wrote {trace_out}", file=out)
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as f:
                f.write(METRICS.to_prometheus())
            print(f"wrote {metrics_out}", file=out)
