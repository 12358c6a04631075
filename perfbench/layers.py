"""Per-layer measurement for the traced run, all from outside ``src/``.

Spans are recorded here, around calls into each layer's public functions:
the facade call, ``Engine.query`` and ``Engine.build`` (wrapped per adapter
instance), and snapshot save/load. Work counts are deltas of
``repro.obs.METRICS`` counters taken around each build and each query.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.sketch.hashing as hashing
from repro.core import REGISTRY, STAGE_DEPS, DiscoverySystem
from repro.obs import METRICS
from repro.understanding.embedding import EmbeddingSpace

from references import RECALL_NAME
from workloads import FAMILIES

#: Engines with per-layer query, memory and snapshot metrics.
ENGINES = (
    "keyword", "josie", "lshensemble", "jaccard_lsh", "tus", "starmie",
    "pexeso", "santos", "qcr", "mate", "organization",
)
#: Adapters with a build time: both configs leave the domains stage off.
BUILDERS = ("embeddings", "annotation") + ENGINES
STAGES = (
    "embeddings", "annotation", "keyword_index", "join_index", "union_index",
    "correlation_index", "mate_index", "navigation",
)
#: Families whose median only some workloads serve (reported per layer).
SPECIFIC_FAMILIES = ("fuzzy_join", "correlated", "union_starmie", "union_santos")
RECALLS = tuple(RECALL_NAME.values())
FACADE_FAMILIES = tuple(FAMILIES)
#: Stages shorter than this are left out of the build-split check: their
#: own bookkeeping (span, gauge, log line; tens of microseconds) is a large
#: share of a no-op stage.
SPLIT_MIN_STAGE_S = 0.01
JOSIE_STATS = (
    "posting_lists_read", "posting_entries_read", "candidates_examined",
    "sets_verified", "query_tokens",
)


def per_layer_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs = [(f"build.{b}_s", "s") for b in BUILDERS]
    specs += [(f"build.stage.{s}_s", "s") for s in STAGES]
    specs += [
        ("build.critical_path_s", "s"),
        ("build.max_concurrent_stages", "count"),
        ("build.split_max_gap", "ratio"),
        ("build.pexeso_share_of_setup", "ratio"),
    ]
    specs += [(f"facade.{f}.self_us", "us") for f in FACADE_FAMILIES]
    specs += [(f"engine.{e}.query_p50_ms", "ms") for e in ENGINES]
    specs += [(f"family.{f}.p50_ms", "ms") for f in SPECIFIC_FAMILIES]
    specs += [
        ("work.mate.rows_checked", "count"),
        ("work.mate.rows_passed_filter", "count"),
        ("work.mate.filter_pass_ratio", "ratio"),
        ("work.pexeso.candidates_verified", "count"),
        ("work.pexeso.results_returned", "count"),
        ("work.pexeso.useful_ratio", "ratio"),
        ("work.hnsw.searches", "count"),
        ("work.hnsw.dist_per_query", "count"),
        ("work.hnsw.dist_build", "count"),
        ("work.lshensemble.candidates_returned", "count"),
        ("work.lshensemble.verified_ratio", "ratio"),
        ("work.containment.candidates_checked", "count"),
        ("work.containment.pruned_ratio", "ratio"),
        ("work.starmie.candidates_examined", "count"),
        ("work.keyword.docs_scored", "count"),
        ("work.qcr.sketches_compared", "count"),
    ]
    specs += [(f"work.josie.{s}", "count") for s in JOSIE_STATS]
    specs += [
        ("work.tus.stable_hash64_calls", "count"),
        ("work.tus.embed_set_calls", "count"),
    ]
    specs += [(f"recall.{r}", "ratio") for r in RECALLS]
    specs += [(f"index.{e}.memory_bytes", "bytes") for e in ENGINES]
    specs += [(f"index.{e}.items", "count") for e in ENGINES]
    specs += [
        ("snapshot.save_s", "s"),
        ("snapshot.load_s", "s"),
        ("snapshot.bytes", "bytes"),
    ]
    specs += [(f"snapshot.payload_bytes.{e}", "bytes") for e in ENGINES]
    specs += [
        ("snapshot.payload_bytes.foundation", "bytes"),
        ("snapshot.payload_bytes.lake", "bytes"),
        ("obs.trace_overhead", "ratio"),
        ("obs.untraced_qps", "1/s"),
        ("obs.traced_qps", "1/s"),
    ]
    return specs


def counters() -> dict[str, float]:
    return METRICS.snapshot()["counters"]


def delta(after: dict, before: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanLog:
    """The benchmark's own spans: (id, parent, query id, name, start, end),
    held in memory and written out when the run ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.query_id: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in at exit
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.query_id, name, t0, t1)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, _, _, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "query", "name", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _adapters(system) -> dict:
    return {**system.foundations, **system.engines}


def instrumented_build(workload, spans: SpanLog) -> tuple:
    """Build a system with every adapter's ``build`` timed from outside.
    Returns (system, per-layer metrics, setup seconds)."""
    t0 = time.perf_counter()
    system = workload.new_system()
    build_s: dict[str, float] = defaultdict(float)

    def timed(name, build):
        def run(ctx):
            with spans.span(f"build.{name}"):
                t = time.perf_counter()
                build(ctx)
                build_s[name] += time.perf_counter() - t

        return run

    for name, adapter in _adapters(system).items():
        adapter.build = timed(name, adapter.build)
    before = counters()
    with spans.span("setup"):
        system.build()
    setup_s = time.perf_counter() - t0
    work = delta(counters(), before)
    for adapter in _adapters(system).values():
        del adapter.build

    stage_s = system.stats.stage_seconds
    members = REGISTRY.by_stage(_adapters(system))
    gaps = [
        (stage_s[s] - sum(build_s[a.name] for a in members[s])) / stage_s[s]
        for s in stage_s
        if stage_s[s] >= SPLIT_MIN_STAGE_S
    ]
    path: dict[str, float] = {}
    for s in stage_s:  # canonical order is a topological order
        path[s] = stage_s[s] + max(
            (path[d] for d in STAGE_DEPS.get(s, ()) if d in path), default=0.0
        )
    metrics = {f"build.{b}_s": build_s.get(b, 0.0) for b in BUILDERS}
    metrics.update({f"build.stage.{s}_s": stage_s.get(s, 0.0) for s in STAGES})
    metrics["build.critical_path_s"] = max(path.values())
    metrics["build.max_concurrent_stages"] = system.provenance["max_concurrent_stages"]
    metrics["build.split_max_gap"] = max(abs(g) for g in gaps)
    metrics["build.pexeso_share_of_setup"] = build_s.get("pexeso", 0.0) / setup_s
    metrics["work.hnsw.dist_build"] = work.get("index.hnsw.insert_distance_computations", 0)
    return system, metrics, setup_s


def snapshot_metrics(system, directory, workload, spans: SpanLog) -> tuple:
    """Save and reload ``system``; returns (reloaded system, metrics)."""
    with spans.span("snapshot.save"):
        t = time.perf_counter()
        system.save(directory)
        save_s = time.perf_counter() - t
    with spans.span("snapshot.load"):
        t = time.perf_counter()
        loaded = DiscoverySystem.load(
            directory, lake=workload.lake, config=workload.config, ontology=workload.ontology
        )
        load_s = time.perf_counter() - t

    def size(obj) -> int:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    metrics = {
        "snapshot.save_s": save_s,
        "snapshot.load_s": load_s,
        "snapshot.bytes": sum(p.stat().st_size for p in directory.iterdir()),
        "snapshot.payload_bytes.foundation": size(
            {n: f.to_payload() for n, f in system.foundations.items()}
        ),
        "snapshot.payload_bytes.lake": size(system.lake),
    }
    for e in ENGINES:
        engine = system.engines[e]
        metrics[f"snapshot.payload_bytes.{e}"] = (
            size(engine.to_payload()) if engine.is_built() else 0
        )
    return loaded, metrics


def index_metrics(system) -> dict[str, float]:
    metrics = {}
    reports = {r.name: r for r in system.index_stats()}
    for e in ENGINES:
        r = reports.get(e)
        metrics[f"index.{e}.memory_bytes"] = r.memory_bytes if r else 0
        metrics[f"index.{e}.items"] = r.items if r else 0
    return metrics


class QueryTaps:
    """Wraps each facade call, each engine instance's ``query`` and, while
    installed, the two TUS helpers: records spans, engine call counts,
    helper calls and counter deltas."""

    def __init__(self, system, spans: SpanLog):
        self.system = system
        self.spans = spans
        self.calls: dict[str, int] = defaultdict(int)
        self.tus_helpers: dict[str, int] = defaultdict(int)
        #: query id -> family
        self.families: dict[int, str] = {}
        #: counter -> summed per-query delta
        self.work: dict[str, float] = defaultdict(float)
        self._active: list[str] = []

    def facade(self, q, call):
        """Run one facade ``call`` for query ``q`` inside a facade span."""
        self.spans.query_id = len(self.families)
        self.families[self.spans.query_id] = q.family
        before = counters()
        with self.spans.span("facade"):
            result = call()
        for k, v in delta(counters(), before).items():
            self.work[k] += v
        self.spans.query_id = None
        return result

    def _wrap_engine(self, name, query):
        def run(request):
            self.calls[name] += 1
            self._active.append(name)
            try:
                with self.spans.span(f"engine.{name}"):
                    return query(request)
            finally:
                self._active.pop()

        return run

    def _count(self, helper, fn):
        def run(*args, **kwargs):
            if self._active and self._active[-1] == "tus":
                self.tus_helpers[helper] += 1
            return fn(*args, **kwargs)

        return run

    @contextmanager
    def installed(self):
        engines = self.system.engines
        for name, engine in engines.items():
            engine.query = self._wrap_engine(name, engine.query)
        stable_hash64 = hashing.stable_hash64
        embed_set = EmbeddingSpace.embed_set
        hashing.stable_hash64 = self._count("stable_hash64", stable_hash64)
        EmbeddingSpace.embed_set = self._count("embed_set", embed_set)
        try:
            yield self
        finally:
            hashing.stable_hash64 = stable_hash64
            EmbeddingSpace.embed_set = embed_set
            for engine in engines.values():
                del engine.query


def query_layer_metrics(taps: QueryTaps) -> dict:
    """Facade self time, engine medians and per-call work counts from the
    instrumented phase."""
    spans, families, work = taps.spans, taps.families, taps.work
    self_s = spans.self_times()
    facade: dict[str, list[float]] = defaultdict(list)
    engine: dict[str, list[float]] = defaultdict(list)
    for sid, _, qid, name, t0, t1 in spans.spans:
        if name == "facade":
            facade[families[qid]].append(self_s[sid])
        elif name.startswith("engine."):
            engine[name[len("engine."):]].append(t1 - t0)

    def med(xs, scale):
        return statistics.median(xs) * scale if xs else 0.0

    calls = taps.calls
    m = {f"facade.{f}.self_us": med(facade.get(f), 1e6) for f in FACADE_FAMILIES}
    m.update({f"engine.{e}.query_p50_ms": med(engine.get(e), 1e3) for e in ENGINES})

    def per_call(counter, engine_name):
        return _ratio(work.get(counter, 0), calls[engine_name])

    checked = work.get("search.containment.candidates_checked", 0)
    pruned = work.get("search.containment.candidates_pruned", 0)
    hnsw_q = work.get("index.hnsw.queries", 0)
    m.update({
        "work.mate.rows_checked": per_call("search.mate.rows_checked", "mate"),
        "work.mate.rows_passed_filter": per_call("search.mate.rows_passed_filter", "mate"),
        "work.mate.filter_pass_ratio": _ratio(
            work.get("search.mate.rows_passed_filter", 0),
            work.get("search.mate.rows_checked", 0),
        ),
        "work.pexeso.candidates_verified": per_call(
            "search.pexeso.candidates_verified", "pexeso"
        ),
        "work.pexeso.results_returned": per_call("search.pexeso.results_returned", "pexeso"),
        "work.pexeso.useful_ratio": _ratio(
            work.get("search.pexeso.results_returned", 0),
            work.get("search.pexeso.candidates_verified", 0),
        ),
        "work.hnsw.searches": _ratio(hnsw_q, calls["starmie"] + calls["pexeso"]),
        "work.hnsw.dist_per_query": _ratio(
            work.get("index.hnsw.distance_computations", 0), hnsw_q
        ),
        "work.lshensemble.candidates_returned": per_call(
            "index.lshensemble.candidates_returned", "lshensemble"
        ),
        "work.lshensemble.verified_ratio": _ratio(
            checked - pruned, work.get("index.lshensemble.candidates_returned", 0)
        ),
        "work.containment.candidates_checked": per_call(
            "search.containment.candidates_checked", "lshensemble"
        ),
        "work.containment.pruned_ratio": _ratio(pruned, checked),
        "work.starmie.candidates_examined": per_call(
            "search.starmie.candidates_examined", "starmie"
        ),
        "work.keyword.docs_scored": per_call("search.keyword.docs_scored", "keyword"),
        "work.qcr.sketches_compared": per_call("search.qcr.sketches_compared", "qcr"),
        "work.tus.stable_hash64_calls": _ratio(taps.tus_helpers["stable_hash64"], calls["tus"]),
        "work.tus.embed_set_calls": _ratio(taps.tus_helpers["embed_set"], calls["tus"]),
    })
    for s in JOSIE_STATS:
        m[f"work.josie.{s}"] = per_call(f"search.josie.{s}", "josie")
    return m
