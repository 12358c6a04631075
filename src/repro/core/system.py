"""The Figure-1 system: an end-to-end table discovery facade.

``DiscoverySystem`` is this repository's realization of the tutorial's
architecture diagram: a Data Lake Management System feeding Table
Understanding components (annotation, domain discovery, embeddings,
indexing), which in turn power the Table Search Engine (keyword, joinable,
unionable), Navigation Support, and Data Science / Application Support.

Every search method lives behind the :mod:`repro.core.engine` protocol:
the offline stage DAG, the per-engine snapshot payloads, the
``index_stats()`` introspection, the ``repro engines`` listing, and the
online query path are all derived from the
:data:`~repro.core.engine.REGISTRY` rather than wired by hand.
:meth:`DiscoverySystem.query` serves one :class:`QueryRequest` with one
registered engine; the classic ``keyword_search`` / ``joinable_search`` /
... methods only normalize their historical arguments into a request for
it, and :meth:`DiscoverySystem.search` fans one request across engines
and merges the rankings.

Offline: ``build()`` runs the understanding + indexing pipeline.
Online: ``query``, ``keyword_search``, ``joinable_search``,
``unionable_search``, ``correlated_search``, ``fuzzy_joinable_search``,
``multi_attribute_search``, ``search`` (federated), ``navigate`` /
``organization``, ``related_columns``, ``augment_for_ml``.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import repro.engines  # noqa: F401  - populate the engine registry
from repro.apps.arda import ArdaAugmenter, AugmentationReport
from repro.core.config import DiscoveryConfig, PipelineStats
from repro.core.dag import Stage, StageGraph
from repro.core.engine import (
    FEDERATED_LABEL,
    REGISTRY,
    Engine,
    EngineContext,
    FederatedHit,
    QueryRequest,
)
from repro.core.errors import ConfigError, LakeError
from repro.obs import METRICS, QUERY_LOG, SAMPLER, TRACER, get_logger
from repro.obs.introspect import IndexStatsReport, deep_sizeof, publish
from repro.obs.querylog import QueryRecord
from repro.datalake.lake import DataLake
from repro.datalake.ontology import Ontology
from repro.datalake.table import Column, ColumnRef, Table
from repro.graph.aurum import EnterpriseKnowledgeGraph
from repro.graph.organize import Organization
from repro.graph.ronin import RoninExplorer
from repro.search.explain import ExplainReport, summarize_results

log = get_logger("core.system")

#: Offline pipeline stage names in their canonical (sequential) order —
#: derived from the engine registry, no longer a hand-maintained literal.
STAGES: tuple[str, ...] = REGISTRY.stage_names()

#: Stage dependency edges, derived as the union of each stage's member
#: engines' ``depends_on`` declarations (embeddings feed the union indexes
#: and navigation; annotation feeds SANTOS inside union_index).
STAGE_DEPS: dict[str, tuple[str, ...]] = REGISTRY.stage_deps()

#: ``method=`` names of :meth:`DiscoverySystem.joinable_search` and
#: :meth:`DiscoverySystem.unionable_search` -> the registry engine serving
#: each (the first is the default).
JOIN_METHODS = {"exact": "josie", "containment": "lshensemble"}
UNION_METHODS = {"starmie": "starmie", "tus": "tus", "santos": "santos"}

#: Reciprocal-rank-fusion constant for federated result merging (the
#: standard k=60 from the Cormack/Clarke/Buettcher RRF paper).
RRF_K = 60


class _QueryCapture:
    """Mutable holder threaded through ``_query_span``: the active span
    plus the result summary / EXPLAIN funnel captured for the query log."""

    __slots__ = ("span", "results", "funnel")

    def __init__(self):
        self.span = None
        self.results: list[tuple[str, float]] = []
        self.funnel: dict[str, int] = {}

    def set(self, key, value) -> "_QueryCapture":
        """Attach a span attribute (no-op span while tracing is off)."""
        self.span.set(key, value)
        return self

    def finish(self, hits: list, report: ExplainReport | None = None) -> None:
        """Record the query outcome: hit count attr, result summary, and
        (when the query ran with explain) the funnel counts."""
        self.span.set("hits", len(hits))
        self.results = summarize_results(hits)
        if report is not None:
            self.funnel = report.counts()


def _hit_table(hit) -> str:
    """Table-level identity of any engine's hit type (for federation)."""
    table = getattr(hit, "table", None)
    if table is not None:
        return str(table)
    ref = getattr(hit, "ref", None)
    if ref is not None:
        return str(ref.table)
    return str(hit)


class DiscoverySystem:
    """End-to-end table discovery over a data lake (Figure 1)."""

    def __init__(
        self,
        lake: DataLake,
        config: DiscoveryConfig | None = None,
        ontology: Ontology | None = None,
    ):
        self.lake = lake
        self.config = (config or DiscoveryConfig()).validate()
        self.ontology = ontology
        self.stats = PipelineStats()
        self._configure_sampler()

        # Understanding outputs shared across engines (populated by the
        # foundation stages):
        self.space = None
        self.encoder = None
        self.domains: list = []
        self.annotations: dict = {}

        # Engine instances: one fresh adapter per registered engine, plus
        # the foundation (understanding) stages, all sharing one context.
        self.engine_context = EngineContext(self)
        self.engines = REGISTRY.create()
        self.foundations = REGISTRY.create_foundations()
        for adapter in (*self.foundations.values(), *self.engines.values()):
            adapter.ctx = self.engine_context

        self._ekg: EnterpriseKnowledgeGraph | None = None
        self._infogather = None  # built lazily by augment_entities
        self._built = False
        #: Stages explicitly skipped at build time (build(skip=...)).
        self.skipped_stages: set[str] = set()
        #: Where the built state came from: a live build or a snapshot.
        self.provenance: dict = {}

    def _configure_sampler(self) -> None:
        """Apply this config's trace-sampling knobs to the process-wide
        sampler — but only when they differ from the config defaults, so
        constructing a second system (tests, sidecars) with a default
        config does not silently clobber an earlier system's sampling."""
        flds = DiscoveryConfig.__dataclass_fields__
        cfg_defaults = (
            flds["trace_sample_rate"].default,
            flds["slow_query_ms"].default,
        )
        wanted = (self.config.trace_sample_rate, self.config.slow_query_ms)
        if wanted == cfg_defaults:
            return
        current = (SAMPLER.rate, SAMPLER.slow_ms)
        # (1.0, None) is a fresh TraceSampler; anything else was set by
        # somebody — warn before overwriting a differing configuration.
        if current not in ((1.0, None), wanted):
            log.warning(
                "overwriting non-default trace sampler config "
                "(rate=%s, slow_ms=%s) with (rate=%s, slow_ms=%s)",
                current[0],
                current[1],
                wanted[0],
                wanted[1],
            )
        SAMPLER.configure(rate=wanted[0], slow_ms=wanted[1])

    # -- offline pipeline ------------------------------------------------------------

    def _stage_enabled(self) -> dict[str, bool]:
        """Config gates for the foundation stages (index stages are gated
        only by ``skip`` — their engines self-disable when inputs are
        missing, exactly as the hand-wired stages did)."""
        cfg = self.config
        return {
            "embeddings": cfg.enable_embeddings,
            "domains": cfg.enable_domains,
            "annotation": cfg.enable_annotation and self.ontology is not None,
        }

    def _stage_graph(self, skip: set[str]) -> StageGraph:
        """The stage DAG for this build, derived from the engine registry:
        enabled stages minus ``skip``, each stage running its member
        engines' ``build(ctx)`` in registration order."""
        members = REGISTRY.by_stage(
            {**self.foundations, **self.engines}
        )
        enabled = self._stage_enabled()

        def stage_fn(engines):
            def run() -> None:
                for engine in engines:
                    engine.build(self.engine_context)

            return run

        stages = [
            Stage(name, stage_fn(members[name]), STAGE_DEPS.get(name, ()))
            for name in STAGES
            if name not in skip and enabled.get(name, True)
        ]
        return StageGraph(stages)

    def build(
        self,
        jobs: int | None = None,
        skip: set[str] | None = None,
    ) -> "DiscoverySystem":
        """Run the offline pipeline: understand, embed, index (Figure 1 left).

        ``jobs`` overrides ``config.build_jobs``: worker threads for the
        stage DAG (1 = the legacy sequential order; results are identical
        for any value).  ``skip`` disables stages by name (from
        :data:`STAGES`); online methods needing a skipped stage raise
        :class:`LakeError`.
        """
        cfg = self.config
        skip = set(skip or ())
        unknown = skip - set(STAGES)
        if unknown:
            raise ValueError(f"unknown stages to skip: {sorted(unknown)}")
        self.skipped_stages = skip
        jobs = cfg.build_jobs if jobs is None else int(jobs)
        if jobs < 1:
            raise ConfigError(f"build jobs must be >= 1, got {jobs}")
        lake_stats = self.lake.stats()
        self.stats.tables = lake_stats["tables"]
        self.stats.columns = lake_stats["columns"]
        METRICS.set_gauge("lake.tables", self.stats.tables)
        METRICS.set_gauge("lake.columns", self.stats.columns)

        self.engine_context.reset_shared()
        graph = self._stage_graph(skip)
        with TRACER.span(
            "pipeline.build",
            force=True,
            tables=self.stats.tables,
            columns=self.stats.columns,
            jobs=jobs,
        ):
            max_concurrent = graph.run(
                jobs, run_stage=lambda s: self._stage(s.name, s.fn)
            )
        # Canonicalize stage timing order: parallel completion order is
        # nondeterministic, the report should not be.
        self.stats.stage_seconds = {
            name: self.stats.stage_seconds[name]
            for name in STAGES
            if name in self.stats.stage_seconds
        }
        METRICS.inc("pipeline.builds")
        METRICS.set_gauge("pipeline.build_jobs", jobs)
        METRICS.set_gauge("pipeline.max_concurrent_stages", max_concurrent)
        self._built = True
        self.provenance = {
            "source": "build",
            "build_jobs": jobs,
            "max_concurrent_stages": max_concurrent,
            "stages": graph.order(),
            "skipped": sorted(skip),
        }
        log.info(
            "pipeline built: %d tables, %d columns, %d stages "
            "(%d job(s), peak concurrency %d) in %.1f ms",
            self.stats.tables,
            self.stats.columns,
            len(self.stats.stage_seconds),
            jobs,
            max_concurrent,
            sum(self.stats.stage_seconds.values()) * 1000,
        )
        return self

    def _stage(self, name: str, fn) -> None:
        """Run one offline stage inside a (forced) tracer span; keep the
        legacy ``PipelineStats.stage_seconds`` populated from it."""
        with TRACER.span(f"stage.{name}", force=True) as sp:
            fn()
        self.stats.stage_seconds[name] = sp.duration_s
        METRICS.set_gauge(f"pipeline.stage_seconds.{name}", sp.duration_s)
        log.debug("stage %s finished in %.1f ms", name, sp.duration_s * 1000)

    def _require_built(self) -> None:
        if not self._built:
            raise LakeError(
                "DiscoverySystem is not built yet: call build() first"
            )

    # -- snapshots ---------------------------------------------------------------------

    def save(self, directory):
        """Persist the built state (foundations plus every engine's
        payload) as a versioned snapshot directory; returns the
        :class:`~repro.core.snapshot.SnapshotManifest` written."""
        self._require_built()
        from repro.core.snapshot import save_snapshot

        return save_snapshot(self, directory)

    @classmethod
    def load(
        cls,
        directory,
        lake: DataLake | None = None,
        config: DiscoveryConfig | None = None,
        ontology: Ontology | None = None,
    ) -> "DiscoverySystem":
        """Reload a system from a snapshot without re-running any pipeline
        stage.  Raises :class:`~repro.core.errors.SnapshotError` when the
        snapshot is missing, corrupt, or stale for the given lake/config."""
        from repro.core.snapshot import load_snapshot

        return load_snapshot(
            directory, lake=lake, config=config, ontology=ontology
        )

    # -- index introspection ----------------------------------------------------------

    def index_stats(self) -> list[IndexStatsReport]:
        """Introspect every built engine in the registry: structural stats
        from the adapter's public ``stats()`` hook plus an estimated
        memory footprint.

        Reports are published process-wide (``/indexstats`` route) and
        surfaced as ``index.<name>.{items,memory_bytes}`` gauges so a
        Prometheus scrape sees index growth between builds.
        """
        self._require_built()
        reports: list[IndexStatsReport] = []
        for engine in self.engines.values():
            if not engine.is_built():
                continue
            detail = engine.stats()
            reports.append(
                IndexStatsReport(
                    name=engine.name,
                    kind=engine.kind_of(),
                    items=engine.items(detail),
                    memory_bytes=deep_sizeof(engine.memory_object()),
                    detail=detail,
                    provenance=dict(self.provenance),
                )
            )

        for r in reports:
            METRICS.set_gauge(f"index.{r.name}.items", r.items)
            METRICS.set_gauge(f"index.{r.name}.memory_bytes", r.memory_bytes)
        publish(reports)
        return reports

    @contextmanager
    def _query_span(self, engine: str, query_repr: str = "", **attrs):
        """Per-query observability: a ``query.<engine>`` span, latency
        histogram, query counter, and a structured :class:`QueryRecord`
        appended to the process-wide query log (always recorded; the span
        is a no-op when tracing is disabled).

        Each record carries resource accounting, not just latency: thread
        CPU time always, and the peak allocation delta whenever
        ``obs.enable_memory_accounting()`` has tracemalloc running."""
        t0 = time.perf_counter()
        cpu0 = time.thread_time()
        mem_on = tracemalloc.is_tracing()
        mem_base = 0
        if mem_on:
            tracemalloc.reset_peak()
            mem_base = tracemalloc.get_traced_memory()[0]
        capture = _QueryCapture()
        error: str | None = None
        try:
            with TRACER.span(f"query.{engine}", **attrs) as sp:
                capture.span = sp
                yield capture
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            latency_ms = (time.perf_counter() - t0) * 1000
            cpu_ms = (time.thread_time() - cpu0) * 1000
            mem_peak_kb = None
            if mem_on and tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                mem_peak_kb = max(0, peak - mem_base) / 1024
            METRICS.inc(f"query.{engine}.count")
            METRICS.observe("query.latency_ms", latency_ms)
            METRICS.observe("query.cpu_ms", cpu_ms)
            METRICS.observe(f"query.{engine}.latency_ms", latency_ms)
            if error:
                METRICS.inc(f"query.{engine}.errors")
            QUERY_LOG.append(
                QueryRecord(
                    engine=engine,
                    query=query_repr,
                    k=int(attrs.get("k", 0) or 0),
                    latency_ms=latency_ms,
                    cpu_ms=cpu_ms,
                    mem_peak_kb=mem_peak_kb,
                    results=capture.results,
                    funnel=capture.funnel,
                    status="error" if error else "ok",
                    error=error,
                )
            )

    # -- online: table search engine ---------------------------------------------------

    def _engine(self, name: str) -> Engine:
        """The built engine ``name``, or the one :class:`LakeError` saying
        why it cannot serve: no build yet, its stage skipped at build time,
        or an input it needs missing (:attr:`Engine.unavailable`)."""
        self._require_built()
        engine = self.engines.get(name)
        if engine is None:
            raise ValueError(
                f"unknown engine {name!r}; registered: {sorted(self.engines)}"
            )
        if engine.is_built():
            return engine
        stage = engine.stage
        if stage in self.skipped_stages:
            reason = f"stage {stage!r} was skipped at build time"
        else:
            reason = engine.unavailable or f"stage {stage!r} did not run"
        raise LakeError(f"{reason}: {name} unavailable")

    def query(
        self,
        name: str,
        request: QueryRequest,
        query_repr: str = "",
        **span_attrs,
    ):
        """Serve ``request`` with the registered engine ``name``: the one
        online query path behind every ``*_search`` method and the CLI.

        The query is recorded under the engine's ``query_label`` (span
        ``query.<label>`` carrying ``span_attrs`` and ``k``, latency
        metrics, and a query-log record showing ``query_repr``).  Returns
        the hits, or ``(hits, ExplainReport)`` when ``request.explain`` is
        set.  Raises :class:`LakeError` when the engine cannot serve.
        """
        engine = self._engine(name)
        with self._query_span(
            engine.query_label, query_repr, **span_attrs, k=request.k
        ) as q:
            hits, report = engine.query(request)
            q.finish(hits, report)
        return (hits, report) if request.explain else hits

    def _method_engine(
        self, methods: dict[str, str], method: str, label: str
    ) -> str:
        """The engine serving ``method``.  An unknown method is a failed
        ``label`` query: logged as an error, then raised."""
        if method in methods:
            return methods[method]
        with self._query_span(label, method=method):
            raise ValueError(f"unknown {label} method {method!r}")

    def _column_input(
        self, column: Column | ColumnRef
    ) -> tuple[Column, str | None, str]:
        """A column argument as ``(column, exclude_table, query_repr)``: a
        :class:`ColumnRef` resolves to its column and excludes its table."""
        if isinstance(column, ColumnRef):
            return self.lake.column(column), column.table, str(column)
        return column, None, f"column<{getattr(column, 'name', '?')}>"

    def keyword_search(self, query: str, k: int = 10, explain: bool = False):
        """Metadata keyword search (§2.3).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        return self.query(
            "keyword",
            QueryRequest(text=query, k=k, explain=explain),
            query_repr=query,
            query=query,
        )

    def joinable_search(
        self,
        column: Column | ColumnRef,
        k: int = 10,
        method: str = "exact",
        threshold: float | None = None,
        explain: bool = False,
    ):
        """Joinable table search (§2.4): 'exact' (JOSIE) or 'containment'
        (LSH Ensemble) over the query column.

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        name = self._method_engine(JOIN_METHODS, method, "join")
        column, exclude, query_repr = self._column_input(column)
        return self.query(
            name,
            QueryRequest(
                column=column,
                k=k,
                exclude_table=exclude,
                threshold=threshold,
                explain=explain,
            ),
            query_repr=query_repr,
            method=method,
        )

    def fuzzy_joinable_search(
        self, column: Column | ColumnRef, k: int = 10, explain: bool = False
    ):
        """PEXESO-style fuzzy joinable search over embeddings (§2.4).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        column, exclude, query_repr = self._column_input(column)
        return self.query(
            "pexeso",
            QueryRequest(
                column=column, k=k, exclude_table=exclude, explain=explain
            ),
            query_repr=query_repr,
        )

    def multi_attribute_search(
        self,
        query: Table,
        key_columns: list[int],
        k: int = 10,
        explain: bool = False,
    ):
        """MATE-style composite-key joinable search (§2.4).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        return self.query(
            "mate",
            QueryRequest(
                table=query,
                key_columns=tuple(key_columns),
                k=k,
                explain=explain,
            ),
            query_repr=f"{query.name}{key_columns}",
            key_columns=tuple(key_columns),
        )

    def unionable_search(
        self,
        query: Table | str,
        k: int = 10,
        method: str = "starmie",
        explain: bool = False,
    ):
        """Unionable table search (§2.5): 'tus', 'santos', or 'starmie'.

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        name = self._method_engine(UNION_METHODS, method, "union")
        if isinstance(query, str):
            query = self.lake.table(query)
        return self.query(
            name,
            QueryRequest(table=query, k=k, explain=explain),
            query_repr=query.name,
            method=method,
            table=query.name,
        )

    def correlated_search(
        self,
        query: Table | str,
        key_column: int,
        value_column: int,
        k: int = 10,
        explain: bool = False,
    ):
        """Joinable-and-correlated search via QCR sketches (§2.4).

        With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        if isinstance(query, str):
            query = self.lake.table(query)
        return self.query(
            "qcr",
            QueryRequest(
                table=query,
                key_column=key_column,
                value_column=value_column,
                k=k,
                explain=explain,
            ),
            query_repr=f"{query.name}[{key_column},{value_column}]",
            table=query.name,
        )

    # -- online: federated dispatch ----------------------------------------------------

    def _federated_request(self, query, k: int) -> QueryRequest:
        """Normalize a free-form query (keyword text, table name,
        :class:`Table`, :class:`Column`, or :class:`ColumnRef`) into one
        :class:`QueryRequest` each engine can inspect."""
        text = table = column = exclude = None
        if isinstance(query, str):
            text = query
            if query in self.lake.table_names():
                table = self.lake.table(query)
                exclude = query
        elif isinstance(query, Table):
            table = query
            exclude = query.name
        elif isinstance(query, ColumnRef):
            column = self.lake.column(query)
            table = self.lake.table(query.table)
            exclude = query.table
        elif isinstance(query, Column):
            column = query
        else:
            raise ValueError(
                "federated query must be a string, Table, Column, or "
                f"ColumnRef, not {type(query).__name__}"
            )
        return QueryRequest(
            k=k, text=text, table=table, column=column, exclude_table=exclude
        )

    def search(
        self,
        query,
        engines: list[str] | None = None,
        k: int = 10,
    ) -> list[FederatedHit]:
        """Federated table search: fan one request out across registered
        engines and merge the rankings with reciprocal-rank fusion.

        ``query`` may be keyword text, a table name / :class:`Table`
        (union-style engines), or a :class:`Column` / :class:`ColumnRef`
        (join-style engines); every built engine whose
        :meth:`~repro.core.engine.Engine.accepts` matches participates.
        ``engines`` restricts the fan-out to specific registry names.
        Returns :class:`FederatedHit` rows — table, fused score, and the
        per-engine ranks that produced it — best first.
        """
        self._require_built()
        if engines is None:
            selected = [
                e for e in self.engines.values() if e.category == "search"
            ]
        else:
            unknown = [n for n in engines if n not in self.engines]
            if unknown:
                raise ValueError(
                    f"unknown engines {sorted(unknown)}; registered: "
                    f"{sorted(self.engines)}"
                )
            selected = [self.engines[n] for n in engines]
        request = self._federated_request(query, k)
        scores: dict[str, float] = {}
        sources: dict[str, dict[str, int]] = {}
        with self._query_span(
            FEDERATED_LABEL, query_repr=str(query), k=k
        ) as q:
            asked = 0
            for engine in selected:
                if not engine.is_built() or not engine.accepts(request):
                    continue
                asked += 1
                with TRACER.span(f"federated.{engine.name}"):
                    hits, _ = engine.query(replace(request, explain=False))
                for rank, hit in enumerate(hits, 1):
                    table = _hit_table(hit)
                    if table == request.exclude_table:
                        continue
                    scores[table] = scores.get(table, 0.0) + 1.0 / (
                        RRF_K + rank
                    )
                    sources.setdefault(table, {})[engine.name] = rank
            q.set("engines_asked", asked)
            merged = sorted(
                FederatedHit(t, scores[t], sources[t]) for t in scores
            )[:k]
            q.finish(merged)
        return merged

    # -- online: navigation -------------------------------------------------------------

    def organization(self) -> Organization:
        """The lake-wide navigation hierarchy (§2.6)."""
        return self._engine("organization").raw

    def navigate(self, intent_text: str) -> list[str]:
        """Navigate the organization toward free-text intent; returns the
        tables at the reached node."""
        engine = self._engine("organization")
        tables, _ = engine.query(QueryRequest(text=intent_text))
        return tables

    def explore_results(self, tables: list[str]) -> Organization:
        """RONIN-style online organization of a search result set (§2.6)."""
        vectors = self._engine("organization").table_vectors
        return RoninExplorer(vectors).organize_results(tables)

    def knowledge_graph(self) -> EnterpriseKnowledgeGraph:
        """Aurum-style EKG over the lake, built lazily (§2.6)."""
        self._require_built()
        if self._ekg is None:
            self._ekg = EnterpriseKnowledgeGraph(self.lake).build()
        return self._ekg

    def related_columns(
        self, ref: ColumnRef, k: int = 10
    ) -> list[tuple[ColumnRef, float]]:
        """EKG neighbourhood of a column."""
        return self.knowledge_graph().neighbors(ref)[:k]

    # -- online: data science support ------------------------------------------------------

    def augment_for_ml(
        self, base: Table | str, key_column: int, target_column: int
    ) -> AugmentationReport:
        """ARDA-style feature augmentation for a prediction task (§2.7)."""
        self._require_built()
        if isinstance(base, str):
            base = self.lake.table(base)
        augmenter = ArdaAugmenter(self.lake).build()
        return augmenter.augment(base, key_column, target_column)

    def augment_entities(
        self,
        entities: list[str],
        attribute: str | None = None,
        examples: dict[str, str] | None = None,
    ):
        """InfoGather-style entity augmentation (§2.4): fill an attribute
        for the given entities, either by attribute name or by example."""
        self._require_built()
        if self._infogather is None:
            from repro.search.infogather import InfoGather

            self._infogather = InfoGather(self.lake).build()
        if attribute is not None:
            return self._infogather.augment_by_attribute(entities, attribute)
        if examples:
            return self._infogather.augment_by_example(entities, examples)
        raise ValueError("provide either an attribute name or examples")
