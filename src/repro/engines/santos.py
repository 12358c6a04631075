"""SANTOS relationship-semantics union search behind the engine protocol
(§2.5)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.search.explain import ExplainReport, summarize_results
from repro.search.union_santos import SantosUnionSearch


@register_engine
class SantosEngine(Engine):
    """Ontology relationship-intent union search (needs an ontology)."""

    name = "santos"
    stage = "union_index"
    depends_on = ("annotation",)
    query_label = "union"
    kind = "semantic-graph"
    unavailable = "no ontology"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        if ctx.ontology is None:
            return
        self._index = SantosUnionSearch(ctx.lake, ctx.ontology).build()

    def stats(self) -> dict:
        return {"tables": self.ctx.system.stats.tables}

    def items(self, stats: dict) -> int:
        return int(stats["tables"])

    def accepts(self, request: QueryRequest) -> bool:
        return request.table is not None

    def query(self, request: QueryRequest):
        hits = self._index.search(request.table, request.k)
        if request.explain:
            # SANTOS has no internal funnel; synthesize the summary report
            # the facade always produced.
            report = ExplainReport(
                "santos", query=request.table.name, k=request.k
            )
            report.stage("returned", len(hits))
            report.results = summarize_results(hits)
            return hits, report
        return hits, None
