"""Table Union Search (TUS) behind the engine protocol (§2.5)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.search.union_tus import TableUnionSearch, TusConfig


@register_engine
class TusEngine(Engine):
    """Ensemble attribute-unionability search (set / sem / nl measures)."""

    name = "tus"
    stage = "union_index"
    depends_on = ("embeddings",)
    query_label = "union"
    kind = "minhash+lsh"
    items_key = "minhashes"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        cfg = ctx.config
        self._index = TableUnionSearch(
            ctx.lake,
            ontology=ctx.ontology,
            space=ctx.space,
            config=TusConfig(measure=cfg.union_measure, num_perm=cfg.num_perm),
        ).build()

    def accepts(self, request: QueryRequest) -> bool:
        return request.table is not None

    def query(self, request: QueryRequest):
        if request.explain:
            return self._index.search(request.table, request.k, explain=True)
        return self._index.search(request.table, request.k), None
