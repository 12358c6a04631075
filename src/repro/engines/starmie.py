"""Starmie embedding-based union search behind the engine protocol (§2.5)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.search.union_starmie import StarmieConfig, StarmieUnionSearch


@register_engine
class StarmieEngine(Engine):
    """Contextual column embeddings + ANN index (linear / LSH / HNSW)."""

    name = "starmie"
    stage = "union_index"
    depends_on = ("embeddings",)
    query_label = "union"
    kind = "embeddings"
    items_key = "columns"
    unavailable = "embeddings disabled"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        if ctx.encoder is None:
            return
        cfg = ctx.config
        self._index = StarmieUnionSearch(
            ctx.lake,
            ctx.encoder,
            StarmieConfig(
                index=cfg.union_index,
                hnsw_m=cfg.hnsw_m,
                ef_search=cfg.ef_search,
            ),
        ).build()

    def kind_of(self) -> str:
        if self.ctx is not None:
            return f"embeddings+{self.ctx.config.union_index}"
        return self.kind

    def accepts(self, request: QueryRequest) -> bool:
        return request.table is not None

    def query(self, request: QueryRequest):
        if request.explain:
            return self._index.search(request.table, request.k, explain=True)
        return self._index.search(request.table, request.k), None
