"""PEXESO fuzzy-join search behind the engine protocol (§2.4)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.search.pexeso import PexesoIndex


@register_engine
class PexesoEngine(Engine):
    """Embedding-space blocked fuzzy joinable search."""

    name = "pexeso"
    stage = "union_index"
    depends_on = ("embeddings",)
    query_label = "fuzzy_join"
    kind = "vector-block"
    items_key = "columns"
    unavailable = "embeddings disabled"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        # Mirrors the legacy union stage: PEXESO is built only when the
        # contextual encoder (and thus the embedding space) exists.
        if ctx.encoder is None or ctx.space is None:
            return
        self._index = PexesoIndex(ctx.space).build(ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return request.column is not None

    def query(self, request: QueryRequest):
        res = self._index.search(
            request.column,
            request.k,
            exclude_table=request.exclude_table,
            explain=request.explain,
        )
        return res if request.explain else (res, None)
