"""MATE multi-attribute join search behind the engine protocol (§2.4)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.search.mate import MateIndex


@register_engine
class MateEngine(Engine):
    """Composite-key joinable search via super-key signatures."""

    name = "mate"
    stage = "mate_index"
    query_label = "multi_attribute"
    kind = "super-key"
    items_key = "rows"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self._index = MateIndex()
        self._index.index_lake(ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return request.table is not None and bool(request.key_columns)

    def query(self, request: QueryRequest):
        res = self._index.search(
            request.table,
            list(request.key_columns),
            request.k,
            explain=request.explain,
        )
        return res if request.explain else (res, None)
