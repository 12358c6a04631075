"""QCR joinable-and-correlated search behind the engine protocol (§2.4)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.search.correlated import CorrelatedSearch


@register_engine
class QcrEngine(Engine):
    """Correlation-sketch search: joinable tables whose joined column
    correlates with the query's value column."""

    name = "qcr"
    stage = "correlation_index"
    query_label = "correlated"
    kind = "correlation-sketch"
    items_key = "sketches"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self._index = CorrelatedSearch(
            sketch_size=ctx.config.qcr_sketch_size
        ).build(ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return (
            request.table is not None
            and request.key_column is not None
            and request.value_column is not None
        )

    def query(self, request: QueryRequest):
        res = self._index.search(
            request.table,
            request.key_column,
            request.value_column,
            request.k,
            explain=request.explain,
        )
        return res if request.explain else (res, None)
