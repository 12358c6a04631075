"""Keyword (BM25 metadata) search behind the engine protocol (§2.3)."""

from __future__ import annotations

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.search.keyword import KeywordSearchEngine


@register_engine
class KeywordEngine(Engine):
    """GOODS-style BM25 ranking over table metadata and headers."""

    name = "keyword"
    stage = "keyword_index"
    query_label = "keyword"
    kind = "bm25"
    items_key = "documents"

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self._index = KeywordSearchEngine()
        self._index.index_lake(ctx.lake)

    def accepts(self, request: QueryRequest) -> bool:
        return bool(request.text)

    def query(self, request: QueryRequest):
        if request.explain:
            return self._index.search(request.text, request.k, explain=True)
        return self._index.search(request.text, request.k), None
