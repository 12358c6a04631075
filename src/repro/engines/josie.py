"""JOSIE exact top-k overlap search behind the engine protocol (§2.4)."""

from __future__ import annotations

from typing import Any

from repro.core.engine import QueryRequest, register_engine
from repro.engines.join_base import JoinIndexEngine


@register_engine
class JosieEngine(JoinIndexEngine):
    """Exact top-k joinable columns by set overlap (JOSIE)."""

    name = "josie"
    kind = "inverted+sets"
    items_key = "sets"

    def stats(self) -> dict:
        return self._index.josie.stats()

    def memory_object(self) -> Any:
        return self._index.josie

    def query(self, request: QueryRequest):
        res = self._index.exact_topk(
            request.column,
            request.k,
            exclude_table=request.exclude_table,
            explain=request.explain,
        )
        return res if request.explain else (res, None)
