"""Lake navigation (DSDO-style organization) behind the engine protocol
(§2.6)."""

from __future__ import annotations

from typing import Any

from repro.core.engine import (
    Engine,
    EngineContext,
    QueryRequest,
    register_engine,
)
from repro.graph.organize import Organization


@register_engine
class NavigationEngine(Engine):
    """The lake-wide navigation hierarchy over table embedding vectors."""

    name = "organization"
    stage = "navigation"
    depends_on = ("embeddings",)
    category = "navigation"
    query_label = "navigate"
    kind = "navigation-tree"
    unavailable = "embeddings disabled"

    def __init__(self) -> None:
        super().__init__()
        self._table_vectors: dict = {}

    def build(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        if ctx.space is None:
            return
        for table in ctx.lake:
            values = [
                v
                for _, col in table.text_columns()
                for v in col.non_null_values()[:50]
            ]
            self._table_vectors[table.name] = ctx.space.embed_set(values)
        if self._table_vectors:
            cfg = ctx.config
            self._index = Organization.build(
                self._table_vectors,
                branching=cfg.org_branching,
                max_leaf_size=cfg.org_max_leaf,
            )

    @property
    def table_vectors(self) -> dict:
        return self._table_vectors

    def stats(self) -> dict:
        return {"tables": len(self._table_vectors)}

    def items(self, stats: dict) -> int:
        return int(stats["tables"])

    def query(self, request: QueryRequest):
        """Navigate toward free-text intent; hits are the (unscored)
        table names at the reached node."""
        intent = self.ctx.space.embed_set(request.text.lower().split())
        _, tables = self._index.navigate(intent)
        return tables, None

    def to_payload(self) -> Any:
        return {"org": self._index, "table_vectors": self._table_vectors}

    def from_payload(self, payload: Any, ctx: EngineContext) -> None:
        self.ctx = ctx
        self._index = payload["org"]
        self._table_vectors = payload["table_vectors"]
