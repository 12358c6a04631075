"""Jaccard MinHash-LSH baseline behind the engine protocol (§2.4).

The plain Jaccard-threshold baseline of experiment E2 — the measure shown
to be biased against large columns, kept indexed beside JOSIE and LSH
Ensemble for comparison.  Registering it makes it addressable by the
federated dispatcher and introspectable like every other engine.
"""

from __future__ import annotations

from typing import Any

from repro.core.engine import QueryRequest, register_engine
from repro.engines.join_base import JoinIndexEngine


@register_engine
class JaccardLshEngine(JoinIndexEngine):
    """Plain MinHash-LSH on Jaccard similarity (the biased baseline)."""

    name = "jaccard_lsh"
    kind = "banded-lsh"
    items_key = "keys"

    def stats(self) -> dict:
        return self._index.jaccard_lsh.stats()

    def memory_object(self) -> Any:
        return self._index.jaccard_lsh

    def query(self, request: QueryRequest):
        hits = sorted(
            self._index.jaccard_baseline(
                request.column, exclude_table=request.exclude_table
            )
        )[: request.k]
        return hits, None
