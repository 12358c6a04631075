"""LSH Ensemble containment search behind the engine protocol (§2.4)."""

from __future__ import annotations

from typing import Any

from repro.core.engine import QueryRequest, register_engine
from repro.engines.join_base import JoinIndexEngine
from repro.search.explain import summarize_results


@register_engine
class LshEnsembleEngine(JoinIndexEngine):
    """Approximate containment-threshold join search (LSH Ensemble),
    verified exactly against the stored sets (filter-verify)."""

    name = "lshensemble"
    kind = "partitioned-lsh"
    items_key = "keys"

    def stats(self) -> dict:
        return self._index.ensemble.stats()

    def memory_object(self) -> Any:
        return self._index.ensemble

    def query(self, request: QueryRequest):
        threshold = (
            request.threshold or self.ctx.config.containment_threshold
        )
        res = self._index.containment(
            request.column,
            threshold,
            exclude_table=request.exclude_table,
            explain=request.explain,
        )
        hits, report = res if request.explain else (res, None)
        hits = hits[: request.k]
        if report is not None:
            report.k = request.k
            report.stage("returned", len(hits))
            report.results = summarize_results(hits)
        return hits, report
