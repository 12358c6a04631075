"""PEXESO: embedding-based fuzzy joinable search (Dong et al., ICDE'21).

Exact equi-join search misses columns whose values are *semantically* equal
but syntactically different (synonyms, formatting).  PEXESO embeds values
into vectors and declares a query value matched if some candidate value lies
within a cosine threshold; a column is joinable if enough query values
match.  PEXESO's paper prunes candidates with a lossless pivot-based filter
before verifying them; at the lake sizes reproduced here no pruning is
needed.  The index stores the value vectors of every text column as one
contiguous matrix, with per-column row offsets, and a query scores every
column exactly: a matrix product of the query vectors against that matrix,
then a maximum over each column's rows.  Results therefore equal
:func:`exact_fuzzy_join_fraction` column for column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef
from repro.obs import METRICS, TRACER
from repro.search.explain import ExplainReport, summarize_results
from repro.search.results import ColumnResult
from repro.understanding.embedding import EmbeddingSpace

#: Query vectors multiplied against the lake matrix at once; bounds the
#: similarity block a query holds to QUERY_CHUNK x (indexed vectors).
QUERY_CHUNK = 32


@dataclass
class PexesoConfig:
    tau: float = 0.8  # cosine threshold for a value match
    sigma: float = 0.5  # fraction of query values that must match
    max_values_per_column: int = 150


class PexesoIndex:
    """Exact fuzzy-join index over a lake's text columns."""

    def __init__(self, space: EmbeddingSpace, config: PexesoConfig | None = None):
        self.space = space
        self.config = config or PexesoConfig()
        #: (value vectors x dim) for every indexed column, stacked; None
        #: until build()
        self._matrix: np.ndarray | None = None
        #: indexed columns, in matrix order
        self._refs: list[ColumnRef] = []
        #: first matrix row of each column in ``_refs`` (strictly
        #: increasing: columns without vectors are not indexed)
        self._offsets = np.zeros(0, dtype=np.intp)

    def build(self, lake: DataLake) -> "PexesoIndex":
        refs, mats = [], []
        for ref, col in lake.iter_text_columns():
            vectors = self._vectors(col)
            if len(vectors):
                refs.append(ref)
                mats.append(vectors)
                METRICS.inc("index.pexeso.vectors_indexed", len(vectors))
                METRICS.inc("index.pexeso.columns_indexed")
        self._refs = refs
        self._matrix = np.vstack(mats) if mats else np.zeros((0, self.space.dim))
        self._offsets = np.cumsum([0] + [len(m) for m in mats])[:-1]
        return self

    def stats(self) -> dict:
        """Introspection: indexed vector volume and its per-column skew."""
        from repro.obs.introspect import summarize_distribution

        n = 0 if self._matrix is None else len(self._matrix)
        return {
            "columns": len(self._refs),
            "vectors": n,
            "dim": self.space.dim,
            "vectors_per_column": summarize_distribution(
                np.diff(self._offsets, append=n).tolist()
            ),
        }

    def _vectors(self, column: Column) -> np.ndarray:
        """Vectors of the column's first ``max_values_per_column`` sorted
        values; out-of-vocabulary values are dropped."""
        vecs = []
        for value in sorted(column.value_set())[: self.config.max_values_per_column]:
            v = self.space.vector(value)
            if v is not None:
                vecs.append(v)
        return np.vstack(vecs) if vecs else np.zeros((0, self.space.dim))

    def search(
        self,
        column: Column,
        k: int = 10,
        exclude_table: str | None = None,
        explain: bool = False,
    ):
        """Top-k fuzzy-joinable columns.

        A column's score is the exact fraction of query vectors with a
        cosine >= tau match among its vectors; columns scoring >= sigma are
        returned.  With ``explain=True`` returns ``(hits, ExplainReport)``.
        """
        if self._matrix is None:
            raise RuntimeError("call build() before searching")
        cfg = self.config
        qvecs = self._vectors(column)
        if len(qvecs) == 0:
            if explain:
                return [], ExplainReport(
                    "pexeso", query="<no embeddable query values>", k=k
                )
            return []
        matched = np.zeros(len(self._refs), dtype=np.intp)
        for start in range(0, len(qvecs), QUERY_CHUNK):
            sims = qvecs[start : start + QUERY_CHUNK] @ self._matrix.T
            best = np.maximum.reduceat(sims, self._offsets, axis=1)
            matched += np.count_nonzero(best >= cfg.tau, axis=0)
        candidates = [
            i
            for i in np.flatnonzero(matched)
            if exclude_table is None or self._refs[i].table != exclude_table
        ]
        results = []
        for i in candidates:
            frac = float(matched[i] / len(qvecs))
            if frac >= cfg.sigma:
                results.append(ColumnResult(self._refs[i], frac))
        METRICS.inc("search.pexeso.queries")
        METRICS.inc("search.pexeso.candidates_verified", len(candidates))
        METRICS.inc("search.pexeso.results_returned", len(results))
        TRACER.current().set("pexeso.candidates_verified", len(candidates))
        out = sorted(results)[:k]
        if explain:
            report = ExplainReport(
                "pexeso",
                query=f"column<{len(qvecs)} vectors>",
                k=k,
                params={"tau": cfg.tau, "sigma": cfg.sigma},
            )
            report.stage("columns_indexed", len(self._refs))
            report.stage("candidates_verified", len(candidates))
            report.stage("passed_sigma", len(results))
            report.stage("returned", len(out))
            report.results = summarize_results(out)
            return out, report
        return out


def exact_fuzzy_join_fraction(
    space: EmbeddingSpace,
    query_values: set[str],
    candidate_values: set[str],
    tau: float,
    cap: int = 150,
) -> float:
    """Brute-force reference: fraction of query values with a fuzzy match."""
    qv = [space.vector(v) for v in sorted(query_values)[:cap]]
    cv = [space.vector(v) for v in sorted(candidate_values)[:cap]]
    qv = [v for v in qv if v is not None]
    cv = [v for v in cv if v is not None]
    if not qv or not cv:
        return 0.0
    q = np.vstack(qv)
    c = np.vstack(cv)
    sims = q @ c.T
    return float(np.mean(sims.max(axis=1) >= tau))
