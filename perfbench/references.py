"""Reference answers the benchmark checks every query against.

Exact references are brute force over the generated lake, written here
independently of the indexes under test; union references are the
generator's ground truth. Recall at 10 is tie-aware: a returned item is a
hit when its reference score reaches the reference's tenth-best score, so
an engine that breaks a tie differently is not charged for it.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict

import numpy as np

from repro.search.pexeso import PexesoConfig

from workloads import K, Query

#: The join index skips columns with fewer distinct values
#: (``JoinSearchConfig.min_column_size``); exact answers are over the rest.
MIN_COLUMN_SIZE = 2

#: family -> the ``recall.<name>`` metric its reference feeds
RECALL_NAME = {
    "join_exact": "josie",
    "join_containment": "lshensemble",
    "multi_attribute": "mate",
    "fuzzy_join": "pexeso",
    "union_tus": "tus",
    "union_starmie": "starmie",
    "union_santos": "santos",
    "federated": "federated",
}


def normalize(result) -> list:
    """A JSON-stable form of one facade result (every field of every hit),
    used to compare a restarted system with a freshly built one."""
    hits = [dataclasses.astuple(h) if dataclasses.is_dataclass(h) else h for h in result]
    return json.loads(json.dumps(hits, default=float))


def _ident(hit) -> str:
    ref = getattr(hit, "ref", None)
    return str(ref) if ref is not None else str(getattr(hit, "table", hit))


class References:
    """Brute-force answers over one workload's lake, memoized per input."""

    def __init__(self, workload, space=None):
        """``space`` is the served system's embedding space (fuzzy join)."""
        self.workload = workload
        self.lake = workload.lake
        self.space = space
        self.threshold = workload.config.containment_threshold
        self._memo: dict[tuple[str, str], list[tuple[str, float]] | None] = {}
        #: value -> indexed columns holding it
        self._postings: dict[str, list] = defaultdict(list)
        for ref, col in self.lake.iter_text_columns():
            values = col.value_set()
            if len(values) >= MIN_COLUMN_SIZE:
                for v in values:
                    self._postings[v].append(ref)
        self._cells = None
        self._fuzzy = None

    # -- per-family brute force ------------------------------------------------

    def _overlaps(self, query_ref) -> tuple[dict, int]:
        values = self.lake.column(query_ref).value_set()
        counts: dict = defaultdict(int)
        for v in values:
            for ref in self._postings.get(v, ()):
                if ref.table != query_ref.table:
                    counts[ref] += 1
        return counts, max(len(values), 1)

    def _join_exact(self, ref):
        counts, n = self._overlaps(ref)
        return [(str(r), c / n) for r, c in counts.items()]

    def _join_containment(self, ref):
        counts, n = self._overlaps(ref)
        return [(str(r), c / n) for r, c in counts.items() if c / n >= self.threshold]

    def _multi_attribute(self, arg):
        name, key_columns = arg
        if self._cells is None:
            # normalized text cell -> {(table, row)}, the brute-force
            # counterpart of MATE's per-row super keys
            self._cells = defaultdict(set)
            for table in self.lake:
                text_cols = [c for _, c in table.text_columns()]
                for i in range(table.num_rows):
                    for c in text_cols:
                        cell = c.values[i].strip().lower()
                        if cell:
                            self._cells[cell].add((table.name, i))
        query = self.lake.table(name)
        keys = set()
        for i in range(query.num_rows):
            cells = tuple(query.columns[c].values[i].strip().lower() for c in key_columns)
            if all(cells):
                keys.add(cells)
        matched: dict[str, int] = defaultdict(int)
        for cells in keys:
            rows = set.intersection(*(self._cells.get(c, set()) for c in cells))
            for table in {t for t, _ in rows if t != name}:
                matched[table] += 1
        return [(t, m / len(keys)) for t, m in matched.items()] if keys else []

    def _fuzzy_join(self, ref):
        cfg = PexesoConfig()
        if self._fuzzy is None:
            refs, mats = [], []
            for r, col in self.lake.iter_text_columns():
                m = self._vectors(col.value_set(), cfg.max_values_per_column)
                if len(m):
                    refs.append(r)
                    mats.append(m)
            offsets = np.cumsum([0] + [len(m) for m in mats[:-1]])
            self._fuzzy = (refs, np.vstack(mats), offsets)
        refs, matrix, offsets = self._fuzzy
        q = self._vectors(self.lake.column(ref).value_set(), cfg.max_values_per_column)
        if not len(q):
            return []
        best = np.maximum.reduceat(q @ matrix.T, offsets, axis=1)
        fractions = np.mean(best >= cfg.tau, axis=0)
        return [
            (str(r), float(f))
            for r, f in zip(refs, fractions)
            if f >= cfg.sigma and r.table != ref.table
        ]

    def _vectors(self, values, cap: int) -> np.ndarray:
        vecs = [self.space.vector(v) for v in sorted(values)[:cap]]
        vecs = [v for v in vecs if v is not None]
        return np.vstack(vecs) if vecs else np.zeros((0, self.space.dim))

    # -- public ------------------------------------------------------------------

    def reference(self, q: Query) -> list[tuple[str, float]] | None:
        """The scored reference answer for ``q`` (best first), or None when
        the family has no reference on this workload."""
        memo_key = (q.family, q.key)
        if memo_key in self._memo:
            return self._memo[memo_key]
        truth = self.workload.union_truth
        ans = None
        if q.family == "join_exact":
            ans = self._join_exact(q.arg)
        elif q.family == "join_containment":
            ans = self._join_containment(q.arg)
        elif q.family == "multi_attribute":
            ans = self._multi_attribute(q.arg)
        elif q.family == "fuzzy_join" and self.space is not None:
            ans = self._fuzzy_join(q.arg)
        elif (
            q.family in ("union_tus", "union_starmie", "union_santos", "federated")
            and truth is not None
            and isinstance(q.arg, str)
        ):
            ans = [(t, 1.0) for t in truth[q.arg]]
        if ans is not None:
            ans.sort(key=lambda kv: (-kv[1], kv[0]))
        self._memo[memo_key] = ans
        return ans

    @staticmethod
    def recall(result, ref: list[tuple[str, float]]) -> float | None:
        """Tie-aware |returned top-10 ∩ reference top-10| / |reference top-10|;
        None when the reference is empty."""
        if not ref:
            return None
        cutoff = ref[min(K, len(ref)) - 1][1]
        relevant = {name for name, score in ref if score >= cutoff}
        hits = sum(1 for h in list(result)[:K] if _ident(h) in relevant)
        return min(1.0, hits / min(K, len(ref)))

    @staticmethod
    def exact_scores_match(result, ref: list[tuple[str, float]]) -> bool:
        """JOSIE claims exact answers: its top-10 scores must equal the
        brute-force top-10 scores (which item wins a tie does not count)."""
        return [h.score for h in result][:K] == [s for _, s in ref[:K]]
