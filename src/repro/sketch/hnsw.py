"""Hierarchical Navigable Small World (HNSW) graphs from scratch.

Graph-based approximate nearest-neighbour index (Malkov & Yashunin,
TPAMI'20), surveyed in §2.5/§3 as the state-of-the-art vector index behind
Starmie-style embedding search.  Implements the standard construction
(exponential level assignment, greedy descent, efConstruction beam search,
bidirectional links with degree bounds) and beam-search querying.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Hashable

import numpy as np

from repro.core.errors import IndexError_
from repro.obs import METRICS, TRACER


class HNSW:
    """Approximate k-NN index over dense vectors.

    Parameters mirror the paper: ``m`` is the degree bound per layer (2m at
    layer 0), ``ef_construction`` the construction beam width.  ``metric``
    is "cosine" (vectors normalized at insert) or "l2".
    """

    def __init__(
        self,
        dim: int,
        m: int = 8,
        ef_construction: int = 64,
        metric: str = "cosine",
        seed: int = 0,
    ):
        if metric not in ("cosine", "l2"):
            raise IndexError_(f"unknown metric {metric!r}")
        self.dim = dim
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.metric = metric
        self._ml = 1.0 / math.log(m) if m > 1 else 1.0
        self._rng = random.Random(seed)
        self._vectors: list[np.ndarray] = []
        self._keys: list[Hashable] = []
        self._key_to_id: dict[Hashable, int] = {}
        #: per node: list of {neighbour id} sets, one per layer it occupies
        self._links: list[list[set[int]]] = []
        self._entry: int | None = None
        self._max_level = -1
        #: lifetime count of distance evaluations made by inserts; a query
        #: counts its own and leaves this field alone, so concurrent
        #: queries neither write to the index nor see each other's work
        self.distance_computations = 0

    def __len__(self) -> int:
        return len(self._keys)

    # -- distances ----------------------------------------------------------------

    def _prep(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self.dim,):
            raise IndexError_(f"expected dim {self.dim}, got shape {v.shape}")
        if self.metric == "cosine":
            n = np.linalg.norm(v)
            if n > 0:
                v = v / n
        return v

    def _dist(self, v: np.ndarray, node: int) -> float:
        u = self._vectors[node]
        if self.metric == "cosine":
            return 1.0 - float(np.dot(v, u))
        d = v - u
        return float(np.dot(d, d))

    # -- construction ---------------------------------------------------------------

    def add(self, key: Hashable, vector: np.ndarray) -> None:
        """Insert a keyed vector."""
        if key in self._key_to_id:
            raise IndexError_(f"duplicate key {key!r}")
        METRICS.inc("index.hnsw.nodes_added")
        before = self.distance_computations
        try:
            self._add(key, vector)
        finally:
            METRICS.inc(
                "index.hnsw.insert_distance_computations",
                self.distance_computations - before,
            )

    def _add(self, key: Hashable, vector: np.ndarray) -> None:
        v = self._prep(vector)
        node = len(self._keys)
        level = int(-math.log(max(self._rng.random(), 1e-12)) * self._ml)
        self._vectors.append(v)
        self._keys.append(key)
        self._key_to_id[key] = node
        self._links.append([set() for _ in range(level + 1)])

        if self._entry is None:
            self._entry = node
            self._max_level = level
            return

        ep = self._entry
        # Greedy descent through layers above the node's top level.
        for layer in range(self._max_level, level, -1):
            ep, ndist = self._greedy_step(v, ep, layer)
            self.distance_computations += ndist

        # Beam search + link at each shared layer.
        for layer in range(min(level, self._max_level), -1, -1):
            cands, ndist = self._search_layer(v, [ep], layer, self.ef_construction)
            self.distance_computations += ndist
            limit = self.m0 if layer == 0 else self.m
            neighbours = self._select_neighbours(v, cands, limit)
            for d, nb in neighbours:
                self._links[node][layer].add(nb)
                self._links[nb][layer].add(node)
                self._shrink(nb, layer)
            if neighbours:
                ep = neighbours[0][1]

        if level > self._max_level:
            self._max_level = level
            self._entry = node

    def _shrink(self, node: int, layer: int) -> None:
        """Enforce the degree bound by keeping the closest neighbours."""
        limit = self.m0 if layer == 0 else self.m
        links = self._links[node][layer]
        if len(links) <= limit:
            return
        v = self._vectors[node]
        ranked = sorted(links, key=lambda nb: self._dist(v, nb))
        self.distance_computations += len(links)
        keep = set(ranked[:limit])
        for nb in links - keep:
            self._links[nb][layer].discard(node)
        self._links[node][layer] = keep

    def _greedy_step(self, v: np.ndarray, ep: int, layer: int) -> tuple[int, int]:
        """Greedy walk to the local minimum on one layer; returns the node
        reached and the number of distances computed."""
        cur, cur_d = ep, self._dist(v, ep)
        ndist = 1
        improved = True
        while improved:
            improved = False
            for nb in self._links[cur][layer] if layer < len(self._links[cur]) else ():
                d = self._dist(v, nb)
                ndist += 1
                if d < cur_d:
                    cur, cur_d = nb, d
                    improved = True
        return cur, ndist

    def _search_layer(
        self, v: np.ndarray, entry_points: list[int], layer: int, ef: int
    ) -> tuple[list[tuple[float, int]], int]:
        """Beam search on one layer; returns (distance, node) pairs sorted
        ascending and the number of distances computed."""
        visited = set(entry_points)
        candidates = [(self._dist(v, ep), ep) for ep in entry_points]
        ndist = len(candidates)
        heapq.heapify(candidates)
        # Max-heap of current best ef results via negated distance.
        results = [(-d, n) for d, n in candidates]
        heapq.heapify(results)
        while candidates:
            d, node = heapq.heappop(candidates)
            if results and d > -results[0][0]:
                break
            for nb in (
                self._links[node][layer] if layer < len(self._links[node]) else ()
            ):
                if nb in visited:
                    continue
                visited.add(nb)
                dn = self._dist(v, nb)
                ndist += 1
                if len(results) < ef or dn < -results[0][0]:
                    heapq.heappush(candidates, (dn, nb))
                    heapq.heappush(results, (-dn, nb))
                    if len(results) > ef:
                        heapq.heappop(results)
        out = sorted((-nd, n) for nd, n in results)
        return out, ndist

    def _select_neighbours(
        self, v: np.ndarray, cands: list[tuple[float, int]], limit: int
    ) -> list[tuple[float, int]]:
        """Simple neighbour selection: the ``limit`` closest candidates."""
        return sorted(cands)[:limit]

    def stats(self) -> dict:
        """Introspection: level histogram and layer-0 degree skew.

        The level histogram verifies the exponential level assignment; the
        degree distribution exposes hub nodes (graph quality) and the
        entry-point level bounds greedy-descent work per query.
        """
        from repro.obs.introspect import summarize_distribution

        levels: dict[int, int] = {}
        for links in self._links:
            top = len(links) - 1
            levels[top] = levels.get(top, 0) + 1
        return {
            "nodes": len(self._keys),
            "dim": self.dim,
            "m": self.m,
            "metric": self.metric,
            "max_level": self._max_level,
            "level_histogram": {str(k): levels[k] for k in sorted(levels)},
            "degree_layer0": summarize_distribution(
                len(links[0]) for links in self._links if links
            ),
            "distance_computations": self.distance_computations,
        }

    # -- querying ----------------------------------------------------------------------

    def search(
        self, vector: np.ndarray, k: int = 10, ef: int | None = None
    ) -> list[tuple[Hashable, float]]:
        """Approximate k nearest neighbours as (key, distance), ascending."""
        if self._entry is None:
            return []
        v = self._prep(vector)
        ef = max(ef or max(2 * k, self.ef_construction // 2), k)
        ep = self._entry
        ndist = 0
        for layer in range(self._max_level, 0, -1):
            ep, n = self._greedy_step(v, ep, layer)
            ndist += n
        found, n = self._search_layer(v, [ep], 0, ef)
        ndist += n
        METRICS.inc("index.hnsw.queries")
        METRICS.inc("index.hnsw.distance_computations", ndist)
        sp = TRACER.current()
        sp.set(
            "hnsw.distance_computations",
            sp.attrs.get("hnsw.distance_computations", 0) + ndist,
        )
        return [(self._keys[n], d) for d, n in found[:k]]


def brute_force_knn(
    vectors: dict[Hashable, np.ndarray],
    query: np.ndarray,
    k: int = 10,
    metric: str = "cosine",
) -> list[tuple[Hashable, float]]:
    """Exact k-NN reference used for recall measurement in E10."""
    q = np.asarray(query, dtype=np.float64)
    if metric == "cosine":
        qn = np.linalg.norm(q)
        q = q / qn if qn > 0 else q
    scored = []
    for key, v in vectors.items():
        v = np.asarray(v, dtype=np.float64)
        if metric == "cosine":
            n = np.linalg.norm(v)
            v = v / n if n > 0 else v
            d = 1.0 - float(np.dot(q, v))
        else:
            diff = q - v
            d = float(np.dot(diff, diff))
        scored.append((d, str(key), key))
    scored.sort()
    return [(key, d) for d, _, key in scored[:k]]
