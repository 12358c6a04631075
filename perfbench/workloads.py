"""The benchmark's workloads: a seeded lake, the config that serves it,
and the closed-loop query stream an analyst sends through the facade.

Only this module knows how a family of queries maps onto a
``DiscoverySystem`` call; ``run.py`` times those calls, ``references.py``
checks their outputs and ``layers.py`` splits them into layers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import DiscoveryConfig, DiscoverySystem
from repro.datalake.generate import make_join_corpus, make_union_corpus
from repro.datalake.table import ColumnRef

K = 10

#: The union lake at a size where three builds per run fit the run budget
#: (the 100-table reference lake takes about 34 s per build). PEXESO still
#: dominates the build, as on the larger lake.
UNION_LAKE = {"n_groups": 8, "tables_per_group": 6, "rows_per_table": 30}
JOIN_LAKE = {"n_tables": 1000, "n_queries": 10, "base_size": 1500}


@dataclass(frozen=True)
class Query:
    """One query input: ``key`` is its stable identity (for references and
    the restart-equality check), ``arg`` what the facade call receives."""

    family: str
    key: str
    arg: Any


#: family -> the facade call that serves one of its inputs
FAMILIES: dict[str, Callable[[DiscoverySystem, Any], Any]] = {
    "keyword": lambda s, a: s.keyword_search(a, k=K),
    "join_exact": lambda s, a: s.joinable_search(a, k=K, method="exact"),
    "join_containment": lambda s, a: s.joinable_search(a, k=K, method="containment"),
    "fuzzy_join": lambda s, a: s.fuzzy_joinable_search(a, k=K),
    "multi_attribute": lambda s, a: s.multi_attribute_search(
        s.lake.table(a[0]), list(a[1]), k=K
    ),
    "correlated": lambda s, a: s.correlated_search(a[0], a[1], a[2], k=K),
    "union_tus": lambda s, a: s.unionable_search(a, k=K, method="tus"),
    "union_starmie": lambda s, a: s.unionable_search(a, k=K, method="starmie"),
    "union_santos": lambda s, a: s.unionable_search(a, k=K, method="santos"),
    "federated": lambda s, a: s.search(a, k=K),
    "navigate": lambda s, a: s.navigate(a),
}


@dataclass
class Workload:
    """A generated lake plus everything needed to serve and check it."""

    name: str
    seed: int
    lake: Any
    config: DiscoveryConfig
    ontology: Any = None
    #: generator ground truth for table-level union queries
    union_truth: dict[str, set[str]] | None = None
    #: family -> relative share of the query stream
    weights: dict[str, int] = field(default_factory=dict)
    #: family -> the distinct inputs the stream draws from
    pools: dict[str, list[Query]] = field(default_factory=dict)
    #: set up by loading a snapshot another process saved, not by building
    from_snapshot: bool = False

    def new_system(self) -> DiscoverySystem:
        return DiscoverySystem(self.lake, self.config, ontology=self.ontology)

    def stream(self):
        """The endless, seed-determined closed-loop query sequence: the
        families interleaved by weight, each cycling through its pool."""
        cycle = []
        for family, weight in self.weights.items():
            cycle += [family] * weight
        random.Random(self.seed).shuffle(cycle)
        nxt = dict.fromkeys(self.weights, 0)
        while True:
            for family in cycle:
                pool = self.pools[family]
                yield pool[nxt[family] % len(pool)]
                nxt[family] += 1


def _stratified(items: list, size_of: Callable[[Any], int], n: int, rng) -> list:
    """``n`` items, one from each of ``n`` equal strata of ``items`` ordered
    by size: every item is equally likely, but each pool covers the whole
    size range, so per-family medians do not swing with the seed."""
    ordered = sorted(items, key=lambda it: (size_of(it), str(it)))
    if n < len(ordered):
        cuts = [i * len(ordered) // n for i in range(n + 1)]
        ordered = [ordered[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
    rng.shuffle(ordered)
    return ordered


def _pools(lake, weights: dict[str, int], per_weight: int, federated_by: str, rng) -> dict:
    """Per-family query pools drawn over the lake's tables and text columns.

    A family's pool holds ``per_weight`` inputs per unit of its weight: about
    as many as a run sends, so each input is queried about once and the
    family's median reflects the lake rather than a few inputs."""
    tables = lake.table_names()
    columns = [ref for ref, _ in lake.iter_text_columns()]
    col_size = {ref: len(lake.column(ref).value_set()) for ref in columns}
    rows = {name: lake.table(name).num_rows for name in tables}

    def cols(n: int) -> list[ColumnRef]:
        return _stratified(columns, col_size.get, n, rng)

    def tabs(n: int) -> list[str]:
        return _stratified(tables, rows.get, n, rng)

    def header_text(ref: ColumnRef) -> str:
        header = lake.table(ref.table).columns[ref.index].name
        return f"{ref.table} {header}".replace("_", " ")

    pools: dict[str, list[Query]] = {}
    for family, weight in weights.items():
        n = per_weight * weight
        if family in ("join_exact", "join_containment", "fuzzy_join"):
            pools[family] = [Query(family, str(r), r) for r in cols(n)]
        elif family == "keyword":
            pools[family] = [
                Query(family, text, text) for text in map(header_text, cols(n))
            ]
        elif family == "navigate":
            pools[family] = []
            for ref in cols(n):
                text = " ".join(sorted(lake.column(ref).value_set())[:3])
                pools[family].append(Query(family, text, text))
        elif family == "multi_attribute":
            pools[family] = []
            for name in tabs(n):
                text_cols = [i for i, _ in lake.table(name).text_columns()][:2]
                arg = (name, tuple(text_cols))
                pools[family].append(Query(family, f"{name}{list(text_cols)}", arg))
        elif family == "correlated":
            pools[family] = []
            for name in tabs(n):
                table = lake.table(name)
                arg = (name, table.text_columns()[0][0], table.numeric_columns()[0][0])
                pools[family].append(Query(family, f"{name}[{arg[1]},{arg[2]}]", arg))
        elif family == "federated" and federated_by == "column":
            pools[family] = [Query(family, str(r), r) for r in cols(n)]
        else:  # table-level families
            pools[family] = [Query(family, name, name) for name in tabs(n)]
    return pools


def union_lake(seed: int) -> Workload:
    """Every stage runs (annotation for SANTOS included); the embedding,
    HNSW/PEXESO, TUS and MATE layers do the work."""
    corpus = make_union_corpus(**UNION_LAKE, seed=seed)
    weights = dict.fromkeys(
        (
            "keyword", "join_exact", "join_containment", "fuzzy_join",
            "multi_attribute", "union_tus", "union_starmie", "union_santos",
            "federated", "navigate",
        ),
        1,
    )
    return Workload(
        name="union_lake",
        seed=seed,
        lake=corpus.lake,
        config=DiscoveryConfig(embedding_min_count=1),
        ontology=corpus.ontology,
        union_truth=corpus.truth,
        weights=weights,
        pools=_pools(corpus.lake, weights, 192, "table", random.Random(seed)),
    )


#: MATE scans every row of the lake per query key (about 140 ms at 1000
#: tables, with a tail past 1 s); equal shares would spend most of the run
#: in MATE, so the cheap families get more of the stream.
JOIN_WEIGHTS = {
    "keyword": 8,
    "join_exact": 8,
    "join_containment": 8,
    "correlated": 3,
    "union_tus": 3,
    "federated": 4,
    "multi_attribute": 1,
}


def join_lake(seed: int) -> Workload:
    """The join-only deployment for large lakes: set sketches and inverted
    indexes do all the work, the embedding layers none."""
    corpus = make_join_corpus(**JOIN_LAKE, seed=seed)
    return Workload(
        name="join_lake",
        seed=seed,
        lake=corpus.lake,
        config=DiscoveryConfig(enable_embeddings=False, embedding_min_count=1),
        weights=dict(JOIN_WEIGHTS),
        pools=_pools(corpus.lake, JOIN_WEIGHTS, 48, "column", random.Random(seed)),
    )


def snapshot_restart(seed: int) -> Workload:
    """``join_lake`` served from a snapshot that a separate process saved."""
    workload = join_lake(seed)
    workload.name = "snapshot_restart"
    workload.from_snapshot = True
    return workload


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "union_lake": union_lake,
    "join_lake": join_lake,
    "snapshot_restart": snapshot_restart,
}
