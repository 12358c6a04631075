"""Registry parity suite: the facade shims and ``DiscoverySystem.query``
must return bit-identical results to direct engine-protocol queries, and
snapshots must round-trip on the v2 per-engine payload format.

The refactor promise is "same results, new seam": every pre-refactor
query path (all explain-capable engines, navigation, related_columns)
goes through ``Engine.query`` now, and these tests pin the equivalence.
"""

import json

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.engine import REGISTRY, QueryRequest
from repro.core.errors import SnapshotError
from repro.core.snapshot import FORMAT_VERSION, read_manifest
from repro.core.system import DiscoverySystem
from repro.datalake.table import ColumnRef
from repro.obs import QUERY_LOG

SEARCH = [c.name for c in REGISTRY.all() if c.category == "search"]


@pytest.fixture(scope="module")
def system(union_corpus):
    config = DiscoveryConfig(
        embedding_dim=32, enable_domains=True, num_partitions=4
    )
    return DiscoverySystem(
        union_corpus.lake, config, ontology=union_corpus.ontology
    ).build()


def assert_same_report(a, b):
    """ExplainReports are equal when their funnel and summary agree."""
    if a is None and b is None:
        return
    assert a.counts() == b.counts()
    assert a.results == b.results
    assert a.engine == b.engine


class TestFacadeParity:
    """Each facade shim vs a direct Engine.query with the same request."""

    def test_keyword(self, system, union_corpus):
        header = union_corpus.lake.table(
            union_corpus.groups[0][0]
        ).columns[0].name
        token = header.split("_")[0]
        facade, facade_report = system.keyword_search(
            token, k=5, explain=True
        )
        direct, direct_report = system.engines["keyword"].query(
            QueryRequest(text=token, k=5, explain=True)
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_josie_exact(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        facade, facade_report = system.joinable_search(
            ref, k=5, method="exact", explain=True
        )
        direct, direct_report = system.engines["josie"].query(
            QueryRequest(
                column=system.lake.column(ref),
                k=5,
                exclude_table=qname,
                explain=True,
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_lshensemble_containment(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        facade, facade_report = system.joinable_search(
            ref, k=5, method="containment", explain=True
        )
        direct, direct_report = system.engines["lshensemble"].query(
            QueryRequest(
                column=system.lake.column(ref),
                k=5,
                exclude_table=qname,
                explain=True,
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_jaccard_lsh_new_path(self, system, union_corpus):
        """The jaccard baseline is newly addressable through the registry;
        its results must match the underlying JoinableSearch call."""
        qname = union_corpus.groups[0][0]
        column = system.lake.column(ColumnRef(qname, 0))
        direct, report = system.engines["jaccard_lsh"].query(
            QueryRequest(column=column, k=5, exclude_table=qname)
        )
        assert report is None
        expected = sorted(
            system.engines["jaccard_lsh"].raw.jaccard_baseline(
                column, exclude_table=qname
            )
        )[:5]
        assert direct == expected

    def test_pexeso_fuzzy(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        facade, facade_report = system.fuzzy_joinable_search(
            ref, k=5, explain=True
        )
        direct, direct_report = system.engines["pexeso"].query(
            QueryRequest(
                column=system.lake.column(ref),
                k=5,
                exclude_table=qname,
                explain=True,
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_mate(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        table = system.lake.table(qname)
        facade, facade_report = system.multi_attribute_search(
            table, [0, 1], k=3, explain=True
        )
        direct, direct_report = system.engines["mate"].query(
            QueryRequest(table=table, key_columns=(0, 1), k=3, explain=True)
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    @pytest.mark.parametrize("method", ["tus", "starmie", "santos"])
    def test_union_methods(self, system, union_corpus, method):
        qname = union_corpus.groups[0][0]
        table = system.lake.table(qname)
        facade, facade_report = system.unionable_search(
            qname, k=5, method=method, explain=True
        )
        direct, direct_report = system.engines[method].query(
            QueryRequest(table=table, k=5, explain=True)
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_qcr_correlated(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        table = system.lake.table(qname)
        facade, facade_report = system.correlated_search(
            qname, 0, 1, k=5, explain=True
        )
        direct, direct_report = system.engines["qcr"].query(
            QueryRequest(
                table=table, key_column=0, value_column=1, k=5, explain=True
            )
        )
        assert facade == direct
        assert_same_report(facade_report, direct_report)

    def test_navigate(self, system):
        facade = system.navigate("concept_000")
        direct, report = system.engines["organization"].query(
            QueryRequest(text="concept_000")
        )
        assert facade == direct
        assert report is None

    def test_related_columns_unaffected(self, system, union_corpus):
        qname = union_corpus.groups[0][0]
        res = system.related_columns(ColumnRef(qname, 0), k=5)
        assert res == system.knowledge_graph().neighbors(
            ColumnRef(qname, 0)
        )[:5]

    def test_join_engines_share_one_index(self, system):
        assert (
            system.engines["josie"].raw
            is system.engines["lshensemble"].raw
            is system.engines["jaccard_lsh"].raw
        )


def shim_cases(system, qname):
    """Search engine name -> (its facade call, the equivalent request)."""
    table = system.lake.table(qname)
    ref = ColumnRef(qname, 0)
    column = system.lake.column(ref)
    by_column = QueryRequest(
        column=column, k=5, exclude_table=qname, explain=True
    )
    by_table = QueryRequest(table=table, k=5, explain=True)
    cases = {
        "keyword": (
            lambda: system.keyword_search("concept", k=5, explain=True),
            QueryRequest(text="concept", k=5, explain=True),
        ),
        "josie": (
            lambda: system.joinable_search(ref, k=5, explain=True),
            by_column,
        ),
        "lshensemble": (
            lambda: system.joinable_search(
                ref, k=5, method="containment", explain=True
            ),
            by_column,
        ),
        # No facade method: the baseline's own JoinableSearch call.
        "jaccard_lsh": (
            lambda: (
                sorted(
                    system.engines["jaccard_lsh"].raw.jaccard_baseline(
                        column, exclude_table=qname
                    )
                )[:5],
                None,
            ),
            by_column,
        ),
        "pexeso": (
            lambda: system.fuzzy_joinable_search(ref, k=5, explain=True),
            by_column,
        ),
        "mate": (
            lambda: system.multi_attribute_search(
                table, [0, 1], k=5, explain=True
            ),
            QueryRequest(table=table, key_columns=(0, 1), k=5, explain=True),
        ),
        "qcr": (
            lambda: system.correlated_search(qname, 0, 1, k=5, explain=True),
            QueryRequest(
                table=table, key_column=0, value_column=1, k=5, explain=True
            ),
        ),
    }
    for method in ("tus", "starmie", "santos"):
        cases[method] = (
            lambda m=method: system.unionable_search(
                qname, k=5, method=m, explain=True
            ),
            by_table,
        )
    return cases


class TestQueryParity:
    """``DiscoverySystem.query`` vs the matching facade shim."""

    def test_every_search_engine_has_a_case(self, system, union_corpus):
        cases = shim_cases(system, union_corpus.groups[0][0])
        assert set(cases) == set(SEARCH)

    @pytest.mark.parametrize("name", SEARCH)
    def test_query_matches_shim(self, system, union_corpus, name):
        shim, request = shim_cases(system, union_corpus.groups[0][0])[name]
        hits, report = system.query(name, request)
        assert QUERY_LOG.records()[-1].engine == REGISTRY.get(name).query_label
        shim_hits, shim_report = shim()
        assert hits == shim_hits
        assert_same_report(report, shim_report)

    def test_without_explain_returns_hits_only(self, system):
        hits = system.query("keyword", QueryRequest(text="concept", k=5))
        assert hits == system.keyword_search("concept", k=5)

    def test_unknown_engine_rejected(self, system):
        with pytest.raises(ValueError, match="unknown engine"):
            system.query("warp-drive", QueryRequest(text="x"))


class TestSnapshotRoundTrip:
    def test_v2_manifest_and_identical_queries(
        self, system, union_corpus, tmp_path
    ):
        snapdir = tmp_path / "snap"
        manifest = system.save(snapdir)
        assert manifest.format_version == FORMAT_VERSION == 2
        assert set(manifest.engines) == set(system.engines)
        on_disk = read_manifest(snapdir)
        assert on_disk.engines == manifest.engines

        loaded = DiscoverySystem.load(snapdir)
        qname = union_corpus.groups[0][0]
        ref = ColumnRef(qname, 0)
        assert loaded.joinable_search(ref, k=5) == system.joinable_search(
            ref, k=5
        )
        assert loaded.unionable_search(
            qname, k=5, method="tus"
        ) == system.unionable_search(qname, k=5, method="tus")
        assert loaded.navigate("concept_000") == system.navigate(
            "concept_000"
        )

    def test_join_engines_share_payload_after_reload(
        self, system, tmp_path
    ):
        """Pickle's memo must keep the three join views on one object."""
        snapdir = tmp_path / "snap_shared"
        system.save(snapdir)
        loaded = DiscoverySystem.load(snapdir)
        assert (
            loaded.engines["josie"].raw
            is loaded.engines["lshensemble"].raw
            is loaded.engines["jaccard_lsh"].raw
        )

    def test_old_format_version_refused(self, system, tmp_path):
        snapdir = tmp_path / "snap_old"
        system.save(snapdir)
        manifest_path = snapdir / "manifest.json"
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        doc["format_version"] = 1
        manifest_path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SnapshotError, match="format version"):
            DiscoverySystem.load(snapdir)
