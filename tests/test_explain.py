"""Tests for EXPLAIN provenance: funnel consistency across engines."""

import pytest

from repro.core.cli import main
from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.datalake.lake import ColumnRef
from repro.search.explain import ExplainReport, summarize_results


@pytest.fixture(scope="module")
def system(union_corpus):
    config = DiscoveryConfig(embedding_dim=32, num_partitions=4)
    return DiscoverySystem(union_corpus.lake, config).build()


@pytest.fixture(scope="module")
def qname(union_corpus):
    return union_corpus.groups[0][0]


def check_report(report, engine: str):
    assert isinstance(report, ExplainReport)
    assert report.engine == engine
    assert report.stages, f"{engine} report has no funnel stages"
    counts = list(report.counts().values())
    assert report.is_monotone(), (
        f"{engine} funnel not monotone: {report.counts()}"
    )
    assert counts[-1] >= 0
    # returned <= every earlier (scored/filtered) stage
    assert all(counts[-1] <= c for c in counts)
    # renders without crashing and mentions each stage
    text = report.render()
    for s in report.stages:
        assert s.name in text


class TestReportMechanics:
    def test_stage_chaining_and_counts(self):
        r = ExplainReport("demo").stage("pool", 100).stage("kept", 7, tau=0.5)
        assert r.counts() == {"pool": 100, "kept": 7}
        assert r.stages[1].detail == {"tau": 0.5}

    def test_is_monotone_detects_growth(self):
        r = ExplainReport("demo").stage("a", 5).stage("b", 9)
        assert not r.is_monotone()

    def test_to_dict_round(self):
        r = ExplainReport("demo", query="q", k=3, params={"x": 1})
        r.stage("pool", 10).stage("kept", 2)
        d = r.to_dict()
        assert d["engine"] == "demo"
        assert d["funnel"][0] == {"stage": "pool", "count": 10}

    def test_summarize_results_handles_plain_objects(self):
        class Hit:
            table = "t1"
            score = 0.25

        assert summarize_results([Hit()]) == [("t1", 0.25)]


class TestEngineFunnels:
    """Satellite: JOSIE / MATE / PEXESO funnels are internally consistent."""

    def test_josie_funnel(self, system, qname):
        hits, report = system.joinable_search(
            ColumnRef(qname, 0), k=5, explain=True
        )
        check_report(report, "josie")
        c = report.counts()
        assert c["verified"] <= c["candidates_examined"] <= c["indexed_sets"]
        assert c["returned"] == len(hits) <= 5

    def test_mate_funnel(self, system, union_corpus, qname):
        query = union_corpus.lake.table(qname)
        hits, report = system.multi_attribute_search(query, [0], k=5, explain=True)
        check_report(report, "mate")
        c = report.counts()
        assert c["rows_passed_filter"] <= c["rows_checked"]
        assert c["tables_matched"] <= c["keys_matched"]
        assert c["returned"] == len(hits) <= 5

    def test_pexeso_funnel(self, system, qname):
        hits, report = system.fuzzy_joinable_search(
            ColumnRef(qname, 0), k=5, explain=True
        )
        check_report(report, "pexeso")
        c = report.counts()
        assert list(c) == [
            "columns_indexed",
            "candidates_verified",
            "passed_sigma",
            "returned",
        ]
        assert c["candidates_verified"] <= c["columns_indexed"]
        assert c["passed_sigma"] <= c["candidates_verified"]
        assert c["returned"] == len(hits) <= 5


class TestExplainAcrossEngines:
    """Every online path supports explain=True and the hits are unchanged."""

    def test_keyword(self, system):
        hits, report = system.keyword_search("concept", k=5, explain=True)
        check_report(report, "keyword")
        plain = system.keyword_search("concept", k=5)
        assert summarize_results(hits) == summarize_results(plain)

    def test_containment(self, system, qname):
        hits, report = system.joinable_search(
            ColumnRef(qname, 0), k=5, method="containment", explain=True
        )
        check_report(report, "lshensemble")
        plain = system.joinable_search(
            ColumnRef(qname, 0), k=5, method="containment"
        )
        assert summarize_results(hits) == summarize_results(plain)

    def test_union_starmie(self, system, qname):
        hits, report = system.unionable_search(qname, k=5, explain=True)
        check_report(report, "starmie")
        plain = system.unionable_search(qname, k=5)
        assert summarize_results(hits) == summarize_results(plain)

    def test_union_tus(self, system, qname):
        hits, report = system.unionable_search(
            qname, k=5, method="tus", explain=True
        )
        check_report(report, "tus")

    def test_correlated(self, system, qname):
        hits, report = system.correlated_search(qname, 0, 1, k=5, explain=True)
        check_report(report, "qcr")

    def test_explain_false_returns_bare_hits(self, system):
        hits = system.keyword_search("concept", k=5)
        assert not isinstance(hits, tuple)


class TestExplainCli:
    def test_query_explain_prints_funnel(self, union_corpus, tmp_path, capsys):
        lake_dir = tmp_path / "lake"
        union_corpus.lake.save_to_directory(lake_dir)
        qname = union_corpus.groups[0][0]
        rc = main(
            [
                "query",
                str(lake_dir),
                "--engine",
                "join",
                "--table",
                qname,
                "--explain",
                "-k",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "josie" in out
        assert "candidates_examined" in out
        assert "returned" in out
