"""Failure injection / robustness: the full system on hostile inputs.

Real lakes contain empty tables, unicode soup, huge cells, all-null
columns, and single-row fragments; none of that should crash the offline
pipeline or the online APIs.
"""

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.system import DiscoverySystem
from repro.datalake.lake import DataLake
from repro.datalake.table import Column, ColumnRef, Table


@pytest.fixture(scope="module")
def hostile_lake():
    tables = [
        Table("empty_table", []),
        Table.from_dict("single_cell", {"a": ["x"]}),
        Table.from_dict(
            "all_nulls", {"n1": ["", "NA", "null"], "n2": ["-", "?", ""]}
        ),
        Table.from_dict(
            "unicode_soup",
            {
                "text": ["café", "naïve", "日本語", "emoji 🎉", "Ωμέγα"],
                "mixed": ["1", "two", "", "四", "5.5"],
            },
        ),
        Table.from_dict(
            "huge_cells",
            {
                "blob": ["x" * 5000, "y" * 5000],
                "num": ["1", "2"],
            },
        ),
        Table.from_dict(
            "duplicate_headers",
            {"col": ["a", "b"]},
        ),
        Table(
            "same_header_twice",
            [Column("dup", ["1", "2"]), Column("dup", ["p", "q"])],
        ),
        Table.from_dict(
            "normal",
            {
                "city": ["oslo", "rome", "lima", "cairo"],
                "pop": ["7", "28", "97", "95"],
            },
        ),
        Table.from_dict(
            "normal_two",
            {
                "city": ["oslo", "rome", "quito", "hanoi"],
                "area": ["454", "1285", "372", "3324"],
            },
        ),
    ]
    return DataLake(tables)


@pytest.fixture(scope="module")
def system(hostile_lake):
    return DiscoverySystem(
        hostile_lake,
        DiscoveryConfig(
            embedding_dim=8, embedding_min_count=1, enable_domains=True
        ),
    ).build()


class TestPipelineSurvives:
    def test_build_completes(self, system):
        assert system.stats.tables == 9

    def test_keyword_on_hostile(self, system):
        assert isinstance(system.keyword_search("city"), list)

    def test_joinable_on_normal_column(self, system):
        res = system.joinable_search(ColumnRef("normal", 0), k=5)
        assert any(r.ref.table == "normal_two" for r in res)

    def test_joinable_on_unicode(self, system):
        res = system.joinable_search(ColumnRef("unicode_soup", 0), k=5)
        assert isinstance(res, list)

    def test_union_on_hostile(self, system):
        res = system.unionable_search("normal", k=3, method="tus")
        assert isinstance(res, list)

    def test_navigation_exists(self, system):
        org = system.organization()
        assert len(org.root.tables) == 9

    def test_ekg_build(self, system):
        g = system.knowledge_graph()
        assert g.graph.number_of_nodes() >= 0


class TestDegenerateQueries:
    def test_empty_column_query(self, system):
        res = system.engines["josie"].raw.exact_topk(Column("empty", []), k=3)
        assert res == []

    def test_all_null_column_query(self, system):
        res = system.engines["josie"].raw.exact_topk(
            Column("nulls", ["", "NA", "null"]), k=3
        )
        assert res == []

    def test_union_query_with_no_text_columns(self, system):
        numeric_only = Table.from_dict(
            "nums", {"a": ["1", "2"], "b": ["3", "4"]}
        )
        res = system.engines["tus"].raw.search(numeric_only, k=3)
        assert res == []

    def test_starmie_query_numeric_only(self, system):
        numeric_only = Table.from_dict(
            "nums2", {"a": ["1", "2"], "b": ["3", "4"]}
        )
        res = system.engines["starmie"].raw.search(numeric_only, k=3)
        assert res == []


class TestHostileCsv:
    def test_round_trip_unicode(self, tmp_path, hostile_lake):
        from repro.datalake.csvio import read_table_csv, write_table_csv

        t = hostile_lake.table("unicode_soup")
        write_table_csv(t, tmp_path / "u.csv")
        back = read_table_csv(tmp_path / "u.csv")
        assert back.rows() == t.rows()

    def test_round_trip_huge_cells(self, tmp_path, hostile_lake):
        from repro.datalake.csvio import read_table_csv, write_table_csv

        t = hostile_lake.table("huge_cells")
        write_table_csv(t, tmp_path / "h.csv")
        assert read_table_csv(tmp_path / "h.csv").rows() == t.rows()
