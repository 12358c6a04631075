"""Tests for PEXESO fuzzy joinable search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalake.lake import DataLake
from repro.datalake.table import Column, Table
from repro.search.pexeso import (
    PexesoConfig,
    PexesoIndex,
    exact_fuzzy_join_fraction,
)
from repro.understanding.embedding import EmbeddingSpace


@pytest.fixture(scope="module")
def pexeso(union_corpus, union_space):
    return PexesoIndex(
        union_space, PexesoConfig(tau=0.7, sigma=0.4)
    ).build(union_corpus.lake)


class TestSearch:
    def test_search_before_build_rejected(self, union_space):
        idx = PexesoIndex(union_space)
        from repro.datalake.table import Column

        with pytest.raises(RuntimeError):
            idx.search(Column("q", ["a"]))

    def test_finds_same_domain_columns(self, union_corpus, pexeso):
        qname = union_corpus.groups[0][0]
        qtable = union_corpus.lake.table(qname)
        res = pexeso.search(qtable.columns[0], k=8, exclude_table=qname)
        assert res
        group_tables = union_corpus.truth[qname]
        assert any(r.ref.table in group_tables for r in res)

    def test_exclude_table(self, union_corpus, pexeso):
        qname = union_corpus.groups[0][0]
        qtable = union_corpus.lake.table(qname)
        res = pexeso.search(qtable.columns[0], k=10, exclude_table=qname)
        assert all(r.ref.table != qname for r in res)

    def test_scores_meet_sigma(self, union_corpus, pexeso):
        qname = union_corpus.groups[1][0]
        qtable = union_corpus.lake.table(qname)
        for r in pexeso.search(qtable.columns[0], k=10):
            assert r.score >= pexeso.config.sigma

    def test_lake_without_embeddable_values(self, union_space):
        lake = DataLake([Table.from_dict("t", {"c": ["never-seen-1", "never-seen-2"]})])
        idx = PexesoIndex(union_space).build(lake)
        assert idx.stats()["columns"] == 0
        assert idx.search(Column("q", [union_space.vocab[0]])) == []

    def test_oov_query_returns_empty(self, union_corpus, pexeso):
        from repro.datalake.table import Column

        res = pexeso.search(Column("q", ["never-seen-1", "never-seen-2"]))
        assert res == []

    def test_block_agrees_with_exact_verification(
        self, union_corpus, union_space, pexeso
    ):
        """Scores reported by blocked search equal brute-force fractions."""
        qname = union_corpus.groups[0][0]
        qtable = union_corpus.lake.table(qname)
        res = pexeso.search(qtable.columns[0], k=3, exclude_table=qname)
        for r in res[:2]:
            cand_col = union_corpus.lake.column(r.ref)
            exact = exact_fuzzy_join_fraction(
                union_space,
                set(qtable.columns[0].value_set()),
                set(cand_col.value_set()),
                tau=pexeso.config.tau,
            )
            assert r.score == pytest.approx(exact)


def expected_hits(lake, space, config, qname, qcol):
    """Every column outside ``qname`` whose brute-force fuzzy-join fraction
    reaches sigma, with that fraction."""
    qset = set(qcol.value_set())
    out = {}
    for ref, col in lake.iter_text_columns():
        if ref.table == qname:
            continue
        frac = exact_fuzzy_join_fraction(
            space, qset, set(col.value_set()), config.tau,
            cap=config.max_values_per_column,
        )
        if frac >= config.sigma:
            out[ref] = frac
    return out


class TestExactness:
    def test_every_text_column_of_four_query_tables(
        self, union_corpus, union_space, pexeso
    ):
        """Search returns exactly the brute-force answer: no column whose
        fraction reaches sigma is missed, and every score is exact."""
        lake = union_corpus.lake
        k_all = sum(1 for _ in lake.iter_text_columns())
        checked = 0
        for g in range(4):
            qname = union_corpus.groups[g][0]
            for _, qcol in lake.table(qname).text_columns():
                hits = pexeso.search(qcol, k=k_all, exclude_table=qname)
                want = expected_hits(lake, union_space, pexeso.config, qname, qcol)
                assert {r.ref: r.score for r in hits} == pytest.approx(want)
                checked += len(want)
        assert checked > 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_tables=st.integers(2, 5),
        tau=st.sampled_from([0.2, 0.5, 0.8]),
        sigma=st.sampled_from([0.1, 0.4, 0.7]),
        cap=st.integers(1, 8),
    )
    def test_matches_brute_force_on_random_lakes(
        self, seed, n_tables, tau, sigma, cap
    ):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i:02d}" for i in range(24)]
        space = EmbeddingSpace(vocab, rng.normal(size=(len(vocab), 4)))
        # "oov*" values have no vector: they count towards neither side.
        words = vocab + ["oov1", "oov2", "oov3"]
        tables = []
        for t in range(n_tables):
            cols = {
                f"c{c}": list(rng.choice(words, size=rng.integers(1, 10)))
                for c in range(rng.integers(1, 4))
            }
            rows = max(len(v) for v in cols.values())
            cols = {n: (v * rows)[:rows] for n, v in cols.items()}
            tables.append(Table.from_dict(f"t{t}", cols))
        lake = DataLake(tables)
        config = PexesoConfig(tau=tau, sigma=sigma, max_values_per_column=cap)
        index = PexesoIndex(space, config).build(lake)
        k_all = sum(1 for _ in lake.iter_text_columns())
        for _, qcol in lake.table("t0").text_columns():
            hits = index.search(qcol, k=k_all, exclude_table="t0")
            want = expected_hits(lake, space, config, "t0", qcol)
            assert {r.ref: r.score for r in hits} == pytest.approx(want)


class TestFuzzyVsExact:
    def test_fuzzy_recovers_disjoint_same_domain(
        self, union_corpus, union_space
    ):
        """E19 shape: equi-join containment can be ~0 while fuzzy matching
        by embedding finds the same-domain column."""
        qname, cname = union_corpus.groups[0][0], union_corpus.groups[0][1]
        q = union_corpus.lake.table(qname).columns[0]
        # Align by ontology concept.
        onto = union_corpus.ontology
        q_cls = onto.annotate_column(q.non_null_values())
        cand_table = union_corpus.lake.table(cname)
        for ci, ccol in cand_table.text_columns():
            if onto.annotate_column(ccol.non_null_values()) == q_cls:
                qset = set(q.value_set())
                cset = set(ccol.value_set())
                exact_containment = len(qset & cset) / len(qset)
                fuzzy = exact_fuzzy_join_fraction(
                    union_space, qset, cset, tau=0.7
                )
                assert fuzzy >= exact_containment
                return
        pytest.fail("no aligned candidate column")
