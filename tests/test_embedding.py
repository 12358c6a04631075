"""Tests for PPMI+SVD embedding training and the embedding space."""

import numpy as np
import pytest

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.understanding.embedding import EmbeddingSpace, train_embeddings


class TestEmbeddingSpace:
    def test_vectors_unit_norm(self):
        space = EmbeddingSpace(["a", "b"], np.array([[3.0, 4.0], [1.0, 0.0]]))
        assert np.linalg.norm(space.vector("a")) == pytest.approx(1.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(["a"], np.zeros((2, 3)))

    def test_oov_returns_none(self):
        space = EmbeddingSpace(["a"], np.ones((1, 2)))
        assert space.vector("zzz") is None
        assert "zzz" not in space

    def test_case_insensitive_lookup(self):
        space = EmbeddingSpace(["abc"], np.ones((1, 2)))
        assert space.vector("ABC") is not None

    def test_embed_set_of_unknowns_is_zero(self):
        space = EmbeddingSpace(["a"], np.ones((1, 2)))
        assert np.allclose(space.embed_set(["x", "y"]), 0.0)

    def test_embed_set_unit_norm(self):
        space = EmbeddingSpace(
            ["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        v = space.embed_set(["a", "b"])
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_embed_set_independent_of_value_order(self):
        """Over the 200-value sample size, two orders of the same values
        must embed identically (a frozenset's order follows the hash
        seed)."""
        vocab = [f"v{i:03d}" for i in range(300)]
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(vocab, rng.normal(size=(300, 8)))
        shuffled = list(vocab)
        np.random.default_rng(1).shuffle(shuffled)
        assert np.array_equal(
            space.embed_set(vocab), space.embed_set(shuffled)
        )

    def test_embed_set_matches_loop_reference(self):
        """The vectorised mean equals a per-value loop over the same
        sorted sample, to float64 rounding."""
        import random

        vocab = [f"v{i:03d}" for i in range(300)]
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(vocab, rng.normal(size=(300, 8)))
        values = vocab + ["unknown", "V007"]
        sample = random.Random(0).sample(sorted(v.lower() for v in values), 200)
        known = [space.vector(v) for v in sample if v in space]
        ref = np.sum(known, axis=0) / len(known)
        ref /= np.linalg.norm(ref)
        assert np.allclose(space.embed_set(values), ref, rtol=0, atol=1e-12)

    def test_cosine_oov_zero(self):
        space = EmbeddingSpace(["a"], np.ones((1, 2)))
        assert space.cosine("a", "zzz") == 0.0

    def test_nearest_excludes_self(self):
        space = EmbeddingSpace(
            ["a", "b", "c"],
            np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]),
        )
        names = [n for n, _ in space.nearest("a", k=2)]
        assert "a" not in names
        assert names[0] == "b"


class TestTraining:
    def test_same_domain_closer_than_cross(self, union_corpus, union_space):
        pool = union_corpus.pool
        d0 = pool.domain(0).values
        d9 = pool.domain(9).values
        same = union_space.cosine(d0[0], d0[1])
        cross = union_space.cosine(d0[0], d9[0])
        assert same > cross + 0.2

    def test_deterministic(self, union_corpus):
        a = train_embeddings(union_corpus.lake, dim=16, seed=5)
        b = train_embeddings(union_corpus.lake, dim=16, seed=5)
        assert a.vocab == b.vocab
        assert np.allclose(a.vectors, b.vectors)

    def test_min_count_filters_vocab(self, union_corpus):
        strict = train_embeddings(union_corpus.lake, dim=8, min_count=5)
        loose = train_embeddings(union_corpus.lake, dim=8, min_count=1)
        assert len(strict.vocab) <= len(loose.vocab)

    def test_tiny_lake_degenerates_gracefully(self):
        lake = DataLake([Table.from_dict("t", {"a": ["x", "y"]})])
        space = train_embeddings(lake, dim=8, min_count=1)
        assert isinstance(space, EmbeddingSpace)

    def test_requested_dim_respected(self, union_corpus):
        space = train_embeddings(union_corpus.lake, dim=24)
        assert space.dim == 24
