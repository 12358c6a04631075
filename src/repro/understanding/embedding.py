"""Distributional value embeddings trained on the lake itself (PPMI + SVD).

Substitute for the pre-trained word/language-model embeddings used by the
surveyed systems (TUS's NL measure, PEXESO, Starmie, WarpGate).  Values that
appear in similar contexts — the same columns and the same rows — receive
nearby vectors, which is exactly the geometric property those systems
exploit.  Training is classic count-based distributional semantics:
positive pointwise mutual information over co-occurrence counts, factorized
with truncated SVD.
"""

from __future__ import annotations

import random
from collections import Counter
from math import log

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import svds

from repro.datalake.lake import DataLake


class EmbeddingSpace:
    """A trained value -> vector map with cosine-similarity utilities."""

    def __init__(self, vocab: list[str], vectors: np.ndarray):
        if len(vocab) != vectors.shape[0]:
            raise ValueError("vocab/vector row count mismatch")
        self.vocab = vocab
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.vectors = vectors / norms
        self._index = {v: i for i, v in enumerate(vocab)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, value: str) -> bool:
        return str(value).lower() in self._index

    def vector(self, value: str) -> np.ndarray | None:
        """Unit vector for a value, or None if out-of-vocabulary."""
        i = self._index.get(str(value).lower())
        return self.vectors[i] if i is not None else None

    def embed_set(self, values, sample: int = 200) -> np.ndarray:
        """Mean vector of (a sample of) the values; zero vector if none known.

        The values are sorted before sampling and summing, so the result
        does not depend on their iteration order (a set's order changes
        with the interpreter's hash seed).
        """
        vals = sorted(str(v).lower() for v in values)
        if len(vals) > sample:
            vals = random.Random(0).sample(vals, sample)
        idx = [i for i in map(self._index.get, vals) if i is not None]
        if not idx:
            return np.zeros(self.dim)
        acc = self.vectors[idx].sum(axis=0) / len(idx)
        norm = np.linalg.norm(acc)
        return acc / norm if norm > 0 else acc

    def cosine(self, a: str, b: str) -> float:
        va, vb = self.vector(a), self.vector(b)
        if va is None or vb is None:
            return 0.0
        return float(np.dot(va, vb))

    def nearest(self, value: str, k: int = 10) -> list[tuple[str, float]]:
        """k most-similar vocabulary values by cosine."""
        v = self.vector(value)
        if v is None:
            return []
        sims = self.vectors @ v
        order = np.argsort(-sims)
        out = []
        for i in order:
            if self.vocab[i] != str(value).lower():
                out.append((self.vocab[i], float(sims[i])))
            if len(out) == k:
                break
        return out


def train_embeddings(
    lake: DataLake,
    dim: int = 64,
    min_count: int = 2,
    max_pairs_per_column: int = 4000,
    row_context: bool = True,
    seed: int = 0,
) -> EmbeddingSpace:
    """Train PPMI+SVD embeddings over the lake's value co-occurrences.

    Contexts: (1) column membership — pairs of values sampled from the same
    text column; (2) row adjacency — pairs of values from text cells of the
    same row.  Pair sampling bounds the quadratic blow-up on long columns.
    """
    rng = random.Random(seed)
    counts: Counter[str] = Counter()
    for _, col in lake.iter_text_columns():
        counts.update(col.non_null_values())
    vocab = sorted(v for v, c in counts.items() if c >= min_count)
    index = {v: i for i, v in enumerate(vocab)}
    if len(vocab) < 8:
        return EmbeddingSpace(vocab, np.zeros((len(vocab), max(dim, 1))))

    pair_counts: Counter[tuple[int, int]] = Counter()

    def record(a: str, b: str) -> None:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None or ia == ib:
            return
        pair_counts[(min(ia, ib), max(ia, ib))] += 1

    for table in lake:
        text_cols = [c for _, c in table.text_columns()]
        # Column context: values of one column share a domain.
        for col in text_cols:
            vals = col.non_null_values()
            if len(vals) < 2:
                continue
            n_pairs = min(max_pairs_per_column, 4 * len(vals))
            for _ in range(n_pairs):
                record(rng.choice(vals), rng.choice(vals))
        # Row context: values co-occurring in a row are related.
        if row_context and len(text_cols) >= 2:
            for i in range(table.num_rows):
                cells = [c.values[i].strip().lower() for c in text_cols]
                for a in range(len(cells)):
                    for b in range(a + 1, len(cells)):
                        record(cells[a], cells[b])

    if not pair_counts:
        return EmbeddingSpace(vocab, np.zeros((len(vocab), max(dim, 1))))

    total = sum(pair_counts.values()) * 2.0
    marginal = np.zeros(len(vocab))
    for (a, b), c in pair_counts.items():
        marginal[a] += c
        marginal[b] += c

    rows, cols, data = [], [], []
    for (a, b), c in pair_counts.items():
        pmi = log((c * total) / (marginal[a] * marginal[b]))
        if pmi > 0:
            rows.extend((a, b))
            cols.extend((b, a))
            data.extend((pmi, pmi))
    mat = coo_matrix(
        (data, (rows, cols)), shape=(len(vocab), len(vocab))
    ).tocsr()
    k = min(dim, len(vocab) - 1)
    u, s, _ = svds(mat, k=k, random_state=seed)
    vectors = u * np.sqrt(np.maximum(s, 0.0))[None, :]
    if vectors.shape[1] < dim:
        pad = np.zeros((vectors.shape[0], dim - vectors.shape[1]))
        vectors = np.hstack([vectors, pad])
    return EmbeddingSpace(vocab, vectors)
