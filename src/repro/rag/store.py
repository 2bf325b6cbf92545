"""An in-memory vector store over document chunks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RAGError
from repro.rag.chunking import Chunk
from repro.rag.embedding import TfidfEmbedder


@dataclass(frozen=True)
class Hit:
    """One retrieval result."""

    chunk: Chunk
    score: float


#: Searches a store keeps before it starts its memo over.
_SEARCH_MEMO_MAX = 4096


class VectorStore:
    """Chunk index with cosine top-k search."""

    def __init__(self, embedder: TfidfEmbedder | None = None) -> None:
        self.embedder = embedder or TfidfEmbedder()
        self._chunks: list[Chunk] = []
        self._matrix: np.ndarray | None = None
        self._hits: dict[tuple[str, int], list[Hit]] = {}

    def add(self, chunks: list[Chunk]) -> None:
        """Index chunks; refits IDF over everything indexed so far."""
        if not chunks:
            return
        self._hits.clear()
        self._chunks.extend(chunks)
        self.embedder.fit([c.text for c in chunks])
        # Re-embed everything: IDF changed.  Corpora here are small (docs +
        # guides), so a full rebuild is cheaper than being clever.
        self._matrix = np.stack([self.embedder.embed(c.text) for c in self._chunks])

    def __len__(self) -> int:
        return len(self._chunks)

    def search(self, query: str, top_k: int = 4) -> list[Hit]:
        """Return the ``top_k`` most similar chunks to the query.

        A search is a pure function of the index, so the store keeps each
        ``(query, top_k)``'s hits until the next :meth:`add` and returns a
        fresh list of them on every call.
        """
        if top_k < 1:
            raise RAGError(f"top_k must be >= 1, got {top_k}")
        key = (query, top_k)
        hits = self._hits.get(key)
        if hits is None:
            if len(self._hits) >= _SEARCH_MEMO_MAX:
                self._hits.clear()
            hits = self._hits[key] = self._rank(query, top_k)
        return list(hits)

    def _rank(self, query: str, top_k: int) -> list[Hit]:
        if not self._chunks or self._matrix is None:
            return []
        q = self.embedder.embed(query)
        scores = self._matrix @ q
        order = np.argsort(-scores)[:top_k]
        return [
            Hit(self._chunks[int(i)], float(scores[int(i)]))
            for i in order
            if scores[int(i)] > 0.0
        ]
