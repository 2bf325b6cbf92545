"""RAG: embeddings, chunking, vector store, retriever."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RAGError
from repro.rag.chunking import Chunk, code_aware_chunks, naive_chunks
from repro.rag.docs import ALGORITHM_GUIDES, API_DOCS
from repro.rag.embedding import TfidfEmbedder
from repro.rag.retriever import Retriever
from repro.rag.store import VectorStore


class TestEmbedding:
    def test_embeddings_are_unit_norm(self):
        embedder = TfidfEmbedder().fit(["quantum circuit gates", "classical bits"])
        vec = embedder.embed("quantum gates")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        embedder = TfidfEmbedder().fit(["a"])
        assert np.linalg.norm(embedder.embed("")) == 0.0

    def test_similarity_reflects_shared_rare_terms(self):
        docs = [
            "the quantum fourier transform uses controlled phase gates",
            "bell pairs use a hadamard and a cnot",
            "the weather is nice today and the sun is out",
        ]
        embedder = TfidfEmbedder().fit(docs)
        query = embedder.embed("controlled phase fourier")
        sims = [TfidfEmbedder.similarity(query, embedder.embed(d)) for d in docs]
        assert sims[0] == max(sims)

    def test_dim_validation(self):
        with pytest.raises(RAGError):
            TfidfEmbedder(dim=4)

    @given(st.text(alphabet="abcdefg ", min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_self_similarity_is_max(self, text):
        if not text.strip():
            return
        embedder = TfidfEmbedder().fit([text, "unrelated corpus entry"])
        vec = embedder.embed(text)
        if np.linalg.norm(vec) == 0:
            return
        assert TfidfEmbedder.similarity(vec, vec) == pytest.approx(1.0)


class TestChunking:
    def test_naive_covers_whole_text(self):
        text = "x" * 1000
        chunks = naive_chunks("d", text, size=400, overlap=50)
        assert chunks[0].text == "x" * 400
        covered = max(c.start + len(c.text) for c in chunks)
        assert covered >= 1000

    def test_naive_overlap(self):
        text = "abcdefghij" * 50
        chunks = naive_chunks("d", text, size=100, overlap=20)
        assert chunks[1].start == 80

    def test_naive_bad_params(self):
        with pytest.raises(ValueError):
            naive_chunks("d", "text", size=10, overlap=10)

    def test_code_aware_splits_at_defs(self):
        text = "def a():\n    pass\n\ndef b():\n    pass\n"
        chunks = code_aware_chunks("d", text, max_size=25)
        assert len(chunks) >= 2
        assert all(c.strategy == "code_aware" for c in chunks)

    def test_code_aware_merges_small_pieces(self):
        text = "def a():\n    pass\n\ndef b():\n    pass\n"
        chunks = code_aware_chunks("d", text, max_size=10_000)
        assert len(chunks) == 1

    def test_empty_text(self):
        assert code_aware_chunks("d", "") == []


class TestVectorStore:
    def _store(self):
        store = VectorStore()
        chunks = [
            Chunk("a", "quantum fourier transform phase gates", 0, "naive"),
            Chunk("b", "bell pair entanglement hadamard cnot", 0, "naive"),
            Chunk("c", "surface code decoder syndrome matching", 0, "naive"),
        ]
        store.add(chunks)
        return store

    def test_topk_ordering(self):
        store = self._store()
        hits = store.search("fourier phase", top_k=3)
        assert hits[0].chunk.doc_id == "a"
        assert hits[0].score >= hits[-1].score
        # Each call returns its own list: emptying one leaves the next whole.
        hits.clear()
        assert store.search("fourier phase", top_k=3)[0].chunk.doc_id == "a"
        # The same query at another top_k is another search.
        query = "fourier bell syndrome"
        assert len(store.search(query, top_k=3)) == 3
        assert len(store.search(query, top_k=1)) == 1

    def test_empty_store(self):
        assert VectorStore().search("anything") == []

    def test_bad_topk(self):
        with pytest.raises(RAGError):
            self._store().search("x", top_k=0)

    def test_incremental_add_refits(self):
        store = self._store()
        # The same search before the add: a kept result must not outlive it.
        assert store.search("teleportation corrections", top_k=1) == []
        store.add([Chunk("d", "teleportation conditioned corrections", 0, "naive")])
        hits = store.search("teleportation corrections", top_k=1)
        assert hits[0].chunk.doc_id == "d"

    def test_len(self):
        assert len(self._store()) == 3


class TestRetriever:
    def test_default_datasets_indexed(self):
        retriever = Retriever()
        assert len(retriever.store) > 10

    def test_migration_notes_retrievable(self):
        retriever = Retriever()
        texts = retriever.retrieve_texts("execute removed backend run migration")
        assert any("execute" in t and "removed" in t for t in texts)

    def test_retrieve_context_pins_api_docs(self):
        retriever = Retriever()
        texts = retriever.retrieve_context("prepare a ghz state please")
        assert any("backend.run" in t or "removed" in t for t in texts)

    def test_guides_only_has_no_pinned_api(self):
        retriever = Retriever(datasets=("guides",))
        texts = retriever.retrieve_context("grover search")
        assert all("was removed" not in t for t in texts)

    def test_augment_prompt_format(self):
        retriever = Retriever()
        augmented = retriever.augment_prompt("build a bell state")
        assert "### Context" in augmented
        assert "### Task" in augmented
        assert "build a bell state" in augmented

    def test_unknown_dataset_rejected(self):
        with pytest.raises(RAGError):
            Retriever(datasets=("docs", "wikipedia"))

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_bad_default_topk_rejected_at_construction(self, top_k):
        with pytest.raises(RAGError, match="top_k"):
            Retriever(top_k=top_k)

    def test_explicit_topk_is_not_replaced_by_the_default(self):
        retriever = Retriever()
        assert len(retriever.retrieve("execute removed migration", top_k=1)) == 1
        with pytest.raises(RAGError, match="top_k"):
            retriever.retrieve("execute removed migration", top_k=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(RAGError):
            Retriever(strategy="semantic-magic")

    def test_code_aware_strategy_works(self):
        retriever = Retriever(strategy="code_aware")
        hits = retriever.retrieve("cu1 removed")
        assert hits

    def test_doc_corpora_nonempty(self):
        assert len(API_DOCS) >= 5
        assert len(ALGORITHM_GUIDES) >= 5
