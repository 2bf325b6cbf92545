"""The retrieval pipeline: corpora -> chunks -> vector store -> context.

``Retriever`` assembles the two bundled datasets with a chosen chunking
strategy and exposes :meth:`retrieve`, which the code-generation agent calls
to augment prompts (paper Section IV-C: langchain/ragatouille's role in the
original system).
"""

from __future__ import annotations

from repro.errors import RAGError
from repro.llm.faults import ModelConfig
from repro.rag.chunking import Chunk, code_aware_chunks, naive_chunks
from repro.rag.docs import ALGORITHM_GUIDES, API_DOCS
from repro.rag.store import Hit, VectorStore

DATASETS = {"docs": API_DOCS, "guides": ALGORITHM_GUIDES}
STRATEGIES = ("naive", "code_aware")


class Retriever:
    """Top-k chunk retrieval over the bundled documentation corpora."""

    def __init__(
        self,
        datasets: tuple[str, ...] = ("docs", "guides"),
        strategy: str = "naive",
        chunk_size: int = 400,
        top_k: int = 4,
    ) -> None:
        if strategy not in STRATEGIES:
            raise RAGError(f"unknown chunking strategy '{strategy}'")
        unknown = [d for d in datasets if d not in DATASETS]
        if unknown:
            raise RAGError(f"unknown datasets {unknown}; choose from {sorted(DATASETS)}")
        if top_k < 1:
            raise RAGError(f"top_k must be >= 1, got {top_k}")
        self.datasets = datasets
        self.strategy = strategy
        self.top_k = top_k
        self.store = VectorStore()
        chunks: list[Chunk] = []
        for name in datasets:
            for doc_id, text in DATASETS[name].items():
                if strategy == "naive":
                    chunks.extend(naive_chunks(f"{name}/{doc_id}", text, chunk_size))
                else:
                    chunks.extend(
                        code_aware_chunks(f"{name}/{doc_id}", text, chunk_size + 200)
                    )
        self.store.add(chunks)

    def retrieve(self, query: str, top_k: int | None = None) -> list[Hit]:
        """Top-k hits for a prompt (``top_k=None`` means the retriever's)."""
        return self.store.search(query, self.top_k if top_k is None else top_k)

    def retrieve_texts(self, query: str, top_k: int | None = None) -> list[str]:
        """Hit texts only — the shape the generation model consumes."""
        return [hit.chunk.text for hit in self.retrieve(query, top_k)]

    #: Standing API queries: code-generation RAG pipelines pin the core API
    #: reference (building + executing circuits) into every context window —
    #: algorithm-flavoured prompts alone rarely retrieve the migration notes
    #: that actually fix stale-API emissions.
    API_CONTEXT_QUERIES = (
        "backend run job result get_counts execute Aer removed migration",
        "QuantumCircuit gate methods cu1 u3 toffoli removed migration",
    )

    def retrieve_context(self, query: str, top_k: int | None = None) -> list[str]:
        """Prompt-driven hits plus the pinned API-reference context."""
        texts = self.retrieve_texts(query, top_k)
        if "docs" in self.datasets:
            for api_query in self.API_CONTEXT_QUERIES:
                for text in self.retrieve_texts(api_query, 1):
                    if text not in texts:
                        texts.append(text)
        return texts

    def augment_prompt(self, prompt: str, top_k: int | None = None) -> str:
        """Render the paper-style augmented prompt (context + question)."""
        hits = self.retrieve(prompt, top_k)
        if not hits:
            return prompt
        context = "\n---\n".join(hit.chunk.text for hit in hits)
        return (
            "Use the following documentation context to answer.\n"
            f"### Context\n{context}\n### Task\n{prompt}"
        )


def retriever_for(config: ModelConfig) -> Retriever | None:
    """The retriever one arm's model config asks for: the datasets whose
    ``rag_docs`` / ``rag_guides`` flag is set, or ``None`` with neither."""
    datasets = tuple(
        name
        for name, enabled in (
            ("docs", config.rag_docs),
            ("guides", config.rag_guides),
        )
        if enabled
    )
    return Retriever(datasets=datasets) if datasets else None
