"""A backoff n-gram language model over code tokens.

This is the *trainable* artifact of the fine-tuning pipeline: training on the
filtered corpus measurably lowers its perplexity on held-out quantum code, and
its vocabulary statistics (how often current-API vs legacy-API symbols occur)
feed the fault-rate model of :mod:`repro.llm.faults` — stale corpora teach the
model stale APIs, which is exactly the paper's central data-quality complaint.

Smoothing is stupid-backoff (Brants et al.): cheap, robust for small corpora,
and adequate because the LM's role is comparative (before/after fine-tuning),
not generative quality.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import LLMError
from repro.llm.tokenizer import tokenize

_BOS = "<s>"
_UNK = "<unk>"


class NgramModel:
    """Order-n stupid-backoff language model."""

    def __init__(self, order: int = 3, backoff: float = 0.4) -> None:
        if order < 1:
            raise LLMError(f"n-gram order must be >= 1, got {order}")
        self.order = order
        self.backoff = backoff
        # counts[k] maps a context tuple of length k to a Counter of next tokens.
        self._counts: list[dict[tuple[str, ...], Counter]] = [
            {} for _ in range(order)
        ]
        self._total_tokens = 0
        self.vocabulary: Counter = Counter()

    # -- training ---------------------------------------------------------------

    def train(self, texts: Iterable[str]) -> int:
        """Accumulate counts from an iterable of documents; returns token count."""
        added = 0
        for text in texts:
            tokens = [_BOS] * (self.order - 1) + tokenize(text)
            added += len(tokens)
            self.vocabulary.update(tokens)
            for i in range(self.order - 1, len(tokens)):
                token = tokens[i]
                for k in range(self.order):
                    context = tuple(tokens[i - k : i])
                    table = self._counts[k].get(context)
                    if table is None:
                        table = self._counts[k][context] = Counter()
                    table[token] += 1
        self._total_tokens += added
        return added

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    def vocabulary_share(self, symbols: Sequence[str]) -> float:
        """Fraction of training tokens drawn from ``symbols``.

        Used to quantify how *legacy-flavoured* the corpus was: a model
        trained on stale repositories has a high share of removed symbols.
        """
        if self._total_tokens == 0:
            return 0.0
        hits = sum(self.vocabulary.get(s, 0) for s in symbols)
        return hits / self._total_tokens

    # -- scoring ------------------------------------------------------------------

    def _score(self, context: tuple[str, ...], token: str) -> float:
        """Stupid-backoff score (not a normalised probability)."""
        for k in range(min(len(context), self.order - 1), -1, -1):
            ctx = context[len(context) - k :]
            table = self._counts[k].get(ctx)
            if table and token in table:
                total = sum(table.values())
                return (self.backoff ** (self.order - 1 - k)) * table[token] / total
        # Unseen token: uniform floor over an open vocabulary.
        return 1e-7

    def logprob(self, text: str) -> float:
        """Total (stupid-backoff) log-probability of a document."""
        tokens = [_BOS] * (self.order - 1) + tokenize(text)
        total = 0.0
        for i in range(self.order - 1, len(tokens)):
            context = tuple(tokens[max(0, i - self.order + 1) : i])
            total += math.log(self._score(context, tokens[i]))
        return total

    def perplexity(self, text: str) -> float:
        """exp(-logprob / tokens) — lower is better-fit."""
        tokens = tokenize(text)
        if not tokens:
            raise LLMError("cannot compute perplexity of empty text")
        return math.exp(-self.logprob(text) / len(tokens))

    # -- sampling ------------------------------------------------------------------

    def sample(
        self,
        rng: np.random.Generator,
        max_tokens: int = 50,
        prefix: str = "",
        temperature: float = 1.0,
    ) -> list[str]:
        """Sample a token sequence (used for diagnostics and corpus fuzzing)."""
        if temperature <= 0:
            raise LLMError("temperature must be positive")
        tokens = [_BOS] * (self.order - 1) + (tokenize(prefix) if prefix else [])
        out: list[str] = []
        for _ in range(max_tokens):
            context = tuple(tokens[-(self.order - 1) :]) if self.order > 1 else ()
            table = None
            for k in range(len(context), -1, -1):
                table = self._counts[k].get(context[len(context) - k :])
                if table:
                    break
            if not table:
                break
            choices = list(table.keys())
            weights = np.array([table[c] for c in choices], dtype=float)
            weights = weights ** (1.0 / temperature)
            weights /= weights.sum()
            token = str(rng.choice(choices, p=weights))
            out.append(token)
            tokens.append(token)
        return out
