"""A regex code tokenizer.

Used by the n-gram language model (training + perplexity), the dataset
chunker (chunk sizes are measured in tokens, as in the paper's 3M-token
corpus accounting), and the TF-IDF embedder.

The vocabulary is open: tokens are the strings themselves.  Sentinel tokens
for notebook tiles and FIM transforms (paper Sections III-B and V-A) are
defined here so every consumer agrees on them.
"""

from __future__ import annotations

import functools
import re

from repro.errors import TokenizationError

# Sentinels, mirroring the Qiskit Code Assistant data pipeline [7] and the
# FIM transform of Bavarian et al. [34].
CODE_TILE = "<code>"
MARKDOWN_TILE = "<markdown>"
FIM_PREFIX = "<fim_prefix>"
FIM_SUFFIX = "<fim_suffix>"
FIM_MIDDLE = "<fim_middle>"
END_OF_TEXT = "<|endoftext|>"

SENTINELS = (
    CODE_TILE,
    MARKDOWN_TILE,
    FIM_PREFIX,
    FIM_SUFFIX,
    FIM_MIDDLE,
    END_OF_TEXT,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<sentinel><\|endoftext\|>|<fim_(?:prefix|suffix|middle)>|<code>|<markdown>)
  | (?P<string>(?:'[^'\n]*')|(?:"[^"\n]*"))
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<newline>\n)
  | (?P<op>[-+*/=<>!&|^%~@]+|[()\[\]{}.,:;])
  | (?P<space>[ \t]+)
    """,
    re.VERBOSE,
)


#: Distinct ``(text, keep_whitespace)`` pairs whose tokens are kept; the
#: FIM-rate ablation tokenizes about 860 distinct texts, many times each.
_TOKENS_CACHE_MAX = 2048


def tokenize(text: str, keep_whitespace: bool = False) -> list[str]:
    """Split source text into tokens.

    Whitespace tokens are dropped by default (newlines are kept — they carry
    statement structure that the LM should learn).  Tokens are a pure
    function of the text, so recent texts' tokens are kept; every call
    returns a fresh list.
    """
    if not isinstance(text, str):
        raise TokenizationError(f"expected str, got {type(text).__name__}")
    return list(_tokens(text, keep_whitespace))


@functools.lru_cache(maxsize=_TOKENS_CACHE_MAX)
def _tokens(text: str, keep_whitespace: bool) -> tuple[str, ...]:
    tokens: list[str] = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            # Unmatched span (unicode punctuation etc.) becomes one token.
            tokens.append(text[pos : match.start()].strip() or "<unk>")
        pos = match.end()
        kind = match.lastgroup
        if kind == "space" and not keep_whitespace:
            continue
        tokens.append(match.group())
    if pos < len(text):
        tail = text[pos:].strip()
        if tail:
            tokens.append(tail)
    return tuple(tokens)


def count_tokens(text: str) -> int:
    """Token count used for corpus statistics and chunk budgeting."""
    return len(tokenize(text))


def detokenize(tokens: list[str]) -> str:
    """Best-effort inverse of :func:`tokenize` (for LM sample display only)."""
    out: list[str] = []
    for tok in tokens:
        if tok == "\n":
            out.append("\n")
        elif tok in ".,:;)]}":
            out.append(tok)
        elif out and out[-1].endswith(("(", "[", "{", ".", "\n")):
            out.append(tok)
        else:
            out.append((" " if out else "") + tok)
    return "".join(out)
