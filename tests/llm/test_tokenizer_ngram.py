"""Tokenizer and n-gram language model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LLMError, TokenizationError
from repro.llm.ngram import NgramModel
from repro.llm.tokenizer import (
    FIM_MIDDLE,
    FIM_PREFIX,
    SENTINELS,
    count_tokens,
    detokenize,
    tokenize,
)


class TestTokenizer:
    def test_basic_code(self):
        tokens = tokenize("qc.h(0)\n")
        assert tokens == ["qc", ".", "h", "(", "0", ")", "\n"]

    def test_strings_kept_whole(self):
        tokens = tokenize('x = "hello world"')
        assert '"hello world"' in tokens

    def test_comments_kept_whole(self):
        tokens = tokenize("# a comment here\n")
        assert tokens[0] == "# a comment here"

    def test_floats(self):
        assert "3.14" in tokenize("x = 3.14")

    def test_sentinels_atomic(self):
        for sentinel in SENTINELS:
            assert tokenize(f"a {sentinel} b") == ["a", sentinel, "b"]

    def test_whitespace_dropped_by_default(self):
        assert " " not in tokenize("a b")
        assert "  " in tokenize("a  b", keep_whitespace=True)

    def test_newlines_kept(self):
        assert tokenize("a\nb").count("\n") == 1

    def test_non_string_rejected(self):
        with pytest.raises(TokenizationError):
            tokenize(42)

    def test_repeat_calls_return_equal_fresh_lists(self):
        first = tokenize("qc.cx(0, 1)\n")
        second = tokenize("qc.cx(0, 1)\n")
        assert first == second
        assert first is not second

    def test_mutated_tokens_do_not_leak_into_the_next_call(self):
        tokens = tokenize("qc.h(0)\n")
        tokens.append("junk")
        tokens[0] = "qq"
        assert tokenize("qc.h(0)\n") == ["qc", ".", "h", "(", "0", ")", "\n"]

    def test_whitespace_variants_are_kept_apart(self):
        assert tokenize("a  b") == ["a", "b"]
        assert tokenize("a  b", keep_whitespace=True) == ["a", "  ", "b"]
        assert tokenize("a  b") == ["a", "b"]

    @pytest.mark.parametrize("value", [42, b"qc.h(0)", ["qc"], None])
    def test_non_string_is_refused_before_the_cache(self, value):
        from repro.llm import tokenizer

        before = tokenizer._tokens.cache_info()
        with pytest.raises(TokenizationError):
            tokenize(value)
        assert tokenizer._tokens.cache_info() == before

    def test_count_tokens(self):
        assert count_tokens("qc.h(0)") == 6

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_never_crashes_on_ascii(self, text):
        tokens = tokenize(text)
        assert isinstance(tokens, list)

    def test_detokenize_readable(self):
        code = "qc.h(0)"
        assert detokenize(tokenize(code)).replace(" ", "") == code.replace(" ", "")


class TestNgram:
    def test_training_reduces_perplexity(self):
        model = NgramModel(order=3)
        corpus = ["qc.h(0)\nqc.cx(0, 1)\n"] * 5
        before = model.perplexity(corpus[0])
        model.train(corpus)
        after = model.perplexity(corpus[0])
        assert after < before

    def test_perplexity_lower_on_in_domain_text(self):
        model = NgramModel(order=3)
        model.train(["qc.h(0)\nqc.cx(0, 1)\nqc.measure(0, 0)\n"] * 10)
        in_domain = model.perplexity("qc.h(1)\nqc.cx(1, 0)\n")
        out_domain = model.perplexity("SELECT * FROM users WHERE id = 7;")
        assert in_domain < out_domain

    def test_vocabulary_share(self):
        model = NgramModel()
        model.train(["execute execute run"])
        assert model.vocabulary_share(["execute"]) > model.vocabulary_share(["run"])
        assert model.vocabulary_share(["missing"]) == 0.0

    def test_sampling_deterministic(self):
        model = NgramModel(order=2)
        model.train(["a b c a b c a b c"])
        s1 = model.sample(np.random.default_rng(3), max_tokens=5)
        s2 = model.sample(np.random.default_rng(3), max_tokens=5)
        assert s1 == s2

    def test_sampling_follows_training(self):
        model = NgramModel(order=2)
        model.train(["x y x y x y x y"])
        out = model.sample(np.random.default_rng(0), max_tokens=6, prefix="x")
        assert out[0] == "y"

    def test_bad_order(self):
        with pytest.raises(LLMError):
            NgramModel(order=0)

    def test_empty_perplexity_rejected(self):
        with pytest.raises(LLMError):
            NgramModel().perplexity("")

    def test_bad_temperature(self):
        model = NgramModel()
        model.train(["a b"])
        with pytest.raises(LLMError):
            model.sample(np.random.default_rng(0), temperature=0)

    def test_total_tokens_accumulates(self):
        model = NgramModel(order=2)
        added = model.train(["a b c"])
        assert model.total_tokens == added
