"""Unit tests for repro.text.tokenize."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import wordbanks
from repro.text.tokenize import (
    STOP_WORDS,
    normalize_cell,
    stem,
    tokenize,
    tokenize_keep_stopwords,
)


class TestTokenize:
    def test_basic_split(self):
        assert tokenize_keep_stopwords("Hello World") == ["hello", "world"]

    def test_punctuation_split(self):
        assert tokenize_keep_stopwords("a,b;c|d") == ["a", "b", "c", "d"]

    def test_numbers_kept(self):
        assert tokenize("height 4808 m") == ["height", "4808", "m"]

    def test_stopwords_removed(self):
        assert tokenize("the name of the explorer") == ["name", "explorer"]

    def test_empty_string(self):
        assert tokenize("") == []
        assert tokenize_keep_stopwords("") == []

    def test_whitespace_only(self):
        assert tokenize("  \t\n ") == []

    def test_mixed_case_folds(self):
        assert tokenize("Nobel PRIZE Winner") == ["nobel", "prize", "winner"]

    def test_hyphenated_splits(self):
        assert tokenize("pre-production") == ["pre", "production"]

    def test_stopword_constant_lowercase(self):
        assert all(w == w.lower() for w in STOP_WORDS)

    @given(st.text())
    def test_tokens_always_lowercase_alnum(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert tok.isalnum()

    @given(st.text())
    def test_tokenize_subset_of_keep_stopwords(self, text):
        # tokenize() stems; compare against the stemmed full stream.
        from repro.text.tokenize import stem

        full = {stem(t) for t in tokenize_keep_stopwords(text)}
        assert all(t in full for t in tokenize(text))

    @given(st.text())
    def test_idempotent_on_joined_output(self, text):
        once = tokenize_keep_stopwords(text)
        twice = tokenize_keep_stopwords(" ".join(once))
        assert once == twice


class TestNormalizeCell:
    def test_case_and_space(self):
        assert normalize_cell(" Vasco  da Gama.") == normalize_cell("vasco da gama")

    def test_empty(self):
        assert normalize_cell("") == ""

    def test_keeps_stopwords(self):
        # Normalization must not drop words: "of" distinguishes values.
        assert "of" in normalize_cell("Strait of Magellan").split()


def stem_rule_chain(token):
    """The stemmer's rule chain without its fast path: the oracle."""
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith("ie"):
        return token[:-2] + "y"
    if len(token) > 4 and token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if (
        len(token) > 3
        and token.endswith("s")
        and not token.endswith(("ss", "us", "is"))
    ):
        return token[:-1]
    return token


#: Every token of the corpus word banks, the vocabulary a build stems most.
BANK_TOKENS = sorted({
    tok
    for name in ("FIRST_NAMES", "LAST_NAMES", "CITY_WORDS", "CITY_SUFFIXES",
                 "ADJECTIVES", "NOUNS", "COMPANY_SUFFIXES")
    for word in getattr(wordbanks, name)
    for tok in tokenize_keep_stopwords(word)
})


class TestStemFastPath:
    """``stem`` returns early unless a token ends in "s" or "e"."""

    def test_word_banks(self):
        for tok in BANK_TOKENS:
            assert stem(tok) == stem_rule_chain(tok), tok

    def test_rule_edges(self):
        for tok in ("", "s", "e", "ie", "ies", "pie", "ties", "cries", "bus",
                    "gas", "glasses", "boxes", "churches", "axe", "movie"):
            assert stem(tok) == stem_rule_chain(tok), tok

    @settings(derandomize=True, database=None, max_examples=500)
    @given(st.one_of(
        st.from_regex(r"[a-z0-9]{1,12}", fullmatch=True),
        st.sampled_from(BANK_TOKENS),
    ))
    def test_matches_the_rule_chain(self, token):
        assert stem(token) == stem_rule_chain(token)
