"""Unit and property tests for repro.text.tfidf."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.text.tfidf import TermStatistics, TfIdfVector

tokens_strategy = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=4), max_size=12
)


class TestTermStatistics:
    def test_df_counts_documents_not_occurrences(self):
        stats = TermStatistics()
        stats.add_document(["a", "a", "b"])
        stats.add_document(["a"])
        assert stats.document_frequency("a") == 2
        assert stats.document_frequency("b") == 1
        assert stats.num_docs == 2

    def test_idf_decreases_with_df(self):
        stats = TermStatistics()
        for _ in range(10):
            stats.add_document(["common"])
        stats.add_document(["rare", "common"])
        assert stats.idf("rare") > stats.idf("common")

    def test_unseen_term_has_positive_idf(self):
        stats = TermStatistics()
        stats.add_document(["a"])
        assert stats.idf("zzz") > 0

    def test_roundtrip_serialization(self):
        stats = TermStatistics()
        stats.add_document(["a", "b"])
        stats.add_document(["b"])
        clone = TermStatistics.from_dict(stats.to_dict())
        assert clone.num_docs == stats.num_docs
        assert clone.idf("b") == stats.idf("b")
        assert clone.idf("missing") == stats.idf("missing")


class TestTfIdfVector:
    def test_norm_of_single_token(self):
        v = TfIdfVector.from_tokens(["x"])
        assert math.isclose(v.norm, 1.0)

    def test_tf_accumulates(self):
        v = TfIdfVector.from_tokens(["x", "x"])
        assert math.isclose(v.weight("x"), 2.0)

    def test_cosine_identical_is_one(self):
        v = TfIdfVector.from_tokens(["a", "b"])
        assert math.isclose(v.cosine(v), 1.0)

    def test_cosine_disjoint_is_zero(self):
        a = TfIdfVector.from_tokens(["a"])
        b = TfIdfVector.from_tokens(["b"])
        assert a.cosine(b) == 0.0

    def test_empty_vector_cosine(self):
        a = TfIdfVector.from_tokens([])
        b = TfIdfVector.from_tokens(["x"])
        assert a.cosine(b) == 0.0
        assert a.norm == 0.0

    def test_idf_weighting_changes_weights(self):
        stats = TermStatistics()
        stats.add_document(["common"])
        stats.add_document(["common", "rare"])
        v = TfIdfVector.from_tokens(["common", "rare"], stats)
        assert v.weight("rare") > v.weight("common")

    @given(tokens_strategy, tokens_strategy)
    def test_cosine_symmetric(self, ta, tb):
        va = TfIdfVector.from_tokens(ta)
        vb = TfIdfVector.from_tokens(tb)
        assert math.isclose(va.cosine(vb), vb.cosine(va), abs_tol=1e-12)

    @given(tokens_strategy, tokens_strategy)
    def test_cosine_bounded(self, ta, tb):
        c = TfIdfVector.from_tokens(ta).cosine(TfIdfVector.from_tokens(tb))
        assert -1e-9 <= c <= 1.0 + 1e-9

    @given(tokens_strategy)
    def test_norm_squared_consistent(self, toks):
        v = TfIdfVector.from_tokens(toks)
        assert math.isclose(v.norm_squared, v.norm**2, rel_tol=1e-9)

    @given(tokens_strategy, tokens_strategy)
    def test_dot_symmetric(self, ta, tb):
        va = TfIdfVector.from_tokens(ta)
        vb = TfIdfVector.from_tokens(tb)
        assert math.isclose(va.dot(vb), vb.dot(va), rel_tol=1e-9, abs_tol=1e-12)

    @given(tokens_strategy)
    def test_norm_equals_sqrt_self_dot(self, toks):
        v = TfIdfVector.from_tokens(toks)
        assert math.isclose(v.norm, math.sqrt(v.dot(v)), rel_tol=1e-9, abs_tol=1e-12)
