import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import baselines_reference as ref
from mixsent import modelfile
from mixsent.baselines import LinearModel, load_baseline, save_baseline, svm_predict
from mixsent.errors import InputError
from mixsent.features import (FeatureMatrix, TermIndex, fit_term_index,
                              tfidf_transform)

from conftest import feature_matrix, rewrite_model_file

documents = st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                              max_size=6).map(" ".join),
                     min_size=1, max_size=8)


def row(X, i):
    """Row i as {feature id: weight}."""
    a, b = X.indptr[i], X.indptr[i + 1]
    return dict(zip(X.indices[a:b].tolist(), X.data[a:b].tolist()))


class TestFitTermIndex:
    def test_hand_counts(self):
        idx = fit_term_index(["a b", "a"])
        assert idx.terms == ("a", "b")
        assert idx.document_frequency == (2, 1)
        assert idx.num_docs == 2

    def test_min_df_threshold(self):
        idx = fit_term_index(["a b", "a"], min_df=2)
        assert idx.terms == ("a",)

    def test_duplicate_term_counts_once_per_doc(self):
        idx = fit_term_index(["a a a", "b"])
        assert idx.document_frequency[idx.term_to_id["a"]] == 1

    def test_lexicographic_ids(self):
        idx = fit_term_index(["zebra apple mango"])
        assert idx.terms == ("apple", "mango", "zebra")

    def test_all_empty_docs_rejected(self):
        with pytest.raises(InputError, match="empty"):
            fit_term_index(["", "  "])
        with pytest.raises(InputError):
            fit_term_index([])

    def test_order_independent_across_documents(self):
        a = fit_term_index(["x y", "y z", "z"])
        b = fit_term_index(["z", "y z", "x y"])
        assert a.terms == b.terms
        assert a.document_frequency == b.document_frequency


class TestTfidfTransform:
    def test_fixture_matches_formula_exactly(self):
        idx = fit_term_index(["a b", "a"])
        X = tfidf_transform(["a b"], idx)
        idf_a = math.log(3 / 3) + 1.0
        idf_b = math.log(3 / 2) + 1.0
        norm = math.sqrt(idf_a ** 2 + idf_b ** 2)
        expected = {0: idf_a / norm, 1: idf_b / norm}
        assert len(X) == 1 and X.num_features == 2
        for fid, w in row(X, 0).items():
            assert abs(w - expected[fid]) < 1e-12

    def test_fixture_approximate_values(self):
        idx = fit_term_index(["a b", "a"])
        weights = row(tfidf_transform(["a b"], idx), 0)
        assert abs(weights[0] - 0.580) < 1e-3
        assert abs(weights[1] - 0.815) < 1e-3

    def test_out_of_index_terms_ignored(self):
        idx = fit_term_index(["a b", "a"])
        X = tfidf_transform(["q r s", "a"], idx)
        assert X.indptr.tolist() == [0, 0, 1]
        assert row(X, 0) == {}

    def test_repeated_single_term_normalizes_to_unit(self):
        idx = fit_term_index(["a b", "a"])
        weights = row(tfidf_transform(["a a"], idx), 0)
        assert list(weights) == [0]
        assert abs(weights[0] - 1.0) < 1e-12

    def test_idf_at_least_one(self):
        idx = fit_term_index(["a b c", "a b", "a", "d"])
        assert len(idx.idf) == len(idx)
        for fid, df in enumerate(idx.document_frequency):
            assert idx.idf[fid] == math.log((1 + 4) / (1 + df)) + 1.0
            assert idx.idf[fid] >= 1.0
        assert idx.idf is idx.idf

    @given(st.lists(st.sampled_from(["a", "b", "c", "d e"]), min_size=1, max_size=6))
    def test_unit_norm_when_any_term_indexed(self, docs):
        idx = fit_term_index(docs)
        X = tfidf_transform(docs, idx)
        for i in range(len(docs)):
            weights = np.array(list(row(X, i).values()))
            if weights.size:
                assert abs(np.linalg.norm(weights) - 1.0) < 1e-9

    def test_weights_are_counts_times_idf(self):
        idx = fit_term_index(["a b", "a"])
        weights = row(tfidf_transform(["a a b"], idx), 0)
        norm = math.sqrt((2.0 * idx.idf[0]) ** 2 + idx.idf[1] ** 2)
        assert weights == pytest.approx({0: 2.0 * idx.idf[0] / norm,
                                         1: idx.idf[1] / norm}, abs=1e-12)

    def test_norm_sums_squares_left_to_right(self):
        """A row's squared weights are summed one addition at a time, not by
        sum(), which compensates float sums from Python 3.12 on: here that
        would give 37.53131123208039 and other row weights."""
        idx = fit_term_index(["a b b b c c c", "d"])
        raw = [idx.idf[0], 3.0 * idx.idf[1], 3.0 * idx.idf[2]]
        squares = [w * w for w in raw]
        assert squares[0] + squares[1] + squares[2] == 37.531311232080384
        assert math.fsum(squares) == 37.53131123208039
        weights = row(tfidf_transform(["a b b b c c c"], idx), 0)
        assert list(weights.values()) == [w / math.sqrt(37.531311232080384) for w in raw]
        assert list(weights.values()) != [w / math.sqrt(37.53131123208039) for w in raw]

    def test_bit_identical_on_repeated_and_unindexed_terms(self):
        idx = fit_term_index(["a b c", "a b", "a", "d a"])
        docs = ["a a b zz a", "qq d d d", "zz qq", "", "c b a c"]
        X = tfidf_transform(docs, idx)
        for i, doc in enumerate(docs):
            assert tuple(row(X, i).items()) == ref.tfidf_row(doc, idx)

    @given(documents, documents)
    def test_bit_identical_to_per_text_reference(self, fit_docs, docs):
        idx = fit_term_index(fit_docs + ["a"])
        X = tfidf_transform(docs, idx)
        assert len(X) == len(docs)
        for i, doc in enumerate(docs):
            assert tuple(row(X, i).items()) == ref.tfidf_row(doc, idx)


class TestSparseOps:
    def test_dot_with_self_is_one_for_normalized(self):
        idx = fit_term_index(["a b", "a"])
        X = tfidf_transform(["a b"], idx)
        assert abs(float(X.data @ X.data) - 1.0) < 1e-12

    def test_disjoint_supports(self):
        """Weights on features a row lacks leave its score at the bias."""
        X = feature_matrix([{0: 1.0, 2: 2.0}], 4)
        weights = np.zeros((3, 4))
        weights[:, [1, 3]] = [[3.0, 4.0], [-1.0, 5.0], [2.0, 2.0]]
        m = LinearModel("svm", weights, np.array([0.5, -0.5, 0.0]))
        np.testing.assert_array_equal(svm_predict(m, X)[1], [[0.5, -0.5, 0.0]])

    @given(documents)
    def test_rows_hold_exactly_the_indexed_terms(self, docs):
        idx = fit_term_index(["a b c"])
        X = tfidf_transform(docs, idx)
        for i, doc in enumerate(docs):
            expected = sorted({idx.term_to_id[t] for t in doc.split()
                               if t in idx.term_to_id})
            assert list(row(X, i)) == expected
            assert all(w > 0 and math.isfinite(w) for w in row(X, i).values())

    def test_invariant_enforcement(self):
        def matrix(indptr, indices, data, num_features=4):
            return FeatureMatrix(np.array(indptr, dtype=np.int64),
                                 np.array(indices, dtype=np.int64),
                                 np.array(data, dtype=np.float64), num_features)

        assert len(matrix([0, 2, 2, 3], [0, 3, 0], [1.0, 2.0, 3.0])) == 3
        with pytest.raises(InputError, match="increasing"):
            matrix([0, 2], [1, 1], [1.0, 2.0])
        with pytest.raises(InputError, match="increasing"):
            matrix([0, 2], [2, 1], [1.0, 2.0])
        with pytest.raises(InputError, match="nonzero"):
            matrix([0, 1], [0], [0.0])
        with pytest.raises(InputError, match="finite"):
            matrix([0, 1], [0], [float("nan")])
        with pytest.raises(InputError, match="lie in"):
            matrix([0, 1], [4], [1.0])
        with pytest.raises(InputError, match="lie in"):
            matrix([0, 1], [-1], [1.0])
        with pytest.raises(InputError, match="row pointers"):
            matrix([0, 2], [0], [1.0])
        with pytest.raises(InputError, match="row pointers"):
            matrix([0, 1, 0, 1], [0], [1.0])


class TestTermIndexIO:
    """A term index is saved inside the baseline model file it numbers."""

    @staticmethod
    def save(idx, path):
        model = LinearModel("svm", np.zeros((3, len(idx))), np.zeros(3))
        save_baseline(model, idx, path, {})

    def test_roundtrip(self, tmp_path):
        idx = fit_term_index(["mast movie", "bekar khana", "movie"])
        path = tmp_path / "svm.json"
        self.save(idx, path)
        assert load_baseline(modelfile.read(path))[1] == idx

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "svm.json"
        self.save(fit_term_index(["a"]), path)
        rewrite_model_file(path, lambda header: header.update(term_index={"terms": ["a"]}))
        with pytest.raises(InputError):
            load_baseline(modelfile.read(path))

    def test_df_bounds_validated(self):
        with pytest.raises(InputError):
            TermIndex(terms=("a",), document_frequency=(3,), num_docs=2)

    def test_terms_must_be_strings(self):
        """A list read from an edited model file would not fit in term_to_id."""
        with pytest.raises(InputError, match="not a string"):
            TermIndex(terms=(["a"],), document_frequency=(1,), num_docs=1)
