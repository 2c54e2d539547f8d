import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baselines_reference as ref
from mixsent import modelfile
from mixsent.baselines import (LinearModel, SvmHyper, load_baseline, nb_predict,
                               nb_train, save_baseline, svm_predict, svm_train)
from mixsent.corpus import LABELS, SentimentLabel
from mixsent.errors import InputError
from mixsent.features import fit_term_index, tfidf_transform

from conftest import feature_matrix, rewrite_model_file

NEG, NEU, POS = SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE


@pytest.fixture
def two_doc_fixture():
    """Raw-count rows over features (bad=0, good=1, movie=2).

    class 0: "bad movie", class 1: "good movie"; the third class supplies a
    neutral doc so all labels are present.
    """
    X = feature_matrix([{0: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0}, {2: 1.0}])
    y = [NEG, NEU, POS]
    return X, y


def random_tfidf_corpus(n, seed):
    """n short texts over a 40-word vocabulary whose first words lean
    towards the label; TF-IDF rows plus the per-record reference rows."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    texts, y = [], []
    for _ in range(n):
        c = int(rng.integers(0, 3))
        picks = [words[c * 3 + int(rng.integers(0, 3))]]
        picks += list(rng.choice(words, size=int(rng.integers(0, 6))))
        texts.append(" ".join(picks))
        y.append(SentimentLabel(c))
    idx = fit_term_index(texts)
    return (tfidf_transform(texts, idx), [ref.tfidf_row(t, idx) for t in texts],
            y, len(idx))


class TestNaiveBayes:
    def test_hand_computed_smoothed_likelihoods(self, two_doc_fixture):
        X, y = two_doc_fixture
        m = nb_train(X, y, alpha=1.0)
        # P(good | class1) = (1+1)/(2+3), P(good | class0) = (0+1)/(2+3)
        assert abs(math.exp(m.weights[1, 1]) - 0.4) < 1e-12
        assert abs(math.exp(m.weights[0, 1]) - 0.2) < 1e-12

    def test_prior_and_likelihood_normalization(self, two_doc_fixture):
        X, y = two_doc_fixture
        m = nb_train(X, y)
        assert abs(np.exp(m.bias).sum() - 1.0) < 1e-9
        for c in range(3):
            assert abs(np.exp(m.weights[c]).sum() - 1.0) < 1e-9

    def test_good_predicted_as_class1(self, two_doc_fixture):
        X, y = two_doc_fixture
        m = nb_train(X, y)
        labels, log_post = nb_predict(m, feature_matrix([{1: 1.0}], 3))
        assert labels == [NEU]  # the "good movie" class in this fixture
        assert log_post.shape == (1, 3)
        assert abs(np.exp(log_post).sum() - 1.0) < 1e-9

    def test_empty_vector_falls_back_to_priors(self):
        X = feature_matrix([{0: 1.0}] * 2 + [{1: 1.0}] + [{2: 1.0}])
        y = [NEG, NEG, NEU, POS]
        m = nb_train(X, y)
        labels, _ = nb_predict(m, feature_matrix([{}], 3))
        assert labels == [NEG]  # largest prior

    def test_exact_tie_takes_lowest_label_id(self):
        X = feature_matrix([{0: 1.0}, {0: 1.0}, {0: 1.0}])
        y = [NEG, NEU, POS]
        m = nb_train(X, y)
        labels, _ = nb_predict(m, feature_matrix([{0: 2.0}]))
        assert labels == [NEG]

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="missing"):
            nb_train(feature_matrix([{0: 1.0}]), [POS])

    def test_large_alpha_approaches_uniform(self, two_doc_fixture):
        X, y = two_doc_fixture
        m = nb_train(X, y, alpha=1e9)
        np.testing.assert_allclose(np.exp(m.weights), 1.0 / 3, atol=1e-6)

    def test_bad_alpha(self, two_doc_fixture):
        X, y = two_doc_fixture
        with pytest.raises(InputError):
            nb_train(X, y, alpha=0.0)

    def test_posteriors_sum_to_one_repeatedly(self, two_doc_fixture):
        X, y = two_doc_fixture
        m = nb_train(X, y)
        rows = [{0: 3.0}, {1: 0.5, 2: 2.0}, {2: 1.0}]
        first = nb_predict(m, feature_matrix(rows, 3))
        second = nb_predict(m, feature_matrix(rows, 3))
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])
        np.testing.assert_allclose(np.exp(first[1]).sum(axis=1), 1.0, atol=1e-9)
        for i, row in enumerate(rows):   # a batch scores each row as alone
            labels, log_post = nb_predict(m, feature_matrix([row], 3))
            assert labels == [first[0][i]]
            np.testing.assert_array_equal(log_post[0], first[1][i])

    def test_matches_per_record_reference(self):
        X, rows, y, T = random_tfidf_corpus(300, seed=4)
        m = nb_train(X, y, alpha=0.5)
        prior, likelihood = ref.nb_train(rows, y, 0.5, T)
        np.testing.assert_array_equal(m.bias, prior)
        np.testing.assert_allclose(m.weights, likelihood,
                                   rtol=0, atol=1e-12)
        labels, log_post = nb_predict(m, X)
        for i, row in enumerate(rows):
            scores = ref.linear_scores(row, likelihood, prior)
            assert labels[i] == int(np.argmax(scores))
            peak = np.max(scores)
            expected = scores - (peak + np.log(np.sum(np.exp(scores - peak))))
            np.testing.assert_allclose(log_post[i], expected, rtol=0, atol=1e-12)

    def test_width_mismatch_rejected(self, two_doc_fixture):
        X, y = two_doc_fixture
        m = nb_train(X, y)
        with pytest.raises(InputError, match="width 4"):
            nb_predict(m, feature_matrix([{0: 1.0}], 4))


class TestLinearSvm:
    def test_two_point_separable_margin_ordering(self):
        X = feature_matrix([{0: 1.0}, {1: 1.0}])
        y = [POS, NEG]
        m = svm_train(X, y, SvmHyper(lambda_=0.01, epochs=30, seed=1))
        _, (s0, s1) = svm_predict(m, X)
        assert s0[int(POS)] > s0[int(NEG)]
        assert s1[int(NEG)] > s1[int(POS)]

    def test_training_points_classified_correctly(self):
        X = feature_matrix([{0: 1.0}, {1: 1.0}])
        y = [POS, NEG]
        m = svm_train(X, y, SvmHyper(lambda_=0.01, epochs=30, seed=1))
        assert svm_predict(m, X)[0] == [POS, NEG]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        X = feature_matrix([{int(i): 1.0, int(i) % 3 + 5: 0.5}
                            for i in rng.integers(0, 5, 30)], 8)
        y = [SentimentLabel(int(l)) for l in rng.integers(0, 3, 30)]
        a = svm_train(X, y, SvmHyper(seed=7))
        b = svm_train(X, y, SvmHyper(seed=7))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_large_lambda_shrinks_weights(self):
        X = feature_matrix([{0: 1.0}, {1: 1.0}, {2: 1.0}])
        y = [NEG, NEU, POS]
        small = svm_train(X, y, SvmHyper(lambda_=1e-4, epochs=10, seed=0))
        large = svm_train(X, y, SvmHyper(lambda_=100.0, epochs=10, seed=0))
        assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)

    def test_zero_vector_zero_model_ties_to_negative(self):
        m = LinearModel("svm", np.zeros((3, 4)), np.zeros(3))
        labels, scores = svm_predict(m, feature_matrix([{}], 4))
        assert labels == [NEG]
        np.testing.assert_array_equal(scores, 0.0)

    def test_positive_scaling_preserves_argmax_with_zero_bias(self):
        rng = np.random.default_rng(3)
        m = LinearModel("svm", rng.normal(size=(3, 6)), np.zeros(3))
        x = {0: 0.3, 2: -1.2, 5: 0.7}
        label1, s1 = svm_predict(m, feature_matrix([x], 6))
        x_scaled = {i: 4.5 * w for i, w in x.items()}
        label2, s2 = svm_predict(m, feature_matrix([x_scaled], 6))
        assert label1 == label2
        np.testing.assert_allclose(s2, 4.5 * s1, atol=1e-12)

    def test_separable_desk_scale_set_fully_learned(self):
        # 18 points, 3 classes, one indicative feature per class + noise dims
        rng = np.random.default_rng(11)
        X, y = [], []
        for c in range(3):
            for _ in range(6):
                d = {c: 1.0, 3 + int(rng.integers(0, 3)): 0.1}
                X.append(d)
                y.append(SentimentLabel(c))
        X = feature_matrix(X, 6)
        m = svm_train(X, y, SvmHyper(lambda_=1e-3, epochs=20, seed=2))
        assert svm_predict(m, X)[0] == y

    @pytest.mark.parametrize("lambda_", [1e-4, 1e-2])
    def test_matches_per_record_reference(self, lambda_):
        X, rows, y, T = random_tfidf_corpus(200, seed=9)
        m = svm_train(X, y, SvmHyper(lambda_=lambda_, epochs=5, seed=3))
        weights, bias = ref.svm_train(rows, y, lambda_, 5, 3, T)
        np.testing.assert_allclose(m.weights, weights, rtol=0, atol=1e-10)
        np.testing.assert_allclose(m.bias, bias, rtol=0, atol=1e-10)
        labels, scores = svm_predict(m, X)
        for i, row in enumerate(rows):
            expected = ref.linear_scores(row, m.weights, m.bias)
            np.testing.assert_array_equal(scores[i], expected)
            assert labels[i] == int(np.argmax(expected))

    @settings(deadline=None)
    @given(data=st.data(), lambda_=st.sampled_from([1e-4, 1e-2]))
    def test_bit_identical_to_sparse_reference(self, data, lambda_):
        """Small matrices with an empty row, weights of either sign, and
        labels from one or two classes, so at least one class is absent."""
        T = data.draw(st.integers(1, 6), label="features")
        rows = data.draw(st.lists(st.dictionaries(st.integers(0, T - 1),
                                                  st.floats(-4.0, 4.0).filter(bool),
                                                  max_size=T),
                                  min_size=1, max_size=12), label="rows")
        rows.insert(data.draw(st.integers(0, len(rows)), label="empty row at"), {})
        classes = data.draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=2,
                                     unique=True), label="classes")
        y = data.draw(st.lists(st.sampled_from(classes), min_size=len(rows),
                               max_size=len(rows)), label="labels")
        epochs = data.draw(st.integers(0, 4), label="epochs")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        X = feature_matrix(rows, T)
        m = svm_train(X, y, SvmHyper(lambda_=lambda_, epochs=epochs, seed=seed))
        weights, bias = ref.sparse_svm_train(X, y, lambda_, epochs, seed)
        np.testing.assert_array_equal(m.weights, weights)
        np.testing.assert_array_equal(m.bias, bias)

    def test_bit_identical_to_sparse_reference_on_short_posts(self):
        """800 posts of 5-25 words from a Zipfian 20,000-word lexicon, most
        with a class cue word: the shape of the benchmark's short posts."""
        rng = np.random.default_rng(5)
        zipf = 1.0 / np.arange(1, 20_001) ** 1.05
        lengths = rng.integers(5, 26, size=800)
        words = iter(rng.choice(20_000, size=int(lengths.sum()), p=zipf / zipf.sum()))
        texts, y = [], []
        for n in lengths:
            c = int(rng.integers(0, 3))
            cue = [f"cue{c}"] if rng.random() < 0.8 else []
            texts.append(" ".join(cue + [f"w{next(words)}" for _ in range(n)]))
            y.append(SentimentLabel(c))
        X = tfidf_transform(texts, fit_term_index(texts))
        m = svm_train(X, y, SvmHyper(seed=1))
        weights, bias = ref.sparse_svm_train(X, y, 1e-4, 20, 1)
        np.testing.assert_array_equal(m.weights, weights)
        np.testing.assert_array_equal(m.bias, bias)

    def test_zero_epochs_gives_zero_model(self, two_doc_fixture):
        X, y = two_doc_fixture
        m = svm_train(X, y, SvmHyper(epochs=0))
        np.testing.assert_array_equal(m.weights, 0.0)
        np.testing.assert_array_equal(m.bias, 0.0)


def test_no_dense_rows_by_features_array():
    """Training and scoring allocate O(nnz + C*T), never N*T: at this size an
    N x T float array would take 32 MB."""
    n, T = 200, 20_000
    X = feature_matrix([{(7 * i) % T: 1.0, (7 * i + 3) % T: 0.5} for i in range(n)], T)
    y = [SentimentLabel(i % 3) for i in range(n)]
    tracemalloc.start()
    try:
        nb_predict(nb_train(X, y), X)
        svm_predict(svm_train(X, y, SvmHyper(epochs=1)), X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024, f"peak {peak / 2**20:.1f} MB"


# The term index of two_doc_fixture's features.
TWO_DOC_INDEX = fit_term_index(["bad movie", "good movie", "movie"])


class TestModelIO:
    def test_nb_roundtrip(self, tmp_path, two_doc_fixture):
        X, y = two_doc_fixture
        m = nb_train(X, y)
        path = tmp_path / "nb.json"
        save_baseline(m, TWO_DOC_INDEX, path, {})
        loaded, idx = load_baseline(modelfile.read(path))
        assert loaded.kind == "nb"
        assert idx == TWO_DOC_INDEX
        np.testing.assert_array_equal(loaded.bias, m.bias)
        np.testing.assert_array_equal(loaded.weights, m.weights)

    def test_svm_roundtrip(self, tmp_path):
        X = feature_matrix([{0: 1.0}, {1: 1.0}, {2: 1.0}])
        y = [NEG, NEU, POS]
        m = svm_train(X, y, SvmHyper(epochs=3, seed=5))
        path = tmp_path / "svm.json"
        save_baseline(m, TWO_DOC_INDEX, path, {})
        loaded, idx = load_baseline(modelfile.read(path))
        assert loaded.kind == "svm"
        assert idx == TWO_DOC_INDEX
        np.testing.assert_array_equal(loaded.weights, m.weights)
        np.testing.assert_array_equal(loaded.bias, m.bias)

    def test_malformed_model_file(self, tmp_path):
        path = tmp_path / "m.json"
        modelfile.write(path, {"kind": "tree"}, b"")
        with pytest.raises(InputError, match="kind 'tree' is not one of"):
            modelfile.read(path)

    @pytest.mark.parametrize("model,key,value", [
        ("nb", "bias", [-1.0, -1.0]),
        ("nb", "weights", [[], [], []]),
        ("nb", "weights", [[-1.0], [-1.0]]),
        ("nb", "weights", [[-1.0], [float("nan")], [-1.0]]),
        ("svm", "bias", [0.0, 0.0]),
        ("svm", "bias", [0.0, float("inf"), 0.0]),
        ("svm", "weights", [[1.0, 2.0], [1.0], [1.0, 2.0]]),
        ("svm", "weights", [1.0, 2.0, 3.0]),
        ("nb", "weights", None),
        ("svm", "bias", "0 0 0"),
        # An envelope of another kind or format.
        ("nb", "kind", "tree"),
        ("svm", "kind", ["svm"]),
        ("nb", "format_version", 3),
        ("svm", "format_version", "4"),
        # A term index that would number its features wrongly.
        ("nb", "term_index.terms", ["bad", "bad", "movie"]),
        ("nb", "term_index.df", [1.5, 1, 3]),
        ("svm", "term_index.df", [True, 1, 3]),
        ("nb", "term_index.num_docs", "7"),
    ])
    def test_shape_and_finiteness_validated(self, tmp_path, two_doc_fixture,
                                            model, key, value):
        """A file whose header key, or payload array, holds value is refused,
        naming it.  The payload holds value as a writer might put it there:
        numbers as float64 in row order, a string as its text, null as
        nothing."""
        X, y = two_doc_fixture
        m = nb_train(X, y) if model == "nb" else svm_train(X, y, SvmHyper(epochs=1))
        path = tmp_path / f"{model}.json"
        save_baseline(m, TWO_DOC_INDEX, path, {})
        *parents, name = key.split(".")

        def as_bytes(array):
            if array is None or isinstance(array, str):
                return (array or "").encode("utf-8")
            rows = array if isinstance(array[0], list) else [array]
            return np.array([v for row in rows for v in row], dtype="<f8").tobytes()

        def edit(header):
            target = header
            for parent in parents:
                target = target[parent]
            target[name] = value
        if key in ("weights", "bias"):
            arrays = {"weights": m.weights.tolist(), "bias": m.bias.tolist(), key: value}
            rewrite_model_file(path, payload=as_bytes(arrays["weights"])
                               + as_bytes(arrays["bias"]))
        else:
            rewrite_model_file(path, edit)
        with pytest.raises(InputError, match=name) as raised:
            load_baseline(modelfile.read(path))
        assert str(path) in str(raised.value)
