"""Non-contextual baselines: multinomial Naive Bayes and a linear
one-vs-rest SVM trained with the Pegasos stochastic subgradient method.

Both consume a FeatureMatrix (TF-IDF in the standard pipeline; the Naive
Bayes likelihood formula treats the weights as fractional counts) and
train one LinearModel, which scores a whole matrix at once.  Ties in
argmax prediction always resolve to the lowest label id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import modelfile
from .corpus import LABELS, NUM_CLASSES, SentimentLabel
from .errors import InputError, TrainingError, check_value
from .features import FeatureMatrix, TermIndex
from .rng import SplitMix64, derive_seed, shuffled


@dataclass
class LinearModel:
    """Scores b + x W^T for a feature row x.  nb: weights are the feature
    log-likelihoods, bias the class log-priors.  svm: the one-vs-rest
    weights and biases."""
    kind: str             # "nb" or "svm"
    weights: np.ndarray   # [C, T]
    bias: np.ndarray      # [C]


def _label_ids(X: FeatureMatrix, y: list[SentimentLabel]) -> np.ndarray:
    """y as label ids [N], once X and y are checked to be fit for training."""
    if len(X) != len(y) or len(X) == 0:
        raise InputError("X and y must be equal-length and non-empty")
    if X.num_features == 0:
        raise InputError("feature space is empty")
    return np.fromiter((int(label) for label in y), dtype=np.int64, count=len(y))


def _check_all_labels_present(y: list[SentimentLabel]) -> None:
    present = {int(label) for label in y}
    missing = [l.display_name for l in LABELS if int(l) not in present]
    if missing:
        raise InputError(f"every label must appear at least once; missing: {missing}")


def _linear_scores(X: FeatureMatrix, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b + x W^T for every row x, [N, C].  Each row's entries are added to
    its bias one at a time in feature order, so a row scores the same
    alone as in any batch."""
    if X.num_features != W.shape[1]:
        raise InputError(f"features have width {X.num_features} but the model "
                         f"was trained on {W.shape[1]}")
    scores = np.tile(b, (len(X), 1))
    np.add.at(scores, X.entry_rows(), X.data[:, None] * W.T[X.indices])
    return scores


def _argmax_labels(scores: np.ndarray) -> list[SentimentLabel]:
    return [SentimentLabel(int(c)) for c in np.argmax(scores, axis=1)]


def nb_train(X: FeatureMatrix, y: list[SentimentLabel],
             alpha: float = 1.0) -> LinearModel:
    """Multinomial NB with Laplace-style smoothing.

    likelihood[c][t] = (sum of x_t over docs of class c + alpha) /
                       (total feature mass of class c + alpha * T)
    """
    labels = _label_ids(X, y)
    _check_all_labels_present(y)
    if alpha <= 0:
        raise InputError("alpha must be > 0")
    T = X.num_features

    # Y^T X in one pass: entry k adds to cell (class of its row, feature)
    feature_sums = np.bincount(labels[X.entry_rows()] * T + X.indices,
                               weights=X.data,
                               minlength=NUM_CLASSES * T).reshape(NUM_CLASSES, T)
    prior = np.log(np.bincount(labels, minlength=NUM_CLASSES) / len(y))
    smoothed = feature_sums + alpha
    likelihood = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    if not np.all(np.isfinite(likelihood)):
        raise TrainingError("non-finite Naive Bayes likelihood")
    return LinearModel("nb", likelihood, prior)


def nb_predict(m: LinearModel, X: FeatureMatrix
               ) -> tuple[list[SentimentLabel], np.ndarray]:
    """Argmax label per row plus [N, C] log-posteriors normalized with
    log-sum-exp."""
    scores = _linear_scores(X, m.weights, m.bias)
    peak = np.max(scores, axis=1, keepdims=True)
    log_norm = peak + np.log(np.sum(np.exp(scores - peak), axis=1, keepdims=True))
    return _argmax_labels(scores), scores - log_norm


def svm_train(X: FeatureMatrix, y: list[SentimentLabel], lambda_: float = 1e-4,
              epochs: int = 20, *, seed: int) -> LinearModel:
    """One-vs-rest linear SVM, Pegasos updates.

    Per binary problem: step t has learning rate 1/(lambda*t); on margin
    violation w <- (1-1/t) w + eta*y*x and the unregularized bias moves by
    eta*y, otherwise only the shrink applies.  Unrolled, w after step t is
    s/(lambda*t), where s sums y*x over the violations so far, so only s is
    stored and a step costs O(nnz of its row).  Example order is reshuffled
    each epoch from a per-class stream derived from seed.  Labels absent
    from y keep a zero classifier.

    A step gathers its row's entries of s once and writes them back only on
    a violation.  It branches on y = +1 or -1 where the formula multiplies
    by y, which changes no float result: the weights and bias are those of
    the plain update.
    """
    check_value("seed", seed, "int")
    if lambda_ <= 0:
        raise InputError("lambda_ must be > 0")
    if epochs < 0:
        raise InputError("epochs must be >= 0")
    labels = _label_ids(X, y)
    rows = [(X.indices[a:b], X.data[a:b])
            for a, b in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist())]
    weights = np.zeros((NUM_CLASSES, X.num_features))
    bias = np.zeros(NUM_CLASSES)
    order0 = list(range(len(X)))
    for label in LABELS:
        c = int(label)
        if not np.any(labels == c):
            continue
        positive = (labels == c).tolist()
        s = np.zeros(X.num_features)
        b = 0.0
        rng = SplitMix64(derive_seed(seed, c))
        t = 0
        scale = lambda_  # lambda * max(t, 1); s is still zero at t = 0
        for _ in range(epochs):
            for i in shuffled(order0, rng):
                cols, vals = rows[i]
                part = s[cols]
                # w.x + b, with w before this step s/scale
                score = float(vals.dot(part)) / scale + b
                t += 1
                scale = lambda_ * t
                if positive[i]:
                    if score < 1.0:
                        part += vals
                        s[cols] = part
                        b += 1.0 / scale
                elif -score < 1.0:
                    part -= vals
                    s[cols] = part
                    b -= 1.0 / scale
            weights[c] = s / scale
            if not (np.all(np.isfinite(weights[c])) and math.isfinite(b)):
                raise TrainingError(f"SVM diverged for class {label.display_name}")
        bias[c] = b
    return LinearModel("svm", weights, bias)


def svm_predict(m: LinearModel, X: FeatureMatrix
                ) -> tuple[list[SentimentLabel], np.ndarray]:
    """Argmax label per row plus [N, C] decision scores."""
    scores = _linear_scores(X, m.weights, m.bias)
    return _argmax_labels(scores), scores


def save_baseline(model: LinearModel, idx: TermIndex, path: str | Path,
                  run: dict) -> None:
    """The model file: a header holding the kind, the term index that numbers
    the features and the run keys (see cli), then weights [C, T] and bias [C]
    as little-endian float64."""
    modelfile.write(path, {"kind": model.kind, **run,
                           "term_index": {"terms": list(idx.terms),
                                          "df": list(idx.document_frequency),
                                          "num_docs": idx.num_docs}},
                    model.weights.astype("<f8").tobytes() + model.bias.astype("<f8").tobytes())


def load_baseline(f: modelfile.ModelFile) -> tuple[LinearModel, TermIndex]:
    """The model in a baseline model file and its term index, whose length T
    sizes the payload."""
    try:
        index = f.header["term_index"]
        idx = TermIndex(terms=tuple(index["terms"]), document_frequency=tuple(index["df"]),
                        num_docs=index["num_docs"])
    except (KeyError, TypeError, InputError) as e:
        raise InputError(f"malformed model file {f.path}: term_index: {e}") from None
    T = len(idx)
    values = f.values("<f8", NUM_CLASSES * (T + 1),
                      f"weights [{NUM_CLASSES}, {T}] and bias [{NUM_CLASSES}]")
    return LinearModel(f.header["kind"], values[:-NUM_CLASSES].reshape(NUM_CLASSES, T),
                       values[-NUM_CLASSES:]), idx
