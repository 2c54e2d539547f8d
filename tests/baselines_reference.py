"""Reference TF-IDF and baselines that loop over one record at a time.

A row is a tuple of (feature id, weight) pairs in feature order.  These are
the per-record loops that `mixsent.features` and `mixsent.baselines`
replaced with one CSR matrix per batch: the tests require bit-identical
TF-IDF weights and Naive Bayes scores, and SVM weights within float
tolerance, because the SVM now stores w as a scaled sum instead of
shrinking it at every step.

`sparse_svm_train` is that scaled-sum loop in its plain form, multiplying
by the target y where `mixsent.baselines.svm_train` branches on its sign;
the tests require the two to agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from mixsent.rng import SplitMix64, derive_seed, shuffled

NUM_CLASSES = 3


def tfidf_row(text, idx):
    weights = {}
    for tok in text.split():
        fid = idx.term_to_id.get(tok)
        if fid is not None:
            weights[fid] = weights.get(fid, 0.0) + 1.0
    for fid in weights:
        weights[fid] *= idx.idf[fid]
    squares = 0.0                  # left to right, on every Python version
    for w in weights.values():
        squares += w * w
    norm = math.sqrt(squares)
    if norm > 0:
        for fid in weights:
            weights[fid] /= norm
    return tuple(sorted(weights.items()))


def nb_train(rows, y, alpha, num_features):
    """(class log-prior [C], feature log-likelihood [C, T])."""
    class_counts = np.zeros(NUM_CLASSES)
    feature_sums = np.zeros((NUM_CLASSES, num_features))
    for row, label in zip(rows, y):
        c = int(label)
        class_counts[c] += 1
        for fid, w in row:
            feature_sums[c, fid] += w
    smoothed = feature_sums + alpha
    return (np.log(class_counts / len(rows)),
            np.log(smoothed / smoothed.sum(axis=1, keepdims=True)))


def linear_scores(row, weights, bias):
    scores = bias.copy()
    for fid, w in row:
        scores += w * weights[:, fid]
    return scores


def svm_train(rows, y, lambda_, epochs, seed, num_features):
    """(weights [C, T], bias [C]) with the dense shrink at every step."""
    weights = np.zeros((NUM_CLASSES, num_features))
    bias = np.zeros(NUM_CLASSES)
    order0 = list(range(len(rows)))
    for c in range(NUM_CLASSES):
        if c not in {int(label) for label in y}:
            continue
        targets = [1.0 if int(label) == c else -1.0 for label in y]
        w = weights[c]
        rng = SplitMix64(derive_seed(seed, c))
        t = 0
        for _ in range(epochs):
            for i in shuffled(order0, rng):
                t += 1
                eta = 1.0 / (lambda_ * t)
                margin = targets[i] * (sum(v * w[fid] for fid, v in rows[i]) + bias[c])
                w *= 1.0 - 1.0 / t
                if margin < 1.0:
                    for fid, v in rows[i]:
                        w[fid] += eta * targets[i] * v
                    bias[c] += eta * targets[i]
    return weights, bias


def sparse_svm_train(X, y, lambda_, epochs, seed):
    """(weights [C, T], bias [C]) for a FeatureMatrix X, storing w after
    step t as s/(lambda*t) and touching only the row's columns of s."""
    labels = np.array([int(label) for label in y])
    rows = [(X.indices[a:b], X.data[a:b]) for a, b in zip(X.indptr[:-1], X.indptr[1:])]
    weights = np.zeros((NUM_CLASSES, X.num_features))
    bias = np.zeros(NUM_CLASSES)
    order0 = list(range(len(X)))
    for c in range(NUM_CLASSES):
        if not np.any(labels == c):
            continue
        targets = np.where(labels == c, 1.0, -1.0).tolist()
        s = np.zeros(X.num_features)
        b = 0.0
        rng = SplitMix64(derive_seed(seed, c))
        t = 0
        for _ in range(epochs):
            for i in shuffled(order0, rng):
                cols, vals = rows[i]
                yi = targets[i]
                # w before this step is s/(lambda*t); s is still zero at t = 0
                margin = yi * (float(vals @ s[cols]) / (lambda_ * max(t, 1)) + b)
                t += 1
                if margin < 1.0:
                    s[cols] += yi * vals
                    b += yi / (lambda_ * t)
        weights[c] = s / (lambda_ * max(t, 1))
        bias[c] = b
    return weights, bias
