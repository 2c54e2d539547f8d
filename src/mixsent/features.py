"""Bag-of-words TF-IDF features as one CSR matrix per batch of texts.

Terms are whitespace tokens; feature ids are assigned in lexicographic
term order for determinism.  Weights use raw term frequency times the
smoothed idf ln((1+N)/(1+df)) + 1, L2-normalized per document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_fields


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Rows of sparse feature weights in CSR form.

    Row i holds the features indices[indptr[i]:indptr[i+1]], strictly
    increasing and below num_features, with nonzero finite weights
    data[indptr[i]:indptr[i+1]].
    """
    indptr: np.ndarray      # int64 [N+1]
    indices: np.ndarray     # int64 [nnz]
    data: np.ndarray        # float64 [nnz]
    num_features: int

    def __post_init__(self):
        ptr, ids, T = self.indptr, self.indices, self.num_features
        if (ptr.ndim != 1 or len(ptr) == 0 or ptr[0] != 0 or ptr[-1] != len(ids)
                or len(self.data) != len(ids) or np.any(np.diff(ptr) < 0)):
            raise InputError("feature matrix row pointers do not match its entries")
        if len(ids) and (ids.min() < 0 or ids.max() >= T):
            raise InputError(f"feature ids must lie in [0, {T})")
        # with ids in range, row-major keys rise iff ids rise within each row
        if np.any(np.diff(self.entry_rows() * T + ids) <= 0):
            raise InputError("feature ids must be strictly increasing within a row")
        if not np.all(np.isfinite(self.data) & (self.data != 0.0)):
            raise InputError("feature weights must be nonzero and finite")

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def entry_rows(self) -> np.ndarray:
        """Row id of each stored entry, [nnz]."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.indptr))


@dataclass(frozen=True)
class TermIndex:
    terms: tuple[str, ...]            # feature id -> term
    document_frequency: tuple[int, ...]
    num_docs: int
    term_to_id: dict[str, int] = field(init=False, hash=False, compare=False, repr=False)
    idf: tuple[float, ...] = field(init=False, hash=False, compare=False, repr=False)

    def __post_init__(self):
        check_fields(self)
        if len(self.terms) != len(self.document_frequency):
            raise InputError("terms and document_frequency lengths differ")
        for term, df in zip(self.terms, self.document_frequency):
            if not isinstance(term, str):
                raise InputError(f"term {term!r} is not a string")
            # A bool or a float df is refused: JSON and fit_term_index give ints.
            if type(df) is not int or not 1 <= df <= self.num_docs:
                raise InputError(f"df for {term!r} must be an integer in "
                                 f"[1, {self.num_docs}], got {df!r}")
        term_to_id = dict(zip(self.terms, range(len(self.terms))))
        if len(term_to_id) != len(self.terms):
            repeated = next(t for i, t in enumerate(self.terms) if term_to_id[t] != i)
            raise InputError(f"term {repeated!r} repeated in terms")
        object.__setattr__(self, "term_to_id", term_to_id)
        # Feature id -> smoothed idf; one log per distinct df, as most terms
        # share a small df.
        n, dfs = self.num_docs, self.document_frequency
        by_df = {df: math.log((1 + n) / (1 + df)) + 1.0 for df in set(dfs)}
        object.__setattr__(self, "idf", tuple(map(by_df.__getitem__, dfs)))

    def __len__(self) -> int:
        return len(self.terms)


def fit_term_index(texts: list[str], min_df: int = 1) -> TermIndex:
    """Index every whitespace token appearing in >= min_df documents."""
    if not texts:
        raise InputError("fit_term_index requires a non-empty list of texts")
    if min_df < 1:
        raise InputError("min_df must be >= 1")
    df: dict[str, int] = {}
    any_token = False
    for text in texts:
        tokens = set(text.split())
        if tokens:
            any_token = True
        for t in tokens:
            df[t] = df.get(t, 0) + 1
    if not any_token:
        raise InputError("all documents are empty; nothing to index")
    terms = tuple(sorted(t for t, d in df.items() if d >= min_df))
    return TermIndex(terms=terms,
                     document_frequency=tuple(df[t] for t in terms),
                     num_docs=len(texts))


def tfidf_transform(texts: list[str], idx: TermIndex) -> FeatureMatrix:
    """One row per text: tf * idf, L2-normalized when nonzero; terms
    outside the index are ignored."""
    t2i, idf = idx.term_to_id, idx.idf
    indptr, indices, data = [0], [], []
    for text in texts:
        weights: dict[int, float] = {}
        for tok in text.split():
            fid = t2i.get(tok)
            if fid is not None:
                weights[fid] = weights.get(fid, 0.0) + 1.0
        for fid in weights:
            weights[fid] *= idf[fid]
        # Left to right: sum() compensates float sums from Python 3.12 on,
        # which would make the weights depend on the interpreter's version.
        squares = 0.0
        for w in weights.values():
            squares += w * w
        norm = math.sqrt(squares)
        for fid in sorted(weights):
            indices.append(fid)
            data.append(weights[fid] / norm)
        indptr.append(len(indices))
    return FeatureMatrix(indptr=np.array(indptr, dtype=np.int64),
                         indices=np.array(indices, dtype=np.int64),
                         data=np.array(data, dtype=np.float64),
                         num_features=len(idx))
