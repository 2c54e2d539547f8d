import dataclasses
import gc
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mixsent import modelfile
from mixsent.corpus import Corpus, LabeledTweet, SentimentLabel
from mixsent.errors import InputError
from mixsent.features import FeatureMatrix
from mixsent.preprocess import PreprocessConfig, cleaning_config, cleaning_record
from mixsent.tokenizer import (CLS_ID, CONTINUATION_PREFIX, PAD_ID, SEP_ID,
                               Vocabulary)

DATA_DIR = Path(__file__).parent / "data"

# HYPOTHESIS_PROFILE=ci runs property tests that set no max_examples of their
# own on ten times the default number of examples.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def unfreeze_collector():
    """cli.main freezes every object alive when it first runs, for a
    process that ends after the command; this process runs main in many
    tests and lives on.  Unfrozen after each test, those objects are
    collected again, and a file leaked in a cycle still reaches -X dev's
    ResourceWarning."""
    yield
    gc.unfreeze()


def make_corpus(labels, text_fn=None):
    """Corpus with one record per label; texts unique by default."""
    text_fn = text_fn or (lambda i, l: f"text {i}")
    return Corpus([
        LabeledTweet(id=str(i), text=text_fn(i, label), label=SentimentLabel(label))
        for i, label in enumerate(labels)
    ])


def packaged_config(**changes) -> PreprocessConfig:
    """The cleaning config of a default prepare, which reads the packaged
    lists, with the given fields changed."""
    return dataclasses.replace(cleaning_config(cleaning_record(), "packaged"), **changes)


def feature_matrix(rows, num_features=None):
    """FeatureMatrix with one {feature id: weight} dict per row; the width
    defaults to the largest feature id + 1."""
    indptr, indices, data = [0], [], []
    for row in rows:
        for fid in sorted(row):
            indices.append(fid)
            data.append(row[fid])
        indptr.append(len(indices))
    if num_features is None:
        num_features = max(indices, default=-1) + 1
    return FeatureMatrix(indptr=np.array(indptr, dtype=np.int64),
                         indices=np.array(indices, dtype=np.int64),
                         data=np.array(data, dtype=np.float64),
                         num_features=num_features)


def read_model_file(path) -> tuple[dict, bytes]:
    """The header, less sha256, and the payload of the model file at path,
    unchecked."""
    line, payload = Path(path).read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header.pop("sha256", None)
    return header, payload


def rewrite_model_file(path, edit=lambda header: None, payload=None) -> None:
    """Rewrite the model file at path with its header edited in place by edit
    and, when given, another payload, under a fresh sha256: a file as a
    writer that knows the format could have written it."""
    header, old = read_model_file(path)
    edit(header)
    modelfile.write(path, header, old if payload is None else payload)


def decode(ids, v):
    """Invert encode: drop specials/padding and fuse '##' continuations."""
    words: list[str] = []
    for i in ids:
        if i >= len(v) or i < 0:
            raise InputError(f"token id {i} outside vocabulary of size {len(v)}")
        if i in (PAD_ID, CLS_ID, SEP_ID):
            continue
        tok = v.tokens[i]
        if tok.startswith(CONTINUATION_PREFIX) and words:
            words[-1] += tok[len(CONTINUATION_PREFIX):]
        else:
            words.append(tok)
    return " ".join(words)


@pytest.fixture
def segment_vocab():
    """The 7-token fixture: specials + li / ##kh / ##na."""
    return Vocabulary.from_pieces(["li", "##kh", "##na"])


@pytest.fixture
def max_len():
    return 16


@pytest.fixture
def preprocess_golden():
    return json.loads((DATA_DIR / "preprocess_golden.json").read_text(encoding="utf-8"))
