"""Every file loader turns any bytes into a value or an InputError: never
another exception, so the CLI exits 2 on a bad file instead of printing a
traceback."""

import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsent import modelfile
from mixsent.baselines import (SvmHyper, load_baseline, nb_train, save_baseline,
                               svm_train)
from mixsent.corpus import (CANONICAL_LABEL_MAP, SentimentLabel, load_corpus,
                            load_label_map, save_corpus)
from mixsent.errors import InputError, read_file
from mixsent.features import fit_term_index
from mixsent.metrics import evaluate, load_report, save_report
from mixsent.preprocess import (FillerList, StopWordList, parse_emoji_lexicon,
                                parse_word_list)
from mixsent.tokenizer import Vocabulary
from mixsent.transformer import (EncoderConfig, init_params, load_transformer,
                                 save_transformer)

from conftest import feature_matrix, make_corpus

LABELS3 = [SentimentLabel(i) for i in (0, 1, 2)]
TINY = EncoderConfig(num_layers=1, num_heads=2, d_model=4, d_ff=4, dropout=0.0,
                     max_len=6, vocab_size=8)


def _packaged(name):
    return (resources.files("mixsent") / "data" / name).read_bytes()


def _write_samples(d: Path) -> dict[str, Path]:
    """One well-formed file per loader, written by the library's own savers."""
    paths = {name: d / name for name in (
        "corpus.jsonl", "corpus.csv", "labels.json", "emoji.json", "stop.txt",
        "fillers.txt", "report.json", "nb.json",
        "svm.json", "model.bin")}
    save_corpus(make_corpus([0, 1, 2, 2]), paths["corpus.jsonl"])
    paths["corpus.csv"].write_text('text,label,id\r\nmast hai,positive,a\r\n'
                                   '"bakwas,\r\ntha",negative,b\r\n', encoding="utf-8")
    paths["labels.json"].write_text('{"pos": "positive", "0": "negative"}',
                                    encoding="utf-8")
    paths["emoji.json"].write_bytes(_packaged("emoji_lexicon.json"))
    paths["stop.txt"].write_bytes(_packaged("stopwords.txt"))
    paths["fillers.txt"].write_bytes(_packaged("fillers.txt"))
    save_report(evaluate(LABELS3, LABELS3[::-1]), paths["report.json"],
                extra={"model": "nb", "split": "test"})
    X = feature_matrix([{0: 1.0}, {1: 1.0}, {0: 0.5, 1: 0.5}])
    idx = fit_term_index(["a b", "b", "a"])
    save_baseline(nb_train(X, LABELS3), idx, paths["nb.json"], {})
    save_baseline(svm_train(X, LABELS3, SvmHyper(epochs=2)), idx, paths["svm.json"], {})
    save_transformer(paths["model.bin"], init_params(TINY, 1, np.float32), TINY,
                     Vocabulary.from_pieces(["li", "##kh", "##na", "bé"]), {})
    return paths


# sample file -> its loader
LOADERS = {
    "corpus.jsonl": lambda p: load_corpus(p, CANONICAL_LABEL_MAP),
    "corpus.csv": lambda p: load_corpus(p, CANONICAL_LABEL_MAP),
    "labels.json": load_label_map,
    "emoji.json": lambda p: parse_emoji_lexicon(read_file(p, "emoji lexicon"), p),
    "stop.txt": lambda p: StopWordList(parse_word_list(read_file(p, "word list"))),
    "fillers.txt": lambda p: FillerList(parse_word_list(read_file(p, "word list"))),
    "report.json": load_report,
    "nb.json": lambda p: load_baseline(modelfile.read(p)),
    "svm.json": lambda p: load_baseline(modelfile.read(p)),
    "model.bin": lambda p: load_transformer(modelfile.read(p)),
}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    return {name: path.read_bytes()
            for name, path in _write_samples(tmp_path_factory.mktemp("samples")).items()}


def _load(name: str, content: bytes):
    """LOADERS[name] on a file holding content, in a file named like the sample."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(content)
        return LOADERS[name](path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_samples_load(samples, name):
    assert _load(name, samples[name]) is not None


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_bytes_give_a_value_or_input_error(samples, data):
    """Arbitrary bytes, or a well-formed file cut short or with one byte
    changed, load or raise InputError."""
    name = data.draw(st.sampled_from(sorted(LOADERS)))
    original = samples[name]
    how = data.draw(st.sampled_from(["bytes", "truncate", "replace"]))
    if how == "bytes":
        content = data.draw(st.binary(max_size=300))
    else:
        # Headers and structure sit near the start; half the draws land there.
        pos = data.draw(st.integers(0, min(len(original), 512) - 1)
                        | st.integers(0, len(original) - 1))
        byte = data.draw(st.sampled_from(b'[]{}",:.-0129eE\n\r \\\xff')
                         | st.integers(0, 255))
        content = (original[:pos] if how == "truncate"
                   else original[:pos] + bytes([byte]) + original[pos + 1:])
    try:
        _load(name, content)
    except InputError:
        pass


DEEP = b"[" * 100_000


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("content", [DEEP, b"\xff\xfe" + "[1]".encode("utf-16-le")],
                         ids=["nested-100000", "utf16-bom"])
def test_deep_nesting_and_non_utf8_rejected(name, content):
    if name == "stop.txt" and content == DEEP:
        assert _load(name, content).words == {DEEP.decode()}   # one odd word
        return
    with pytest.raises(InputError):
        _load(name, content)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_directory_rejected(tmp_path, name):
    with pytest.raises(InputError, match="cannot read"):
        LOADERS[name](tmp_path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_missing_file_rejected(tmp_path, name):
    with pytest.raises(InputError, match="not found"):
        LOADERS[name](tmp_path / name)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_nul_byte_path_rejected(tmp_path, name):
    with pytest.raises(InputError, match="cannot read .*embedded null byte"):
        LOADERS[name](tmp_path / "a\0b")


@pytest.mark.parametrize("name, old, new", [
    ("nb.json", b'"num_docs": 3', b'"num_docs": 1e999'),
    ("report.json", b"[\n      1,", b"[\n      1e999,"),
    ("svm.json", b'"num_docs": 3', b'"num_docs": 1e999'),
    ("model.bin", b'"d_model": 4', b'"d_model": 1e999'),
])
def test_infinite_integer_rejected(samples, name, old, new):
    """An integer field holding 1e999 (a float infinity once parsed)."""
    assert old in samples[name]
    with pytest.raises(InputError):
        _load(name, samples[name].replace(old, new, 1))
