import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixsent
from mixsent import baselines, cli, modelfile, preprocess
from mixsent import transformer as tfm
from mixsent.baselines import load_baseline, nb_predict, nb_train
from mixsent.cli import main
from mixsent.corpus import CANONICAL_LABEL_MAP, SentimentLabel, load_corpus
from mixsent.errors import TrainingError
from mixsent.features import fit_term_index, tfidf_transform
from mixsent.metrics import evaluate, load_report
from mixsent.preprocess import clean_text, cleaning_record

from conftest import packaged_config, read_model_file, rewrite_model_file

LABEL_MAP = {"neg": "negative", "neu": "neutral", "pos": "positive"}

POS_WORDS = ["mast", "badhiya", "zabardast", "shandaar"]
NEG_WORDS = ["bakwas", "bekar", "ganda", "kharab"]
NEU_WORDS = ["theek", "thik", "normal", "regular"]
FILLER_WORDS = ["movie", "khana", "song", "phone", "acting", "delivery"]


def write_inputs(tmp_path, n_per_class=20, prefix=""):
    """Posts whose last word, after `prefix`, carries the sentiment."""
    rows = []
    rng = np.random.default_rng(0)
    for i in range(n_per_class):
        for tag, words in (("pos", POS_WORDS), ("neg", NEG_WORDS), ("neu", NEU_WORDS)):
            fillers = " ".join(rng.choice(FILLER_WORDS, size=2))
            rows.append({"text": f"u{i} {fillers} {prefix}{words[i % len(words)]}",
                         "label": tag})
    jsonl = tmp_path / "tweets.jsonl"
    jsonl.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    map_path = tmp_path / "labels.json"
    map_path.write_text(json.dumps(LABEL_MAP), encoding="utf-8")
    return jsonl, map_path


def run_prepare(tmp_path, out_dir, seed=3):
    jsonl, map_path = write_inputs(tmp_path)
    code = main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                 "--out-dir", str(out_dir), "--seed", str(seed)])
    assert code == 0
    return out_dir


TINY_TRANSFORMER_CONFIG = json.dumps({
    "tokenizer": {"max_len": 12, "vocab_size": 200},
    "encoder": {"num_layers": 1, "num_heads": 2, "d_model": 16, "d_ff": 32,
                "dropout": 0.0},
    "train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8,
              "warmup_steps": 4},
})


class TestPrepare:
    def test_outputs_written(self, tmp_path, capsys):
        out = run_prepare(tmp_path, tmp_path / "run")
        written = ("clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl",
                   "distribution.txt", "drops.json", "preprocess.json")
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [*written, "manifest.json"])
        manifest = json.loads((out / "manifest.json").read_text())
        sizes = manifest["split_sizes"]
        assert sizes["train"] == 48 and sizes["val"] == 6 and sizes["test"] == 6
        assert manifest["outputs"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in written}
        assert manifest["config"]["preprocess"] == cli._settings()["preprocess"]
        # The packaged lists are recorded by their text, as a named one is.
        lists = ("stopwords.txt", "fillers.txt", "emoji_lexicon.json")
        assert json.loads((out / "preprocess.json").read_text(encoding="utf-8")) == {
            "keep_hashtag_text": False, "remove_stop_words": True,
            **{name: (resources.files("mixsent") / "data" / name).read_bytes()
               .decode("utf-8") for name in lists}}
        assert "Sentiment Class" in capsys.readouterr().out

    def test_default_record_is_the_cleaning_record(self, tmp_path):
        """A default prepare writes as preprocess.json the cleaning record
        of a preprocess section that sets nothing."""
        out = run_prepare(tmp_path, tmp_path / "run")
        assert json.loads((out / "preprocess.json").read_text(encoding="utf-8")) == (
            cleaning_record())

    def test_same_named_inputs_both_recorded(self, tmp_path):
        """Inputs are recorded in --input order, one entry each, also when
        two in different directories share a name."""
        paths = []
        for sub_dir, n_per_class in (("a", 20), ("b", 7)):
            (tmp_path / sub_dir).mkdir()
            jsonl, map_path = write_inputs(tmp_path / sub_dir, n_per_class)
            paths.append(jsonl)
        out = tmp_path / "run"
        assert main(["prepare", "--input", str(paths[0]), "--input", str(paths[1]),
                     "--label-map", str(map_path), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == [
            {"file": "tweets.jsonl", "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for path in paths]
        assert manifest["inputs"][0]["sha256"] != manifest["inputs"][1]["sha256"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_prepare(tmp_path, tmp_path / "a")
        b = run_prepare(tmp_path, tmp_path / "b")
        for name in ("clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl",
                     "distribution.txt", "drops.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_leading_byte_order_mark_is_not_text(self, tmp_path, suffix):
        """An input that starts with a UTF-8 byte-order mark, as Excel's
        "CSV UTF-8" export writes, gives the splits it gives without one."""
        jsonl, map_path = write_inputs(tmp_path)
        rows = [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]
        if suffix == ".csv":
            text = io.StringIO()
            csv.writer(text).writerows([["text", "label"],
                                        *([r["text"], r["label"]] for r in rows)])
            text = text.getvalue()
        else:
            text = jsonl.read_text(encoding="utf-8")
        splits = []
        for bom in (b"", b"\xef\xbb\xbf"):
            run = tmp_path / f"run{len(bom)}"
            run.mkdir()
            corpus = run / f"tweets{suffix}"
            corpus.write_bytes(bom + text.encode("utf-8"))
            assert main(["prepare", "--input", str(corpus), "--label-map", str(map_path),
                         "--out-dir", str(run / "out"), "--seed", "1"]) == 0
            splits.append({name: (run / "out" / name).read_bytes() for name in
                           ("clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl")})
        assert splits[1] == splits[0]

    def test_split_warning_is_one_line(self, tmp_path, capsys):
        """A class too small to split is named on one warning line on
        stderr; stdout and the exit code are those of any prepare."""
        jsonl, map_path = write_inputs(tmp_path)
        jsonl.write_text("".join(json.dumps({"text": f"{word} movie", "label": tag}) + "\n"
                                 for tag, word in (("pos", "mast"), ("neg", "bakwas"),
                                                   ("neu", "theek"))), encoding="utf-8")
        assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(tmp_path / "run")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: classes with fewer than 3 records assigned "
                                "wholly to train: Negative, Neutral, Positive\n")
        assert captured.out.splitlines()[-1] == "splits: train=3 val=0 test=0"

    def test_jsonl_outputs_are_per_record_json_dumps(self, tmp_path):
        """Each kept record is one `json.dumps(..., ensure_ascii=False)` line,
        in clean.jsonl and again in its split file."""
        rows = [{"text": f"u{i} khana बहुत {word}", "label": tag,
                 **({"source": f"feed{i % 2}"} if i % 3 else {})}
                for i, (tag, word) in enumerate(
                    [("pos", w) for w in POS_WORDS] + [("neg", w) for w in NEG_WORDS]
                    + [("neu", w) for w in NEU_WORDS])]
        jsonl = tmp_path / "tweets.jsonl"
        jsonl.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        map_path = tmp_path / "labels.json"
        map_path.write_text(json.dumps(LABEL_MAP), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(out)]) == 0

        def expected(name):
            return "".join(
                json.dumps({"id": r.id, "text": r.text, "label": r.label.name.lower(),
                            **({"source": r.source} if r.source else {})},
                           ensure_ascii=False) + "\n"
                for r in load_corpus(out / name, CANONICAL_LABEL_MAP))

        clean_lines = set((out / "clean.jsonl").read_text(encoding="utf-8").splitlines())
        assert any("बहुत" in line and "source" in line for line in clean_lines)
        split_lines = []
        for name in ("clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl"):
            text = (out / name).read_text(encoding="utf-8")
            assert text == expected(name), name
            if name != "clean.jsonl":
                split_lines += text.splitlines()
        assert sorted(split_lines) == sorted(clean_lines)

    def test_unmapped_label_exits_2_and_lists_it(self, tmp_path, capsys):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text('{"text": "x y", "label": "mixed"}\n', encoding="utf-8")
        map_path = tmp_path / "labels.json"
        map_path.write_text(json.dumps(LABEL_MAP), encoding="utf-8")
        code = main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "mixed" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"split": {"train_frac": "abc"}},
        {"split": [1]},
        {"preprocess": {"remove_stopwords": False}},
        {"preprocess": {"keep_hashtag_text": "no"}},
        {"preprocess": {"stopwords_file": 5}},
        {"splits": {"train_frac": 0.5}},
    ], ids=["train_frac-str", "section-list", "unknown-key", "bool-str",
            "file-int", "unknown-section"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, config):
        jsonl, map_path = write_inputs(tmp_path)
        assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(tmp_path / "run"),
                     "--config", json.dumps(config)]) == 2
        assert "error: config" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["input-dir", "label-map-dir", "input-utf16"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, monkeypatch, bad):
        jsonl, map_path = write_inputs(tmp_path)
        if bad == "input-utf16":
            jsonl.write_bytes(b"\xff\xfe" + jsonl.read_text().encode("utf-16-le"))
        monkeypatch.chdir(tmp_path)
        code = main(["prepare",
                     "--input", "." if bad == "input-dir" else str(jsonl),
                     "--label-map", "." if bad == "label-map-dir" else str(map_path),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_missing_inputs_usage_error(self, tmp_path):
        code = main(["prepare", "--out-dir", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("out_dir", ["file", "file/run"], ids=["file", "under-file"])
    def test_out_dir_not_a_directory_exit_2(self, tmp_path, capsys, out_dir):
        jsonl, map_path = write_inputs(tmp_path)
        (tmp_path / "file").write_text("x", encoding="utf-8")
        assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(tmp_path / out_dir)]) == 2
        assert (f"error: cannot make --out-dir {tmp_path / out_dir}: "
                in capsys.readouterr().err)
        assert (tmp_path / "file").read_text(encoding="utf-8") == "x"

    @pytest.mark.parametrize("flag", ["--keep-hashtag-text", "--no-stop-words"])
    def test_preprocess_switches_are_config_keys_only(self, tmp_path, flag):
        """preprocess.keep_hashtag_text and remove_stop_words have no flag."""
        jsonl, map_path = write_inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                  "--out-dir", str(tmp_path / "run"), flag])
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()


class TestTrain:
    def test_nb_model_matches_library_path(self, tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        model, idx = load_baseline(modelfile.read(out / "nb.json"))

        train_c = load_corpus(out / "train.jsonl", CANONICAL_LABEL_MAP)
        expected_idx = fit_term_index(train_c.texts(), min_df=1)
        assert expected_idx == idx
        X = tfidf_transform(train_c.texts(), idx)
        expected = nb_train(X, train_c.labels(), alpha=1.0)
        np.testing.assert_array_equal(model.bias, expected.bias)
        np.testing.assert_array_equal(model.weights, expected.weights)

    def test_svm_training_and_manifest(self, tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "svm", "--out-dir", str(out),
                     "--seed", "3"]) == 0
        manifest = json.loads((out / "svm.manifest.json").read_text())
        assert manifest["config"]["lambda"] == 1e-4
        assert manifest["config"]["epochs"] == 20

    def test_transformer_defaults_follow_training_recipe(self, tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run")
        config = json.dumps({"tokenizer": {"max_len": 12, "vocab_size": 200},
                             "encoder": {"num_layers": 1, "num_heads": 2,
                                         "d_model": 16, "d_ff": 32},
                             "train": {"epochs": 1}})
        assert main(["train", "--model", "transformer", "--out-dir", str(out),
                     "--config", config]) == 0
        manifest = json.loads((out / "transformer.manifest.json").read_text())
        tc = manifest["config"]["train"]
        # effective config snapshot keeps the published defaults
        assert tc["learning_rate"] == 2e-5
        assert tc["batch_size"] == 8
        assert tc["weight_decay"] == 0.01
        assert tc["warmup_steps"] == 500
        assert tc["epochs"] == 1  # the one explicit override
        assert (out / "transformer.bin").exists()
        assert (out / "transformer_best.bin").exists()
        # The vocabulary is in the model files' headers.
        assert not (out / "vocab.txt").exists()
        # The train manifest records what the run read; each model file's
        # header holds the train.jsonl it was trained on.
        assert set(manifest) == {"pipeline_version", "command", "model", "inputs",
                                 "config", "seed"}
        assert set(manifest["inputs"]) == {"train.jsonl", "val.jsonl"}
        for name in ("transformer.bin", "transformer_best.bin"):
            header = modelfile.read(out / name).header
            assert header["train_sha256"] == manifest["inputs"]["train.jsonl"]

    def test_out_of_memory_exit_1_without_traceback(self, tmp_path, capsys,
                                                    monkeypatch):
        """An allocation that fails, as numpy's does for an encoder too
        large for memory, is a runtime failure reported on one line."""
        out = run_prepare(tmp_path, tmp_path / "run")
        capsys.readouterr()

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.86 TiB for an array")

        monkeypatch.setattr(tfm, "init_params", no_memory)
        assert main(["train", "--model", "transformer", "--out-dir", str(out),
                     "--config", TINY_TRANSFORMER_CONFIG]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 1.86 TiB for an array\n"

    def test_failed_train_keeps_the_old_run(self, tmp_path, capsys, monkeypatch):
        """A train that fails in its fit writes nothing, so the models
        already in the run directory still match their references."""
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "svm", "--out-dir", str(out)]) == 0
        assert main(["train", "--model", "transformer", "--out-dir", str(out),
                     "--config", TINY_TRANSFORMER_CONFIG]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def diverge(*args, **kwargs):
            raise TrainingError("non-finite loss")

        monkeypatch.setattr(baselines, "svm_train", diverge)
        monkeypatch.setattr(tfm, "train", diverge)
        config = json.loads(TINY_TRANSFORMER_CONFIG)
        config["tokenizer"]["vocab_size"] = 60       # another vocabulary
        assert main(["train", "--model", "svm", "--out-dir", str(out),
                     "--config", '{"features": {"min_df": 2}}']) == 1
        assert main(["train", "--model", "transformer", "--out-dir", str(out),
                     "--config", json.dumps(config)]) == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

        monkeypatch.undo()
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        for model_file in ("svm.json", "transformer.bin"):
            assert main(["predict", "--model-file", str(out / model_file),
                         "--input", str(texts)]) == 0

    @pytest.mark.parametrize("model, split_name", [("nb", "train"),
                                                   ("transformer", "val")])
    def test_split_edited_after_prepare_refused(self, tmp_path, capsys, model,
                                                split_name):
        """A split that no longer has the digest 'prepare' recorded (test
        rows appended to it by hand, say) is not trained on; the run
        directory is left as it was."""
        out = run_prepare(tmp_path, tmp_path / "run")
        split_file = out / f"{split_name}.jsonl"
        with open(split_file, "a", encoding="utf-8") as fh:
            fh.write((out / "test.jsonl").read_text(encoding="utf-8").splitlines()[0] + "\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main(["train", "--model", model, "--out-dir", str(out),
                     "--config", TINY_TRANSFORMER_CONFIG]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"digest mismatch for {split_file}" in captured.err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_each_baseline_keeps_its_own_term_index(self, tmp_path):
        """nb and svm trained in one run directory with different features
        sections each evaluate exactly as when trained alone."""
        shared = run_prepare(tmp_path, tmp_path / "shared")
        runs = {"nb": (1, run_prepare(tmp_path, tmp_path / "nb")),
                "svm": (2, run_prepare(tmp_path, tmp_path / "svm"))}
        for model, (min_df, alone) in runs.items():
            config = json.dumps({"features": {"min_df": min_df}})
            for out in (shared, alone):
                assert main(["train", "--model", model, "--out-dir", str(out),
                             "--config", config]) == 0
        assert not (shared / "term_index.json").exists()
        widths = {model: len(load_baseline(modelfile.read(shared / f"{model}.json"))[1])
                  for model in runs}
        assert widths["svm"] < widths["nb"]
        for model, (_, alone) in runs.items():
            for out in (shared, alone):
                assert main(["evaluate", "--model-file", str(out / f"{model}.json")]) == 0
            assert ((shared / f"eval_{model}_test.json").read_bytes()
                    == (alone / f"eval_{model}_test.json").read_bytes())

    def test_unknown_model_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "tree", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_train_without_prepare_fails(self, tmp_path):
        code = main(["train", "--model", "nb", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_misspelt_config_section_exit_2(self, tmp_path, capsys):
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "nb", "--out-dir", str(out),
                     "--config", '{"nbb": {"alpha": 0.5}}']) == 2
        assert "error: config sections ['nbb'] unknown" in capsys.readouterr().err
        assert not (out / "nb.json").exists()

    def test_out_of_range_sections_fail_every_command(self, tmp_path, capsys):
        """Each range below is checked by a section nb training never reads."""
        out = run_prepare(tmp_path, tmp_path / "run")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        config = {"split": {"train_frac": 2}, "encoder": {"d_model": 30},
                  "svm": {"lambda": -1.0}, "tokenizer": {"max_len": 1}}
        assert main(["train", "--model", "nb", "--out-dir", str(out),
                     "--config", json.dumps(config)]) == 2
        assert "error: config split: train_frac + val_frac" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("config, message", [
        ({"tokenizer": {"max_len": 10 ** 20}}, "tokenizer: max_len must be <= 65536"),
        ({"encoder": {"d_model": 10 ** 23, "num_heads": 1}},
         "encoder: d_model must be <= 65536"),
    ], ids=["max_len", "d_model"])
    def test_shape_key_too_large_for_numpy_exit_2(self, tmp_path, config, message):
        """A shape key past its bound is refused when --config is read, not
        by numpy's array dimension limit as a traceback."""
        out = run_prepare(tmp_path, tmp_path / "run")
        proc = subprocess.run(
            [sys.executable, "-m", "mixsent", "train", "--model", "transformer",
             "--out-dir", str(out), "--config", json.dumps(config)],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == f"error: config {message}\n"

    def test_one_config_file_serves_every_command(self, tmp_path):
        """Each command passes over the sections of other commands and models."""
        config = json.loads(TINY_TRANSFORMER_CONFIG)
        config.update(preprocess={"keep_hashtag_text": True},
                      split={"train_frac": 0.7, "val_frac": 0.1},
                      features={"min_df": 1}, nb={"alpha": 0.5},
                      svm={"epochs": 2})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        jsonl, map_path = write_inputs(tmp_path)
        out = tmp_path / "run"
        assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(out), "--config", str(path)]) == 0
        assert main(["train", "--model", "nb", "--out-dir", str(out),
                     "--config", str(path)]) == 0
        assert json.loads((out / "nb.manifest.json").read_text())["config"]["alpha"] == 0.5

    def test_long_inline_config(self, tmp_path):
        """An inline --config longer than a file name may be is still read."""
        out = run_prepare(tmp_path, tmp_path / "run")
        config = json.dumps({"nb": {"alpha": 0.5}}, indent=300)
        assert len(config) > 1000
        assert main(["train", "--model", "nb", "--out-dir", str(out),
                     "--config", config]) == 0
        assert json.loads((out / "nb.manifest.json").read_text())["config"]["alpha"] == 0.5

    @pytest.mark.parametrize("model, section, value", [
        ("transformer", "encoder", {"num_layers": 1.5}),
        ("transformer", "train", {"batch_size": 2.5}),
        ("transformer", "train", {"epochs": 1.5}),
        ("transformer", "encoder", {"dropout": "x"}),
        ("transformer", "encoder", {"num_layer": 2}),       # unknown key
        ("transformer", "train", {"seed": "3"}),
        ("transformer", "train", {"seed": 3}),             # --seed sets it
        ("transformer", "encoder", [1]),                   # not an object
        ("nb", "nb", {"alpha": "abc"}),
        ("transformer", "preprocess", {"keep_hashtag_text": "no"}),
        # knobs that are gone: float32 training, a fixed word-length limit
        ("transformer", "train", {"precision": "double"}),
        ("transformer", "tokenizer", {"max_word_chars": 3}),
        # set from the tokenizer, the vocabulary and the label set
        ("transformer", "encoder", {"max_len": 64}),
        ("transformer", "encoder", {"vocab_size": 7}),
        ("transformer", "encoder", {"num_classes": 5}),
        # every section is checked, also those the model does not read
        ("nb", "encoder", {"num_layers": 1.5}),
        ("svm", "train", {"seed": 3}),
        # and so are the ranges of its values
        ("nb", "split", {"train_frac": 2}),
        ("nb", "split", {"val_frac": 0}),
        ("nb", "encoder", {"d_model": 30, "num_heads": 4}),
        ("nb", "encoder", {"dropout": 1.0}),
        ("nb", "svm", {"lambda": -1.0}),
        ("transformer", "svm", {"epochs": -1}),
        ("nb", "tokenizer", {"max_len": 1}),
        ("nb", "tokenizer", {"vocab_size": 0}),
        ("nb", "train", {"learning_rate": 0}),
        ("svm", "nb", {"alpha": 0}),
        ("nb", "features", {"min_df": 0}),
        # a number too large for a float
        ("nb", "svm", {"lambda": 10 ** 400}),
        ("svm", "nb", {"alpha": 10 ** 400}),
        ("transformer", "train", {"learning_rate": 10 ** 400}),
    ], ids=["num_layers-float", "batch_size-float", "epochs-float",
            "dropout-str", "unknown-key", "seed-str", "seed-removed",
            "section-list", "alpha-str", "bool-str", "precision-removed",
            "max_word_chars-removed", "max_len-derived",
            "vocab_size-derived", "num_classes-derived", "nb-encoder-float",
            "svm-train-seed", "nb-split-range", "nb-val-frac-range",
            "nb-heads-divide", "nb-dropout-range", "nb-lambda-range",
            "transformer-svm-epochs-range", "nb-max_len-range",
            "nb-vocab_size-range", "nb-learning-rate-range", "svm-alpha-range",
            "nb-min_df-range", "nb-lambda-huge", "svm-alpha-huge",
            "transformer-learning-rate-huge"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, model, section, value):
        out = run_prepare(tmp_path, tmp_path / "run")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        config = json.loads(TINY_TRANSFORMER_CONFIG)
        config[section] = ({**config.get(section, {}), **value}
                           if isinstance(value, dict) else value)
        assert main(["train", "--model", model, "--out-dir", str(out),
                     "--config", json.dumps(config)]) == 2
        assert "error: config" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# The path of each number of an evaluation document but the confusion
# counts, and of one confusion count.
REPORT_NUMBERS = [("accuracy",), *(("weighted", m) for m in ("precision", "recall", "f1")),
                  *(("per_class", label, key) for label in ("negative", "neutral", "positive")
                    for key in ("precision", "recall", "f1", "support")),
                  ("confusion", 1, 2)]


class TestEvaluateAndReport:
    @pytest.fixture
    def trained_dir(self, tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert main(["train", "--model", "svm", "--out-dir", str(out)]) == 0
        assert main(["train", "--model", "transformer", "--out-dir", str(out),
                     "--config", TINY_TRANSFORMER_CONFIG]) == 0
        return out

    def test_evaluate_all_models_and_report(self, trained_dir, capsys):
        for model_file in ("nb.json", "svm.json", "transformer.bin"):
            code = main(["evaluate", "--model-file", str(trained_dir / model_file),
                         "--split", "test"])
            assert code == 0
            assert "Per-class F1:" in capsys.readouterr().out
        assert main(["report", "--out-dir", str(trained_dir)]) == 0
        out_text = capsys.readouterr().out
        lines = out_text.splitlines()
        assert lines[0].split()[:2] == ["Model", "Accuracy"]
        assert [ln.split()[0] for ln in lines[1:4]] == ["nb_test", "svm_test",
                                                         "transformer_test"]
        csv_lines = (trained_dir / "comparison.csv").read_text().splitlines()
        assert csv_lines[0] == "model,weighted_f1"
        assert len(csv_lines) == 4

    def test_report_names_rows_by_model_file(self, trained_dir, capsys):
        """The final and best-epoch transformers evaluated on one split are
        two rows with two names."""
        for model_file in ("transformer.bin", "transformer_best.bin"):
            assert main(["evaluate", "--model-file", str(trained_dir / model_file)]) == 0
        capsys.readouterr()
        assert main(["report", "--out-dir", str(trained_dir)]) == 0
        rows = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()[1:3]]
        assert rows == ["transformer_best_test", "transformer_test"]
        csv_names = [line.split(",")[0] for line in
                     (trained_dir / "comparison.csv").read_text().splitlines()[1:]]
        assert csv_names == rows

    def test_train_split_evaluation_not_worse_than_test(self, trained_dir):
        for split_name in ("train", "test"):
            assert main(["evaluate", "--model-file", str(trained_dir / "nb.json"),
                         "--split", split_name]) == 0
        train_rep = json.loads((trained_dir / "eval_nb_train.json").read_text())
        test_rep = json.loads((trained_dir / "eval_nb_test.json").read_text())
        assert train_rep["weighted"]["f1"] >= test_rep["weighted"]["f1"] - 1e-9

    def test_missing_model_file_exit_2(self, tmp_path):
        code = main(["evaluate", "--model-file", str(tmp_path / "none.json"),
                     "--split", "test"])
        assert code == 2

    @staticmethod
    def nb_run(tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run", seed=1)
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        return out

    def test_resplit_after_train_refused(self, tmp_path, capsys):
        """A second 'prepare' at another seed moves training rows into the
        test split; evaluating the old model there would score them."""
        out = self.nb_run(tmp_path)
        run_prepare(tmp_path, out, seed=2)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main(["evaluate", "--model-file", str(out / "nb.json")]) == 2
        assert (f"{out / 'nb.json'} was not trained on the train.jsonl that "
                "manifest.json records" in capsys.readouterr().err)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_report_refuses_an_evaluation_of_a_rewritten_split(self, tmp_path, capsys):
        """An evaluation of a split that a re-run 'prepare' has rewritten since
        is not a row of the report: exit 2, and no comparison.csv.  Once the
        model is trained and evaluated again, its row is back."""
        out = self.nb_run(tmp_path)
        evaluate_nb = ["evaluate", "--model-file", str(out / "nb.json")]
        assert main(evaluate_nb) == 0
        assert main(["report", "--out-dir", str(out)]) == 0
        (out / "comparison.csv").unlink()
        run_prepare(tmp_path, out, seed=2)
        files = _files(out)
        capsys.readouterr()
        assert main(["report", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {out / 'eval_nb_test.json'} is not an evaluation of test.jsonl as "
            "it is now ('prepare' run since?); train and evaluate the model again\n")
        assert _files(out) == files

        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert main(evaluate_nb) == 0
        assert main(["report", "--out-dir", str(out)]) == 0
        assert (out / "comparison.csv").exists()

    def test_failed_prepare_leaves_an_unprepared_run(self, tmp_path, capsys):
        """A 'prepare' that fails part way (val.jsonl cannot be written) has
        removed the old manifest.json before its first output, so train and
        evaluate refuse the run as unprepared, not its new train.jsonl as an
        edited file."""
        out = self.nb_run(tmp_path)
        (out / "val.jsonl").unlink()
        (out / "val.jsonl").mkdir()
        assert main(["prepare", "--input", str(tmp_path / "tweets.jsonl"),
                     "--label-map", str(tmp_path / "labels.json"),
                     "--out-dir", str(out), "--seed", "2"]) == 2
        assert not (out / "manifest.json").exists()
        for argv in (["train", "--model", "nb", "--out-dir", str(out)],
                     ["evaluate", "--model-file", str(out / "nb.json")]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: manifest not found: {out / 'manifest.json'}\n"

    @pytest.mark.parametrize("split_name", ["test", "val"])
    def test_split_edited_after_prepare_refused(self, tmp_path, capsys, split_name):
        """A split that no longer has the digest 'prepare' recorded is not
        the held-out data; nothing is written."""
        out = self.nb_run(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        split_file = out / f"{split_name}.jsonl"
        digest = manifest["outputs"][f"{split_name}.jsonl"]
        assert digest == hashlib.sha256(split_file.read_bytes()).hexdigest()
        argv = ["evaluate", "--model-file", str(out / "nb.json"), "--split", split_name]
        assert main(argv) == 0
        report = json.loads((out / f"eval_nb_{split_name}.json").read_text())
        assert report["manifest"]["split_sha256"] == digest

        (out / f"eval_nb_{split_name}.json").unlink()
        split_file.write_text("".join(split_file.read_text(encoding="utf-8")
                                      .splitlines(keepends=True)[1:]), encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"digest mismatch for {split_file}" in captured.err
        assert not (out / f"eval_nb_{split_name}.json").exists()

    def test_manifest_without_split_digests_exit_2(self, tmp_path, capsys):
        """A manifest.json with no outputs map, as 'prepare' wrote before it
        recorded digests, is refused by train and evaluate; nothing is
        written.  predict reads only the model file and serves."""
        out = self.nb_run(tmp_path)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["outputs"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for argv in (["train", "--model", "nb", "--out-dir", str(out)],
                     ["evaluate", "--model-file", str(out / "nb.json")]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{path} records no file digests; run 'prepare' again" in captured.err
        assert main(["predict", "--model-file", str(out / "nb.json"),
                     "--input", str(texts)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_copied_model_refused(self, tmp_path, capsys):
        """A copy of a model file records the train.jsonl it was trained on,
        as the original does: while that is the run's, the copy is held out
        and scores exactly as the original.  Kept across a re-run 'prepare'
        and a retrain, it would be scored on its own training rows, so it is
        refused and nothing is written."""
        out = self.nb_run(tmp_path)
        shutil.copy(out / "nb.json", out / "nb_old.json")
        printed = []
        for name in ("nb.json", "nb_old.json"):
            capsys.readouterr()
            assert main(["evaluate", "--model-file", str(out / name)]) == 0
            printed.append(capsys.readouterr().out.splitlines()[:-1])
        assert printed[1] == printed[0]
        original = json.loads((out / "eval_nb_test.json").read_text(encoding="utf-8"))
        original["manifest"]["model_file"] = "nb_old.json"
        assert json.loads((out / "eval_nb_old_test.json").read_text(
            encoding="utf-8")) == original

        run_prepare(tmp_path, out, seed=2)
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert main(["evaluate", "--model-file", str(out / "nb.json")]) == 0
        files = _files(out)
        capsys.readouterr()
        assert main(["evaluate", "--model-file", str(out / "nb_old.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {out / 'nb_old.json'} was not trained on the train.jsonl that "
            "manifest.json records ('prepare' run since?); train it again\n")
        assert _files(out) == files

    @pytest.mark.parametrize("split_name", ["train", "test"])
    def test_evaluate_hashes_only_its_split_and_the_model(self, tmp_path, monkeypatch,
                                                          split_name):
        """evaluate compares recorded digests as strings and hashes only the
        split it scores and the model file, each once: the model's digest,
        which the evaluation records, is the one reading the file checks."""
        out = self.nb_run(tmp_path)
        hashed, digested = [], []
        real_sha256, real_digest = cli._sha256, modelfile._digest
        monkeypatch.setattr(cli, "_sha256",
                            lambda path: hashed.append(Path(path).name) or real_sha256(path))
        monkeypatch.setattr(modelfile, "_digest", lambda header, payload: (
            digested.append(header["kind"]) or real_digest(header, payload)))
        assert main(["evaluate", "--model-file", str(out / "nb.json"),
                     "--split", split_name]) == 0
        assert hashed == [f"{split_name}.jsonl"]
        assert digested == ["nb"]
        report = json.loads((out / f"eval_nb_{split_name}.json").read_text())
        assert report["manifest"]["model_sha256"] == json.loads(
            (out / "nb.json").read_bytes().split(b"\n", 1)[0])["sha256"]

    def test_report_refuses_a_stale_evaluation(self, tmp_path, capsys):
        """An evaluation of a model file trained again since, or deleted
        since, is not a row of the report; evaluating again mends it."""
        out = self.nb_run(tmp_path)
        evaluate_nb = ["evaluate", "--model-file", str(out / "nb.json")]
        assert main(evaluate_nb) == 0
        assert main(["train", "--model", "nb", "--out-dir", str(out),
                     "--config", '{"nb": {"alpha": 0.5}}']) == 0
        capsys.readouterr()
        assert main(["report", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{out / 'eval_nb_test.json'} is not an evaluation of {out / 'nb.json'}"
                in captured.err and "evaluate the model again" in captured.err)
        assert not (out / "comparison.csv").exists()

        assert main(evaluate_nb) == 0
        assert main(["report", "--out-dir", str(out)]) == 0
        assert (out / "comparison.csv").exists()

        (out / "comparison.csv").unlink()
        (out / "nb.json").unlink()
        assert main(["report", "--out-dir", str(out)]) == 2
        assert not (out / "comparison.csv").exists()
        eval_path = out / "eval_nb_test.json"
        eval_path.write_text(json.dumps({
            key: value for key, value in json.loads(eval_path.read_text()).items()
            if key != "manifest"}), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--out-dir", str(out)]) == 2
        assert f"{eval_path} names no model file" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [None, "[1]"])
    def test_evaluate_reads_no_train_manifest(self, tmp_path, manifest):
        """A model file's header holds the train.jsonl it was trained on, so
        evaluate reads no train manifest: deleted (None) or set to [1], it
        leaves the evaluation as it was."""
        out = self.nb_run(tmp_path)
        evaluate_nb = ["evaluate", "--model-file", str(out / "nb.json")]
        assert main(evaluate_nb) == 0
        eval_path = out / "eval_nb_test.json"
        expected = eval_path.read_bytes()
        path = out / "nb.manifest.json"
        if manifest is None:
            path.unlink()
        else:
            path.write_text(manifest, encoding="utf-8")
        eval_path.unlink()
        assert main(evaluate_nb) == 0
        assert eval_path.read_bytes() == expected

    def test_report_without_evals_exit_2(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        assert main(["report", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("content", ["{bad", "[1]"])
    def test_report_malformed_eval_file_exit_2(self, tmp_path, capsys, content):
        (tmp_path / "eval_nb_test.json").write_text(content, encoding="utf-8")
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        assert "malformed report" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(accuracy="x"), "accuracy must be a finite number"),
        (lambda d: d["weighted"].update(f1=None), "weighted.f1 must be a finite"),
        (lambda d: d["per_class"]["neutral"].update(recall=[0.5]),
         "recall must be a finite number"),
        (lambda d: d["per_class"]["positive"].update(support=2.5),
         "support must be an integer"),
        (lambda d: d["confusion"][1].__setitem__(2, True),
         "confusion count must be an integer"),
        (lambda d: d["confusion"].pop(), "confusion must be 3 x 3"),
    ], ids=["accuracy-str", "f1-null", "recall-list", "support-float",
            "confusion-bool", "confusion-2-rows"])
    def test_report_wrong_value_type_exit_2(self, tmp_path, capsys, edit, message):
        labels = [SentimentLabel(i) for i in (0, 1, 2, 2)]
        report = evaluate(labels, labels[::-1])
        edit(report)
        (tmp_path / "eval_nb_test.json").write_text(json.dumps(report),
                                                    encoding="utf-8")
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "malformed report" in err and message in err

    @pytest.mark.parametrize("value", [True, "0"], ids=["true", "str-0"])
    @pytest.mark.parametrize("leaf", REPORT_NUMBERS,
                             ids=lambda leaf: ".".join(map(str, leaf)))
    def test_report_names_a_malformed_number_by_its_path(self, tmp_path, capsys, leaf,
                                                         value):
        labels = [SentimentLabel(i) for i in (0, 1, 2, 2)]
        report = evaluate(labels, labels[::-1])
        *parents, key = leaf
        parent = report
        for name in parents:
            parent = parent[name]
        parent[key] = value
        (tmp_path / "eval_nb_test.json").write_text(json.dumps(report),
                                                    encoding="utf-8")
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: malformed report {tmp_path}")
        assert f": {'.'.join(map(str, leaf))}" in captured.err and "must be" in captured.err

    def test_saved_evaluation_is_the_document_evaluate_returns(self, tmp_path):
        """eval_*.json holds evaluate's document and the model, split and
        manifest keys after it; load_report returns that document."""
        out = self.nb_run(tmp_path)
        assert main(["evaluate", "--model-file", str(out / "nb.json")]) == 0
        _, predict, _ = cli._load_model(out / "nb.json")
        test_c = load_corpus(out / "test.jsonl", CANONICAL_LABEL_MAP)
        document = evaluate(test_c.labels(), predict(test_c.texts())[0])
        path = out / "eval_nb_test.json"
        saved = json.loads(path.read_text(encoding="utf-8"))
        assert list(saved) == [*document, "model", "split", "manifest"]
        assert {key: saved[key] for key in document} == document
        assert (saved["model"], saved["split"]) == ("nb", "test")
        assert load_report(path) == saved

    def test_comparison_csv_quotes_a_name_with_a_comma(self, tmp_path, capsys):
        """A model file whose name holds a comma or a quote is one quoted
        field of comparison.csv, which csv.reader reads back as written."""
        out = self.nb_run(tmp_path)
        for name in ("nb.json", "a,b.json", 'say "hi".json'):
            if name != "nb.json":
                shutil.copy(out / "nb.json", out / name)
            assert main(["evaluate", "--model-file", str(out / name)]) == 0
        capsys.readouterr()
        assert main(["report", "--out-dir", str(out)]) == 0
        text = (out / "comparison.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [row[0] for row in rows] == ["model", "a,b_test", "nb_test",
                                            'say "hi"_test']
        assert {len(row) for row in rows} == {2}
        assert text.splitlines()[1:] == [f'"a,b_test",{rows[2][1]}',
                                         f"nb_test,{rows[2][1]}",
                                         f'"say ""hi""_test",{rows[2][1]}']

    @pytest.mark.parametrize("edit, message", [
        (lambda d: (d.update(accuracy=0.5), d["weighted"].update(f1=0.99)),
         "metrics disagree with the confusion counts, which give accuracy 1.0"),
        (lambda d: d["per_class"]["negative"].update(support=3),
         "metrics disagree with the confusion counts"),
        (lambda d: d["confusion"][0].__setitem__(1, -1),
         "confusion counts must be >= 0"),
        (lambda d: d.update(confusion=[[0] * 3] * 3), "confusion counts are all zero"),
    ], ids=["metrics-edited", "support-edited", "negative-count", "all-zero"])
    def test_report_contradicting_confusion_exit_2(self, tmp_path, capsys, edit,
                                                   message):
        labels = [SentimentLabel(i) for i in (0, 1, 2, 2)]
        report = evaluate(labels, labels)
        edit(report)
        (tmp_path / "eval_nb_test.json").write_text(json.dumps(report),
                                                    encoding="utf-8")
        assert main(["report", "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed report" in captured.err and message in captured.err


class TestBaselineArtifact:
    @pytest.fixture
    def baseline_dir(self, tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run")
        for model in ("nb", "svm"):
            assert main(["train", "--model", model, "--out-dir", str(out)]) == 0
        return out

    @staticmethod
    def rewrite_in_format_4(path, edit):
        """Rewrite the baseline file at path as one JSON line, the layout of
        format_version 4 and the versions before it, edited by edit."""
        header, payload = read_model_file(path)
        values = np.frombuffer(payload, dtype="<f8")
        payload = {"format_version": 4, "kind": header["kind"],
                   "term_index": header["term_index"],
                   "weights": values[:-3].reshape(3, -1).tolist(),
                   "bias": values[-3:].tolist()}
        edit(payload)
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")

    @pytest.mark.parametrize("model_file,key,value", [
        ("nb.json", "bias", [-1.0, -1.0]),
        ("svm.json", "bias", [0.0, 0.0]),
    ])
    def test_wrong_class_count_exit_2(self, baseline_dir, tmp_path, capsys,
                                      model_file, key, value):
        path = baseline_dir / model_file
        header, payload = read_model_file(path)
        terms = len(header["term_index"]["terms"])
        # The weights of as many classes as value has biases, then value.
        rewrite_model_file(path, payload=payload[:8 * terms * len(value)]
                           + np.array(value, dtype="<f8").tobytes())
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        assert main(["predict", "--model-file", str(path),
                     "--input", str(texts)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and key in captured.err

    @pytest.mark.parametrize("model_file,key,edit", [
        ("nb.json", "terms", lambda terms: terms.__setitem__(1, terms[0])),
        ("svm.json", "df", lambda dfs: dfs.__setitem__(0, 1.5)),
    ], ids=["repeated-term", "fractional-df"])
    def test_bad_term_index_names_the_file_exit_2(self, baseline_dir, tmp_path, capsys,
                                                  model_file, key, edit):
        path = baseline_dir / model_file
        rewrite_model_file(path, lambda header: edit(header["term_index"][key]))
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        assert main(["predict", "--model-file", str(path), "--input", str(texts)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed model file {path}: term_index: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("model_file", ["nb.json", "svm.json"])
    def test_predict_parses_the_model_once(self, baseline_dir, tmp_path, capsys,
                                           monkeypatch, model_file):
        path = baseline_dir / model_file
        content = path.read_bytes().split(b"\n", 1)[0].decode("utf-8")
        parses = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            if isinstance(text, str) and text.strip() == content.strip():
                parses.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        assert main(["predict", "--model-file", str(path), "--input", str(texts)]) == 0
        assert len(parses) == 1

    @pytest.mark.parametrize("content,message", [
        ('{"kind": "nb"}', "{} has format_version None, not 5; train the model again"),
        ('{"kind": "nb", "format_version": 5}\n{}',
         "malformed model file {}: sha256 does not match its contents"),
        ('{"model_type": "nb"', "{} is not a recognized model file: not valid JSON"),
        ('{"model_type": "tree"}', "{} is not a recognized model file"),
        ('{"kind": "tree", "format_version": 4}', "{} is not a recognized model file"),
    ])
    def test_malformed_or_unknown_model_exit_2(self, baseline_dir, tmp_path, capsys,
                                               content, message):
        path = baseline_dir / "nb.json"
        path.write_text(content, encoding="utf-8")
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        assert main(["predict", "--model-file", str(path), "--input", str(texts)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message.format(path) in captured.err

    def test_term_index_width_mismatch_exit_2(self, baseline_dir, capsys):
        for model_file in ("nb.json", "svm.json"):
            path = baseline_dir / model_file
            rewrite_model_file(path, lambda header: (header["term_index"]["terms"].pop(),
                                                     header["term_index"]["df"].pop()))
            assert main(["evaluate", "--model-file", str(path),
                         "--split", "test"]) == 2
            assert "payload has" in capsys.readouterr().err

    @pytest.mark.parametrize("model_file", ["nb.json", "svm.json"])
    def test_format_version_1_model_exit_2(self, baseline_dir, tmp_path, capsys,
                                           model_file):
        """A model file of the earlier format refers to a term_index.json."""
        path = baseline_dir / model_file
        index = read_model_file(path)[0]["term_index"]
        (baseline_dir / "term_index.json").write_text(json.dumps(index),
                                                      encoding="utf-8")
        digest = hashlib.sha256((baseline_dir / "term_index.json").read_bytes()).hexdigest()
        self.rewrite_in_format_4(path, lambda payload: (
            payload.update(format_version=1, model_type=payload.pop("kind"),
                           term_index_ref={"file": "term_index.json", "sha256": digest}),
            payload.pop("term_index")))
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        assert main(["predict", "--model-file", str(path), "--input", str(texts)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path} has format_version 1, not 5; train the model again" in captured.err

    @pytest.mark.parametrize("model_file", ["nb.json", "svm.json"])
    def test_format_version_2_model_exit_2(self, baseline_dir, tmp_path, capsys,
                                           model_file):
        """The earlier layout kept each kind's parameters under its own keys."""
        path = baseline_dir / model_file

        def to_version_2(payload):
            payload.update(format_version=2, model_type=payload.pop("kind"))
            if payload["model_type"] == "nb":
                payload.update(alpha=1.0, class_log_prior=payload.pop("bias"),
                               feature_log_likelihood=payload.pop("weights"))
        self.assert_refused(baseline_dir, path, tmp_path, capsys, to_version_2, 2)

    @pytest.mark.parametrize("model_file, version", [
        ("nb.json", 3), ("svm.json", 3), ("nb.json", 4), ("svm.json", 4),
    ], ids=["nb.json", "svm.json", "nb.json-format-4", "svm.json-format-4"])
    def test_format_version_3_model_exit_2(self, baseline_dir, tmp_path, capsys,
                                           model_file, version):
        """Version 3 named the kind model_type and held the hyper-parameters;
        version 4, one JSON line too, named it kind and held neither."""
        path = baseline_dir / model_file
        hyper = {"alpha": 1.0} if model_file == "nb.json" else {
            "lambda": 1e-4, "epochs": 20, "seed": 0}

        def to_version(payload):
            if version == 3:
                payload.update(format_version=3, model_type=payload.pop("kind"),
                               hyper=hyper)
        self.assert_refused(baseline_dir, path, tmp_path, capsys, to_version, version)

    def assert_refused(self, baseline_dir, path, tmp_path, capsys, to_version, version):
        """predict and evaluate of the model file at path, rewritten by
        to_version, exit 2 asking for it to be trained again."""
        self.rewrite_in_format_4(path, to_version)
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        for argv in (["predict", "--model-file", str(path), "--input", str(texts)],
                     ["evaluate", "--model-file", str(path), "--split", "test"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"{path} has format_version {version}, not 5; train the model again"
                    in captured.err)
        assert not (baseline_dir / f"eval_{path.stem}_test.json").exists()

    def test_batch_predict_matches_evaluate(self, baseline_dir, capsys):
        """evaluate and predict score the same cleaned texts identically."""
        test_c = load_corpus(baseline_dir / "test.jsonl", CANONICAL_LABEL_MAP)
        texts = baseline_dir / "texts.txt"
        texts.write_text("\n".join(test_c.texts()) + "\n", encoding="utf-8")
        for model in ("nb", "svm"):
            path = baseline_dir / f"{model}.json"
            assert main(["evaluate", "--model-file", str(path),
                         "--split", "test"]) == 0
            capsys.readouterr()
            assert main(["predict", "--model-file", str(path),
                         "--input", str(texts)]) == 0
            predicted = [line.split("\t")[0]
                         for line in capsys.readouterr().out.splitlines()]
            saved = json.loads((baseline_dir / f"eval_{model}_test.json").read_text())
            confusion = np.zeros((3, 3), dtype=np.int64)
            for record, name in zip(test_c.records, predicted):
                confusion[int(record.label), ("negative", "neutral",
                                              "positive").index(name)] += 1
            assert confusion.tolist() == saved["confusion"]


class TestTransformerArtifact:
    def test_truncated_model_file_exit_2(self, served_dir, tmp_path, capsys):
        path = shutil.copytree(served_dir[0], tmp_path / "run") / "transformer.bin"
        path.write_bytes(path.read_bytes()[:-10])
        assert main(["evaluate", "--model-file", str(path), "--split", "test"]) == 2
        assert "truncated" in capsys.readouterr().err


class TestPredict:
    @pytest.fixture
    def nb_dir(self, tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        return out

    def test_predict_from_file(self, nb_dir, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("khana bakwas tha\nmovie mast hai\n", encoding="utf-8")
        code = main(["predict", "--model-file", str(nb_dir / "nb.json"),
                     "--input", str(texts)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        label, scores = lines[0].split("\t")
        assert label in ("negative", "neutral", "positive")
        assert len(scores.split()) == 3

    def test_lines_end_only_at_lf_crlf_or_cr(self, nb_dir, tmp_path, capsys):
        """U+2028, U+0085 and form feed are whitespace inside a line, as in
        a JSONL record; only LF, CRLF and CR end one."""
        texts = tmp_path / "texts.txt"
        spaced = tmp_path / "spaced.txt"
        spaced.write_text("movie mast hai\nkhana bakwas tha\nsong theek\n",
                          encoding="utf-8")
        texts.write_text("movie\u2028mast hai\r\nkhana\x0cbakwas\u0085tha\rsong theek",
                         encoding="utf-8", newline="")
        outputs = []
        for path in (spaced, texts):
            assert main(["predict", "--model-file", str(nb_dir / "nb.json"),
                         "--input", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(outputs[0].splitlines()) == 3
        assert outputs[1] == outputs[0]

    def test_predict_applies_preprocessing(self, nb_dir, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("khana bakwas tha\n@user khana BAKWAS tha https://x.io\n",
                         encoding="utf-8")
        assert main(["predict", "--model-file", str(nb_dir / "nb.json"),
                     "--input", str(texts)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == lines[1]

    def test_empty_input_file_exits_zero_silently(self, nb_dir, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("\n\n", encoding="utf-8")
        assert main(["predict", "--model-file", str(nb_dir / "nb.json"),
                     "--input", str(texts)]) == 0
        assert capsys.readouterr().out == ""

    def test_no_input_no_stdin_usage_error(self, nb_dir, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin.isatty", lambda: True)
        code = main(["predict", "--model-file", str(nb_dir / "nb.json")])
        assert code == 2
        assert "stdin" in capsys.readouterr().err

    def test_closed_stdin_usage_error(self, nb_dir, tmp_path, monkeypatch, capsys):
        """Started with stdin closed (`<&-`), Python sets sys.stdin to None:
        predict reads no text there, as at a terminal."""
        monkeypatch.setattr("sys.stdin", None)
        code = main(["predict", "--model-file", str(nb_dir / "nb.json")])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: predict needs --input or text on stdin\n"
        texts = tmp_path / "texts.txt"
        texts.write_text("movie zabardast\n", encoding="utf-8")
        assert main(["predict", "--model-file", str(nb_dir / "nb.json"),
                     "--input", str(texts)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_stdin_piped(self, nb_dir, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"movie zabardast\n")))
        assert main(["predict", "--model-file", str(nb_dir / "nb.json")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_stdin_byte_order_mark_is_not_text(self, nb_dir, monkeypatch, capsys):
        outputs = []
        for data in (b"mast movie\n", b"\xef\xbb\xbfmast movie\n"):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            assert main(["predict", "--model-file", str(nb_dir / "nb.json")]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_non_utf8_stdin_exit_2(self, nb_dir, tmp_path, capsys, monkeypatch):
        """Bytes that are not UTF-8 exit 2 from stdin as from --input."""
        texts = tmp_path / "texts.txt"
        texts.write_bytes(b"acha \xff\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(texts.read_bytes()),
                                                          encoding="latin-1"))
        for args in (["--input", str(texts)], []):
            assert main(["predict", "--model-file", str(nb_dir / "nb.json"), *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert "not UTF-8 text (invalid start byte at byte 5)" in captured.err
        assert "cannot read stdin: " in captured.err

    def test_stdin_read_as_utf8_in_any_locale(self, tmp_path, capsys):
        """An emoji on stdin maps to its lexicon word under a latin-1
        PYTHONIOENCODING too, as it does from --input."""
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text('{"\U0001F60D": "mast"}', encoding="utf-8")
        out = TestServedAsPrepared.prepared_nb(tmp_path, "--config", json.dumps(
            {"preprocess": {"emoji_lexicon_file": str(lexicon)}}))
        texts = tmp_path / "texts.txt"
        texts.write_text("khana \U0001F60D\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model-file", str(out / "nb.json"),
                     "--input", str(texts)]) == 0
        expected = capsys.readouterr().out
        assert expected.startswith("positive\t")
        proc = subprocess.run(
            [sys.executable, "-m", "mixsent", "predict",
             "--model-file", str(out / "nb.json")],
            input=texts.read_bytes(), capture_output=True, timeout=120,
            env=_subprocess_env(PYTHONIOENCODING="latin-1", LC_ALL="C"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode("ascii") == expected


class TestServedAsPrepared:
    """predict cleans text with the preprocessing the model was trained with,
    which train copies into the model file's header from the run directory
    that prepare wrote, and takes no preprocessing flags."""

    @staticmethod
    def prepared_nb(tmp_path, *prepare_args, prefix=""):
        jsonl, map_path = write_inputs(tmp_path, prefix=prefix)
        out = tmp_path / "run"
        assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(out), *prepare_args]) == 0
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        return out

    @staticmethod
    def predict(model_path, texts, tmp_path, capsys):
        path = tmp_path / "texts.txt"
        path.write_text("\n".join(texts) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["predict", "--model-file", str(model_path), "--input", str(path)])
        return code, capsys.readouterr()

    def test_hashtag_text_kept_without_a_flag(self, tmp_path, capsys):
        out = self.prepared_nb(tmp_path, "--config", json.dumps(
            {"preprocess": {"keep_hashtag_text": True}}), prefix="#")
        texts = ["#bakwas", "#mast"]
        code, captured = self.predict(out / "nb.json", texts, tmp_path, capsys)
        assert code == 0
        lines = captured.out.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["negative", "positive"]

        model, idx = load_baseline(modelfile.read(out / "nb.json"))
        cleaned = [clean_text(t, packaged_config(keep_hashtag_text=True)) for t in texts]
        labels, log_posterior = nb_predict(model, tfidf_transform(cleaned, idx))
        assert lines == [f"{label.name.lower()}\t" + " ".join(f"{v:.6f}" for v in row)
                         for label, row in zip(labels, np.exp(log_posterior))]

    def test_word_list_edited_after_prepare_exit_2(self, tmp_path, capsys):
        """prepare records the text of a named word list in preprocess.json,
        whose digest manifest.json holds, so train reads neither the named
        file nor an edited preprocess.json: it refuses the latter, writing
        nothing, and a model trained before the edit serves as it did."""
        stop = tmp_path / "stop.txt"
        stop.write_text("hai\ntha\n", encoding="utf-8")
        out = self.prepared_nb(tmp_path, "--config", json.dumps(
            {"preprocess": {"stopwords_file": str(stop)}}))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["preprocess"]["stopwords_file"] == str(stop)
        path = out / "preprocess.json"
        recorded = json.loads(path.read_text(encoding="utf-8"))
        assert recorded["stopwords.txt"] == "hai\ntha\n"
        assert manifest["outputs"]["preprocess.json"] == hashlib.sha256(
            path.read_bytes()).hexdigest()
        assert not (out / "stopwords.txt").exists()
        code, before = self.predict(out / "nb.json", ["movie mast hai"], tmp_path, capsys)
        assert code == 0

        trained = (out / "nb.json").read_bytes()
        stop.write_text("hai\n", encoding="utf-8")
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert (out / "nb.json").read_bytes() == trained

        path.write_text(json.dumps({**recorded, "stopwords.txt": "hai\n"}), encoding="utf-8")
        files = _files(out)
        capsys.readouterr()
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"digest mismatch for {path}" in captured.err
        assert _files(out) == files
        assert self.predict(out / "nb.json", ["movie mast hai"], tmp_path, capsys) == (
            0, before)

    def test_packaged_lists_served_from_the_run_directory(self, tmp_path, capsys,
                                                          monkeypatch):
        """A run prepared with the packaged lists serves the text train read
        from preprocess.json: a changed package leaves predict's output as it
        was, as does an edited preprocess.json."""
        out = self.prepared_nb(tmp_path)
        texts = ["movie mast hai", "khana bakwas tha \U0001F61E"]
        code, before = self.predict(out / "nb.json", texts, tmp_path, capsys)
        assert code == 0 and len(before.out.splitlines()) == 2

        package = tmp_path / "package"
        (package / "data").mkdir(parents=True)
        (package / "data" / "stopwords.txt").write_text("mast\nbakwas\n", encoding="utf-8")
        (package / "data" / "emoji_lexicon.json").write_text("{}", encoding="utf-8")
        (package / "data" / "fillers.txt").write_bytes(
            (resources.files("mixsent") / "data" / "fillers.txt").read_bytes())
        monkeypatch.setattr(preprocess, "resources",
                            types.SimpleNamespace(files=lambda _: package))
        assert packaged_config().stop_words == {"mast", "bakwas"}
        assert self.predict(out / "nb.json", texts, tmp_path, capsys) == (0, before)

        path = out / "preprocess.json"
        path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")),
                                    "stopwords.txt": "mast\nbakwas\n"}), encoding="utf-8")
        assert self.predict(out / "nb.json", texts, tmp_path, capsys) == (0, before)

    def test_prepare_run_again_leaves_a_trained_model_as_it_was(self, tmp_path, capsys):
        """prepare run again, with a stop-word list that names sentiment
        words, changes what the next train reads, not what a model trained
        before serves."""
        out = self.prepared_nb(tmp_path)
        texts = ["movie mast hai", "khana bakwas tha"]
        code, before = self.predict(out / "nb.json", texts, tmp_path, capsys)
        assert code == 0 and before.out.startswith("positive\t")
        stop = tmp_path / "stop.txt"
        stop.write_text("mast\nbakwas\n", encoding="utf-8")
        assert main(["prepare", "--input", str(tmp_path / "tweets.jsonl"),
                     "--label-map", str(tmp_path / "labels.json"), "--out-dir", str(out),
                     "--config", json.dumps({"preprocess": {"stopwords_file": str(stop)}})]) == 0
        assert self.predict(out / "nb.json", texts, tmp_path, capsys) == (0, before)

    def test_manifest_without_list_copies_exit_2(self, tmp_path, capsys):
        """A run directory as an earlier prepare wrote it, with a copy of each
        list, a sha256 table and an outputs list but no preprocess.json, is
        refused by train and evaluate, which ask for prepare to be run again
        and write nothing; predict reads only the model file and serves."""
        out = self.prepared_nb(tmp_path)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        recorded = json.loads((out / "preprocess.json").read_text(encoding="utf-8"))
        (out / "preprocess.json").unlink()
        lists = {"emoji_lexicon_file": "emoji_lexicon.json",
                 "stopwords_file": "stopwords.txt", "fillers_file": "fillers.txt"}
        for name in lists.values():
            (out / name).write_bytes(recorded[name].encode("utf-8"))
        manifest["config"]["preprocess"].update(lists)
        manifest["sha256"] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("train.jsonl", "val.jsonl", "test.jsonl", *lists.values())}
        manifest["outputs"] = ["clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl",
                               "distribution.txt", "drops.json", *lists.values()]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert self.predict(out / "nb.json", ["movie mast"], tmp_path, capsys)[0] == 0
        files = _files(out)
        for argv in (["train", "--model", "nb", "--out-dir", str(out)],
                     ["evaluate", "--model-file", str(out / "nb.json")]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {path} records no file digests; "
                                    "run 'prepare' again\n")
        assert _files(out) == files

    def test_relative_word_list_served_from_another_directory(
            self, tmp_path, capsys, monkeypatch):
        """A run directory prepared with a relative word-list path predicts
        from any working directory, also once the original list is gone."""
        (tmp_path / "stop.txt").write_text("hai\ntha\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        out = self.prepared_nb(tmp_path, "--config", json.dumps(
            {"preprocess": {"stopwords_file": "stop.txt"}}))
        texts = ["movie mast hai", "bakwas tha khana"]
        code, here = self.predict(out / "nb.json", texts, tmp_path, capsys)
        assert code == 0

        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        (tmp_path / "stop.txt").unlink()
        code, there = self.predict(out / "nb.json", texts, tmp_path, capsys)
        assert code == 0, there.err
        assert there.out == here.out

    def test_model_without_manifest_exit_2(self, tmp_path, capsys):
        """evaluate scores a model on the splits manifest.json digests, so it
        refuses a run directory without one; predict reads only the model."""
        out = self.prepared_nb(tmp_path)
        code, before = self.predict(out / "nb.json", ["movie mast"], tmp_path, capsys)
        (out / "manifest.json").unlink()
        assert self.predict(out / "nb.json", ["movie mast"], tmp_path, capsys) == (
            0, before)
        assert main(["evaluate", "--model-file", str(out / "nb.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "manifest.json" in captured.err

    @pytest.mark.parametrize("flag", ["--keep-hashtag-text", "--no-stop-words",
                                      "--config={}"])
    def test_preprocessing_flags_are_prepare_only(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--model-file", str(tmp_path / "nb.json"), flag])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def served_dir(tmp_path_factory):
    """A prepared run with a custom stop-word list and a model of each kind."""
    tmp = tmp_path_factory.mktemp("served")
    jsonl, map_path = write_inputs(tmp, n_per_class=6)
    stop = tmp / "stop.txt"
    stop.write_text("hai\ntha\n", encoding="utf-8")
    out = tmp / "run"
    assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                 "--out-dir", str(out), "--config",
                 json.dumps({"preprocess": {"stopwords_file": str(stop)}})]) == 0
    config = json.loads(TINY_TRANSFORMER_CONFIG)
    config["train"]["epochs"] = 1
    assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
    assert main(["train", "--model", "svm", "--out-dir", str(out)]) == 0
    assert main(["train", "--model", "transformer", "--out-dir", str(out),
                 "--config", json.dumps(config)]) == 0
    texts = tmp / "texts.txt"
    texts.write_text("movie mast hai\n#bakwas khana\n", encoding="utf-8")
    return out, texts


# Float32's largest weights overflow the head's matmul, by design; that is one
# error line, so a RuntimeWarning from numpy fails the test.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("weight", [np.inf, np.nan, np.finfo(np.float32).max])
def test_non_finite_model_weight_exit_2(served_dir, tmp_path, capsys, command, weight):
    """A transformer file whose head holds a non-finite weight, or finite
    weights that make the forward pass non-finite, is a damaged input: exit
    2, for predict and evaluate alike."""
    out, texts = served_dir
    run = shutil.copytree(out, tmp_path / "run")
    model = run / "transformer.bin"
    header, payload = read_model_file(model)
    head = 3 * header["encoder_config"]["d_model"] + 3
    rewrite_model_file(model, payload=payload[:-4 * head]
                       + np.full(head, weight, dtype="<f4").tobytes())
    args = (["--input", str(texts)] if command == "predict" else ["--split", "test"])
    capsys.readouterr()
    assert main([command, "--model-file", str(model), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("non-finite activations" if np.isfinite(weight) else "non-finite value") in err
    assert "damaged model file" in err


@pytest.mark.parametrize("edit", [
    lambda header: header.pop("train_sha256"),
    lambda header: header.update(train_sha256=True),
    lambda header: header.update(train_sha256=None),
    lambda header: header.update(train_sha256=[]),
    lambda header: header.update(train_sha256="0" * 64),
], ids=["dropped", "true", "null", "list", "other-digest"])
def test_model_without_its_train_digest_not_evaluated(served_dir, tmp_path, capsys, edit):
    """A model file whose header, signed afresh, does not hold the digest of
    the run's train.jsonl as its train_sha256 (a file written before headers
    held it, say) may have been trained on the rows evaluate would score:
    exit 2 and nothing written.  predict does not read the key, and prints
    what it printed."""
    out, texts = served_dir
    run = shutil.copytree(out, tmp_path / "run")
    for name in ("nb.json", "transformer.bin"):
        model = run / name
        code, expected, _ = _predict_output(model, texts, capsys)
        assert code == 0 and expected
        rewrite_model_file(model, edit)
        files = _files(run)
        capsys.readouterr()
        assert main(["evaluate", "--model-file", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "was not trained on the train.jsonl" in captured.err
        assert _files(run) == files
        assert _predict_output(model, texts, capsys) == (0, expected, "")


def _predict_output(model: Path, texts: Path, capsys) -> tuple[int, str, str]:
    capsys.readouterr()
    code = main(["predict", "--model-file", str(model), "--input", str(texts)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_model_file_stands_alone(served_dir, tmp_path, capsys):
    """A model file of each kind, copied alone into an empty directory,
    serves as it does in its run directory, and a vocab.txt beside a
    transformer is not read."""
    out, texts = served_dir
    assert not (out / "vocab.txt").exists()
    for name in ("nb.json", "svm.json", "transformer.bin"):
        code, expected, _ = _predict_output(out / name, texts, capsys)
        assert code == 0 and expected
        alone = tmp_path / name.split(".")[0]
        alone.mkdir()
        shutil.copy(out / name, alone / name)
        assert _predict_output(alone / name, texts, capsys) == (0, expected, "")
    (alone / "vocab.txt").write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nx\n", encoding="utf-8")
    assert _predict_output(alone / name, texts, capsys) == (0, expected, "")


def test_model_headers_hold_preprocess_json(served_dir, tmp_path):
    """Every model file's header holds preprocess.json as prepare wrote it,
    and only its five keys: a key added to the file is not read."""
    out = served_dir[0]
    recorded = json.loads((out / "preprocess.json").read_text(encoding="utf-8"))
    assert recorded["stopwords.txt"] == "hai\ntha\n"
    for name in ("nb.json", "svm.json", "transformer.bin", "transformer_best.bin"):
        assert read_model_file(out / name)[0]["preprocess"] == recorded, name

    run = shutil.copytree(out, tmp_path / "run")
    path = run / "preprocess.json"
    path.write_text(json.dumps({**recorded, "unknown": 0}), encoding="utf-8")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    manifest["outputs"]["preprocess.json"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert _quiet(["train", "--model", "nb", "--out-dir", str(run)])[0] == 0
    assert (run / "nb.json").read_bytes() == (out / "nb.json").read_bytes()


def test_format_version_1_transformer_exit_2(served_dir, tmp_path, capsys):
    """A model file of the earlier format refers to a vocab.txt."""
    out, texts = served_dir
    run = shutil.copytree(out, tmp_path / "run")
    model = run / "transformer.bin"

    def to_version_1(header):
        (run / "vocab.txt").write_text("\n".join(header.pop("vocab")) + "\n",
                                       encoding="utf-8")
        digest = hashlib.sha256((run / "vocab.txt").read_bytes()).hexdigest()
        header.update(format_version=1, vocab_ref={"file": "vocab.txt", "sha256": digest})
        header["encoder_config"]["num_classes"] = 3
    rewrite_model_file(model, to_version_1)
    code, stdout, err = _predict_output(model, texts, capsys)
    assert (code, stdout) == (2, "")
    assert f"{model} has format_version 1, not 5; train the model again" in err


def test_format_version_2_transformer_exit_2(served_dir, tmp_path, capsys):
    """A model file of the format whose header held the train config and the
    word-length limit."""
    out, texts = served_dir
    run = shutil.copytree(out, tmp_path / "run")
    model = run / "transformer.bin"
    rewrite_model_file(model, lambda header: header.update(
        format_version=2, train_config={}, max_word_chars=100))
    code, stdout, err = _predict_output(model, texts, capsys)
    assert (code, stdout) == (2, "")
    assert f"{model} has format_version 2, not 5; train the model again" in err


@pytest.mark.parametrize("command, version", [
    ("predict", 3), ("evaluate", 3), ("predict", 4), ("evaluate", 4),
], ids=["predict", "evaluate", "predict-format-4", "evaluate-format-4"])
def test_format_version_3_transformer_exit_2(served_dir, tmp_path, capsys, command,
                                             version):
    """A model file of the format whose header also held the tensor list, or
    of the next, whose header held no preprocessing."""
    out, texts = served_dir
    run = shutil.copytree(out, tmp_path / "run")
    model = run / "transformer.bin"

    def to_version(header):
        header.update(format_version=version)
        del header["preprocess"]
        if version == 3:
            header.update(tensors=[])
    rewrite_model_file(model, to_version)
    args = ["--input", str(texts)] if command == "predict" else ["--split", "test"]
    capsys.readouterr()
    assert main([command, "--model-file", str(model), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{model} has format_version {version}, not 5; train the model again"
            in captured.err)


@pytest.mark.parametrize("edit", [
    lambda vocab: vocab.remove("[UNK]"),
    lambda vocab: vocab.__setitem__(-1, vocab[4]),
    lambda vocab: vocab.__setitem__(-1, "##"),
    lambda vocab: vocab.__setitem__(-1, 7),
], ids=["no-unk", "repeated", "bare-prefix", "not-a-string"])
def test_bad_header_vocab_exit_2(served_dir, tmp_path, capsys, edit):
    out, texts = served_dir
    run = shutil.copytree(out, tmp_path / "run")
    rewrite_model_file(run / "transformer.bin", lambda header: edit(header["vocab"]))
    code, stdout, err = _predict_output(run / "transformer.bin", texts, capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad transformer header" in err


def test_header_num_classes_exit_2(served_dir, tmp_path, capsys):
    """A header may not size the head: five classes, with a payload of the
    matching size, would print five scores a line and then fail on a label
    that does not exist."""
    out, texts = served_dir
    run = shutil.copytree(out, tmp_path / "run")
    model = run / "transformer.bin"
    header, payload = read_model_file(model)
    d_model = header["encoder_config"]["d_model"]
    head = np.zeros(d_model * 5 + 5, dtype="<f4")
    head[-1] = 1.0                                  # class 4 wins
    rewrite_model_file(model, lambda header: header["encoder_config"].update(num_classes=5),
                       payload[:-4 * (d_model * 3 + 3)] + head.tobytes())
    code, stdout, err = _predict_output(model, texts, capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "num_classes" in err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predict_on_damaged_model_or_manifest_exits_0_or_2(served_dir, data):
    """Truncating the model file or manifest.json, or overwriting one byte
    of it, gives predict exit 0 or 2 and no traceback."""
    out, texts = served_dir
    target = data.draw(st.sampled_from(["nb.json", "transformer.bin", "manifest.json"]))
    model = (data.draw(st.sampled_from(["nb.json", "transformer.bin"]))
             if target == "manifest.json" else target)
    original = (out / target).read_bytes()
    # The JSON headers lie in the first 4 KiB; half the draws land there.
    pos = data.draw(st.integers(0, min(len(original), 4096) - 1)
                    | st.integers(0, len(original) - 1))
    if data.draw(st.booleans()):
        damaged = original[:pos]
    else:
        damaged = original[:pos] + bytes([data.draw(st.integers(0, 255))]) + original[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for name in ("nb.json", "transformer.bin", "manifest.json", "preprocess.json"):
            shutil.copy(out / name, run / name)
        (run / target).write_bytes(damaged)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["predict", "--model-file", str(run / model),
                         "--input", str(texts)])
    assert code in (0, 2)


def _quiet(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _quiet_predict(model: Path, texts: Path) -> tuple[int, str, str]:
    return _quiet(["predict", "--model-file", str(model), "--input", str(texts)])


@pytest.fixture(scope="module")
def served_outputs(served_dir):
    """A texts file holding served_dir's texts and its training texts, which
    hold every term and most vocabulary pieces; and predict's stdout on it
    for each model file of served_dir, as trained."""
    out, texts = served_dir
    every = out.parent / "every_text.txt"
    every.write_text(texts.read_text(encoding="utf-8") + "\n".join(
        load_corpus(out / "train.jsonl", CANONICAL_LABEL_MAP).texts()) + "\n",
        encoding="utf-8")
    outputs = {name: _quiet_predict(out / name, every)
               for name in ("nb.json", "svm.json", "transformer.bin")}
    assert all(code == 0 and stdout for code, stdout, _ in outputs.values())
    return every, {name: stdout for name, (_, stdout, _) in outputs.items()}


def _json_paths(value, path=()):
    """(path, item) for value and for every object, array and scalar in it."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _json_paths(item, (*path, key))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_model_file_exits_2_or_serves_as_trained(served_dir, served_outputs, data):
    """A model file of any kind with one header leaf replaced, one key
    dropped or one unknown key added exits 2 with one error line and no
    output, or prints what the file as trained prints; cut short, or holding
    one NaN, it exits 2.  The same change signed with a fresh sha256, as a
    writer that knows the format could make it, exits 0 or 2, never with a
    traceback, and exits 2 for a short or NaN payload."""
    out = served_dir[0]
    texts, outputs = served_outputs
    name = data.draw(st.sampled_from(sorted(outputs)))
    line, payload = (out / name).read_bytes().split(b"\n", 1)
    original = json.loads(line)
    paths = list(_json_paths(original))
    how = data.draw(st.sampled_from(["leaf", "drop", "add", "truncate", "nan"]))
    if how == "leaf":
        path = data.draw(st.sampled_from(
            [p for p, v in paths if p and not (isinstance(v, (dict, list)) and v)]))
        value = data.draw(st.sampled_from([True, "0", None, "1e999", [], {}]))
    elif how == "drop":
        path = data.draw(st.sampled_from(
            [p for p, _ in paths if p and isinstance(_at(original, p[:-1]), dict)]))
    elif how == "add":
        path = data.draw(st.sampled_from([p for p, v in paths if isinstance(v, dict)]))
    elif how == "truncate":
        payload = payload[:data.draw(st.integers(0, len(payload) - 1))]
    else:
        values = np.frombuffer(payload, dtype="<f4" if name == "transformer.bin" else "<f8")
        values = values.copy()
        values[data.draw(st.integers(0, len(values) - 1))] = np.nan
        payload = values.tobytes()

    def mutated(infinity):
        """The header changed as drawn, infinity standing for 1e999."""
        header = json.loads(line)
        if how == "leaf":
            _at(header, path[:-1])[path[-1]] = infinity if value == "1e999" else value
        elif how == "drop":
            del _at(header, path[:-1])[path[-1]]
        elif how == "add":
            _at(header, path)["unknown"] = 0
        return header

    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / name
        text = json.dumps(mutated("\0"), sort_keys=True).replace('"\\u0000"', "1e999")
        model.write_bytes(text.encode("utf-8") + b"\n" + payload)
        code, stdout, err = _quiet_predict(model, texts)
        if code == 0:
            assert how in ("leaf", "drop", "add") and stdout == outputs[name]
        else:
            assert (code, stdout) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1

        signed = mutated(float("inf"))
        signed.pop("sha256", None)
        modelfile.write(model, signed, payload)
        code, stdout, err = _quiet_predict(model, texts)
        assert code in (0, 2) if how in ("leaf", "drop", "add") else code == 2
        assert code == 0 or (stdout == "" and err.count("\n") == 1)


@pytest.mark.parametrize("command, name", [
    ("prepare", "train.jsonl"), ("prepare", "manifest.json"), ("train", "nb.json"),
    ("evaluate", "eval_nb_test.json"), ("report", "comparison.csv")])
def test_failed_write_exit_2(tmp_path, capsys, command, name):
    """An output that cannot be written (a directory stands where it goes)
    exits 2 with one error line naming it, not a traceback."""
    run = run_prepare(tmp_path, tmp_path / "run")
    assert main(["train", "--model", "nb", "--out-dir", str(run)]) == 0
    assert main(["evaluate", "--model-file", str(run / "nb.json")]) == 0
    argv = {"prepare": ["prepare", "--input", str(tmp_path / "tweets.jsonl"),
                        "--label-map", str(tmp_path / "labels.json"),
                        "--out-dir", str(run)],
            "train": ["train", "--model", "nb", "--out-dir", str(run)],
            "evaluate": ["evaluate", "--model-file", str(run / "nb.json")],
            "report": ["report", "--out-dir", str(run)]}[command]
    path = run / name
    path.unlink(missing_ok=True)
    path.mkdir()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: Is a directory\n"


def _files(directory: Path) -> dict:
    """Each file's name in directory and its bytes; {} if there is none."""
    return ({path.name: path.read_bytes() for path in directory.iterdir()}
            if directory.exists() else {})


# The commands that read the run directory's JSON documents, at run.
_READERS = {
    "train": lambda run: ["train", "--model", "nb", "--out-dir", str(run)],
    "evaluate nb": lambda run: ["evaluate", "--model-file", str(run / "nb.json")],
    "evaluate transformer": lambda run: ["evaluate", "--model-file",
                                         str(run / "transformer.bin")],
    "report": lambda run: ["report", "--out-dir", str(run)],
}
# Each JSON document of a run directory other than a model file, and its readers.
# The train manifests, nb.manifest.json and transformer.manifest.json, have
# no reader.
_DOCUMENTS = {
    "manifest.json": ("train", "evaluate nb", "evaluate transformer", "report"),
    "preprocess.json": ("train",),
    "eval_nb_test.json": ("report",),
    "eval_transformer_test.json": ("report",),
}
# A value of each JSON kind; "\0" stands for the number 1e999.
_OTHER_VALUES = [True, "0", None, "\0", [], {}]


def _kind(value) -> str:
    if value is None or isinstance(value, bool):
        return "null" if value is None else "bool"
    if isinstance(value, (int, float)) or value == "\0":
        return "number"
    return type(value).__name__


@pytest.fixture(scope="module")
def read_as_written(served_dir, tmp_path_factory):
    """served_dir with an evaluation of nb.json and of transformer.bin; and
    for each reader, its stdout (the run directory written as "{run}") and
    the directory's files once it has run there."""
    run = shutil.copytree(served_dir[0], tmp_path_factory.mktemp("documents") / "run")
    for model in ("nb.json", "transformer.bin"):
        assert _quiet(["evaluate", "--model-file", str(run / model)])[0] == 0
    results = {}
    for reader, argv in _READERS.items():
        copy = shutil.copytree(run, run.parent / reader.replace(" ", "_"))
        code, stdout, _ = _quiet(argv(copy))
        assert code == 0 and stdout
        results[reader] = (stdout.replace(str(copy), "{run}"), _files(copy))
    return run, results


@settings(deadline=None)
@given(data=st.data())
def test_mutated_run_document_exits_2_or_reads_as_written(read_as_written, data):
    """A JSON document of the run directory with one leaf replaced by a value
    of another JSON kind, one key dropped or one unknown key added: each
    command that reads it exits 2 with one error line, no output and nothing
    written, or prints and writes what it does with the document as
    written.  A changed preprocess.json runs again with its digest updated
    in manifest.json, so that the checks behind the digest run too."""
    run, results = read_as_written
    name = data.draw(st.sampled_from(sorted(_DOCUMENTS)))
    reader = data.draw(st.sampled_from(_DOCUMENTS[name]))
    document = json.loads((run / name).read_text(encoding="utf-8"))
    paths = list(_json_paths(document))
    how = data.draw(st.sampled_from(["leaf", "drop", "add"]))
    if how == "leaf":
        path = data.draw(st.sampled_from(
            [p for p, v in paths if p and not (isinstance(v, (dict, list)) and v)]))
        value = data.draw(st.sampled_from(
            [v for v in _OTHER_VALUES if _kind(v) != _kind(_at(document, path))]))
        _at(document, path[:-1])[path[-1]] = value
    elif how == "drop":
        path = data.draw(st.sampled_from(
            [p for p, _ in paths if p and isinstance(_at(document, p[:-1]), dict)]))
        del _at(document, path[:-1])[path[-1]]
    else:
        path = data.draw(st.sampled_from([p for p, v in paths if isinstance(v, dict)]))
        _at(document, path)["unknown"] = 0
    mutated = json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True).replace(
        '"\\u0000"', "1e999").encode("utf-8")
    variants = [{name: mutated}]
    if name == "preprocess.json":
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        manifest["outputs"][name] = hashlib.sha256(mutated).hexdigest()
        variants.append({name: mutated, "manifest.json": json.dumps(manifest).encode()})
    for changed in variants:
        with tempfile.TemporaryDirectory() as tmp:
            copy = shutil.copytree(run, Path(tmp) / "run")
            for file, content in changed.items():
                (copy / file).write_bytes(content)
            before = _files(copy)
            code, stdout, err = _quiet(_READERS[reader](copy))
            after = _files(copy)
        if code == 0:
            assert stdout.replace(str(copy), "{run}") == results[reader][0]
            assert after == {**results[reader][1], **changed}
        else:
            assert (code, stdout) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert after == before


def test_model_file_with_non_object_header_exit_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("[1, 2]\n", encoding="utf-8")
    texts = tmp_path / "texts.txt"
    texts.write_text("movie mast\n", encoding="utf-8")
    assert main(["predict", "--model-file", str(model), "--input", str(texts)]) == 2
    assert "not a recognized model file" in capsys.readouterr().err


def test_transformer_header_with_fractional_num_layers_exit_2(tmp_path, capsys):
    out = run_prepare(tmp_path, tmp_path / "run")
    model = out / "transformer.bin"
    modelfile.write(model, {"kind": "transformer", "encoder_config": {"num_layers": 1.0},
                            "vocab": [], "preprocess": {}}, b"")
    assert main(["evaluate", "--model-file", str(model)]) == 2
    assert "num_layers" in capsys.readouterr().err


DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize("target", [
    "label-map", "corpus", "emoji-lexicon", "config-inline", "config-file",
    "evaluate-model", "train-manifest", "report-eval"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, target):
    """JSON nested 100,000 deep, wherever the CLI reads JSON, is an input
    error and not a RecursionError traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    if target in ("evaluate-model", "train-manifest", "report-eval"):
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert main(["evaluate", "--model-file", str(out / "nb.json")]) == 0
        texts = tmp_path / "texts.txt"
        texts.write_text("movie mast\n", encoding="utf-8")
        model = str(out / "nb.json")
        file, argv = {
            "evaluate-model": ("nb.json", ["evaluate", "--model-file", model]),
            "train-manifest": ("manifest.json", ["train", "--model", "nb",
                                                 "--out-dir", str(out)]),
            "report-eval": ("eval_nb_test.json", ["report", "--out-dir", str(out)]),
        }[target]
        (out / file).write_text(DEEP_JSON, encoding="utf-8")
    else:
        jsonl, map_path = write_inputs(tmp_path)
        config = {"emoji-lexicon": json.dumps({"preprocess": {
                      "emoji_lexicon_file": str(deep)}}),
                  "config-inline": '{"split": ' + DEEP_JSON,
                  "config-file": str(deep)}.get(target)
        argv = ["prepare", "--input", str(deep if target == "corpus" else jsonl),
                "--label-map", str(deep if target == "label-map" else map_path),
                "--out-dir", str(tmp_path / "prepared"),
                *(["--config", config] if config else [])]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_malformed_emoji_lexicon_named_by_its_file(tmp_path, capsys):
    """prepare names a malformed lexicon by the file --config named, not by
    the packaged default's name."""
    lexicon = tmp_path / "lex.json"
    lexicon.write_text('{"x": ', encoding="utf-8")
    jsonl, map_path = write_inputs(tmp_path)
    capsys.readouterr()
    assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                 "--out-dir", str(tmp_path / "run"), "--config",
                 json.dumps({"preprocess": {"emoji_lexicon_file": str(lexicon)}})]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(
        f"error: config preprocess: malformed emoji lexicon {lexicon}: not valid JSON")


@pytest.mark.parametrize("command", ["prepare", "train", "evaluate", "predict",
                                     "report"])
def test_nul_byte_path_exit_2(tmp_path, capsys, command):
    """A path holding a NUL byte, which open() refuses with ValueError, is an
    input error: from --config, a flag or an evaluation file."""
    nul = "a\0b"
    if command == "prepare":
        jsonl, map_path = write_inputs(tmp_path)
        argv = ["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                "--out-dir", str(tmp_path / "run"),
                "--config", json.dumps({"preprocess": {"stopwords_file": nul}})]
    else:
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert main(["evaluate", "--model-file", str(out / "nb.json")]) == 0
        if command == "report":
            path = out / "eval_nb_test.json"
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["manifest"]["model_file"] = nul
            path.write_text(json.dumps(payload), encoding="utf-8")
        argv = {"train": ["train", "--model", "nb", "--out-dir", str(out),
                          "--config", nul],
                "evaluate": ["evaluate", "--model-file", nul],
                "predict": ["predict", "--model-file", str(out / "nb.json"),
                            "--input", nul],
                "report": ["report", "--out-dir", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["prepare", "nb", "svm", "transformer"])
def test_negative_seed_usage_error(tmp_path, capsys, command):
    """--seed is an integer >= 0 on every command, as numpy's generator,
    which seeds the encoder, requires: -1 exits 2 with a usage message and
    no traceback, and nothing is written."""
    if command == "prepare":
        jsonl, map_path = write_inputs(tmp_path)
        out = tmp_path / "run"
        argv = ["prepare", "--input", str(jsonl), "--label-map", str(map_path)]
    else:
        out = run_prepare(tmp_path, tmp_path / "run")
        argv = ["train", "--model", command, "--config", TINY_TRANSFORMER_CONFIG]
    before = _files(out)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.endswith("argument --seed: must be an integer >= 0, got '-1'\n")
    assert _files(out) == before


@pytest.mark.parametrize("case, message", [
    ("no-label-map", "prepare needs --label-map"),
    ("all-dropped", "no records survived preprocessing"),
    ("label-not-a-string", "label map value for 'pos' must be a string"),
    ("warmup-negative", "config train: warmup_steps and weight_decay must be >= 0"),
    ("weight-decay-negative", "config train: warmup_steps and weight_decay must be >= 0"),
])
def test_refused_input_writes_nothing(tmp_path, capsys, case, message):
    """Each input below exits 2 with one error line, prints nothing and
    writes nothing."""
    jsonl, map_path = write_inputs(tmp_path)
    out = tmp_path / "run"
    argv = ["prepare", "--input", str(jsonl), "--label-map", str(map_path),
            "--out-dir", str(out)]
    if case == "no-label-map":
        argv = argv[:3] + argv[5:]
    elif case == "all-dropped":
        jsonl.write_text('{"text": "ok", "label": "pos"}\n'
                         '{"text": "https://x.io #mast", "label": "neg"}\n'
                         '{"text": "123 :: 45", "label": "neu"}\n', encoding="utf-8")
    elif case == "label-not-a-string":
        map_path.write_text(json.dumps({**LABEL_MAP, "pos": 1}), encoding="utf-8")
    else:
        run_prepare(tmp_path, out)
        key = "warmup_steps" if case == "warmup-negative" else "weight_decay"
        argv = ["train", "--model", "nb", "--out-dir", str(out),
                "--config", json.dumps({"train": {key: -1}})]
    before = _files(out)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert _files(out) == before


def test_no_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None          # any import of scipy now fails
from mixsent.cli import main
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
jsonl, labels, out, texts, config = sys.argv[1:]
assert main(["prepare", "--input", jsonl, "--label-map", labels,
             "--out-dir", out]) == 0
assert main(["train", "--model", "transformer", "--out-dir", out,
             "--config", config]) == 0
assert main(["predict", "--model-file", out + "/transformer.bin",
             "--input", texts]) == 0
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


def test_cli_runs_without_scipy(tmp_path):
    """The CLI, transformer included, needs numpy only: no import of scipy,
    eager or lazy, on any command."""
    jsonl, map_path = write_inputs(tmp_path, n_per_class=6)
    texts = tmp_path / "texts.txt"
    texts.write_text("mast movie\nbakwas khana\n", encoding="utf-8")
    config = json.loads(TINY_TRANSFORMER_CONFIG)
    config["train"]["epochs"] = 1
    env = dict(os.environ,
               PYTHONPATH=str(Path(mixsent.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(jsonl), str(map_path),
         str(tmp_path / "run"), str(texts), json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    predictions = proc.stdout.strip().splitlines()[-2:]
    assert [line.split("\t")[0] in ("negative", "neutral", "positive")
            for line in predictions] == [True, True]


def _subprocess_env(**extra):
    return dict(os.environ,
                PYTHONPATH=str(Path(mixsent.__file__).resolve().parents[1]),
                **extra)


def test_evaluate_into_closed_pipe_exits_1_without_traceback(tmp_path):
    """`mixsent evaluate ... | head -1`: the reader closes stdout before the
    report is written."""
    out = run_prepare(tmp_path, tmp_path / "run")
    assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "mixsent", "evaluate",
         "--model-file", str(out / "nb.json"), "--split", "test"],
        env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()       # long before the child has imported numpy
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("lines_read", [0, 1])
def test_evaluate_into_closed_pipe_still_writes_the_report(tmp_path, capsys,
                                                           lines_read):
    """`mixsent evaluate ... | head -1` with unbuffered output: whenever the
    reader goes, the evaluation file is written as by an unpiped run."""
    out = run_prepare(tmp_path, tmp_path / "run")
    assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
    args = ["evaluate", "--model-file", str(out / "nb.json"), "--split", "test"]
    assert main(args) == 0
    capsys.readouterr()
    report = out / "eval_nb_test.json"
    expected = report.read_bytes()
    report.unlink()
    proc = subprocess.Popen([sys.executable, "-m", "mixsent", *args],
                            env=_subprocess_env(PYTHONUNBUFFERED="1"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    # A reader gone before the first line always costs the exit code.
    assert proc.wait(timeout=60) in ((1,) if lines_read == 0 else (0, 1))
    assert "Traceback" not in err, err
    assert report.read_bytes() == expected


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_training_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    """Importing mixsent pins BLAS to one thread.  This encoder's weight
    gradients are products over batch rows x positions of 456 or more, long
    enough for OpenBLAS to split them across threads and round differently
    when it is allowed two."""
    jsonl, map_path = write_inputs(tmp_path, n_per_class=40)
    prepared = tmp_path / "prepared"
    assert main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                 "--out-dir", str(prepared)]) == 0
    config = json.dumps({
        "tokenizer": {"max_len": 32, "vocab_size": 200},
        "encoder": {"num_layers": 1, "num_heads": 2, "d_model": 64, "d_ff": 128,
                    "dropout": 0.0},
        "train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 80,
                  "warmup_steps": 1}})
    runs = {}
    for threads in ("1", "2"):
        runs[threads] = shutil.copytree(prepared, tmp_path / f"threads{threads}")
        proc = subprocess.run(
            [sys.executable, "-m", "mixsent", "train", "--model", "transformer",
             "--out-dir", str(runs[threads]), "--config", config],
            env=_subprocess_env(**dict.fromkeys(BLAS_THREAD_VARS, threads)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for name in ("transformer.bin", "training_log.json"):
        assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes(), name


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration and file formats")[1].split("\n## ")[0]
    bullets = {bullet.split("`")[0]: bullet for bullet in section.split("\n  - `")[1:]}
    assert sorted(bullets) == sorted(cli._settings())
    missing = [f"{name}.{key}" for name, keys in cli._settings().items() for key in keys
               if f"`{key}`" not in bullets[name]]
    assert missing == []


class TestAllocatorSetUp:
    """main keeps freed heap memory in the process on glibc, and leaves the
    allocator alone anywhere else."""

    @staticmethod
    def fake_libc(monkeypatch, result):
        """Point ctypes.CDLL at a libc whose mallopt records its calls and
        returns result."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        return calls, mallopt

    def test_glibc_gets_both_thresholds(self, tmp_path, monkeypatch):
        out = run_prepare(tmp_path, tmp_path / "run")
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        calls, mallopt = self.fake_libc(monkeypatch, 1)
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int

    def test_refused_mmap_threshold_keeps_the_defaults(self, tmp_path, monkeypatch):
        out = run_prepare(tmp_path, tmp_path / "run")
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        calls, _ = self.fake_libc(monkeypatch, 0)
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert calls == [(-3, 32 << 20)]

    @pytest.mark.parametrize("confstr", [None, ValueError, AttributeError],
                             ids=["other-libc", "unknown-name", "no-confstr"])
    def test_off_glibc_the_command_still_runs(self, tmp_path, monkeypatch, confstr):
        out = run_prepare(tmp_path, tmp_path / "run")
        if confstr is None:
            monkeypatch.setattr(os, "confstr", lambda name: None)
        elif confstr is AttributeError:
            monkeypatch.delattr(os, "confstr")
        else:
            def unknown(name):
                raise ValueError("unrecognized configuration name")
            monkeypatch.setattr(os, "confstr", unknown)
        calls, _ = self.fake_libc(monkeypatch, 1)
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        assert calls == []
        assert (out / "nb.json").exists()

    def test_no_libc_symbols_keeps_the_defaults(self, tmp_path, monkeypatch):
        out = run_prepare(tmp_path, tmp_path / "run")
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")

        def no_library(name):
            raise OSError("cannot load the process's symbols")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
