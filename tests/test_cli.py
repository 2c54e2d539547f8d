import json

import numpy as np
import pytest

from mixsent import transformer as tfm
from mixsent.baselines import load_baseline, nb_train
from mixsent.cli import main
from mixsent.corpus import CANONICAL_LABEL_MAP, load_corpus
from mixsent.features import fit_term_index, load_term_index, tfidf_transform
from mixsent.metrics import evaluate
from mixsent.preprocess import PreprocessConfig, clean_text
from mixsent.tokenizer import TokenizerConfig, load_vocabulary

LABEL_MAP = {"neg": "negative", "neu": "neutral", "pos": "positive"}

POS_WORDS = ["mast", "badhiya", "zabardast", "shandaar"]
NEG_WORDS = ["bakwas", "bekar", "ganda", "kharab"]
NEU_WORDS = ["theek", "thik", "normal", "regular"]
FILLER_WORDS = ["movie", "khana", "song", "phone", "acting", "delivery"]


def write_inputs(tmp_path, n_per_class=20):
    rows = []
    rng = np.random.default_rng(0)
    for i in range(n_per_class):
        for tag, words in (("pos", POS_WORDS), ("neg", NEG_WORDS), ("neu", NEU_WORDS)):
            fillers = " ".join(rng.choice(FILLER_WORDS, size=2))
            rows.append({"text": f"u{i} {fillers} {words[i % len(words)]}",
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
        for name in ("clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl",
                     "distribution.txt", "drops.json", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        sizes = manifest["split_sizes"]
        assert sizes["train"] == 48 and sizes["val"] == 6 and sizes["test"] == 6
        assert "Sentiment Class" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_prepare(tmp_path, tmp_path / "a")
        b = run_prepare(tmp_path, tmp_path / "b")
        for name in ("clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl",
                     "distribution.txt", "drops.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_unmapped_label_exits_2_and_lists_it(self, tmp_path, capsys):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text('{"text": "x y", "label": "mixed"}\n', encoding="utf-8")
        map_path = tmp_path / "labels.json"
        map_path.write_text(json.dumps(LABEL_MAP), encoding="utf-8")
        code = main(["prepare", "--input", str(jsonl), "--label-map", str(map_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "mixed" in capsys.readouterr().err

    def test_missing_inputs_usage_error(self, tmp_path):
        code = main(["prepare", "--out-dir", str(tmp_path / "out")])
        assert code == 2


class TestTrain:
    def test_nb_model_matches_library_path(self, tmp_path):
        out = run_prepare(tmp_path, tmp_path / "run")
        assert main(["train", "--model", "nb", "--out-dir", str(out)]) == 0
        model, ref = load_baseline(out / "nb.json")
        idx = load_term_index(out / ref["file"])

        train_c = load_corpus(out / "train.jsonl", "jsonl", CANONICAL_LABEL_MAP)
        expected_idx = fit_term_index(train_c.texts(), min_df=1)
        assert expected_idx == idx
        X = [tfidf_transform(t, idx) for t in train_c.texts()]
        expected = nb_train(X, train_c.labels(), alpha=1.0, num_features=len(idx))
        np.testing.assert_array_equal(model.class_log_prior, expected.class_log_prior)
        np.testing.assert_array_equal(model.feature_log_likelihood,
                                      expected.feature_log_likelihood)

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
        assert (out / "vocab.txt").exists()

    def test_unknown_model_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "tree", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_train_without_prepare_fails(self, tmp_path):
        code = main(["train", "--model", "nb", "--out-dir", str(tmp_path)])
        assert code == 2


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
        assert [ln.split()[0] for ln in lines[1:4]] == ["nb", "svm", "transformer"]
        csv_lines = (trained_dir / "comparison.csv").read_text().splitlines()
        assert csv_lines[0] == "model,weighted_f1"
        assert len(csv_lines) == 4

    def test_train_split_evaluation_not_worse_than_test(self, trained_dir):
        for split_name in ("train", "test"):
            assert main(["evaluate", "--model-file", str(trained_dir / "nb.json"),
                         "--split", split_name]) == 0
        train_rep = json.loads((trained_dir / "eval_nb_train.json").read_text())
        test_rep = json.loads((trained_dir / "eval_nb_test.json").read_text())
        assert train_rep["weighted"]["f1"] >= test_rep["weighted"]["f1"] - 1e-9

    def test_evaluate_json_flag(self, trained_dir, capsys):
        assert main(["evaluate", "--model-file", str(trained_dir / "nb.json"),
                     "--split", "val", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads([ln for ln in out.splitlines()
                              if ln.startswith("{")][0])
        assert "accuracy" in payload

    def test_missing_model_file_exit_2(self, tmp_path):
        code = main(["evaluate", "--model-file", str(tmp_path / "none.json"),
                     "--split", "test"])
        assert code == 2

    def test_digest_mismatch_refused(self, trained_dir):
        (trained_dir / "term_index.json").write_text(
            '{"terms": ["x"], "df": [1], "num_docs": 1}', encoding="utf-8")
        code = main(["evaluate", "--model-file", str(trained_dir / "nb.json"),
                     "--split", "test"])
        assert code == 2

    def test_report_without_evals_exit_2(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        assert main(["report", "--out-dir", str(tmp_path)]) == 2


class TestTransformerArtifact:
    SHORT = ["xy", "yx", "xyz", "zzy"]
    LONG = {"pos": ["xyzx", "xxyy"], "neg": ["yzyx", "zyzy"], "neu": ["zxxy", "yyzz"]}

    @pytest.fixture
    def short_words_dir(self, tmp_path):
        """A model trained with max_word_chars 3 on posts whose long words
        are spelled with the short words' pieces, so serving it with any
        other limit changes the encodings."""
        rng = np.random.default_rng(1)
        rows = [{"text": " ".join(list(rng.choice(self.SHORT, size=3))
                                  + [self.LONG[tag][i % 2]]),
                 "label": tag}
                for i in range(30) for tag in ("pos", "neg", "neu")]
        jsonl = tmp_path / "tweets.jsonl"
        jsonl.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                         encoding="utf-8")
        map_path = tmp_path / "labels.json"
        map_path.write_text(json.dumps(LABEL_MAP), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["prepare", "--input", str(jsonl), "--label-map",
                     str(map_path), "--out-dir", str(out)]) == 0
        config = json.loads(TINY_TRANSFORMER_CONFIG)
        config["tokenizer"]["max_word_chars"] = 3
        assert main(["train", "--model", "transformer", "--out-dir", str(out),
                     "--config", json.dumps(config)]) == 0
        return out

    def test_served_with_trained_max_word_chars(self, short_words_dir, tmp_path,
                                                capsys):
        out = short_words_dir
        params, cfg, _, _, _ = tfm.load_transformer(out / "transformer.bin")
        vocab = load_vocabulary(out / "vocab.txt")
        tok = TokenizerConfig(max_len=12, max_word_chars=3)

        train_c = load_corpus(out / "train.jsonl", "jsonl", CANONICAL_LABEL_MAP)
        assert main(["evaluate", "--model-file", str(out / "transformer.bin"),
                     "--split", "train"]) == 0
        expected = evaluate(train_c.labels(),
                            [l for l, _ in tfm.predict(params, cfg, vocab, tok,
                                                       train_c.texts())])
        saved = json.loads((out / "eval_transformer_train.json").read_text())
        assert saved["confusion"] == expected.to_dict()["confusion"]

        texts = ["xy xyzx", "zzy yzyx yx", "yyzz xyz", "XXYY"]
        (tmp_path / "texts.txt").write_text("\n".join(texts) + "\n",
                                            encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model-file", str(out / "transformer.bin"),
                     "--input", str(tmp_path / "texts.txt")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cleaned = [clean_text(t, PreprocessConfig()) for t in texts]
        assert lines == [f"{label.name.lower()}\t" + " ".join(f"{v:.6f}" for v in probs)
                         for label, probs in tfm.predict(params, cfg, vocab, tok,
                                                         cleaned)]

    def test_truncated_model_file_exit_2(self, short_words_dir, capsys):
        path = short_words_dir / "transformer.bin"
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

    def test_stdin_piped(self, nb_dir, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("movie zabardast\n"))
        assert main(["predict", "--model-file", str(nb_dir / "nb.json")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_no_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
