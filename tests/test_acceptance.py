"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted in the test body.
"""

import contextlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mixsent import transformer as tfm
from mixsent.baselines import SvmHyper, nb_predict, nb_train, svm_predict, svm_train
from mixsent.cli import main
from mixsent.corpus import (Corpus, LabeledTweet, SentimentLabel, SplitSpec,
                            split)
from mixsent.features import fit_term_index, tfidf_transform
from mixsent.metrics import evaluate
from mixsent.preprocess import preprocess_corpus
from mixsent.tokenizer import (Vocabulary, encode,
                               train_vocabulary)

from conftest import DATA_DIR, decode, feature_matrix, packaged_config


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


# --- criteria 1 & 2: full-size prepare run ----------------------------------

@pytest.fixture(scope="module")
def full_scale_run(tmp_path_factory):
    """24,111 synthetic records with the reference class counts, through
    the CLI prepare command."""
    root = tmp_path_factory.mktemp("full_scale")
    rows = []
    counts = ((SentimentLabel.NEUTRAL, 8987), (SentimentLabel.POSITIVE, 7940),
              (SentimentLabel.NEGATIVE, 7184))
    i = 0
    for label, count in counts:
        for _ in range(count):
            rows.append({"text": f"sample{i} mast movie",
                         "label": label.name.lower()})
            i += 1
    data = root / "tweets.jsonl"
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    label_map = root / "labels.json"
    label_map.write_text(json.dumps({n: n for n in ("negative", "neutral",
                                                    "positive")}), encoding="utf-8")
    out = root / "run"
    start = time.perf_counter()
    code = main(["prepare", "--input", str(data), "--label-map", str(label_map),
                 "--out-dir", str(out), "--seed", "7"])
    elapsed = time.perf_counter() - start
    assert code == 0
    return out, elapsed


def test_criterion_01_split_arithmetic(full_scale_run):
    out, elapsed = full_scale_run
    with criterion(1, "split arithmetic 19288/2411/2412 under 5 s"):
        sizes = {}
        for name in ("train", "val", "test"):
            with (out / f"{name}.jsonl").open(encoding="utf-8") as fh:
                sizes[name] = sum(1 for _ in fh)
        assert sizes == {"train": 19288, "val": 2411, "test": 2412}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["split_sizes"] == sizes
        assert elapsed < 5.0, f"prepare took {elapsed:.2f}s"


def test_criterion_02_distribution_report(full_scale_run):
    out, _ = full_scale_run
    with criterion(2, "class distribution 37.3/32.9/29.8"):
        text = (out / "distribution.txt").read_text(encoding="utf-8")
        lines = {ln.split()[0]: ln for ln in text.splitlines()[1:]}
        assert "8,987" in lines["Neutral"] and "37.3%" in lines["Neutral"]
        assert "7,940" in lines["Positive"] and "32.9%" in lines["Positive"]
        assert "7,184" in lines["Negative"] and "29.8%" in lines["Negative"]
        assert "24,111" in lines["Total"]


def test_criterion_03_tokenizer_fixture():
    with criterion(3, "7-token vocabulary segments and inverts 'likhna'"):
        vocab = Vocabulary.from_pieces(["li", "##kh", "##na"])
        enc = encode("likhna", vocab, 16)
        pieces = [vocab.tokens[i] for i in enc[1:-1]]
        assert pieces == ["li", "##kh", "##na"]
        assert decode(enc, vocab) == "likhna"


def test_criterion_04_preprocessing_goldens():
    with criterion(4, "20-case preprocessing golden file, byte-exact + idempotent"):
        golden = json.loads((DATA_DIR / "preprocess_golden.json").read_text(
            encoding="utf-8"))
        assert len(golden) == 20
        cfg = packaged_config()
        for case in golden:
            corpus = Corpus([LabeledTweet("0", case["input"], SentimentLabel.NEUTRAL)])
            clean, drops = preprocess_corpus(corpus, cfg)
            if "output" in case:
                assert len(clean) == 1, case
                assert clean.records[0].text == case["output"], case
            else:
                assert drops[case["drop"]] == 1, case
        kept = [case["output"] for case in golden if "output" in case]
        corpus = Corpus([LabeledTweet(str(i), t, SentimentLabel.NEUTRAL)
                         for i, t in enumerate(kept)])
        clean, drops = preprocess_corpus(corpus, cfg)
        assert [r.text for r in clean.records] == kept
        assert sum(drops.values()) == 0


def test_criterion_05_metrics_oracle():
    with criterion(5, "evaluate vs brute-force oracle on 1000 vectors, tolerance 0"):
        rng = np.random.default_rng(505)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 1001))
            y_true = [int(v) for v in rng.integers(0, 3, n)]
            y_pred = [int(v) for v in rng.integers(0, 3, n)]
            rep = evaluate([SentimentLabel(v) for v in y_true],
                           [SentimentLabel(v) for v in y_pred])
            # brute-force per-pair counting, exact rational arithmetic
            w_recall = Fraction(0)
            correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
            assert rep["accuracy"] == float(Fraction(correct, n))
            for c in range(3):
                tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
                fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
                support = sum(1 for t in y_true if t == c)
                precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
                recall = Fraction(tp, support) if support else Fraction(0)
                m = rep["per_class"][SentimentLabel(c).name.lower()]
                assert m["precision"] == float(precision)
                assert m["recall"] == float(recall)
                assert m["support"] == support
                w_recall += Fraction(support, n) * recall
            assert rep["weighted"]["recall"] == float(w_recall)
            assert rep["weighted"]["recall"] == rep["accuracy"]  # identity, tolerance 0
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"metrics oracle took {elapsed:.2f}s"


def test_criterion_06_naive_bayes_oracle():
    with criterion(6, "NB 2-document fixture likelihoods 0.4 / 0.2 at 1e-12"):
        X = feature_matrix([{0: 1.0, 2: 1.0},   # "bad movie"
                            {1: 1.0, 2: 1.0},   # "good movie"
                            {2: 1.0}], num_features=3)
        y = [SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE]
        m = nb_train(X, y, alpha=1.0)
        p_good_c1 = math.exp(m.weights[1, 1])
        p_good_c0 = math.exp(m.weights[0, 1])
        assert abs(p_good_c1 - 0.4) < 1e-12
        assert abs(p_good_c0 - 0.2) < 1e-12
        labels, _ = nb_predict(m, feature_matrix([{1: 1.0}], num_features=3))
        assert labels == [SentimentLabel.NEUTRAL]


def test_criterion_07_tfidf_oracle():
    with criterion(7, "TF-IDF fixture (0.580, 0.815) at 1e-3 and formula at 1e-12"):
        idx = fit_term_index(["a b", "a"])
        X = tfidf_transform(["a b"], idx)
        vec = dict(zip(X.indices.tolist(), X.data.tolist()))
        assert abs(vec[0] - 0.580) < 1e-3
        assert abs(vec[1] - 0.815) < 1e-3
        idf_a = math.log((1 + 2) / (1 + 2)) + 1.0
        idf_b = math.log((1 + 2) / (1 + 1)) + 1.0
        norm = math.hypot(idf_a, idf_b)
        assert abs(vec[0] - idf_a / norm) < 1e-12
        assert abs(vec[1] - idf_b / norm) < 1e-12


def test_criterion_08_gradient_check():
    with criterion(8, "tiny-transformer backprop vs finite differences < 1e-4"):
        start = time.perf_counter()
        cfg = tfm.EncoderConfig(num_layers=2, num_heads=2, d_model=8, d_ff=16,
                                dropout=0.0, max_len=16, vocab_size=30)
        params = tfm.init_params(cfg, seed=3)
        rng = np.random.default_rng(0)
        ids, mask = [], []
        for n_real in (16, 9, 5, 2):
            core = [int(v) for v in rng.integers(4, 30, size=n_real - 2)]
            ids.append([2] + core + [3] + [0] * (16 - n_real))
            mask.append([1] * n_real + [0] * (16 - n_real))
        batch = (np.array(ids), np.array(mask))
        labels = np.array([SentimentLabel(v) for v in (0, 1, 2, 1)])
        _, grads = tfm.loss_and_grads(params, cfg, *batch, labels)

        h = 1e-5
        fd = np.zeros_like(params)
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            lp, _ = tfm.loss_and_grads(params, cfg, *batch, labels)
            params[i] = orig - h
            lm, _ = tfm.loss_and_grads(params, cfg, *batch, labels)
            params[i] = orig
            fd[i] = (lp - lm) / (2 * h)
        # denominator floor absorbs finite-difference noise (~1e-11) on
        # entries whose true gradient is zero (e.g. the key bias)
        rel = np.abs(fd - grads) / np.maximum(1e-6, np.abs(fd) + np.abs(grads))
        failing = {key: float(r.max()) for key, r in tfm._views(rel, cfg).items()
                   if r.max() >= 1e-4}
        assert failing == {}
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_09_overfit_capacity():
    with criterion(9, "tiny transformer memorizes 16 samples; ln 3 at zeroed head"):
        rng = np.random.default_rng(12)
        words = [f"w{i}" for i in range(20)]
        vocab = Vocabulary.from_pieces(words)
        texts = [" ".join(rng.choice(words, size=5)) for _ in range(16)]
        labels = [SentimentLabel(int(v)) for v in rng.integers(0, 3, 16)]
        cfg = tfm.EncoderConfig(num_layers=2, num_heads=2, d_model=32, d_ff=64,
                                dropout=0.0, max_len=8, vocab_size=len(vocab))

        params = tfm.init_params(cfg, seed=0)
        tfm._views(params, cfg)["head.w"][:] = 0.0
        enc = [encode(t, vocab, cfg.max_len) for t in texts]
        loss, _ = tfm.loss_and_grads(params, cfg, *tfm._pad(enc), np.array(labels))
        assert abs(loss - math.log(3)) < 1e-9

        tc = tfm.TrainConfig(learning_rate=1e-3, epochs=200, batch_size=8,
                             weight_decay=0.01, warmup_steps=20, seed=5)
        result = tfm.train(texts, labels, [], [], vocab, cfg, tc)
        preds, _ = tfm.predict(result.final_params, cfg, vocab, texts)
        accuracy = sum(p == t for p, t in zip(preds, labels)) / len(labels)
        assert accuracy == 1.0


# --- criterion 10: three-model ordering on a separable noisy corpus ---------

POS_WORDS = ["badhiya", "mast", "zabardast", "shandaar", "jhakaas"]
NEG_WORDS = ["bakwas", "bekar", "ganda", "kharab", "ghatiya"]
NEU_WORDS = ["theek", "thik", "normal", "average", "saadharan"]
FILLER = ["movie", "film", "khana", "acting", "story", "service",
          "phone", "delivery", "gaana", "product", "aaj", "kal"]
BENCH_SEED = 21


def make_benchmark_corpus(n=600, seed=BENCH_SEED, noise=0.2, flip_rate=0.35):
    """Class-specific vocabulary plus a negation construction ("<signal>
    nahi" flips positive/negative) that bag-of-words models cannot
    represent, then 20% label noise."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        base = int(rng.integers(0, 3))
        lexicon = {0: NEG_WORDS, 1: NEU_WORDS, 2: POS_WORDS}[base]
        signal = lexicon[int(rng.integers(0, len(lexicon)))]
        words = list(rng.choice(FILLER, size=int(rng.integers(3, 6))))
        label = base
        if base != 1 and rng.random() < flip_rate:
            phrase = [signal, "nahi"]
            label = 2 - base
        else:
            phrase = [signal]
        at = int(rng.integers(0, len(words) + 1))
        words[at:at] = phrase
        if rng.random() < noise:
            label = int(rng.integers(0, 3))
        records.append(LabeledTweet(str(i), " ".join(words), SentimentLabel(label)))
    return Corpus(records)


def test_criterion_10_model_ordering():
    with criterion(10, "weighted F1 ordering: transformer >= SVM >= NB"):
        start = time.perf_counter()
        corpus = make_benchmark_corpus()
        train_c, val_c, test_c = split(corpus, SplitSpec(seed=BENCH_SEED))

        idx = fit_term_index(train_c.texts())
        X_train = tfidf_transform(train_c.texts(), idx)
        X_test = tfidf_transform(test_c.texts(), idx)

        nb = nb_train(X_train, train_c.labels(), alpha=1.0)
        nb_f1 = evaluate(test_c.labels(), nb_predict(nb, X_test)[0])["weighted"]["f1"]

        svm = svm_train(X_train, train_c.labels(),
                        SvmHyper(lambda_=1e-3, epochs=20, seed=BENCH_SEED))
        svm_f1 = evaluate(test_c.labels(), svm_predict(svm, X_test)[0])["weighted"]["f1"]

        vocab = train_vocabulary(train_c.texts(), target_size=300)
        cfg = tfm.EncoderConfig(num_layers=2, num_heads=4, d_model=64, d_ff=128,
                                dropout=0.1, max_len=16, vocab_size=len(vocab))
        tc = tfm.TrainConfig(learning_rate=1e-3, epochs=30, batch_size=16,
                             warmup_steps=30, seed=BENCH_SEED)
        result = tfm.train(train_c.texts(), train_c.labels(), val_c.texts(),
                           val_c.labels(), vocab, cfg, tc)
        preds, _ = tfm.predict(result.best_params, cfg, vocab, test_c.texts())
        tfm_f1 = evaluate(test_c.labels(), preds)["weighted"]["f1"]

        print(f"\n  weighted F1: transformer {tfm_f1:.4f} / svm {svm_f1:.4f} "
              f"/ nb {nb_f1:.4f}")
        assert tfm_f1 >= svm_f1 >= nb_f1
        # fixture-pinned regression floors (measured: 0.88 / 0.73 / 0.69)
        assert tfm_f1 >= 0.80
        assert svm_f1 >= 0.70
        assert nb_f1 >= 0.60
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"ordering fixture took {elapsed:.1f}s"


# --- criterion 11: end-to-end byte determinism ------------------------------

def _end_to_end(root, seed=11):
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(99)
    rows = []
    for i in range(60):
        words = [f"u{i}"] + list(rng.choice(FILLER, size=2))
        signal = (POS_WORDS, NEG_WORDS, NEU_WORDS)[i % 3][i % 5]
        rows.append({"text": " ".join(words + [signal]),
                     "label": ("positive", "negative", "neutral")[i % 3]})
    data = root / "tweets.jsonl"
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    label_map = root / "labels.json"
    label_map.write_text(json.dumps({n: n for n in ("negative", "neutral",
                                                    "positive")}), encoding="utf-8")
    out = root / "run"
    assert main(["prepare", "--input", str(data), "--label-map", str(label_map),
                 "--out-dir", str(out), "--seed", str(seed)]) == 0
    tiny = json.dumps({
        "tokenizer": {"max_len": 12, "vocab_size": 200},
        "encoder": {"num_layers": 1, "num_heads": 2, "d_model": 16, "d_ff": 32,
                    "dropout": 0.1},
        "train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8,
                  "warmup_steps": 4},
    })
    for model, extra in (("nb", []), ("svm", []), ("transformer", ["--config", tiny])):
        assert main(["train", "--model", model, "--out-dir", str(out),
                     "--seed", str(seed)] + extra) == 0
    for model_file in ("nb.json", "svm.json", "transformer.bin"):
        assert main(["evaluate", "--model-file", str(out / model_file),
                     "--split", "test"]) == 0
    assert main(["report", "--out-dir", str(out)]) == 0
    return out


def test_criterion_11_end_to_end_determinism(tmp_path):
    with criterion(11, "two identical end-to-end runs are byte-identical"):
        run_a = _end_to_end(tmp_path / "a")
        run_b = _end_to_end(tmp_path / "b")
        compared = []
        for path_a in sorted(run_a.iterdir()):
            path_b = run_b / path_a.name
            assert path_b.exists(), path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
            compared.append(path_a.name)
        for name in ("nb.json", "svm.json", "transformer.bin", "transformer_best.bin",
                     "eval_nb_test.json", "eval_svm_test.json",
                     "eval_transformer_test.json", "comparison.csv"):
            assert name in compared, name
