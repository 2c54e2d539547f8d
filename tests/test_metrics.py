import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsent.corpus import SentimentLabel
from mixsent.errors import InputError
from mixsent.metrics import (compare_models, evaluate, format_report, load_report,
                             per_class_f1_report, report_of, round_half_up, save_report)

labels_st = st.lists(st.integers(0, 2), min_size=1, max_size=200)


def brute_force_report(y_true, y_pred):
    """Independent per-pair counting oracle."""
    n = len(y_true)
    out = {"accuracy": sum(t == p for t, p in zip(y_true, y_pred)) / n,
           "per_class": {}}
    weighted_f1 = weighted_p = weighted_r = 0.0
    for c in range(3):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = sum(1 for t in y_true if t == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out["per_class"][c] = (precision, recall, f1, support)
        weighted_p += support / n * precision
        weighted_r += support / n * recall
        weighted_f1 += support / n * f1
    out["weighted"] = (weighted_p, weighted_r, weighted_f1)
    return out


class TestEvaluate:
    def test_worked_example(self):
        rep = evaluate([SentimentLabel(v) for v in (0, 0, 1, 2)],
                       [SentimentLabel(v) for v in (0, 1, 1, 2)])
        assert rep["accuracy"] == 0.75
        assert rep["per_class"]["negative"]["f1"] == pytest.approx(2 / 3)
        assert rep["per_class"]["neutral"]["f1"] == pytest.approx(2 / 3)
        assert rep["per_class"]["positive"]["f1"] == 1.0
        assert rep["weighted"]["f1"] == pytest.approx(0.75)
        assert rep["weighted"]["recall"] == pytest.approx(rep["accuracy"])

    def test_perfect_predictions(self):
        y = [SentimentLabel(v) for v in (0, 1, 2, 1, 0)]
        rep = evaluate(y, y)
        assert rep["accuracy"] == 1.0
        assert rep["weighted"]["f1"] == 1.0
        assert all(m["precision"] == m["recall"] == m["f1"] == 1.0
                   for m in rep["per_class"].values() if m["support"])

    def test_never_predicted_class_has_zero_precision(self):
        y_true = [SentimentLabel(v) for v in (0, 1, 2)]
        y_pred = [SentimentLabel(v) for v in (0, 0, 0)]
        rep = evaluate(y_true, y_pred)
        assert rep["per_class"]["neutral"]["precision"] == 0.0
        assert rep["per_class"]["positive"]["f1"] == 0.0

    def test_errors(self):
        with pytest.raises(InputError):
            evaluate([SentimentLabel(0)], [])
        with pytest.raises(InputError):
            evaluate([], [])

    @given(labels_st)
    @settings(max_examples=60)
    def test_weighted_recall_equals_accuracy(self, raw):
        rng = np.random.default_rng(hash(tuple(raw)) % 2 ** 32)
        y_true = [SentimentLabel(v) for v in raw]
        y_pred = [SentimentLabel(int(v)) for v in rng.integers(0, 3, len(raw))]
        rep = evaluate(y_true, y_pred)
        assert rep["weighted"]["recall"] == pytest.approx(rep["accuracy"], abs=1e-12)

    @given(labels_st, st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_joint_permutation_invariance(self, raw, rnd):
        y_true = [SentimentLabel(v) for v in raw]
        y_pred = [SentimentLabel((v + 1) % 3) if rnd.random() < 0.4 else SentimentLabel(v)
                  for v in raw]
        pairs = list(zip(y_true, y_pred))
        rnd.shuffle(pairs)
        a = evaluate(y_true, y_pred)
        b = evaluate([t for t, _ in pairs], [p for _, p in pairs])
        assert a["accuracy"] == b["accuracy"]
        assert a["weighted"]["f1"] == pytest.approx(b["weighted"]["f1"], abs=1e-12)
        np.testing.assert_array_equal(a["confusion"], b["confusion"])

    @given(labels_st)
    @settings(max_examples=60)
    def test_agrees_with_brute_force_oracle(self, raw):
        rng = np.random.default_rng(len(raw) * 7919 + sum(raw))
        y_pred_raw = [int(v) for v in rng.integers(0, 3, len(raw))]
        rep = evaluate([SentimentLabel(v) for v in raw],
                       [SentimentLabel(v) for v in y_pred_raw])
        oracle = brute_force_report(raw, y_pred_raw)
        assert rep["accuracy"] == oracle["accuracy"]
        for c, m in enumerate(rep["per_class"].values()):
            p, r, f1, support = oracle["per_class"][c]
            assert m["precision"] == p
            assert m["recall"] == r
            assert m["f1"] == pytest.approx(f1, abs=1e-15)
            assert m["support"] == support
        assert np.sum(rep["confusion"]) == len(raw)
        assert 0.0 <= rep["weighted"]["f1"] <= 1.0


confusions = (st.lists(st.integers(0, 50), min_size=9, max_size=9).filter(any)
              .map(lambda counts: np.array(counts, dtype=np.int64).reshape(3, 3)))
# Where each stored metric and support sits in an evaluation document.
STORED = [("accuracy",), *(("weighted", m) for m in ("precision", "recall", "f1")),
          *(("per_class", label, key) for label in ("negative", "neutral", "positive")
            for key in ("precision", "recall", "f1", "support"))]


def reread(report: dict) -> dict:
    """report as load_report reads it from the file save_report writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "eval_nb_test.json"
        save_report(report, path)
        return load_report(path)


class TestRoundTrip:
    @given(confusions, st.sampled_from(STORED), st.data())
    @settings(max_examples=100)
    def test_from_dict_takes_its_own_output_and_refuses_an_edit(self, cm, where,
                                                                 data):
        stored = report_of(cm)
        assert reread(stored) == stored
        edited = json.loads(json.dumps(stored))
        *parents, key = where
        parent = edited
        for name in parents:
            parent = parent[name]
        new = st.integers() if key == "support" else st.floats(allow_nan=False,
                                                               allow_infinity=False)
        parent[key] = data.draw(new.filter(lambda v: v != parent[key]))
        with pytest.raises(InputError, match="disagree with the confusion counts"):
            reread(edited)


class TestReports:
    def test_per_class_f1_block(self):
        y_true = [SentimentLabel(v) for v in (0, 0, 1, 2)]
        y_pred = [SentimentLabel(v) for v in (0, 1, 1, 2)]
        text = per_class_f1_report(evaluate(y_true, y_pred))
        assert "Negative   0.67" in text
        assert "Neutral    0.67" in text
        assert "Positive   1.00" in text

    def test_round_half_up_rule(self):
        assert round_half_up(0.666666) == "0.67"
        assert round_half_up(0.125) == "0.13"
        assert round_half_up(0.0) == "0.00"
        assert round_half_up(0.372735, 3) == "0.373"

    def test_compare_models_rows_in_order(self):
        y = [SentimentLabel(v) for v in (0, 1, 2, 1)]
        rep = evaluate(y, y)
        table, csv_text = compare_models([("nb", rep), ("svm", rep), ("transformer", rep)])
        lines = table.splitlines()
        assert lines[0].startswith("Model")
        assert [ln.split()[0] for ln in lines[1:]] == ["nb", "svm", "transformer"]
        csv_lines = csv_text.strip().splitlines()
        assert csv_lines[0] == "model,weighted_f1"
        assert len(csv_lines) == 4

    def test_compare_models_csv_quotes_as_python_3_13(self):
        """A name holding a comma, a quote, a line feed or a carriage return
        is one quoted field, as Python 3.13's csv module writes it, on every
        Python; csv.reader reads each row back as written."""
        y = [SentimentLabel(v) for v in (0, 1, 2, 1)]
        rep = evaluate(y, y)
        names = ["nb", "a\rb", "c\nd", "e,f", 'say "hi"', "g\r\nh"]
        _, csv_text = compare_models([(name, rep) for name in names])
        assert csv_text == ('model,weighted_f1\n'
                            'nb,1.0\n"a\rb",1.0\n"c\nd",1.0\n"e,f",1.0\n'
                            '"say ""hi""",1.0\n"g\r\nh",1.0\n')
        rows = list(csv.reader(io.StringIO(csv_text, newline="")))
        assert rows == [["model", "weighted_f1"], *([name, "1.0"] for name in names)]

    def test_compare_single_and_identical(self):
        y = [SentimentLabel(v) for v in (0, 1, 2)]
        rep = evaluate(y, y)
        table, _ = compare_models([("only", rep)])
        assert len(table.splitlines()) == 2
        table2, _ = compare_models([("a", rep), ("b", rep)])
        rows = [ln.split()[1:] for ln in table2.splitlines()[1:]]
        assert rows[0] == rows[1]

    def test_format_report_contains_weighted_row(self):
        y = [SentimentLabel(v) for v in (0, 1, 2)]
        text = format_report(evaluate(y, y))
        assert "Weighted" in text and "Accuracy: 1.00" in text
