"""Confusion-matrix evaluation: accuracy, per-class precision/recall/F1,
and support-weighted aggregates, as the one document eval_*.json holds.

Zero-division convention: precision or recall with an empty denominator is
0, and F1 is 0 when both are 0.  Metrics are computed as exact rationals
and converted to float once, so the support-weighted-recall = accuracy
identity holds bit-for-bit.  Display rounding is round-half-up at two
decimals; stored values are never rounded.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from .corpus import LABELS, NUM_CLASSES, SentimentLabel
from .errors import InputError, check_value, parse_json_object, read_file, write_file


def round_half_up(x: float, places: int = 2) -> str:
    """Decimal display rounding: 0.666... -> '0.67', 0.125 -> '0.13'."""
    q = Decimal(1).scaleb(-places)
    return str(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


def report_of(confusion) -> dict:
    """The evaluation document of a confusion matrix [true, predicted]:
    every metric derived from its counts once, in exact rationals, with
    per_class keyed by lower-case label name in label-id order."""
    cm = np.asarray(confusion, dtype=np.int64)
    if cm.shape != (NUM_CLASSES, NUM_CLASSES):
        raise InputError(f"confusion must be {NUM_CLASSES} x {NUM_CLASSES}, "
                         f"got shape {list(cm.shape)}")
    if cm.min() < 0:
        raise InputError("confusion counts must be >= 0")
    n = int(cm.sum())
    if n == 0:
        raise InputError("confusion counts are all zero")
    per_class = {}
    weighted = dict.fromkeys(("precision", "recall", "f1"), Fraction(0))
    for c, label in enumerate(LABELS):
        tp, predicted, support = int(cm[c, c]), int(cm[:, c].sum()), int(cm[c, :].sum())
        precision = Fraction(tp, predicted) if predicted > 0 else Fraction(0)
        recall = Fraction(tp, support) if support > 0 else Fraction(0)
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else Fraction(0))
        per_class[label.name.lower()] = {"precision": float(precision),
                                         "recall": float(recall), "f1": float(f1),
                                         "support": support}
        for name, value in zip(weighted, (precision, recall, f1)):
            weighted[name] += Fraction(support, n) * value
    return {"accuracy": float(Fraction(int(np.trace(cm)), n)),
            "per_class": per_class,
            "weighted": {name: float(value) for name, value in weighted.items()},
            "confusion": cm.tolist()}


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        counts[int(t), int(p)] += 1
    return counts


def evaluate(y_true: list[SentimentLabel], y_pred: list[SentimentLabel]) -> dict:
    """The evaluation document of paired true/predicted labels."""
    if len(y_true) != len(y_pred):
        raise InputError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise InputError("cannot evaluate an empty label list")
    return report_of(confusion_matrix(y_true, y_pred))


def per_class_f1_report(report: dict) -> str:
    """Label-name -> F1 rows at two-decimal display rounding, by label id."""
    lines = ["Per-class F1:"]
    for label in LABELS:
        lines.append(f"  {label.display_name:<10} "
                     f"{round_half_up(report['per_class'][label.name.lower()]['f1'])}")
    return "\n".join(lines)


def format_report(report: dict) -> str:
    header = (f"{'Class':<10} {'Precision':>9} {'Recall':>9} {'F1':>9} {'Support':>9}")
    lines = [header]
    for label in LABELS:
        m = report["per_class"][label.name.lower()]
        lines.append(f"{label.display_name:<10} {round_half_up(m['precision']):>9} "
                     f"{round_half_up(m['recall']):>9} {round_half_up(m['f1']):>9} "
                     f"{m['support']:>9}")
    weighted = report["weighted"]
    lines.append(f"{'Weighted':<10} {round_half_up(weighted['precision']):>9} "
                 f"{round_half_up(weighted['recall']):>9} "
                 f"{round_half_up(weighted['f1']):>9} "
                 f"{sum(map(sum, report['confusion'])):>9}")
    lines.append(f"Accuracy: {round_half_up(report['accuracy'])}")
    return "\n".join(lines)


def compare_models(reports: list[tuple[str, dict]]) -> tuple[str, str]:
    """Comparison table plus CSV of (model, weighted_f1) for plotting.

    Returns (table_text, csv_text); rows keep the given model order.  A
    name holding a comma, a quote, a line feed or a carriage return is
    quoted in the CSV, as Python 3.13's csv module quotes it (3.10 to 3.12
    leave a bare carriage return unquoted).
    """
    if not reports:
        raise InputError("compare_models needs at least one report")
    name_w = max(5, max(len(name) for name, _ in reports))
    header = (f"{'Model':<{name_w}}  {'Accuracy':>8}  {'Precision (Weighted)':>20}  "
              f"{'Recall (Weighted)':>17}  {'F1-Score (Weighted)':>19}")
    lines = [header]
    csv_lines = ["model,weighted_f1\n"]
    for name, rep in reports:
        weighted = rep["weighted"]
        lines.append(f"{name:<{name_w}}  {round_half_up(rep['accuracy']):>8}  "
                     f"{round_half_up(weighted['precision']):>20}  "
                     f"{round_half_up(weighted['recall']):>17}  "
                     f"{round_half_up(weighted['f1']):>19}")
        field = name
        if any(c in name for c in ',"\n\r'):
            field = '"' + name.replace('"', '""') + '"'
        csv_lines.append(f"{field},{weighted['f1']!r}\n")
    return "\n".join(lines), "".join(csv_lines)


def save_report(report: dict, path, extra: dict | None = None) -> None:
    write_file(path, json.dumps({**report, **(extra or {})}, ensure_ascii=False, indent=2))


def _check_numbers(stored, schema, path: str) -> None:
    """stored holds a number wherever schema, a document or a part of one,
    does: an integer where schema's is an integer, else a finite number.
    An error names the number by its path, such as per_class.neutral.recall."""
    if isinstance(schema, dict):
        for key, value in schema.items():
            _check_numbers(stored[key], value, f"{path}.{key}" if path else key)
    elif isinstance(schema, list):
        for i, value in enumerate(schema):
            _check_numbers(stored[i], value, f"{path}.{i}")
    else:
        check_value(path, stored, "int" if isinstance(schema, int) else "float")


def load_report(path) -> dict:
    """The evaluation document saved at path, with any keys save_report's
    extra added.  Its numbers must be those that report_of gives for its
    own confusion counts (InputError otherwise)."""
    payload = parse_json_object(read_file(path, "report"), f"malformed report {path}")
    try:
        for i, row in enumerate(payload["confusion"]):
            for j, count in enumerate(row):
                check_value(f"confusion.{i}.{j}: confusion count", count, "int")
        expected = report_of(payload["confusion"])
        _check_numbers(payload, expected, "")
        if {key: payload[key] for key in expected} != expected:
            raise InputError(f"metrics disagree with the confusion counts, which give "
                             f"accuracy {expected['accuracy']!r} and weighted f1 "
                             f"{expected['weighted']['f1']!r}")
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as e:
        raise InputError(f"malformed report {path}: {e}") from None
    return payload
