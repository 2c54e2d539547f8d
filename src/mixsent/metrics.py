"""Confusion-matrix evaluation: accuracy, per-class precision/recall/F1,
and support-weighted aggregates.

Zero-division convention: precision or recall with an empty denominator is
0, and F1 is 0 when both are 0.  Metrics are computed as exact rationals
and converted to float once, so the support-weighted-recall = accuracy
identity holds bit-for-bit.  Display rounding is round-half-up at two
decimals; stored values are never rounded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

from .corpus import LABELS, SentimentLabel
from .errors import (InputError, check_fields, check_value, parse_json_object,
                     read_file)

NUM_CLASSES = len(LABELS)


def round_half_up(x: float, places: int = 2) -> str:
    """Decimal display rounding: 0.666... -> '0.67', 0.125 -> '0.13'."""
    q = Decimal(1).scaleb(-places)
    return str(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: tuple[ClassMetrics, ...]       # indexed by label id
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: np.ndarray                     # [true, predicted]

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {
                label.name.lower(): {
                    "precision": m.precision, "recall": m.recall,
                    "f1": m.f1, "support": m.support,
                } for label, m in zip(LABELS, self.per_class)
            },
            "weighted": {"precision": self.weighted_precision,
                         "recall": self.weighted_recall,
                         "f1": self.weighted_f1},
            "confusion": self.confusion.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """The report of to_dict's output.  Metrics must be finite numbers,
        supports and confusion counts integers, and every metric the one
        that the confusion counts give (InputError otherwise)."""
        per_class = tuple(
            ClassMetrics(**d["per_class"][label.name.lower()]) for label in LABELS)
        for row in d["confusion"]:
            for count in row:
                check_value("confusion count", count, "int")
        confusion = np.asarray(d["confusion"], dtype=np.int64)
        if confusion.shape != (NUM_CLASSES, NUM_CLASSES):
            raise InputError(f"confusion must be {NUM_CLASSES} x {NUM_CLASSES}, "
                             f"got shape {list(confusion.shape)}")
        report = cls(accuracy=d["accuracy"], per_class=per_class,
                     weighted_precision=d["weighted"]["precision"],
                     weighted_recall=d["weighted"]["recall"],
                     weighted_f1=d["weighted"]["f1"], confusion=confusion)
        if confusion.min() < 0:
            raise InputError("confusion counts must be >= 0")
        expected = _report(confusion)
        if report.to_dict() != expected.to_dict():
            raise InputError(f"metrics disagree with the confusion counts, which "
                             f"give accuracy {expected.accuracy!r} and weighted f1 "
                             f"{expected.weighted_f1!r}")
        return report


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        counts[int(t), int(p)] += 1
    return counts


def evaluate(y_true: list[SentimentLabel], y_pred: list[SentimentLabel]) -> EvalReport:
    """Full report from paired true/predicted labels."""
    if len(y_true) != len(y_pred):
        raise InputError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise InputError("cannot evaluate an empty label list")
    return _report(confusion_matrix(y_true, y_pred))


def _report(cm: np.ndarray) -> EvalReport:
    """Every metric of a confusion matrix, in exact rationals."""
    n = int(cm.sum())
    if n == 0:
        raise InputError("confusion counts are all zero")
    per_class = []
    weighted = {"precision": Fraction(0), "recall": Fraction(0), "f1": Fraction(0)}
    for c in range(NUM_CLASSES):
        tp = int(cm[c, c])
        fp = int(cm[:, c].sum()) - tp
        fn = int(cm[c, :].sum()) - tp
        support = tp + fn
        precision = Fraction(tp, tp + fp) if tp + fp > 0 else Fraction(0)
        recall = Fraction(tp, support) if support > 0 else Fraction(0)
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else Fraction(0))
        per_class.append(ClassMetrics(precision=float(precision),
                                      recall=float(recall), f1=float(f1),
                                      support=support))
        weight = Fraction(support, n)
        weighted["precision"] += weight * precision
        weighted["recall"] += weight * recall
        weighted["f1"] += weight * f1
    return EvalReport(
        accuracy=float(Fraction(int(np.trace(cm)), n)),
        per_class=tuple(per_class),
        weighted_precision=float(weighted["precision"]),
        weighted_recall=float(weighted["recall"]),
        weighted_f1=float(weighted["f1"]),
        confusion=cm,
    )


def per_class_f1_report(report: EvalReport) -> str:
    """Label-name -> F1 rows at two-decimal display rounding, by label id."""
    lines = ["Per-class F1:"]
    for label, m in zip(LABELS, report.per_class):
        lines.append(f"  {label.display_name:<10} {round_half_up(m.f1)}")
    return "\n".join(lines)


def format_report(report: EvalReport) -> str:
    header = (f"{'Class':<10} {'Precision':>9} {'Recall':>9} {'F1':>9} {'Support':>9}")
    lines = [header]
    for label, m in zip(LABELS, report.per_class):
        lines.append(f"{label.display_name:<10} {round_half_up(m.precision):>9} "
                     f"{round_half_up(m.recall):>9} {round_half_up(m.f1):>9} "
                     f"{m.support:>9}")
    lines.append(f"{'Weighted':<10} {round_half_up(report.weighted_precision):>9} "
                 f"{round_half_up(report.weighted_recall):>9} "
                 f"{round_half_up(report.weighted_f1):>9} "
                 f"{int(report.confusion.sum()):>9}")
    lines.append(f"Accuracy: {round_half_up(report.accuracy)}")
    return "\n".join(lines)


def compare_models(reports: list[tuple[str, EvalReport]]) -> tuple[str, str]:
    """Comparison table plus CSV of (model, weighted_f1) for plotting.

    Returns (table_text, csv_text); rows keep the given model order.
    """
    if not reports:
        raise InputError("compare_models needs at least one report")
    name_w = max(5, max(len(name) for name, _ in reports))
    header = (f"{'Model':<{name_w}}  {'Accuracy':>8}  {'Precision (Weighted)':>20}  "
              f"{'Recall (Weighted)':>17}  {'F1-Score (Weighted)':>19}")
    lines = [header]
    csv_lines = ["model,weighted_f1"]
    for name, rep in reports:
        lines.append(f"{name:<{name_w}}  {round_half_up(rep.accuracy):>8}  "
                     f"{round_half_up(rep.weighted_precision):>20}  "
                     f"{round_half_up(rep.weighted_recall):>17}  "
                     f"{round_half_up(rep.weighted_f1):>19}")
        csv_lines.append(f"{name},{rep.weighted_f1!r}")
    return "\n".join(lines), "\n".join(csv_lines) + "\n"


def save_report(report: EvalReport, path, extra: dict | None = None) -> None:
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, ensure_ascii=False, indent=2),
                          encoding="utf-8")


def load_report(path) -> tuple[EvalReport, dict]:
    """A saved report, and the file's JSON object, which holds any keys
    save_report's extra added."""
    payload = parse_json_object(read_file(path, "report"), f"malformed report {path}")
    try:
        return EvalReport.from_dict(payload), payload
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as e:
        raise InputError(f"malformed report {path}: {e}") from None
