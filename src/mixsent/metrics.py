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
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .corpus import LABELS, NUM_CLASSES, SentimentLabel
from .errors import InputError, check_value, parse_json_object, read_file, write_file


def round_half_up(x: float, places: int = 2) -> str:
    """Decimal display rounding: 0.666... -> '0.67', 0.125 -> '0.13'."""
    q = Decimal(1).scaleb(-places)
    return str(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    """Every metric of a confusion matrix [true, predicted], derived from its
    counts once, in exact rationals."""
    confusion: np.ndarray
    accuracy: float = field(init=False)
    per_class: tuple[ClassMetrics, ...] = field(init=False)   # indexed by label id
    weighted_precision: float = field(init=False)
    weighted_recall: float = field(init=False)
    weighted_f1: float = field(init=False)

    def __post_init__(self):
        cm = self.confusion
        if cm.shape != (NUM_CLASSES, NUM_CLASSES):
            raise InputError(f"confusion must be {NUM_CLASSES} x {NUM_CLASSES}, "
                             f"got shape {list(cm.shape)}")
        if cm.min() < 0:
            raise InputError("confusion counts must be >= 0")
        n = int(cm.sum())
        if n == 0:
            raise InputError("confusion counts are all zero")
        per_class = []
        weighted = dict.fromkeys(("precision", "recall", "f1"), Fraction(0))
        for c in range(NUM_CLASSES):
            tp, predicted, support = int(cm[c, c]), int(cm[:, c].sum()), int(cm[c, :].sum())
            precision = Fraction(tp, predicted) if predicted > 0 else Fraction(0)
            recall = Fraction(tp, support) if support > 0 else Fraction(0)
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall > 0 else Fraction(0))
            per_class.append(ClassMetrics(float(precision), float(recall), float(f1),
                                          support))
            for name, value in zip(weighted, (precision, recall, f1)):
                weighted[name] += Fraction(support, n) * value
        object.__setattr__(self, "accuracy", float(Fraction(int(np.trace(cm)), n)))
        object.__setattr__(self, "per_class", tuple(per_class))
        for name, value in weighted.items():
            object.__setattr__(self, f"weighted_{name}", float(value))

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {label.name.lower(): m._asdict()
                          for label, m in zip(LABELS, self.per_class)},
            "weighted": {"precision": self.weighted_precision,
                         "recall": self.weighted_recall,
                         "f1": self.weighted_f1},
            "confusion": self.confusion.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """The report of to_dict's output, built from its confusion counts,
        whose every metric and support the output must hold.  Metrics must
        be finite numbers, supports and confusion counts integers
        (InputError otherwise)."""
        for label in LABELS:
            stored = d["per_class"][label.name.lower()]
            for name in ClassMetrics._fields:
                check_value(f"ClassMetrics.{name}", stored[name],
                            "int" if name == "support" else "float")
        for row in d["confusion"]:
            for count in row:
                check_value("confusion count", count, "int")
        check_value("EvalReport.accuracy", d["accuracy"], "float")
        for name in ("precision", "recall", "f1"):
            check_value(f"EvalReport.weighted_{name}", d["weighted"][name], "float")
        report = cls(np.asarray(d["confusion"], dtype=np.int64))
        expected = report.to_dict()
        if {key: d[key] for key in expected} != expected:
            raise InputError(f"metrics disagree with the confusion counts, which "
                             f"give accuracy {report.accuracy!r} and weighted f1 "
                             f"{report.weighted_f1!r}")
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
    return EvalReport(confusion_matrix(y_true, y_pred))


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
    write_file(path, json.dumps(payload, ensure_ascii=False, indent=2))


def load_report(path) -> tuple[EvalReport, dict]:
    """A saved report, and the file's JSON object, which holds any keys
    save_report's extra added."""
    payload = parse_json_object(read_file(path, "report"), f"malformed report {path}")
    try:
        return EvalReport.from_dict(payload), payload
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as e:
        raise InputError(f"malformed report {path}: {e}") from None
