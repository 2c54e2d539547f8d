"""Corpus ingestion, label harmonization, statistics, and splits.

Records come from JSONL ({"id": str?, "text": str, "label": str,
"source": str?}) or, for a .csv file, headered CSV (columns
text,label[,id,source]).  Raw label strings are harmonized through a
user-supplied mapping onto the three-class scheme Negative(0) / Neutral(1)
/ Positive(2).  Records are kept as loaded; exact-text dedup is part of
preprocess.preprocess_corpus.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path

from .errors import InputError, parse_json_object, read_file, write_file
from .rng import SplitMix64, derive_seed, shuffled


class SentimentLabel(IntEnum):
    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def display_name(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_name(cls, name: str) -> "SentimentLabel":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise InputError(f"unknown sentiment label name: {name!r}") from None


LABELS = (SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE)
NUM_CLASSES = len(LABELS)


@dataclass(frozen=True)
class LabeledTweet:
    id: str
    text: str
    label: SentimentLabel
    source: str = ""


@dataclass
class Corpus:
    records: list[LabeledTweet] = field(default_factory=list)

    def __post_init__(self):
        ids = [r.id for r in self.records]
        if len(ids) != len(set(ids)):
            seen, dups = set(), set()
            for i in ids:
                (dups if i in seen else seen).add(i)
            raise InputError(f"duplicate record ids in corpus: {sorted(dups)[:5]}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def texts(self) -> list[str]:
        return [r.text for r in self.records]

    def labels(self) -> list[SentimentLabel]:
        return [r.label for r in self.records]


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.8
    val_frac: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (self.train_frac > 0 and self.val_frac > 0):
            raise InputError("train_frac and val_frac must be positive")
        if self.train_frac + self.val_frac >= 1:
            raise InputError("train_frac + val_frac must be < 1")


def load_label_map(path: str | Path) -> dict[str, SentimentLabel]:
    """Read a JSON object mapping raw label strings to
    "negative" | "neutral" | "positive"."""
    raw = parse_json_object(read_file(path, "label map"), f"malformed label map {path}")
    out = {}
    for key, value in raw.items():
        if not isinstance(value, str):
            raise InputError(f"label map value for {key!r} must be a string")
        out[key] = SentimentLabel.from_name(value)
    return out


def _record_from_fields(fields: dict, line_no: int, path: Path,
                        label_map: dict[str, SentimentLabel],
                        unmapped: set[str]) -> LabeledTweet | None:
    text = fields.get("text")
    raw_label = fields.get("label")
    if not isinstance(text, str) or not text.strip():
        raise InputError(f"{path}:{line_no}: missing or empty 'text' field")
    if raw_label is None or raw_label == "":
        raise InputError(f"{path}:{line_no}: missing 'label' field")
    raw_label = str(raw_label)
    if raw_label not in label_map:
        unmapped.add(raw_label)
        return None
    rid = fields.get("id")
    rid = str(rid) if rid not in (None, "") else str(line_no - 1)
    source = str(fields.get("source") or "")
    return LabeledTweet(id=rid, text=text, label=label_map[raw_label], source=source)


def _rows(text: str, path: Path):
    """(line number, field dict) for each record of a JSONL file's text or,
    by its suffix, a CSV file's.  A quoted CSV field keeps its line ends as
    written; JSONL lines end where a text-mode file's do (LF, CRLF or CR),
    so a U+2028 inside a text stays in its record."""
    if path.suffix.lower() == ".csv":
        reader = csv.DictReader(io.StringIO(text, newline=""))
        if reader.fieldnames is None or not {"text", "label"} <= set(reader.fieldnames):
            raise InputError(f"{path}: CSV header must include 'text' and 'label'")
        yield from enumerate(reader, start=2)
        return
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        if line.strip():
            yield line_no, parse_json_object(line, f"{path}:{line_no}")


def load_corpus(path: str | Path, label_map: dict[str, SentimentLabel]) -> Corpus:
    """Load a JSONL file, or a CSV file by its .csv suffix, of labeled texts.

    Every raw label encountered must appear in `label_map`; otherwise the
    load fails listing all offending labels.  Missing ids are assigned from
    the row index.
    """
    path = Path(path)
    text = read_file(path, "corpus file")
    records: list[LabeledTweet] = []
    unmapped: set[str] = set()
    try:
        for line_no, fields in _rows(text, path):
            rec = _record_from_fields(fields, line_no, path, label_map, unmapped)
            if rec is not None:
                records.append(rec)
    except csv.Error as e:
        raise InputError(f"{path}: malformed CSV: {e}") from None

    if unmapped:
        raise InputError(
            f"{path}: raw labels not in label map: {sorted(unmapped)}")
    return Corpus(records)


def merge(a: Corpus, b: Corpus) -> Corpus:
    """Concatenate two corpora.  Ids of `b` that collide with ids already
    present are re-assigned deterministically; merge(c, empty) == c."""
    records = list(a.records)
    used = {r.id for r in records}
    next_candidate = 0
    for rec in b.records:
        rid = rec.id
        if rid in used:
            while str(next_candidate) in used:
                next_candidate += 1
            rid = str(next_candidate)
            rec = replace(rec, id=rid)
        used.add(rid)
        records.append(rec)
    return Corpus(records)


def class_distribution(c: Corpus) -> dict[SentimentLabel, int]:
    """{label: record count}, every label in label-id order."""
    if len(c) == 0:
        raise InputError("cannot compute class distribution of an empty corpus")
    counts = {label: 0 for label in LABELS}
    for rec in c.records:
        counts[rec.label] += 1
    return counts


def _floor(x: float) -> int:
    # tolerant floor: 0.8*5 must floor to 4 even if the float lands at
    # 3.9999999999999996
    return int(x + 1e-9)


def _assign_extras(base: dict[SentimentLabel, int], fracs: dict[SentimentLabel, float],
                   capacity: dict[SentimentLabel, int], deficit: int) -> None:
    # largest fractional part first, ties by label id ascending; fractional
    # parts snapped to 9 decimals so float fuzz cannot override the tie rule
    order = sorted(LABELS, key=lambda l: (-round(fracs[l] - _floor(fracs[l]), 9), int(l)))
    while deficit > 0:
        progressed = False
        for label in order:
            if deficit == 0:
                break
            if base[label] < capacity[label]:
                base[label] += 1
                deficit -= 1
                progressed = True
        if not progressed:
            break


def split(c: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic stratified train/val/test split.

    Global sizes are |train| = floor(train_frac*N), |val| = floor(val_frac*N),
    |test| = remainder.  Each class is shuffled independently with the seeded
    generator; per-class floor counts are topped up (largest fractional part
    first, ties by label id) until the global targets are met.  Classes with
    fewer than 3 records go entirely to train, with a warning.
    """
    n = len(c)
    if n == 0:
        raise InputError("cannot split an empty corpus")

    by_label: dict[SentimentLabel, list[int]] = {label: [] for label in LABELS}
    for pos, rec in enumerate(c.records):
        by_label[rec.label].append(pos)

    small = {label for label in LABELS if 0 < len(by_label[label]) < 3}
    if small:
        names = ", ".join(l.display_name for l in sorted(small))
        warnings.warn(f"classes with fewer than 3 records assigned wholly to train: {names}")

    eligible = {label: idxs for label, idxs in by_label.items()
                if idxs and label not in small}
    n_eligible = sum(len(v) for v in eligible.values())

    train_target = _floor(spec.train_frac * n_eligible)
    val_target = _floor(spec.val_frac * n_eligible)

    train_fracs = {l: spec.train_frac * len(eligible.get(l, ())) for l in LABELS}
    val_fracs = {l: spec.val_frac * len(eligible.get(l, ())) for l in LABELS}
    train_n = {l: _floor(train_fracs[l]) for l in LABELS}
    sizes = {l: len(eligible.get(l, ())) for l in LABELS}
    _assign_extras(train_n, train_fracs, sizes, train_target - sum(train_n.values()))
    val_n = {l: min(_floor(val_fracs[l]), sizes[l] - train_n[l]) for l in LABELS}
    val_cap = {l: sizes[l] - train_n[l] for l in LABELS}
    _assign_extras(val_n, val_fracs, val_cap, val_target - sum(val_n.values()))

    train_pos, val_pos, test_pos = [], [], []
    for label in LABELS:
        idxs = eligible.get(label)
        if not idxs:
            continue
        rng = SplitMix64(derive_seed(spec.seed, int(label)))
        order = shuffled(idxs, rng)
        t, v = train_n[label], val_n[label]
        train_pos.extend(order[:t])
        val_pos.extend(order[t:t + v])
        test_pos.extend(order[t + v:])
    for label in small:
        train_pos.extend(by_label[label])

    def take(positions):
        return Corpus([c.records[p] for p in sorted(positions)])

    return take(train_pos), take(val_pos), take(test_pos)


def save_corpus(c: Corpus, path: str | Path,
                lines: dict[str, str] | None = None) -> None:
    """Write JSONL with canonical lowercase label names.

    `lines` maps record id to its written line.  Pass one dict to every
    save of parts of one corpus (record ids name the same record there),
    and each record is JSON-encoded once however many files hold it.
    """
    lines = {} if lines is None else lines
    for rec in c.records:
        if rec.id not in lines:
            row = {"id": rec.id, "text": rec.text, "label": rec.label.name.lower()}
            if rec.source:
                row["source"] = rec.source
            lines[rec.id] = json.dumps(row, ensure_ascii=False) + "\n"
    write_file(path, "".join(lines[rec.id] for rec in c.records))


CANONICAL_LABEL_MAP = {
    "negative": SentimentLabel.NEGATIVE,
    "neutral": SentimentLabel.NEUTRAL,
    "positive": SentimentLabel.POSITIVE,
}
