"""Per-layer metrics from the spans of traced rounds.

Each traced round writes one JSONL file per command (perfbench/trace_run.py).
Times are totals over the round's commands unless named as a percentile;
a metric's value is the median over traced rounds.  Which end-to-end metric
each layer metric should move is listed in perfbench/README.md.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _pct(values: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by tens) of at least two values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(spans_dir: Path) -> dict[str, float]:
    total = defaultdict(float)      # layer name -> seconds
    count = defaultdict(float)      # counter name -> summed value
    samples = defaultdict(list)     # per-call durations in ms
    imports, self_s = [], 0.0
    for path in sorted(spans_dir.glob("*.jsonl")):
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        by_id = {r["id"]: r for r in records}
        root = next(r for r in records if r["name"] == "cli.command")
        imports.append(root["import_s"])
        children = 0.0
        for r in records:
            if r is root:
                continue
            seconds = r["total_s"] if "calls" in r else r["end"] - r["start"]
            if r["parent"] == root["id"]:
                children += seconds
            name = r["name"]
            total[name] += seconds
            count[name + ".calls"] += r.get("calls", 1)
            for key, value in r.items():
                if key not in ("id", "parent", "name", "start", "end", "calls", "total_s"):
                    count[f"{name}.{key}"] += value
            parent = by_id.get(r["parent"], {}).get("name")
            if name == "transformer.forward":
                kind = "train" if parent == "transformer.train" else "predict"
                samples[f"forward.{kind}"].append(seconds * 1e3)
            elif name in ("transformer.backward", "transformer.adamw"):
                samples[name.split(".")[1]].append(seconds * 1e3)
            elif name == "transformer.predict" and parent == "transformer.train":
                total["transformer.val_predict"] += seconds
        self_s += root["end"] - root["start"] - children

    m = {
        "corpus.load_s": total["corpus.load"],
        "corpus.split_s": total["corpus.split"],
        "corpus.save_s": total["corpus.save"],
        "corpus.records": count["corpus.load.records"],
        "preprocess.corpus_s": total["preprocess.corpus"],
        "preprocess.emoji_s": total["preprocess.emoji"],
        "preprocess.clean_text_s": total["preprocess.clean_text"],
        "preprocess.kept_ratio": _ratio(count["preprocess.corpus.records_kept"],
                                        count["preprocess.corpus.records_in"]),
        "features.fit_s": total["features.fit"],
        "features.transform_s": total["features.transform"],
        "features.transform_calls": count["features.transform.calls"],
        "features.terms": _ratio(count["features.fit.terms"], count["features.fit.calls"]),
        "features.nnz_per_row": _ratio(count["features.transform.nnz"],
                                       count["features.transform.calls"]),
        "baselines.nb_train_s": total["baselines.nb_train"],
        "baselines.svm_train_s": total["baselines.svm_train"],
        "baselines.nb_predict_s": total["baselines.nb_predict"],
        "baselines.svm_predict_s": total["baselines.svm_predict"],
        "tokenizer.vocab_train_s": total["tokenizer.vocab_train"],
        "tokenizer.distinct_words": count["tokenizer.vocab_train.distinct_words"],
        "tokenizer.encode_s": total["tokenizer.encode"],
        "tokenizer.encode_calls": count["tokenizer.encode.calls"],
        "tokenizer.pad_ratio": 1 - _ratio(count["transformer.forward.real"],
                                          count["transformer.forward.positions"]),
        "tokenizer.truncated_ratio": _ratio(count["transformer.forward.truncated_rows"],
                                            count["transformer.forward.rows"]),
        "tokenizer.unk_ratio": _ratio(count["transformer.forward.unk"],
                                      count["transformer.forward.real"]),
        "transformer.steps": count["transformer.adamw.calls"],
        "transformer.val_predict_s": total["transformer.val_predict"],
        "transformer.load_s": total["transformer.load"],
        "transformer.save_s": total["transformer.save"],
        "metrics.evaluate_s": total["metrics.evaluate"],
        "cli.import_s": statistics.median(imports),
        "cli.self_s": self_s,
    }
    for name, key in (("forward_ms", "forward.train"), ("backward_ms", "backward"),
                      ("adamw_ms", "adamw"), ("predict_batch_ms", "forward.predict")):
        m[f"transformer.{name}.p50"] = _pct(samples[key], 50)
        m[f"transformer.{name}.p90"] = _pct(samples[key], 90)
    return m


def layer_metrics(rounds: list) -> dict[str, float]:
    """Rounds (run.Round) alternate untraced, traced; the tracing overhead
    compares each traced round's command time with the untraced round before it."""
    per_round = [round_metrics(r.spans) for r in rounds if r.spans is not None]
    out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    overheads = [sum(rounds[i + 1].wall.values()) / sum(rounds[i].wall.values()) - 1
                 for i in range(0, len(rounds) - 1, 2)]
    out["trace.overhead_ratio"] = statistics.median(overheads)
    return out
