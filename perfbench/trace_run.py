"""Run one mixsent CLI command with spans recorded at each layer boundary.

    python3 perfbench/trace_run.py SPANS.jsonl <mixsent arguments...>

The launcher imports `mixsent.cli`, replaces the module attributes through
which the layers call each other with timing wrappers, then calls
`mixsent.cli.main`.  Nothing under `src/` changes and the command's outputs
are the same bytes as an untraced run.  Spans are kept in memory and written
as JSONL to SPANS.jsonl when the command ends.

Calls made once per record (text cleaning, TF-IDF transform, encoding,
per-record baseline prediction) are aggregated under their parent span as a
call count plus total time; every other call is one span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _corpus_size(args, kwargs, result):
    return {"records": len(result)}


def _kept(args, kwargs, result):
    return {"records_in": len(args[0]), "records_kept": len(result[0])}


def _terms(args, kwargs, result):
    return {"terms": len(result)}


def _nnz(args, kwargs, result):
    return {"nnz": len(result)}


def _distinct_words(args, kwargs, result):
    return {"distinct_words": len({w for t in args[0] for w in t.split()})}


def _batch(args, kwargs, result):
    """Padding, truncation and UNK counts of the ids / mask arrays.  A row
    whose real tokens fill cfg.max_len was cut (or fitted exactly)."""
    from mixsent.tokenizer import UNK_ID
    cfg, ids, mask = args[1], args[2], args[3]
    real_per_row = mask.sum(axis=1)
    return {"rows": int(ids.shape[0]), "positions": int(mask.size),
            "real": int(real_per_row.sum()),
            "unk": int(((ids == UNK_ID) & (mask == 1)).sum()),
            "truncated_rows": int((real_per_row >= cfg.max_len).sum())}


# (module, attribute, span name, aggregate per call?, counter)
TARGETS = [
    ("mixsent.cli", "load_corpus", "corpus.load", False, _corpus_size),
    ("mixsent.cli", "split", "corpus.split", False, None),
    ("mixsent.cli", "save_corpus", "corpus.save", False, None),
    ("mixsent.cli", "preprocess_corpus", "preprocess.corpus", False, _kept),
    ("mixsent.preprocess", "replace_emojis", "preprocess.emoji", True, None),
    ("mixsent.cli", "clean_text", "preprocess.clean_text", True, None),
    ("mixsent.cli", "fit_term_index", "features.fit", False, _terms),
    ("mixsent.cli", "tfidf_transform", "features.transform", True, _nnz),
    ("mixsent.baselines", "nb_train", "baselines.nb_train", False, None),
    ("mixsent.baselines", "svm_train", "baselines.svm_train", False, None),
    ("mixsent.baselines", "nb_predict", "baselines.nb_predict", True, None),
    ("mixsent.baselines", "svm_predict", "baselines.svm_predict", True, None),
    ("mixsent.cli", "train_vocabulary", "tokenizer.vocab_train", False, _distinct_words),
    ("mixsent.transformer", "encode", "tokenizer.encode", True, None),
    ("mixsent.transformer", "train", "transformer.train", False, None),
    ("mixsent.transformer", "predict", "transformer.predict", False, None),
    ("mixsent.transformer", "forward_arrays", "transformer.forward", False, _batch),
    ("mixsent.transformer", "backward_arrays", "transformer.backward", False, None),
    ("mixsent.transformer", "adamw_step", "transformer.adamw", False, None),
    ("mixsent.transformer", "save_transformer", "transformer.save", False, None),
    ("mixsent.transformer", "load_transformer", "transformer.load", False, None),
    ("mixsent.cli", "evaluate", "metrics.evaluate", False, None),
]


class Recorder:
    """In-memory spans.  A span's parent is the innermost span open when it
    started; aggregated calls share one record per (name, parent)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.aggregates: dict[tuple[str, int], dict] = {}
        self.next_id = 0

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def open_root(self, name: str, **fields) -> dict:
        span = {"id": self._new_id(), "parent": None, "name": name, **fields}
        self.stack.append(span["id"])
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str, aggregate: bool, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            if aggregate:
                agg = self.aggregates.get((name, parent))
                if agg is None:
                    agg = {"id": self._new_id(), "parent": parent, "name": name,
                           "calls": 0, "total_s": 0.0}
                    self.aggregates[(name, parent)] = agg
                span_id = agg["id"]
            else:
                span_id = self._new_id()
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            if aggregate:
                agg["calls"] += 1
                agg["total_s"] += end - start
                for key, value in counts.items():
                    agg[key] = agg.get(key, 0) + value
            else:
                self.spans.append({"id": span_id, "parent": parent, "name": name,
                                   "start": start, "end": end, **counts})
            return result
        return traced

    def records(self) -> list[dict]:
        return self.spans + list(self.aggregates.values())


def install(recorder: Recorder) -> None:
    for module_name, attr, name, aggregate, counter in TARGETS:
        module = sys.modules[module_name]
        setattr(module, attr, recorder.wrap(getattr(module, attr), name,
                                            aggregate, counter))


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    import mixsent.cli
    import_s = time.perf_counter() - t0

    recorder = Recorder()
    install(recorder)
    root = recorder.open_root("cli.command", argv=cli_args, import_s=import_s,
                              start=time.perf_counter())
    try:
        code = mixsent.cli.main(cli_args)
    finally:
        root["end"] = time.perf_counter()
        with spans_path.open("w", encoding="utf-8") as fh:
            for record in recorder.records():
                fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
