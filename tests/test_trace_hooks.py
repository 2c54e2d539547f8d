"""The benchmark's traced run (perfbench/trace_run.py) wraps layer functions
by module attribute name; each must still resolve once `mixsent.cli` is
imported, and the layers must still call each other through them, or
`perfbench/run.py --trace 1` records no spans for them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import mixsent

from test_cli import TINY_TRANSFORMER_CONFIG, run_prepare

TRACE_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "trace_run.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", TRACE_RUN)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    import mixsent.cli  # noqa: F401  (the traced run imports it the same way)

    missing = [f"{module}.{attr}" for module, attr, *_ in trace_run.TARGETS
               if not callable(getattr(sys.modules.get(module), attr, None))]
    assert trace_run.TARGETS
    assert missing == []


def _traced_span_names(tmp_path, name, cli_args):
    spans = tmp_path / f"{name}.jsonl"
    env = dict(os.environ,
               PYTHONPATH=str(Path(mixsent.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(TRACE_RUN), str(spans), *cli_args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {json.loads(line)["name"]
            for line in spans.read_text(encoding="utf-8").splitlines()}


def test_traced_transformer_train_and_predict_record_layer_spans(tmp_path):
    out = run_prepare(tmp_path, tmp_path / "run")
    config = json.loads(TINY_TRANSFORMER_CONFIG)
    config["train"]["epochs"] = 1
    texts = tmp_path / "texts.txt"
    texts.write_text("mast movie\nbakwas khana\n", encoding="utf-8")

    train = _traced_span_names(tmp_path, "train", [
        "train", "--model", "transformer", "--out-dir", str(out),
        "--config", json.dumps(config)])
    assert {"tokenizer.vocab_train", "tokenizer.encode", "transformer.forward",
            "transformer.backward", "transformer.adamw"} <= train
    predict = _traced_span_names(tmp_path, "predict", [
        "predict", "--model-file", str(out / "transformer.bin"),
        "--input", str(texts)])
    assert {"tokenizer.encode", "transformer.forward"} <= predict


def test_traced_baseline_train_and_predict_record_layer_spans(tmp_path):
    """The MODELS table reaches the baselines through the hooked names, and
    evaluate reaches the metrics through `cli.evaluate`."""
    out = run_prepare(tmp_path, tmp_path / "run")
    texts = tmp_path / "texts.txt"
    texts.write_text("mast movie\nbakwas khana\n", encoding="utf-8")
    for model, file in (("nb", "nb.json"), ("svm", "svm.json")):
        train = _traced_span_names(tmp_path, f"train_{model}", [
            "train", "--model", model, "--out-dir", str(out)])
        assert {"features.fit", "features.transform",
                f"baselines.{model}_train"} <= train
        predict = _traced_span_names(tmp_path, f"predict_{model}", [
            "predict", "--model-file", str(out / file), "--input", str(texts)])
        assert {"preprocess.clean_text", "features.transform",
                f"baselines.{model}_predict"} <= predict
    evaluate = _traced_span_names(tmp_path, "evaluate_nb", [
        "evaluate", "--model-file", str(out / "nb.json")])
    assert "metrics.evaluate" in evaluate
