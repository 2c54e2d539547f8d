"""Start-up: only the commands that run the transformer encoder load it.

`mixsent.cli` binds `mixsent.transformer` lazily, so its code runs on the
first use of one of its names.  Each check runs in a fresh interpreter,
since this test process has already imported the encoder.  Code that runs is
seen through the `exec` audit event: `python -X importtime` does not log a
module that a LazyLoader executes."""

import json
import subprocess
import sys

import pytest

from mixsent.cli import main

from test_cli import TINY_TRANSFORMER_CONFIG, _subprocess_env, write_inputs

# argv[1]: JSON [commands that must not run the encoder, one that must].
ENCODER_RUNS_SCRIPT = """
import importlib.util, json, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
encoder = importlib.util.find_spec("mixsent.transformer").origin
from mixsent.cli import main
without, with_encoder = json.loads(sys.argv[1])
for argv in without:
    try:
        assert main(argv) == 0, argv
    except SystemExit as exc:                 # --help
        assert exc.code == 0, argv
assert encoder not in ran, "encoder ran"
assert main(with_encoder) == 0
assert encoder in ran, "encoder did not run"
"""


def test_only_encoder_commands_run_transformer_code(tmp_path, capsys):
    served = tmp_path / "served"
    jsonl, map_path = write_inputs(tmp_path, n_per_class=6)
    prepare = ["prepare", "--input", str(jsonl), "--label-map", str(map_path)]
    assert main([*prepare, "--out-dir", str(served)]) == 0
    assert main(["train", "--model", "transformer", "--out-dir", str(served),
                 "--config", TINY_TRANSFORMER_CONFIG]) == 0
    texts = tmp_path / "texts.txt"
    texts.write_text("movie mast hai\n", encoding="utf-8")
    capsys.readouterr()

    run = str(tmp_path / "run")
    without = [["--help"], [*prepare, "--out-dir", run],
               ["train", "--model", "nb", "--out-dir", run],
               ["train", "--model", "svm", "--out-dir", run],
               ["evaluate", "--model-file", f"{run}/nb.json"],
               ["predict", "--model-file", f"{run}/nb.json"],      # reads stdin
               ["report", "--out-dir", run]]
    with_encoder = ["predict", "--model-file", str(served / "transformer.bin"),
                    "--input", str(texts)]
    proc = subprocess.run(
        [sys.executable, "-c", ENCODER_RUNS_SCRIPT, json.dumps([without, with_encoder])],
        input="movie bakwas\n", env=_subprocess_env(), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split("\t")[0] in ("negative", "neutral",
                                                           "positive")


IDENTITY_SCRIPT = """
import importlib, sys
importlib.import_module(sys.argv[1])
module = sys.modules["mixsent.transformer"]
import mixsent.cli

def one_module():
    assert sys.modules["mixsent.transformer"] is module, "sys.modules"
    assert mixsent.cli.tfm is module, "cli.tfm"
    assert vars(mixsent)["transformer"] is module, "mixsent.transformer"

one_module()
mixsent.cli.tfm.EVAL_BUDGET                   # runs the encoder if not yet run
one_module()
import mixsent.transformer
from mixsent import transformer
assert transformer is module
one_module()
"""


@pytest.mark.parametrize("first", ["mixsent.cli", "mixsent.transformer"])
def test_one_transformer_module_whichever_is_imported_first(first):
    """cli.tfm, sys.modules["mixsent.transformer"] and the package attribute
    are one module object, so a name patched on one is seen by all."""
    proc = subprocess.run([sys.executable, "-c", IDENTITY_SCRIPT, first],
                          env=_subprocess_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
