"""Start-up: each command loads only the library modules it uses.

`mixsent.cli` binds `mixsent.transformer` lazily, so its code runs on the
first use of one of its names, and imports `metrics`, `tokenizer` and
`encoder_config` inside the commands that use them.  Each check runs in a
fresh interpreter, since this test process has already imported them all.
Code that runs is seen through the `exec` audit event: `python -X importtime`
does not log a module that a LazyLoader executes."""

import json
import subprocess
import sys

import pytest

from mixsent.cli import main

from test_cli import TINY_TRANSFORMER_CONFIG, _subprocess_env, write_inputs

# argv[1]: JSON argv of one command.  The last stdout line is a JSON list of
# the mixsent modules whose code ran.
MODULES_RUN_SCRIPT = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
from mixsent.cli import main
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:                     # --help
    code = exc.code
assert code == 0, code
package = sys.modules["mixsent"].__path__[0]
print(json.dumps(sorted(os.path.basename(name)[:-3] for name in ran
                        if os.path.dirname(name) == package)))
"""

# The modules only some commands use.
OPTIONAL = {"transformer", "metrics", "tokenizer", "encoder_config"}


def test_only_encoder_commands_run_transformer_code(tmp_path, capsys):
    """The encoder, the evaluation metrics, the tokenizer and the encoder's
    configs run only in the commands that use them: a baseline predict and
    --help run none of them."""
    run, served = tmp_path / "run", tmp_path / "served"
    jsonl, map_path = write_inputs(tmp_path, n_per_class=6)
    prepare = ["prepare", "--input", str(jsonl), "--label-map", str(map_path)]
    for out in (run, served):
        assert main([*prepare, "--out-dir", str(out)]) == 0
    assert main(["train", "--model", "transformer", "--out-dir", str(served),
                 "--config", TINY_TRANSFORMER_CONFIG]) == 0
    assert main(["train", "--model", "nb", "--out-dir", str(run)]) == 0
    assert main(["evaluate", "--model-file", str(run / "nb.json")]) == 0
    texts = tmp_path / "texts.txt"
    texts.write_text("movie mast hai\n", encoding="utf-8")
    capsys.readouterr()

    cases = [  # (argv, modules that must run, modules that must not)
        (["--help"], set(), OPTIONAL),
        ([*prepare, "--out-dir", str(tmp_path / "again")], set(),
         {"transformer", "tokenizer"}),
        (["train", "--model", "nb", "--out-dir", str(run)], set(),
         {"transformer", "metrics", "tokenizer"}),
        (["train", "--model", "svm", "--out-dir", str(run)], set(),
         {"transformer", "metrics", "tokenizer"}),
        (["evaluate", "--model-file", str(run / "nb.json")], {"metrics"},
         {"transformer", "tokenizer"}),
        (["predict", "--model-file", str(run / "nb.json")], set(), OPTIONAL),  # stdin
        (["report", "--out-dir", str(run)], {"metrics"}, {"transformer", "tokenizer"}),
        (["predict", "--model-file", str(served / "transformer.bin"),
          "--input", str(texts)], OPTIONAL, set()),
    ]
    for argv, must_run, must_not_run in cases:
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_RUN_SCRIPT, json.dumps(argv)],
            input="movie bakwas\n", env=_subprocess_env(), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        ran = set(json.loads(proc.stdout.splitlines()[-1]))
        assert "cli" in ran, argv
        assert must_run <= ran and not ran & must_not_run, (argv, sorted(ran))
        if argv[0] == "predict":
            assert proc.stdout.splitlines()[-2].split("\t")[0] in (
                "negative", "neutral", "positive"), argv


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
