"""The benchmark's traced run (perfbench/trace_run.py) wraps layer functions
by module attribute name; each must still resolve once `mixsent.cli` is
imported, or `perfbench/run.py --trace 1` cannot install its spans."""

import importlib.util
import sys
from pathlib import Path

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
