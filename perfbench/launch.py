"""Run one mixsent CLI command as `python -m mixsent` does, and time it.

    python3 perfbench/launch.py TIMES.json <mixsent arguments...>

`python -m mixsent` imports `mixsent.cli` and calls its `main`; so does this
launcher, and it writes to TIMES.json how long the import took (`import_s`)
and how long `main` ran (`main_s`).  The caller times the whole process; the
process's wall time minus `main_s` is start-up: the interpreter, the import
of `mixsent.cli` and its dependencies, and exit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    times_path, cli_args = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    import mixsent.cli
    imported = time.perf_counter()
    try:
        return mixsent.cli.main(cli_args)
    finally:
        times_path.write_text(json.dumps({"import_s": imported - start,
                                          "main_s": time.perf_counter() - imported}),
                              encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
