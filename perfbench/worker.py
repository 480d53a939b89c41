"""Fresh-interpreter entry point: one benchmark round, or the server.

``python3 perfbench/worker.py TASK.json`` runs the task in
``TASK.json``, by its ``mode``:

* ``round``: imports the entry points of the task's workload, prints
  ``ready`` (the parent times set-up up to that line), runs one round and
  writes the round's outcome, wall time and peak memory beside the task
  file, as ``TASK.result.json``;
* ``setup``: stops after ``ready``;
* ``serve``: runs the CLI's ``main(task["argv"])`` exactly as the installed
  ``repro-undervolt`` console script would; the server prints its own
  ready line.

With ``task["spans_path"]`` the layer functions are traced, and the spans
are written there once the round, or the drained server, has returned.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(task_path: str) -> int:
    task = json.loads(Path(task_path).read_text())
    # Replace the script directory so the package is imported as a package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    if task["mode"] == "serve":
        from repro.cli import main as cli_main

        tracer = start_tracer(task)
        code = cli_main(task["argv"])
        if tracer is not None:
            tracer.write(task["spans_path"])
        return code
    workload = importlib.import_module(f"perfbench.{task['workload']}")
    entry = workload.import_entry_points()
    print("ready", flush=True)
    if task["mode"] == "setup":
        return 0
    tracer = start_tracer(task)
    start = time.perf_counter()
    outcome = workload.run_round(entry, task)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.write(task["spans_path"])
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome,
    }
    from perfbench.harness import result_path_of

    result_path_of(task_path).write_text(json.dumps(result))
    return 0


def start_tracer(task: dict):
    """A tracer wrapping the layer functions, if the task asks for spans."""
    if not task.get("spans_path"):
        return None
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
