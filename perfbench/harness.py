"""Process plumbing shared by the workloads.

Paths of the checkout, fresh worker interpreters whose set-up is timed
from spawn to their ``ready`` line, the whole-round loop that fills a
run's measuring time, and the summary statistics every workload reports.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space of one run (point stores, caches, spans); removed at exit.
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-up samples each run takes, counting the round workers' own.
MIN_SETUP_SAMPLES = 3

#: A single worker or server that has not finished after this long has hung.
PROCESS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def require_source() -> None:
    """Make the checkout's ``src/repro`` importable, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def work_dir(workload: str):
    """A private directory under the checkout, deleted when the run ends."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; 0 for no samples)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def timed_rounds(seconds: float, run_round) -> list:
    """Call ``run_round(i)`` for whole rounds until ``seconds`` have passed.

    At least one round always runs, so every run attempts a whole number
    of identical rounds whatever its length.
    """
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_round(len(results)))
    return results


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    """Terminate ``proc`` gracefully, kill it if it lingers, and reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


@contextmanager
def watchdog(proc: subprocess.Popen, timeout: float = PROCESS_TIMEOUT_S):
    """Kill ``proc`` if the enclosed block outlives ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def write_task(work: Path, task: dict) -> Path:
    """Write ``task`` to a fresh file under ``work``; returns its path."""
    fd, path = tempfile.mkstemp(prefix="task-", suffix=".json", dir=work)
    with os.fdopen(fd, "w") as f:
        json.dump(task, f)
    return Path(path)


def result_path_of(task_path) -> Path:
    """Where the worker writes the result of the task in ``task_path``."""
    return Path(task_path).with_suffix(".result.json")


def worker_argv(task_path: Path) -> list[str]:
    """The command line of a fresh interpreter running ``perfbench/worker.py``."""
    return [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(task_path)]


def run_worker(work: Path, task: dict) -> tuple[float, dict]:
    """Run one task in a fresh interpreter; returns ``(setup_s, result)``.

    ``setup_s`` is the wall time from spawning the interpreter until the
    worker has imported the entry points its workload calls and printed
    ``ready``.  The result is what :mod:`perfbench.worker` wrote.
    """
    task_path = write_task(work, task)
    result_path = result_path_of(task_path)
    start = time.perf_counter()
    proc = subprocess.Popen(worker_argv(task_path), stdout=subprocess.PIPE, text=True)
    try:
        with watchdog(proc):
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.stdout.read()  # drain whatever the program prints
            code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {task['workload']} exited with code {code}")
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    return setup_s, result


def setup_samples(work: Path, workload: str, taken: list[float]) -> list[float]:
    """Top ``taken`` up to :data:`MIN_SETUP_SAMPLES` with set-up-only workers."""
    samples = list(taken)
    while len(samples) < MIN_SETUP_SAMPLES:
        samples.append(run_worker(work, {"workload": workload, "mode": "setup"})[0])
    return samples


def rate(rounds: list[dict]) -> float:
    """Operations completed per second of round wall time, over ``rounds``."""
    done = sum(r["attempted"] - r["failed"] for r in rounds)
    return done / sum(r["wall_s"] for r in rounds)


def round_summary(args, work: Path, workload: str, one_round) -> dict:
    """Run the rounds of a round-based workload and summarize them.

    ``one_round(index, traced)`` runs one round in a fresh worker and
    returns its ``setup_s``, ``wall_s``, ``peak_rss_mb``, the latencies
    of the campaigns it ran (``latency_ms``), ``attempted``, ``failed``,
    check ``errors`` and, when traced, ``spans_path``.  An
    untraced run spends all its time on untraced rounds; a traced run
    spends half on untraced and half on traced rounds, so it can report
    the tracing overhead.  End-to-end metrics come from untraced rounds
    only; per-layer metrics are means over the traced rounds.

    ``ops_per_s`` is the operations completed in all the rounds over
    their summed wall time, so it averages the whole run rather than
    picking one round.
    """
    from perfbench import tracer

    if args.trace:
        plain = timed_rounds(args.seconds / 2, lambda i: one_round(i, False))
        traced = timed_rounds(args.seconds / 2, lambda i: one_round(len(plain) + i, True))
    else:
        plain = timed_rounds(args.seconds, lambda i: one_round(i, False))
        traced = []
    rounds = plain + traced
    setup = setup_samples(work, workload, [r["setup_s"] for r in rounds])
    plain_rate = rate(plain)
    latency_ms = [ms for r in plain for ms in r["latency_ms"]]
    per_layer = {}
    if traced:
        layer_rounds = [tracer.span_metrics(tracer.aggregate(r["spans_path"])) for r in traced]
        per_layer = {
            name: statistics.fmean(m[name] for m in layer_rounds) for name in layer_rounds[0]
        }
        per_layer["trace.overhead_pct"] = (plain_rate / rate(traced) - 1.0) * 100.0
    return {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": [e for r in rounds for e in r["errors"]],
        "end_to_end": {
            "setup_s": median(setup),
            "ops_per_s": plain_rate,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "p50_ms": median(latency_ms),
            "p90_ms": percentile(latency_ms, 90),
        },
        "per_layer": per_layer,
        "rounds": len(rounds),
    }


def warm_store(cache_dir: Path, config_fields: dict, benchmarks) -> None:
    """Characterize ``benchmarks`` on the three calibrated boards into ``cache_dir``.

    Preparation for the workloads that read a point store; never timed.
    """
    from repro.core.experiment import ExperimentConfig
    from repro.runtime.cache import ResultCache
    from repro.runtime.campaign import run_sweep_campaign
    from repro.runtime.plan import ExecutionPlan

    config = ExperimentConfig(**config_fields)
    cache = ResultCache(cache_dir)
    for benchmark in benchmarks:
        run_sweep_campaign(benchmark, [0, 1, 2], config, ExecutionPlan(jobs=1), cache=cache)


def read_point_store(point_root: Path) -> dict[tuple[str, int], dict[float, dict]]:
    """``(benchmark, board) -> {mV: entry}``, read straight from the point files."""
    store: dict[tuple[str, int], dict[float, dict]] = {}
    for path in sorted(Path(point_root).glob("*.json")):
        entry = json.loads(path.read_text())
        context = entry["context"]
        key = (context["benchmark"], int(context["board"]))
        store.setdefault(key, {})[round(float(context["vccint_mv"]), 1)] = entry
    return store
