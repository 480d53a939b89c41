"""``characterize``: cold, serial, journaled sweep campaigns.

One round runs :func:`~repro.runtime.campaign.run_sweep_campaign` for every
CNN on the three calibrated boards, in a fresh interpreter against a fresh
cache directory, each board swept on the 5 mV grid from nominal down to its
crash point.  An operation is one (CNN, board) sweep; a campaign's latency
is that of one CNN's campaign over the three boards.

Checks, against the board model rather than the sweep engine:

* each sweep's crash voltage is the first 5 mV grid voltage below the
  board's ``vcrash_v`` for the workload, the point store records a hang
  there, and the grid point above it is alive;
* every stored point above the board's ``vmin_v``, nominal included, has
  zero faults per run and accuracy equal to the clean accuracy.
"""

from __future__ import annotations

import shutil
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from perfbench import harness

BENCHMARKS = ("vggnet", "googlenet", "alexnet", "resnet50", "inception")
BOARDS = (0, 1, 2)
V_STEP_MV = 5.0

#: Input size per ``--size``: evaluation samples, fault realizations per
#: point, and the CNNs swept.  ``smoke`` runs the same flow in seconds.
SIZES = {
    "full": {"samples": 16, "repeats": 3, "benchmarks": BENCHMARKS},
    "smoke": {"samples": 4, "repeats": 2, "benchmarks": ("vggnet", "alexnet")},
}


def config_fields(seed: int, size: str) -> dict:
    """The sweep config of one run; ``--seed`` seeds models and faults."""
    return {
        "seed": seed,
        "samples": SIZES[size]["samples"],
        "repeats": SIZES[size]["repeats"],
        "v_step": V_STEP_MV / 1000.0,
        "strategy": "grid",
    }


def import_entry_points() -> SimpleNamespace:
    from repro.core.experiment import ExperimentConfig
    from repro.runtime.cache import ResultCache
    from repro.runtime.campaign import run_sweep_campaign
    from repro.runtime.journal import JOURNAL_NAME, CampaignJournal
    from repro.runtime.plan import ExecutionPlan

    return SimpleNamespace(
        ExperimentConfig=ExperimentConfig,
        ResultCache=ResultCache,
        run_sweep_campaign=run_sweep_campaign,
        JOURNAL_NAME=JOURNAL_NAME,
        CampaignJournal=CampaignJournal,
        ExecutionPlan=ExecutionPlan,
    )


def run_round(entry: SimpleNamespace, task: dict) -> dict:
    """One round, in the worker: every CNN on every board, serially."""
    config = entry.ExperimentConfig(**task["config"])
    cache = entry.ResultCache(task["cache_dir"])
    journal = entry.CampaignJournal(cache.root / entry.JOURNAL_NAME)
    plan = entry.ExecutionPlan(jobs=1)
    ops = []
    latency_ms = []
    for benchmark in task["benchmarks"]:
        start = time.perf_counter()
        try:
            outcome = entry.run_sweep_campaign(
                benchmark, list(BOARDS), config, plan, cache=cache, journal=journal
            )
        except Exception:  # counted as failed operations, reported below
            traceback.print_exc()
            ops += [{"benchmark": benchmark, "board": b, "failed": True} for b in BOARDS]
            continue
        latency_ms.append((time.perf_counter() - start) * 1000.0)
        for board, e in zip(BOARDS, outcome.entries):
            crash_mv = e.result.summary.get("crash_mv")
            ops.append(
                {"benchmark": benchmark, "board": board, "failed": False, "crash_mv": crash_mv}
            )
    return {"ops": ops, "latency_ms": latency_ms}


def board_landmarks(config) -> dict[int, tuple[float, float]]:
    """``board -> (vcrash_v, vmin_v)`` from the board model.

    The five CNNs are the unpruned zoo variants, so the workload's crash
    offset is the unpruned one.
    """
    from repro.fpga.board import make_board
    from repro.fpga.variation import workload_vcrash_offset_v

    landmarks = {}
    for sample in BOARDS:
        board = make_board(sample=sample, cal=config.cal)
        board.configure_workload(
            p_vnom_w=1.0, vcrash_offset_v=workload_vcrash_offset_v(False, config.cal)
        )
        landmarks[sample] = (board.vcrash_v, board.vmin_v)
    return landmarks


def expected_crash_mv(vnom_mv: float, vcrash_v: float) -> float:
    """The first grid voltage, stepping down from nominal, below ``vcrash_v``."""
    k = 0
    while (vnom_mv - k * V_STEP_MV) / 1000.0 >= vcrash_v:
        k += 1
    return vnom_mv - k * V_STEP_MV


def check_round(ops: list[dict], store: dict, landmarks: dict, vnom_mv: float) -> list[str]:
    """Every violation of the checks in the module docstring (empty = correct)."""
    errors = []
    for op in ops:
        if op["failed"]:
            continue
        key = (op["benchmark"], op["board"])
        vcrash_v, vmin_v = landmarks[op["board"]]
        crash_mv = expected_crash_mv(vnom_mv, vcrash_v)
        points = store.get(key, {})
        if op["crash_mv"] is None or abs(op["crash_mv"] - crash_mv) > 1e-6:
            errors.append(f"{key}: crash at {op['crash_mv']} mV, board model says {crash_mv}")
        if not points.get(crash_mv, {}).get("hang"):
            errors.append(f"{key}: no hang stored at {crash_mv} mV")
        above = points.get(crash_mv + V_STEP_MV)
        if above is None or above["hang"]:
            errors.append(f"{key}: point above the crash ({crash_mv + V_STEP_MV} mV) not alive")
        if vnom_mv not in points:
            errors.append(f"{key}: nominal point {vnom_mv} mV missing")
        for v_mv, entry in points.items():
            if v_mv / 1000.0 <= vmin_v:
                continue
            m = entry["measurement"]
            if entry["hang"] or m["faults_per_run"] != 0 or m["accuracy"] != m["clean_accuracy"]:
                errors.append(f"{key}: point {v_mv} mV above Vmin is faulty or lossy")
    return errors


def run(args, work: Path) -> dict:
    """All rounds of one run; returns the run's summary for ``run.py``."""
    from repro.core.experiment import ExperimentConfig

    size = SIZES[args.size]
    fields = config_fields(args.seed, args.size)
    config = ExperimentConfig(**fields)
    landmarks = board_landmarks(config)
    vnom_mv = round(config.cal.vnom * 1000.0, 1)

    def one_round(index: int, traced: bool) -> dict:
        cache_dir = work / f"round{index}"
        task = {
            "workload": "characterize",
            "mode": "round",
            "config": fields,
            "benchmarks": list(size["benchmarks"]),
            "cache_dir": str(cache_dir),
        }
        if traced:
            task["spans_path"] = str(work / f"spans{index}.json")
        setup_s, result = harness.run_worker(work, task)
        ops = result["outcome"]["ops"]
        store = harness.read_point_store(cache_dir / "points")
        errors = check_round(ops, store, landmarks, vnom_mv)
        shutil.rmtree(cache_dir, ignore_errors=True)
        failed = sum(op["failed"] for op in ops)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "attempted": len(ops),
            "failed": failed,
            "wall_s": result["wall_s"],
            "latency_ms": result["outcome"]["latency_ms"],
            "errors": errors,
            "spans_path": task.get("spans_path"),
        }

    return harness.round_summary(args, work, "characterize", one_round)
