"""``fleet``: a cold, journaled fleet campaign of every policy.

One round runs :func:`~repro.runtime.campaign.run_fleet_campaign` for a
diurnal trace over at least 1000 minted boards, so each policy spans
several 250-board chunks, in a fresh interpreter against a fresh copy of a
point store warmed before timing (the reference boards' characterization).
An operation is one board simulated under one policy; a campaign's latency
is that of the whole campaign.

Checks, against the request trace and the policies' guarantees:

* for each policy, the boards' ``requests`` sum to the arrivals of
  ``fleet_trace(spec)``, computed in this process;
* on every board, ``served + dropped == requests``;
* ``nominal`` has zero SLO violations and zero accuracy loss;
* fleet energy is ordered nominal >= static-guardband >= per-board-vmin.
"""

from __future__ import annotations

import shutil
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from perfbench import harness

#: Fleet size per ``--size``; 1000 boards is four 250-board chunks per policy.
SIZES = {"full": 1000, "smoke": 300}

#: The reference characterization the policies read: vggnet on the three
#: calibrated boards, at a small evaluation size (warming is not timed).
STORE_FIELDS = {"samples": 8, "repeats": 2}

ROW_FIELDS = ("requests", "served", "dropped", "slo_violations", "accuracy_loss", "energy_j")


def spec_fields(seed: int, size: str) -> dict:
    """The fleet of one run; ``--seed`` is the fleet's RNG root."""
    return {
        "benchmark": "vggnet",
        "n_boards": SIZES[size],
        "fleet_seed": seed,
        "trace_kind": "diurnal",
        "rate_hz": 64.0,
        "duration_s": 60.0,
    }


def import_entry_points() -> SimpleNamespace:
    from repro.core.experiment import ExperimentConfig
    from repro.fleet.boards import FleetSpec
    from repro.fleet.policy import POLICY_NAMES
    from repro.runtime.cache import ResultCache
    from repro.runtime.campaign import fleet_policy_rows, run_fleet_campaign
    from repro.runtime.journal import JOURNAL_NAME, CampaignJournal
    from repro.runtime.plan import ExecutionPlan

    return SimpleNamespace(
        ExperimentConfig=ExperimentConfig,
        FleetSpec=FleetSpec,
        POLICY_NAMES=POLICY_NAMES,
        ResultCache=ResultCache,
        fleet_policy_rows=fleet_policy_rows,
        run_fleet_campaign=run_fleet_campaign,
        JOURNAL_NAME=JOURNAL_NAME,
        CampaignJournal=CampaignJournal,
        ExecutionPlan=ExecutionPlan,
    )


def run_round(entry: SimpleNamespace, task: dict) -> dict:
    """One round, in the worker: the whole campaign, serially."""
    config = entry.ExperimentConfig(**task["config"])
    spec = entry.FleetSpec(**task["spec"])
    cache = entry.ResultCache(task["cache_dir"])
    journal = entry.CampaignJournal(cache.root / entry.JOURNAL_NAME)
    policies = entry.POLICY_NAMES
    start = time.perf_counter()
    try:
        outcome = entry.run_fleet_campaign(
            spec, policies, config, entry.ExecutionPlan(jobs=1), cache=cache, journal=journal
        )
        rows = entry.fleet_policy_rows(outcome, spec, policies)
    except Exception:  # every simulation of the round counts as failed
        traceback.print_exc()
        return {"failed": len(policies) * spec.n_boards, "rows": {}, "latency_ms": []}
    return {
        "failed": 0,
        "rows": {p: [{k: row[k] for k in ROW_FIELDS} for row in rows[p]] for p in policies},
        "latency_ms": [(time.perf_counter() - start) * 1000.0],
    }


def check_round(rows: dict[str, list[dict]], n_boards: int, arrivals: int) -> list[str]:
    """Every violation of the checks in the module docstring (empty = correct)."""
    errors = []
    for policy, boards in rows.items():
        if len(boards) != n_boards:
            errors.append(f"{policy}: {len(boards)} board rows, expected {n_boards}")
        total = sum(b["requests"] for b in boards)
        if total != arrivals:
            errors.append(f"{policy}: boards got {total} requests, the trace has {arrivals}")
        for i, b in enumerate(boards):
            if b["served"] + b["dropped"] != b["requests"]:
                errors.append(f"{policy} board {i}: served + dropped != requests")
    for i, b in enumerate(rows.get("nominal", [])):
        if b["slo_violations"] != 0 or b["accuracy_loss"] != 0:
            errors.append(f"nominal board {i}: SLO violations or accuracy loss")
    energy = {p: sum(b["energy_j"] for b in boards) for p, boards in rows.items()}
    order = ("nominal", "static-guardband", "per-board-vmin")
    if not all(p in energy for p in order):
        errors.append(f"policies missing from {sorted(energy)}")
    elif not energy[order[0]] >= energy[order[1]] >= energy[order[2]]:
        errors.append(f"fleet energy not ordered {order}: {[energy[p] for p in order]}")
    return errors


def run(args, work: Path) -> dict:
    """All rounds of one run; returns the run's summary for ``run.py``."""
    from repro.fleet.boards import FleetSpec
    from repro.fleet.policy import POLICY_NAMES
    from repro.fleet.simulator import fleet_trace

    config = {"seed": args.seed, **STORE_FIELDS}
    spec = spec_fields(args.seed, args.size)
    arrivals = len(fleet_trace(FleetSpec(**spec)).arrivals_s)
    store = work / "store"
    harness.warm_store(store, config, ["vggnet"])
    ops_per_round = len(POLICY_NAMES) * spec["n_boards"]

    def one_round(index: int, traced: bool) -> dict:
        cache_dir = work / f"round{index}"
        shutil.copytree(store, cache_dir)
        task = {
            "workload": "fleet",
            "mode": "round",
            "config": config,
            "spec": spec,
            "cache_dir": str(cache_dir),
        }
        if traced:
            task["spans_path"] = str(work / f"spans{index}.json")
        setup_s, result = harness.run_worker(work, task)
        outcome = result["outcome"]
        shutil.rmtree(cache_dir, ignore_errors=True)
        failed = outcome["failed"]
        errors = [] if failed else check_round(outcome["rows"], spec["n_boards"], arrivals)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "attempted": ops_per_round,
            "failed": failed,
            "wall_s": result["wall_s"],
            "latency_ms": outcome["latency_ms"],
            "errors": errors,
            "spans_path": task.get("spans_path"),
        }

    return harness.round_summary(args, work, "fleet", one_round)
