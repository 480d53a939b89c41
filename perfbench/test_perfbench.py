"""The benchmark's own tests: every workload at smoke size, and tampered outputs.

Each workload runs end to end through ``run.py --size smoke`` and must
print a correct result line with every declared metric.  Then, per
workload, one output is tampered with and its check must fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from urllib.parse import parse_qs, urlparse

import pytest

from perfbench import characterize, fleet, harness, serve

DECLARED = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[int, dict]:
    argv = [
        sys.executable, str(harness.ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    ]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["characterize", "fleet", "serve"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    code, result = run_bench(workload, trace=0)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = [m["name"] for m in DECLARED["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_traced_smoke_run_prints_every_per_layer_metric():
    code, result = run_bench("characterize", trace=1)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    for name in ("nn.conv2d_s", "nn.rows", "faults.sites", "core.rounds", "points.bytes"):
        assert result["metrics"][name]["value"] > 0


@pytest.fixture()
def work(tmp_path):
    harness.require_source()
    return tmp_path


def test_characterize_check_catches_wrong_crash_and_edited_point(work):
    fields = characterize.config_fields(3, "smoke")
    task = {
        "workload": "characterize",
        "mode": "round",
        "config": fields,
        "benchmarks": ["vggnet"],
        "cache_dir": str(work / "cache"),
    }
    _setup_s, result = harness.run_worker(work, task)
    ops = result["outcome"]["ops"]
    from repro.core.experiment import ExperimentConfig

    landmarks = characterize.board_landmarks(ExperimentConfig(**fields))
    points = work / "cache" / "points"
    assert characterize.check_round(ops, harness.read_point_store(points), landmarks, 850.0) == []

    wrong = [{**ops[0], "crash_mv": ops[0]["crash_mv"] - 5.0}] + ops[1:]
    assert characterize.check_round(wrong, harness.read_point_store(points), landmarks, 850.0)

    for path in points.glob("*.json"):
        entry = json.loads(path.read_text())
        if entry["context"]["vccint_mv"] == 850.0:
            entry["measurement"]["faults_per_run"] = 1.0
            path.write_text(json.dumps(entry))
            break
    assert characterize.check_round(ops, harness.read_point_store(points), landmarks, 850.0)


def test_fleet_check_catches_lost_request(work):
    config = {"seed": 3, **fleet.STORE_FIELDS}
    spec = fleet.spec_fields(3, "smoke")
    harness.warm_store(work / "cache", config, ["vggnet"])
    task = {
        "workload": "fleet",
        "mode": "round",
        "config": config,
        "spec": spec,
        "cache_dir": str(work / "cache"),
    }
    _setup_s, result = harness.run_worker(work, task)
    rows = result["outcome"]["rows"]
    from repro.fleet.boards import FleetSpec
    from repro.fleet.simulator import fleet_trace

    arrivals = len(fleet_trace(FleetSpec(**spec)).arrivals_s)
    assert fleet.check_round(rows, spec["n_boards"], arrivals) == []

    rows["nominal"][0]["served"] -= 1
    assert fleet.check_round(rows, spec["n_boards"], arrivals)


def test_serve_check_catches_edited_point_file(work):
    config = {"seed": 3, **serve.STORE_FIELDS}
    store_dir = work / "store"
    harness.warm_store(store_dir, config, ["vggnet"])
    store = harness.read_point_store(store_dir / "points")
    load = serve.load_phase(work, store_dir, store, config, ["vggnet"], 0.2)
    assert load["errors"] == [] and load["failed"] == 0

    exact = next(p for p in load["first"] if "mode=exact" in p)
    query = parse_qs(urlparse(exact).query)
    v_mv, board = round(float(query["v_mv"][0]), 1), int(query["board"][0])
    for path in (store_dir / "points").glob("*.json"):
        entry = json.loads(path.read_text())
        if entry["context"]["vccint_mv"] == v_mv and entry["context"]["board"] == board:
            entry["measurement"]["accuracy"] += 0.125
            path.write_text(json.dumps(entry))
            break
    tampered = harness.read_point_store(store_dir / "points")
    assert serve.check_responses(load["first"], load["digests"], tampered)


def test_serve_cold_lookups_stay_distinct():
    store = {
        ("vggnet", board): {
            v: {"hang": v < 600.0} for v in (595.0, 600.0, 605.0, 610.0, 850.0)
        }
        for board in serve.BOARDS
    }
    streams = [serve.QueryStream(5, conn, store, ["vggnet"]) for conn in range(2)]
    asked = [path for _ in range(200) for s in streams for _kind, path in s.next_pass()]
    for mode in ("nearest", "interpolate"):
        cold = [p for p in asked if f"mode={mode}" in p]
        assert len(cold) == 400 and len(set(cold)) == 400
    # Exact lookups walk all 12 measured voltages before any repeats.
    exact = [p for p in asked if "mode=exact" in p]
    assert len(set(exact[:12])) == 12 and set(exact) == set(exact[:12])
