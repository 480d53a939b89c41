"""``serve``: the HTTP server over a warm store, driven closed-loop.

``repro-undervolt serve`` runs in its own process over a point store of the
CNNs on the three calibrated boards, warmed before timing.  Two keep-alive
connections, each in its own client thread, send their next request only
after the previous reply, like dashboards waiting on answers.  Each
connection sends whole passes of :data:`PASS_KINDS`, drawn from its own
seeded :class:`QueryStream`:

* hot, repeated queries: ``/landmarks``, ``/guardband``, whole-dataset
  dumps and ``/healthz``;
* cold single-point lookups in ``exact``, ``nearest`` and ``interpolate``
  mode, at voltages not asked before where the store allows.

An operation is one answered request.  Checks, against the point files
read straight from disk:

* every exact lookup equals the measurement in its point file;
* ``nearest`` returns a measured voltage at minimal distance;
* interpolated accuracy lies between its two neighbours';
* identical queries return identical bytes, and revalidate with 304.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import re
import subprocess
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from perfbench import harness, tracer

BENCHMARKS = ("vggnet", "googlenet", "alexnet", "resnet50", "inception")
BOARDS = (0, 1, 2)

#: CNNs in the store, and server starts timed for set-up only (half before
#: the load, half after, so the samples span the run) per ``--size``.
SIZES = {
    "full": {"benchmarks": BENCHMARKS, "extra_starts": harness.MIN_SETUP_SAMPLES - 1},
    "smoke": {"benchmarks": ("vggnet", "alexnet"), "extra_starts": 0},
}
STORE_FIELDS = {"samples": 8, "repeats": 2}
CONNECTIONS = 2
#: The kinds of one pass, in the shares of the repository's own serve
#: benchmark (``mixed_urls`` in ``benchmarks/bench_serve.py``): two landmark
#: queries, one guardband map, one whole-dataset dump, one health probe and
#: one point lookup in each mode, per eight requests.  No measured
#: production traffic exists to take shares from.
PASS_KINDS = (
    "landmarks", "landmarks", "guardband", "dump", "healthz", "exact", "nearest", "interp",
)
MODES = {"exact": "exact", "nearest": "nearest", "interp": "interpolate"}
KINDS = ("exact", "nearest", "interp", "dump", "landmarks", "guardband", "healthz")
#: Cold lookups re-asked with their ETag after the load, besides every hot query.
REVALIDATED_COLD = 64
READY = re.compile(r"serving characterization index .* on http://([\d.]+):(\d+)")


class QueryStream:
    """The seeded queries of one connection, one pass of :data:`PASS_KINDS` at a time.

    The seed picks each pass's order and its hot queries.  Cold lookups are
    never repeated where the store allows: ``exact`` walks every measured
    voltage of every dataset in a seeded order (the two connections take
    alternate ones) and repeats only after all of them; ``nearest`` and
    ``interpolate`` draw a fresh voltage, in 0.01 mV steps between a
    dataset's lowest and highest measured one (the two connections take
    alternate steps), that has not been asked before.
    """

    def __init__(self, seed: int, conn: int, store: dict, benchmarks):
        self.conn = conn
        self.rng = random.Random(f"serve/{seed}/{conn}")
        self.hot = {
            "landmarks": ["/landmarks"] + [f"/landmarks?benchmark={b}" for b in benchmarks],
            "guardband": ["/guardband"] + [f"/guardband?benchmark={b}" for b in benchmarks],
            "dump": [f"/points?benchmark={b}&board={k}" for b in benchmarks for k in BOARDS],
            "healthz": ["/healthz"],
        }
        measured = [
            (benchmark, board, v_mv)
            for (benchmark, board), points in sorted(store.items())
            for v_mv, entry in sorted(points.items())
            if not entry["hang"]
        ]
        random.Random(f"serve/{seed}/exact").shuffle(measured)
        self.exact = measured[conn::CONNECTIONS]
        self.exact_asked = 0
        self.ranges = {}
        for key, points in sorted(store.items()):
            alive = [v for v, e in points.items() if not e["hang"]]
            self.ranges[key] = (min(alive), max(alive))
        self.datasets = sorted(self.ranges)
        self.asked: set[tuple[str, int, float]] = set()

    def next_pass(self) -> list[tuple[str, str]]:
        """The next pass of ``(kind, path)`` queries."""
        kinds = list(PASS_KINDS)
        self.rng.shuffle(kinds)
        return [(kind, self.path(kind)) for kind in kinds]

    def path(self, kind: str) -> str:
        if kind in self.hot:
            return self.rng.choice(self.hot[kind])
        if kind == "exact":
            benchmark, board, v_mv = self.exact[self.exact_asked % len(self.exact)]
            self.exact_asked += 1
        else:
            while True:
                benchmark, board = self.rng.choice(self.datasets)
                low, high = self.ranges[(benchmark, board)]
                step = self.rng.randrange(self.conn, round((high - low) * 100) + 1, CONNECTIONS)
                v_mv = round(low + step / 100, 2)
                if (benchmark, board, v_mv) not in self.asked:
                    break
            self.asked.add((benchmark, board, v_mv))
        return f"/points?benchmark={benchmark}&board={board}&v_mv={v_mv}&mode={MODES[kind]}"


class Client:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def get(self, path: str, headers: dict | None = None) -> tuple[int, bytes, str | None]:
        try:
            self.conn.request("GET", path, headers=headers or {})
            response = self.conn.getresponse()
            return response.status, response.read(), response.getheader("ETag")
        except (OSError, http.client.HTTPException):
            self.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            return 0, b"", None

    def get_json(self, path: str) -> dict:
        status, body, _ = self.get(path)
        if status != 200:
            raise harness.BenchError(f"{path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


def start_server(work: Path, store: Path, config: dict, spans_path: Path | None = None):
    """Spawn the server; returns ``(process, port, setup_s)`` once it is ready.

    ``setup_s`` runs from spawn until the ready line, which the server
    prints after opening the index and precomputing landmarks.
    """
    task = {
        "workload": "serve",
        "mode": "serve",
        "argv": [
            "serve",
            "--port", "0",
            "--cache-dir", str(store),
            "--seed", str(config["seed"]),
            "--samples", str(config["samples"]),
            "--repeats", str(config["repeats"]),
        ],
    }
    if spans_path:
        task["spans_path"] = str(spans_path)
    argv = harness.worker_argv(harness.write_task(work, task))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        with harness.watchdog(proc):
            for line in proc.stdout:
                match = READY.search(line)
                if match:
                    return proc, int(match.group(2)), time.perf_counter() - start
    except BaseException:
        stop_server(proc)
        raise
    stop_server(proc)
    raise harness.BenchError("server exited before it was ready")


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM the server (it drains and exits 0) and reap it."""
    code = harness.stop_process(proc)
    proc.stdout.read()
    proc.stdout.close()
    if code != 0:
        raise harness.BenchError(f"server exited with code {code}")


def drive(port: int, streams: list[QueryStream], seconds: float) -> dict:
    """Closed loop: each connection sends whole passes of its stream until ``seconds`` pass."""
    results: list[dict | None] = [None] * len(streams)

    def connection(index: int) -> None:
        client = Client(port)
        latency = {kind: [] for kind in KINDS}
        first: dict[str, tuple[bytes, str | None]] = {}
        digests: dict[str, set[bytes]] = {}
        attempted = failed = 0
        start = time.perf_counter()
        try:
            while not attempted or time.perf_counter() - start < seconds:
                for kind, path in streams[index].next_pass():
                    sent = time.perf_counter()
                    status, body, etag = client.get(path)
                    elapsed = time.perf_counter() - sent
                    attempted += 1
                    if status != 200:
                        failed += 1
                        continue
                    latency[kind].append(elapsed * 1000.0)
                    first.setdefault(path, (body, etag))
                    digests.setdefault(path, set()).add(hashlib.blake2b(body).digest())
        finally:
            client.close()
        results[index] = {
            "latency": latency,
            "first": first,
            "digests": digests,
            "attempted": attempted,
            "failed": failed,
        }

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(len(streams))]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if any(r is None for r in results):
        raise harness.BenchError("a client connection died")
    latency = {kind: [ms for r in results for ms in r["latency"][kind]] for kind in KINDS}
    answered = sum(len(v) for v in latency.values())
    digests: dict[str, set[bytes]] = {}
    for r in results:
        for path, ds in r["digests"].items():
            digests.setdefault(path, set()).update(ds)
    return {
        "latency": latency,
        "ops_per_s": answered / elapsed,
        "first": {path: pair for r in results for path, pair in r["first"].items()},
        "digests": digests,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def check_responses(first: dict, digests: dict, store: dict) -> list[str]:
    """Point-lookup answers against the point files, and byte identity."""
    errors = [
        f"{path}: identical queries, different bytes"
        for path, ds in digests.items()
        if len(ds) != 1
    ]
    for path, (body, _etag) in sorted(first.items()):
        query = parse_qs(urlparse(path).query)
        if "v_mv" not in query:
            continue
        mode, v_mv = query["mode"][0], float(query["v_mv"][0])
        points = store[(query["benchmark"][0], int(query["board"][0]))]
        alive = {v: e["measurement"] for v, e in points.items() if not e["hang"]}
        answer = json.loads(body)
        if mode == "exact":
            measured = points[round(v_mv, 1)]["measurement"]
            if any(answer.get(k) != value for k, value in measured.items()):
                errors.append(f"{path}: differs from its point file")
        elif mode == "nearest":
            best = min(abs(v - v_mv) for v in alive)
            got = answer["vccint_mv"]
            if round(got, 1) not in alive or abs(abs(got - v_mv) - best) > 1e-6:
                errors.append(f"{path}: {got} mV is not a nearest measured voltage")
        else:
            above = [v for v in alive if v >= v_mv]
            below = [v for v in alive if v < v_mv]
            if above and below:
                pair = sorted((alive[min(above)]["accuracy"], alive[max(below)]["accuracy"]))
                if not pair[0] - 1e-12 <= answer["accuracy"] <= pair[1] + 1e-12:
                    errors.append(f"{path}: accuracy {answer['accuracy']} outside {pair}")
    return errors


def check_revalidation(port: int, first: dict, seed: int) -> list[str]:
    """Hot queries and a seeded sample of cold ones, re-asked with their ETag, must answer 304."""
    hot = sorted(p for p in first if "v_mv=" not in p)
    cold = sorted(p for p in first if "v_mv=" in p)
    cold = random.Random(f"serve/{seed}/revalidate").sample(cold, min(REVALIDATED_COLD, len(cold)))
    errors = []
    client = Client(port)
    try:
        for path in hot + cold:
            status, body, _ = client.get(path, {"If-None-Match": first[path][1] or ""})
            if status != 304 or body:
                errors.append(f"{path}: revalidation answered {status}")
    finally:
        client.close()
    return errors


def counters(port: int) -> dict:
    """The server's ``/metrics`` counters and the index's LRU counters."""
    client = Client(port)
    try:
        metrics = client.get_json("/metrics")["counters"]
        lru = client.get_json("/stats")["lru"]
    finally:
        client.close()
    return {**metrics, "lru_hits": lru["hits"], "lru_misses": lru["misses"]}


def load_phase(
    work: Path, store_dir: Path, store: dict, config: dict, benchmarks, seconds: float,
    spans_path=None,
) -> dict:
    """Start a server, drive it for ``seconds``, check it, stop it."""
    seed = config["seed"]
    streams = [QueryStream(seed, conn, store, benchmarks) for conn in range(CONNECTIONS)]
    proc, port, setup_s = start_server(work, store_dir, config, spans_path)
    try:
        before = counters(port)
        load = drive(port, streams, seconds)
        after = counters(port)
        load["peak_rss_mb"] = harness.peak_rss_mb(proc.pid)
        load["errors"] = check_responses(load["first"], load["digests"], store)
        load["errors"] += check_revalidation(port, load["first"], seed)
    finally:
        stop_server(proc)
    load["setup_s"] = setup_s
    load["delta"] = {name: after[name] - before[name] for name in after}
    return load


def layer_metrics(load: dict, spans_path: Path) -> dict:
    """Per-layer metrics of the traced phase."""
    metrics = tracer.span_metrics(tracer.aggregate(spans_path))
    for kind, name in (
        ("exact", "serve.points_exact_p50_ms"),
        ("nearest", "serve.points_nearest_p50_ms"),
        ("interp", "serve.points_interp_p50_ms"),
        ("dump", "serve.dump_p50_ms"),
        ("landmarks", "serve.landmarks_p50_ms"),
        ("guardband", "serve.guardband_p50_ms"),
    ):
        metrics[name] = harness.median(load["latency"][kind])
    delta = load["delta"]
    metrics["serve.computations"] = delta["computations_total"]
    metrics["serve.coalesced"] = delta["coalesced_total"]
    metrics["serve.window_hits"] = delta["window_hits_total"]
    metrics["serve.shed"] = delta["shed_total"]
    requests = delta["dedupe_requests_total"]
    metrics["serve.compute_ratio"] = delta["computations_total"] / requests if requests else 0.0
    metrics["query.lru_hits"] = delta["lru_hits"]
    metrics["query.lru_misses"] = delta["lru_misses"]
    return metrics


def timed_start(work: Path, store_dir: Path, config: dict) -> float:
    """Start and stop a server; its ``setup_s``."""
    proc, _port, setup_s = start_server(work, store_dir, config)
    stop_server(proc)
    return setup_s


def run(args, work: Path) -> dict:
    """Warm the store, time server starts, drive the load; the run's summary."""
    size = SIZES[args.size]
    config = {"seed": args.seed, **STORE_FIELDS}
    store_dir = work / "store"
    harness.warm_store(store_dir, config, size["benchmarks"])
    store = harness.read_point_store(store_dir / "points")
    benchmarks = size["benchmarks"]
    extra = size["extra_starts"]
    setups = [timed_start(work, store_dir, config) for _ in range(extra // 2)]
    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    plain = load_phase(work, store_dir, store, config, benchmarks, plain_seconds)
    setups.append(plain["setup_s"])
    setups += [timed_start(work, store_dir, config) for _ in range(extra - extra // 2)]
    loads = [plain]
    per_layer = {}
    if args.trace:
        spans_path = work / "spans.json"
        traced = load_phase(
            work, store_dir, store, config, benchmarks, args.seconds / 2, spans_path
        )
        loads.append(traced)
        per_layer = layer_metrics(traced, spans_path)
        per_layer["trace.overhead_pct"] = (plain["ops_per_s"] / traced["ops_per_s"] - 1.0) * 100.0
    latency = [ms for kind in KINDS for ms in plain["latency"][kind]]
    return {
        "attempted": sum(load["attempted"] for load in loads),
        "failed": sum(load["failed"] for load in loads),
        "errors": [e for load in loads for e in load["errors"]],
        "end_to_end": {
            "setup_s": harness.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
            "p50_ms": harness.median(latency),
            "p90_ms": harness.percentile(latency, 90),
        },
        "per_layer": per_layer,
        "rounds": len(loads),
        # Printed for reference only: p99 moves by about a fifth between
        # identical runs on a small host, too much for a bound.
        "reference": {"p99_ms": harness.percentile(latency, 99)},
    }
