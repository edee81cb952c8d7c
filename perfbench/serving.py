"""The ``serve-mixed`` workload: a closed loop against ``python -m repro serve``.

It runs with ``--workload serve-mixed`` but is not one of the workloads in
``BENCHMARK.json``: on the reference machine its figures moved by more than
any allowed bound between two sets of runs of the same code (see
``perfbench/README.md``).

Two keep-alive connections share one seeded request sequence.  Each
connection sends its next request only after the previous reply arrived, so
the server sees at most two requests at a time.  A round is 40 requests:

* 20 fresh channel-free specs: n=9, fa=3, the random schedule, fused engine,
  2,000 rounds in 4 shards, one of three seeded sensor-length sets;
* 8 fresh lossy specs: seven sensors, i.i.d. loss 0.2, delay 0.1 (up to 2
  slots), one retransmission, both paper schedules, fused engine;
* 6 repeats of the request just before (an in-flight duplicate or a store
  hit, whichever the timing gives) and 6 repeats of an earlier request.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from common import HERE, ROOT, SRC, RoundTally, busy_seconds, measure_import, peak_rss_mb, quantile, round_rates, trace_path
from workloads import derived_seed

FRESH, LOSSY, REPEAT_LAST, REPEAT_OLD = 20, 8, 6, 6
SAMPLES, SHARD_SAMPLES = 2_000, 500
LENGTH_SETS = 3
CONNECTIONS = 2
SETUP_REPEATS = 7
#: Requests an untraced run completes at least, so that ten lie beyond p99.
MIN_REQUESTS = 1_000
#: Fresh payloads of each kind recomputed through ``repro.api.run``.
REFERENCE_SAMPLE = 3
#: Per-layer metrics only this workload reaches, printed after those of
#: ``BENCHMARK.json`` in a traced run.
LAYER_METRICS = [
    {"name": "store.hits", "unit": "count"},
    {"name": "kernel.fused_fusion_s", "unit": "s"},
    {"name": "kernel.fused_fusion_calls", "unit": "count"},
    {"name": "serve.service_ms_p50", "unit": "ms"},
    {"name": "serve.transport_ms_p50", "unit": "ms"},
    {"name": "serve.cache_hits", "unit": "count"},
    {"name": "serve.deduplicated", "unit": "count"},
    {"name": "serve.computed", "unit": "count"},
    {"name": "collator.shards_per_pass", "unit": "ratio"},
    {"name": "collator.passes", "unit": "count"},
]


class RequestMix:
    """The seeded request sequence; round ``r`` of seed ``s`` never changes."""

    def __init__(self, seed: int) -> None:
        from repro.channel import ChannelSpec

        self.seed = seed
        rng = np.random.default_rng(derived_seed(seed, 4242))
        self.length_sets = [tuple(float(x) for x in np.sort(rng.integers(2, 21, 9))) for _ in range(LENGTH_SETS)]
        self.channel = ChannelSpec(model="iid", loss=0.2, delay=0.1, max_delay=2, retransmit_budget=1)
        self.history: list[dict] = []

    def _fresh(self, rng, lossy: bool) -> dict:
        from repro.scenarios.spec import ComparisonCase, ComparisonScenario, spec_dict

        if lossy:
            lengths = (5.0, 5.0, 5.0, 8.0, 11.0, 14.0, 17.0)
            case = ComparisonCase(label="n7-fa1-lossy", lengths=lengths, fa=1, channel=self.channel)
        else:
            lengths = self.length_sets[int(rng.integers(LENGTH_SETS))]
            case = ComparisonCase(label="n9-fa3", lengths=lengths, fa=3, schedules=("random",))
        spec = ComparisonScenario(
            name="serve-mixed-lossy" if lossy else "serve-mixed-fresh",
            engine="fused",
            seed=int(rng.integers(2**31)),
            samples=SAMPLES,
            shard_samples=SHARD_SAMPLES,
            cases=(case,),
        )
        return {"spec": spec_dict(spec)}

    def round(self, index: int) -> list[dict]:
        """The round's requests: ``{"kind", "body", "rounds"}`` each."""
        rng = np.random.default_rng(derived_seed(self.seed, index))
        kinds = ["fresh"] * FRESH + ["lossy"] * LOSSY + ["repeat-last"] * REPEAT_LAST + ["repeat-old"] * REPEAT_OLD
        rng.shuffle(kinds)
        if not self.history:
            # The sequence opens with a fresh spec, so every repeat has an original.
            first = kinds.index("fresh")
            kinds[0], kinds[first] = kinds[first], kinds[0]
        requests = []
        for kind in kinds:
            if kind in ("fresh", "lossy"):
                body = self._fresh(rng, kind == "lossy")
                rounds = SAMPLES * len(body["spec"]["cases"][0]["schedules"])
            else:
                pool = self.history[-1:] if kind == "repeat-last" else self.history
                body, rounds = pool[int(rng.integers(len(pool)))], 0
            self.history.append(body)
            requests.append({"kind": kind, "body": body, "rounds": rounds})
        return requests


class Server:
    """One ``serve_launcher.py`` process and its address."""

    def __init__(self, store: Path, trace: Path | None = None) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py"), "--store", str(store)]
        if trace is not None:
            command += ["--trace", str(trace)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = store.with_suffix(".log")
        self.started = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def warm_up(port: int) -> None:
    from repro.scenarios.spec import ComparisonCase, ComparisonScenario, spec_dict

    spec = ComparisonScenario(
        name="serve-mixed-warm-up",
        engine="fused",
        samples=1_000,
        cases=(ComparisonCase(label="warm-up", lengths=(5.0, 11.0, 17.0), fa=1),),
    )
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/v1/run", json.dumps({"spec": spec_dict(spec)}), {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"warm-up request failed with status {response.status}")
    finally:
        conn.close()


def launch(store: Path, trace: Path | None = None) -> tuple[Server, float]:
    """Start a server; set-up time runs until it has answered its warm-up."""
    server = Server(store, trace)
    try:
        warm_up(server.port)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


class Phase:
    """Whole rounds of the request mix, sent over keep-alive connections."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.rounds: list[RoundTally] = []
        self.lane_walls = [0.0] * CONNECTIONS
        self.failures: list[str] = []

    def run(self, port: int, seed: int, seconds: float, rounds: int | None = None, min_requests: int = 0) -> "Phase":
        mix = RequestMix(seed)
        conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=60) for _ in range(CONNECTIONS)]
        try:
            started = time.perf_counter()
            while rounds is None or len(self.rounds) < rounds:
                self._round(conns, mix.round(len(self.rounds)))
                done = time.perf_counter() - started >= seconds and len(self.records) >= min_requests
                if rounds is None and done:
                    break
        finally:
            for conn in conns:
                conn.close()
        return self

    def _round(self, conns, requests: list[dict]) -> None:
        bodies = [json.dumps(request["body"]).encode() for request in requests]
        results: list[dict | None] = [None] * len(requests)
        lock = threading.Lock()
        cursor = iter(range(len(requests)))
        headers = {"Content-Type": "application/json"}
        tally = RoundTally()
        round_started = tally.started

        def client(lane: int) -> None:
            conn = conns[lane]
            while True:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    break
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/v1/run", bodies[position], headers)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException) as error:
                    conn.close()
                    results[position] = {"error": f"{type(error).__name__}: {error}"}
                    continue
                latency = time.perf_counter() - sent
                results[position] = {"status": response.status, "data": data, "latency": latency}
            self.lane_walls[lane] += time.perf_counter() - round_started

        threads = [threading.Thread(target=client, args=(lane,)) for lane in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally.wall = time.perf_counter() - round_started
        for request, result in zip(requests, results):
            if "error" in result or result["status"] != 200:
                self.failures.append(f"{request['kind']}: {result.get('error') or result['data'][:200]!r}")
                continue
            envelope = json.loads(result["data"])
            self.records.append({**request, "latency": result["latency"], "envelope": envelope})
            tally.ops += 1
            tally.mc_rounds += request["rounds"]
        self.rounds.append(tally)

    def end_to_end(self) -> dict[str, float]:
        latencies = [record["latency"] for record in self.records]
        return {
            **round_rates(self.rounds),
            "latency_ms_p50": 1e3 * quantile(latencies, 50),
            "latency_ms_p99": 1e3 * quantile(latencies, 99),
        }

    def check(self, api) -> list[str]:
        from repro.scenarios.spec import spec_from_dict

        problems = []
        first: dict[str, dict] = {}
        referenced = {"fresh": 0, "lossy": 0}
        for record in self.records:
            envelope = record["envelope"]
            key, payload = envelope["key"], envelope["payload"]
            label = f"{record['kind']}/{key[:12]}"
            if key in first:
                problems += checks.check_same_payload(payload, first[key], f"repeat {label}")
                continue
            first[key] = payload
            problems += checks.check_comparison_payload(payload, stealthy=True, label=label)
            kind = record["kind"]
            if kind in referenced and referenced[kind] < REFERENCE_SAMPLE:
                referenced[kind] += 1
                reference = api.run(spec_from_dict(record["body"]["spec"]), store=None).payload
                problems += checks.check_same_payload(payload, reference, f"served {label}")
        return problems


def serve_counters(server: Server) -> dict:
    document = server.get("/v1/metrics?format=json")
    collator = document["collator"]
    return {
        "served": document["served"],
        "cache_hits": document["cache_hits"],
        "deduplicated": document["deduplicated"],
        "requests": collator["requests"],
        "batches": collator["batches"],
    }


def run(seed: int, seconds: float, trace: bool, scratch: Path, record: dict) -> dict:
    import repro.api as api

    if not trace:
        setups = []
        for attempt in range(SETUP_REPEATS):
            server, elapsed = launch(scratch / f"store-setup-{attempt}")
            setups.append(elapsed)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        try:
            phase = Phase().run(server.port, seed, seconds, min_requests=MIN_REQUESTS)
        finally:
            server.stop()
        metrics = phase.end_to_end()
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb(include_self=False)
        record["setup_samples_s"] = setups
    else:
        import layers

        server, _ = launch(scratch / "store-untraced")
        try:
            untraced = Phase().run(server.port, seed, seconds / 2)
        finally:
            server.stop()
        trace_file = scratch / "server-trace.json"
        server, _ = launch(scratch / "store-traced", trace_file)
        try:
            before = serve_counters(server)
            phase = Phase().run(server.port, seed, seconds, rounds=len(untraced.rounds))
            after = serve_counters(server)
        finally:
            server.stop()
        document = json.loads(trace_file.read_text())
        server_spans, server_metrics = layers.merge_snapshots([document["main"], *document["lanes"]])
        client_spans = [
            {"name": "bench.request", "attrs": {"kind": r["kind"]}, "duration_s": r["latency"], "children": []}
            for r in phase.records
        ]
        metrics = layers.reduce_trace(
            client_spans, server_metrics, sum(phase.lane_walls), len(phase.records), lane_spans=server_spans
        )
        counts = {name: after[name] - before[name] for name in after}
        elapsed = [1e3 * r["envelope"]["elapsed_seconds"] for r in phase.records]
        transport = [1e3 * r["latency"] - ms for r, ms in zip(phase.records, elapsed)]
        metrics.update(
            {
                "serve.service_ms_p50": statistics.median(elapsed),
                "serve.transport_ms_p50": statistics.median(transport),
                "serve.cache_hits": counts["cache_hits"],
                "serve.deduplicated": counts["deduplicated"],
                "serve.computed": counts["served"] - counts["cache_hits"] - counts["deduplicated"],
                "collator.passes": counts["batches"],
                "collator.shards_per_pass": counts["requests"] / counts["batches"] if counts["batches"] else 0.0,
                "obs.overhead_ratio": busy_seconds(phase.rounds) / busy_seconds(untraced.rounds),
                "import.api_s": measure_import(),
            }
        )
        layers.write_jsonl(
            trace_path(record),
            {"workload": "serve-mixed", "seed": seed},
            [*client_spans, *server_spans],
            server_metrics,
        )
    record["attempted"] = len(phase.records) + len(phase.failures)
    record["failed"] = len(phase.failures)
    record["failures"] = phase.failures
    record["rounds"] = len(phase.rounds)
    record["problems"] = phase.check(api)
    return metrics
