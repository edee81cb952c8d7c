"""Per-layer measurement for the traced runs: timers and span-tree reduction.

The program already records spans and counters through ``repro.obs`` for the
engine, runner, store and optimizer.  :func:`install_timers` adds the
benchmark's own spans around public functions that have none yet (the
fusion sweeps, the channel realization, ``Engine.run_many``, spec decoding),
and makes work that runs on a thread without a telemetry scope (the serving
layer's executor threads) record into a scope of its own, one lane per call.

:func:`reduce_trace` turns the collected span trees into the per-layer
metrics: each layer is charged its *self* time (its span's duration minus
the spans nested in it on the same lane), so nothing is counted twice.
Shards that the runner fanned out to a process pool are separate lanes:
their time is busy time on a worker and is not subtracted from the parent,
whose self time is then the fan-out (pool start, pickling, waiting).
"""

from __future__ import annotations

import functools
import threading

#: Span name -> per-layer metric charged with its self time (seconds).
SELF_TIME_METRICS = {
    "runner.plan": "runner.plan_s",
    "runner.merge": "runner.merge_s",
    "runner.shard": "runner.shard_self_s",
    "runner.run_scenario": "runner.fanout_s",
    "engine.prepare": "engine.prepare_s",
    "engine.attack": "engine.attack_s",
    "engine.fuse": "engine.fuse_s",
    "engine.merge": "engine.merge_s",
    "engine.run": "engine.run_self_s",
    "engine.run_many": "engine.run_many_s",
    "kernel.coverage_extremes": "kernel.coverage_extremes_s",
    "kernel.fused_fusion": "kernel.fused_fusion_s",
    "channel.realize": "channel.realize_s",
    "optimize.evaluate": "optimize.evaluate_s",
}

#: Span name -> metric counting its calls.
CALL_METRICS = {
    "runner.shard": "runner.shards",
    "engine.run_many": "engine.run_many_calls",
    "kernel.coverage_extremes": "kernel.coverage_extremes_calls",
    "kernel.fused_fusion": "kernel.fused_fusion_calls",
}

#: Span name -> metric reporting the mean self time per call, in ms.
PER_CALL_MS_METRICS = {
    "store.load": "store.load_ms",
    "store.save": "store.save_ms",
}

#: Already-timed leaf spans that record a request's latency rather than
#: busy time on the lane they are attached to; they are left out of the
#: self-time sums (the serve metrics come from the client instead).
LATENCY_RECORDS = {"serve.request"}


class ThreadLanes:
    """Telemetry snapshots of calls made on threads without a scope."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: list[dict] = []

    def add(self, snapshot: dict) -> None:
        with self._lock:
            self._snapshots.append(snapshot)

    def drain(self) -> list[dict]:
        with self._lock:
            snapshots, self._snapshots = self._snapshots, []
        return snapshots


def _timed(obs, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _laned(obs, lanes: ThreadLanes, fn):
    """Run ``fn`` in the thread's scope, or in a fresh one recorded as a lane."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if obs.enabled():
            return fn(*args, **kwargs)
        with obs.collect() as session:
            try:
                return fn(*args, **kwargs)
            finally:
                lanes.add(session.snapshot())

    return wrapper


def _patch_global(modules, attr: str, replacement) -> None:
    for module in modules:
        if hasattr(module, attr):
            setattr(module, attr, replacement)


def install_timers(lanes: ThreadLanes | None = None) -> None:
    """Wrap the untimed public functions in spans (traced runs only).

    Each function is replaced in every module that imported it by name, so
    the program's own call sites reach the wrapper.  Pool workers forked
    after this call inherit the wrappers.  With ``lanes``, the serving
    layer's executor-thread entry points also record into lanes.
    """
    from repro import obs
    import repro.batch.expectation
    import repro.batch.fuse
    import repro.batch.fused
    import repro.batch.rounds
    import repro.channel
    import repro.channel.model
    import repro.engine.batch
    import repro.engine.scalar
    import repro.runner.runner
    import repro.runner.store
    import repro.scenarios.spec
    import repro.serve.collator
    import repro.serve.service

    kernels = (repro.batch.fuse, repro.batch.rounds, repro.batch.fused, repro.batch.expectation)
    _patch_global(
        kernels,
        "coverage_extremes",
        _timed(obs, "kernel.coverage_extremes", repro.batch.fuse.coverage_extremes),
    )
    _patch_global(
        (repro.batch.fused,),
        "fused_fusion",
        _timed(obs, "kernel.fused_fusion", repro.batch.fused.fused_fusion),
    )
    _patch_global(
        (repro.channel.model, repro.channel, repro.batch.rounds, repro.engine.scalar),
        "realize_channel",
        _timed(obs, "channel.realize", repro.channel.model.realize_channel),
    )
    spec_modules = (
        repro.scenarios.spec,
        repro.runner.runner,
        repro.runner.store,
        repro.serve.service,
    )
    for name in ("spec_from_dict", "spec_key"):
        _patch_global(spec_modules, name, _timed(obs, "spec.decode", getattr(repro.scenarios.spec, name)))
    engine = repro.engine.batch.BatchEngine
    engine.run_many = _timed(obs, "engine.run_many", engine.run_many)
    if lanes is not None:
        store = repro.runner.store.ArtifactStore
        store.load = _laned(obs, lanes, store.load)
        store.save = _laned(obs, lanes, store.save)
        collator = repro.serve.collator.BatchCollator
        collator._simulate = staticmethod(_laned(obs, lanes, collator._simulate))
        service = repro.serve.service.FusionService
        service._execute_blocking = staticmethod(_laned(obs, lanes, service._execute_blocking))


# --------------------------------------------------------------------------
# reduction


def _parallel_shards(node: dict) -> bool:
    """True when ``node``'s shard children ran on a process pool."""
    if node["name"] != "runner.run_scenario":
        return False
    shards = sum(1 for child in node["children"] if child["name"] == "runner.shard")
    return int(node["attrs"].get("workers", 1)) > 1 and shards > 1


class _Totals:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.attack_by_fa: dict[int, float] = {}
        self.lane_self_s = 0.0

    def walk(self, node: dict, on_lane: bool, fa: int | None) -> None:
        name = node["name"]
        if name == "bench.op" and "fa" in node["attrs"]:
            fa = int(node["attrs"]["fa"])
        if name == "engine.attack" and fa is not None:
            self.attack_by_fa[fa] = self.attack_by_fa.get(fa, 0.0) + float(node["duration_s"])
        off_lane = _parallel_shards(node)
        covered = 0.0
        for child in node["children"]:
            detached = off_lane and child["name"] == "runner.shard"
            if child["name"] not in LATENCY_RECORDS and not detached:
                covered += float(child["duration_s"])
            self.walk(child, on_lane and not detached, fa)
        if name in LATENCY_RECORDS:
            return
        own = float(node["duration_s"]) - covered
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        if on_lane:
            self.lane_self_s += own


def _counter(metrics: dict, name: str, **labels) -> float:
    total = 0.0
    for row in metrics.get("counters", ()):
        if row["name"] == name and all(row["labels"].get(k) == v for k, v in labels.items()):
            total += float(row["value"])
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def reduce_trace(
    spans: list[dict],
    metrics: dict,
    wall_s: float,
    ops: int,
    lane_spans: list[dict] = (),
) -> dict[str, float]:
    """Per-layer metrics from a traced phase.

    ``spans`` are the root span trees of the driving lane, whose wall time
    is ``wall_s``; ``lane_spans`` are roots recorded on other lanes (server
    threads), charged as busy time only.  ``metrics`` is the merged
    ``repro.obs`` registry snapshot and ``ops`` the number of operations
    the phase completed.  Returns self times in seconds (``*_s``), per-call
    means in ms (``*_ms``), counts and ratios.
    """
    totals = _Totals()
    for root in spans:
        totals.walk(root, True, None)
    for root in lane_spans:
        totals.walk(root, False, None)
    out: dict[str, float] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = totals.self_s.get(span_name, 0.0)
    for span_name, metric in CALL_METRICS.items():
        out[metric] = float(totals.calls.get(span_name, 0))
    for span_name, metric in PER_CALL_MS_METRICS.items():
        calls = totals.calls.get(span_name, 0)
        out[metric] = 1e3 * _ratio(totals.self_s.get(span_name, 0.0), calls)
    out["spec.decode_ms"] = 1e3 * _ratio(totals.self_s.get("spec.decode", 0.0), ops)
    out["expectation.fa1_s"] = totals.attack_by_fa.get(1, 0.0)
    out["expectation.fa2_s"] = totals.attack_by_fa.get(2, 0.0)
    hits = _counter(metrics, "repro_expectation_memo_total", outcome="hit")
    misses = _counter(metrics, "repro_expectation_memo_total", outcome="miss")
    out["expectation.decisions"] = hits + misses
    out["expectation.memo_hit_ratio"] = _ratio(hits, hits + misses)
    out["engine.samples"] = _counter(metrics, "repro_engine_samples_total")
    out["store.hits"] = _counter(metrics, "repro_store_reads_total", outcome="hit")
    out["store.misses"] = _counter(metrics, "repro_store_reads_total", outcome="miss")
    out["store.writes"] = _counter(metrics, "repro_store_writes_total")
    out["channel.dropped"] = _counter(metrics, "repro_channel_dropped_total")
    out["channel.retransmits"] = _counter(metrics, "repro_channel_retransmits_total")
    memo = _counter(metrics, "repro_optimize_evaluations_total", outcome="memo")
    unique = _counter(metrics, "repro_optimize_evaluations_total", outcome="unique")
    out["optimize.unique_evaluations"] = unique
    out["optimize.memo_hit_ratio"] = _ratio(memo, memo + unique)
    out["trace.unattributed_s"] = wall_s - totals.lane_self_s
    return out


def merge_snapshots(snapshots: list[dict]) -> tuple[list[dict], dict]:
    """Concatenate lane snapshots: ``(root spans, merged metrics)``."""
    from repro.obs import Registry

    registry = Registry()
    spans: list[dict] = []
    for snapshot in snapshots:
        spans.extend(snapshot.get("spans", ()))
        registry.merge(snapshot.get("metrics", {}))
    return spans, registry.snapshot()


def write_jsonl(path, meta: dict, spans: list[dict], metrics: dict):
    """Write spans and metrics in the ``repro.obs`` JSONL trace schema."""
    from repro.obs import Collection, Session

    collection = Collection()
    collection.roots = list(spans)
    collection.registry.merge(metrics)
    return Session(collection).write_jsonl(path, meta=meta)
