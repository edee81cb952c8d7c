"""The repository's benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare perfbench/out/before perfbench/out/after

Each run starts from a fresh interpreter, measures set-up, runs whole rounds
of the workload's operations for ``--seconds``, checks every output, writes
a run record under ``perfbench/out/`` and prints one JSON line last:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import serving  # noqa: E402
from common import (  # noqa: E402
    OUT,
    ROOT,
    SRC,
    RoundTally,
    busy_seconds,
    measure_import,
    measure_setup,
    peak_rss_mb,
    ref_loop_ms,
    round_rates,
    trace_path,
)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import importlib.util

    import numpy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
    }


# --------------------------------------------------------------------------
# the in-process workloads


class Phase:
    """Whole rounds of a workload's operations, timed."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.rounds: list[RoundTally] = []
        self.outputs: list[tuple[str, object]] = []
        self.failures: list[str] = []

    @property
    def ops(self) -> int:
        return sum(tally.ops for tally in self.rounds) + len(self.failures)

    def run(self, workload, seed: int, seconds: float, rounds: int | None = None) -> "Phase":
        from repro import obs

        started = time.perf_counter()
        while rounds is None or len(self.rounds) < rounds:
            tally = RoundTally()
            for op in workload.ops(seed, len(self.rounds)):
                op_started = time.perf_counter()
                try:
                    with obs.span("bench.op", label=op.label, **op.attrs):
                        mc_rounds, output = op.run()
                except Exception as error:  # noqa: BLE001 - counted as a failed operation
                    self.failures.append(f"{op.label}: {type(error).__name__}: {error}")
                    continue
                self.latencies.setdefault(op.label, []).append(time.perf_counter() - op_started)
                tally.ops += 1
                tally.mc_rounds += mc_rounds
                self.outputs.append((op.label, output))
            tally.wall = time.perf_counter() - tally.started
            self.rounds.append(tally)
            if rounds is None and time.perf_counter() - started >= seconds:
                break
        return self

    def end_to_end(self) -> dict[str, float]:
        # Fewer than forty operations per run is too few for a tail
        # percentile, so each operation's latency is its median over the
        # rounds; p50 is the middle operation and p99 the slowest one.
        per_op = [statistics.median(values) for values in self.latencies.values()]
        return {
            **round_rates(self.rounds),
            "latency_ms_p50": 1e3 * statistics.median(per_op),
            "latency_ms_p99": 1e3 * max(per_op),
        }


def run_in_process(name: str, seed: int, seconds: float, trace: bool, scratch: Path, record: dict) -> dict:
    import repro.api as api
    from workloads import IN_PROCESS

    workload = IN_PROCESS[name](api, scratch)
    if not trace:
        setups = measure_setup()
        phase = Phase().run(workload, seed, seconds)
        metrics = phase.end_to_end()
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb(include_self=True)
        record["setup_samples_s"] = setups
    else:
        from repro import obs

        import layers

        # Untraced and traced passes over the same rounds share the run time.
        untraced = Phase().run(workload, seed, seconds / 2)
        layers.install_timers()
        with obs.collect() as session:
            started = time.perf_counter()
            phase = Phase().run(workload, seed, seconds, rounds=len(untraced.rounds))
            wall = time.perf_counter() - started
        snapshot = session.snapshot()
        metrics = layers.reduce_trace(snapshot["spans"], snapshot["metrics"], wall, phase.ops)
        metrics["obs.overhead_ratio"] = busy_seconds(phase.rounds) / busy_seconds(untraced.rounds)
        metrics["import.api_s"] = measure_import()
        metrics["optimize.rounds_simulated"] = float(
            sum(output["counters"]["rounds_simulated"] for _, output in phase.outputs if "counters" in output)
        )
        session.write_jsonl(trace_path(record), meta={"workload": name, "seed": seed})
    record["attempted"] = phase.ops
    record["failed"] = len(phase.failures)
    record["failures"] = phase.failures
    record["rounds"] = len(phase.rounds)
    record["problems"] = workload.check(phase.outputs, seed)
    asked = sum(tally.mc_rounds for tally in phase.rounds)
    if trace and metrics["engine.samples"] != asked:
        record["problems"].append(f"engines simulated {metrics['engine.samples']:.0f} rounds, {asked} were asked for")
    return metrics


# --------------------------------------------------------------------------
# entry points


def run(args) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    # serve-mixed runs on request but is left out of BENCHMARK.json (README).
    names = [row["name"] for row in config["workloads"]] + ["serve-mixed"]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(names)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import repro.api
    except ImportError as error:
        print(f"cannot import the program from {SRC}: {error}", file=sys.stderr)
        return 2
    if not Path(repro.api.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported repro from {repro.api.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "fingerprint": fingerprint(),
        "host_ref_loop_ms_before": ref_loop_ms(),
    }
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.workload == "serve-mixed":
            metrics = serving.run(args.seed, args.seconds, bool(args.trace), scratch, record)
        else:
            metrics = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace), scratch, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["host_ref_loop_ms_after"] = ref_loop_ms()
    if args.trace:
        record["trace_path"] = str(trace_path(record).relative_to(ROOT))
        metrics["host.ref_loop_ms"] = (record["host_ref_loop_ms_before"] + record["host_ref_loop_ms_after"]) / 2
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    if args.trace:
        if args.workload == "serve-mixed":
            wanted = wanted + serving.LAYER_METRICS
        # A layer the workload never reaches did no work: zero time, zero count.
        metrics = {row["name"]: metrics.get(row["name"], 0.0) for row in wanted}
    record["metrics"] = {row["name"]: {"value": float(metrics[row["name"]]), "unit": row["unit"]} for row in wanted}
    record["correct"] = not record["problems"]
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    suffix = "trace" if args.trace else "run"
    (OUT / f"{args.workload}-seed{args.seed}.{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two directories of run records")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(ROOT / "BENCHMARK.json", *map(Path, args.compare))
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
