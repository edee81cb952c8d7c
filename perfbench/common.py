"""Helpers shared by the benchmark's workloads: paths, fresh interpreters, stats."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh-interpreter set-ups measured per run (the median is reported).
SETUP_REPEATS = 7
#: Iterations of the host reference loop.
REF_LOOP = 1_000_000

SETUP_CODE = (
    "import repro.api\n"
    "from repro.scenarios import available_scenarios\n"
    "available_scenarios()\n"
    "print('ready', flush=True)\n"
)
IMPORT_CODE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import repro.api\n"
    "print(time.perf_counter() - started, flush=True)\n"
)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def ref_loop_ms() -> float:
    """A fixed pure-Python loop, not program code: the host's speed now."""
    started = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return (time.perf_counter() - started) * 1e3


def fresh_interpreter(code: str, timeout: float = 60.0) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter: ``(seconds to first line, line)``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=program_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"fresh interpreter failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed, line.strip()


def measure_setup() -> list[float]:
    return [fresh_interpreter(SETUP_CODE)[0] for _ in range(SETUP_REPEATS)]


def measure_import() -> float:
    return statistics.median(float(fresh_interpreter(IMPORT_CODE)[1]) for _ in range(3))


def quantile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated (``statistics.quantiles``)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(include_self: bool) -> float:
    """Largest resident set of this process or any waited-for child (MB)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return max(children, own) / 1024.0


def trace_path(record: dict) -> Path:
    return OUT / f"{record['workload']}-seed{record['seed']}.trace.jsonl"


@dataclass
class RoundTally:
    """One round of a timed phase: operations, Monte-Carlo rounds, wall time."""

    started: float = field(default_factory=time.perf_counter)
    ops: int = 0
    mc_rounds: int = 0
    wall: float = 0.0


def busy_seconds(rounds: list[RoundTally]) -> float:
    return sum(tally.wall for tally in rounds)


def round_rates(rounds: list[RoundTally]) -> dict[str, float]:
    """Per-round rates, each the median over the run's rounds.

    The host's speed drifts by tens of percent from second to second; a
    median over rounds ignores the rounds a slow spell hit.
    """
    return {
        "rounds_per_s": statistics.median(t.mc_rounds / t.wall for t in rounds),
        "req_per_s": statistics.median(t.ops / t.wall for t in rounds),
        "search_s": statistics.median(t.wall for t in rounds),
    }
