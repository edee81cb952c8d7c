"""Compare two sets of run records: ``run.py --compare BEFORE AFTER``.

Each directory holds the ``*.run.json`` records of untraced runs (copy
``perfbench/out/*.run.json`` aside after each set).  For every workload and
end-to-end metric the table lists both sets' medians and quartiles, and
flags a move only when it exceeds both the metric's bound in
``BENCHMARK.json`` and the first set's own quartile spread.  The exit code
is 1 when any metric got worse by such a move.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_records(directory: Path) -> dict[str, list[dict]]:
    records: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.run.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["workload"], []).append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(config: dict, before: dict, after: dict) -> tuple[list[list[str]], bool]:
    rows = []
    worse_any = False
    for workload in (row["name"] for row in config["workloads"]):
        for metric in config["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in before.get(workload, ()) if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in after.get(workload, ()) if name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            spread = (qa[2] - qa[0]) / qa[1]
            moved = abs(change) > metric["bound"] and abs(change) > spread
            worse = change > 0 if metric["better"] == "lower" else change < 0
            verdict = ("WORSE" if worse else "better") if moved else ""
            worse_any |= moved and worse
            rows.append(
                [
                    workload,
                    name,
                    f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a)}",
                    f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b)}",
                    f"{change:+.1%}",
                    f"{metric['bound']:.0%} / {spread:.1%}",
                    verdict,
                ]
            )
    return rows, worse_any


def main(config_path: Path, before: Path, after: Path) -> int:
    config = json.loads(config_path.read_text())
    rows, worse = compare(config, load_records(before), load_records(after))
    header = ["workload", "metric", "before median [q1, q3]", "after median [q1, q3]", "change", "bound / spread", ""]
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if worse else 0
