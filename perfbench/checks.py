"""Output checks computed apart from the program.

Every check returns a list of problems (empty when the output is right), so
a run can report all of them at once and the tests can feed each check a
deliberately corrupted output.  The fusion interval is recomputed here from
first principles rather than through any ``repro`` function.
"""

from __future__ import annotations

import math


def marzullo(lows, highs, f: int):
    """Marzullo's fusion interval of closed intervals, or ``None`` if empty.

    The fusion interval spans every point covered by at least ``n - f``
    intervals.  Coverage only rises at a lower endpoint and only falls after
    an upper endpoint, so its extremes are endpoints of the inputs.
    """
    need = len(lows) - f

    def covered(x: float) -> int:
        return sum(1 for lo, hi in zip(lows, highs) if lo <= x <= hi)

    starts = [lo for lo in lows if covered(lo) >= need]
    ends = [hi for hi in highs if covered(hi) >= need]
    if not starts:
        return None
    return min(starts), max(ends)


def theorem2_bound(lengths, attacked) -> float:
    """Sum of the two widest correct interval lengths (Theorem 2)."""
    correct = sorted((length for i, length in enumerate(lengths) if i not in attacked), reverse=True)
    return correct[0] + (correct[1] if len(correct) > 1 else correct[0])


def check_fusion(result, f: int, label: str) -> list[str]:
    """Recompute every round's fusion interval from the broadcast intervals."""
    problems = []
    for row in range(len(result.fusion_lo)):
        fused = marzullo(list(result.broadcast_lo[row]), list(result.broadcast_hi[row]), f)
        valid = bool(result.valid[row])
        if fused is None:
            if valid:
                problems.append(f"{label}: round {row} fused although no point has n-f support")
        elif not valid or (float(result.fusion_lo[row]), float(result.fusion_hi[row])) != fused:
            problems.append(
                f"{label}: round {row} fused to [{result.fusion_lo[row]!r}, {result.fusion_hi[row]!r}]"
                f" (valid={valid}), recomputed {list(fused)!r}"
            )
        if len(problems) >= 5:
            break
    return problems


def check_rounds(result, lengths, attacked, true_value: float, label: str) -> list[str]:
    """Each valid round contains the true value and obeys Theorem 2."""
    bound = theorem2_bound(lengths, set(attacked))
    problems = []
    for row in range(len(result.fusion_lo)):
        if not result.valid[row]:
            continue
        lo, hi = float(result.fusion_lo[row]), float(result.fusion_hi[row])
        if not lo <= true_value <= hi:
            problems.append(f"{label}: round {row} fusion [{lo}, {hi}] misses the true value {true_value}")
        if hi - lo > bound + 1e-9:
            problems.append(f"{label}: round {row} width {hi - lo} exceeds the Theorem 2 bound {bound}")
        if len(problems) >= 5:
            break
    return problems


def check_identical(result, reference, label: str) -> list[str]:
    """Two engines' round arrays agree bit for bit (NaNs in the same places)."""
    import numpy as np

    problems = []
    for field in ("fusion_lo", "fusion_hi", "valid", "attacker_detected", "broadcast_lo", "broadcast_hi", "flagged"):
        ours, theirs = getattr(result, field), getattr(reference, field)
        if ours.shape != theirs.shape or not np.array_equal(ours, theirs, equal_nan=ours.dtype.kind == "f"):
            problems.append(f"{label}: {field} differs from the scalar oracle")
    return problems


def check_comparison_payload(payload: dict, stealthy: bool, label: str) -> list[str]:
    """Properties of a comparison payload every correct run must have."""
    problems = []
    for case in payload["cases"]:
        # Whichever sensors are attacked, the two widest correct lengths are
        # at most the two widest lengths overall.
        bound = theorem2_bound(case["lengths"], set())
        lossy = "channel" in case
        for row in case["rows"]:
            where = f"{label}/{case['label']}/{row['schedule']}"
            if stealthy and row["detected_fraction"] != 0:
                problems.append(f"{where}: a stealthy attacker was detected ({row['detected_fraction']})")
            if lossy:
                problems.extend(check_lossy_row(case["channel"], len(case["lengths"]), row, where))
                continue
            if row["valid_fraction"] != 1.0:
                problems.append(f"{where}: valid fraction {row['valid_fraction']} on a perfect bus")
            if not row["expected_width"] <= bound:
                problems.append(f"{where}: expected width {row['expected_width']} exceeds the Theorem 2 bound")
    return problems


def check_lossy_row(channel: dict, n: int, row: dict, where: str) -> list[str]:
    """Channel counters against the channel model."""
    problems = []
    samples = row["samples"]
    budget = channel.get("retransmit_budget", 0)
    if row["channel_retransmits"] > budget * samples:
        problems.append(f"{where}: {row['channel_retransmits']} retransmits exceed budget x samples")
    plain_iid = channel.get("model") == "iid" and not channel.get("delay") and budget == 0
    if plain_iid:
        trials = n * samples
        loss = channel["loss"]
        mean = loss * trials
        band = 5.0 * math.sqrt(trials * loss * (1.0 - loss))
        if abs(row["channel_dropped"] - mean) > band:
            problems.append(f"{where}: {row['channel_dropped']} dropped, expected {mean:.0f} +- {band:.0f}")
    return problems


def check_same_payload(payload: dict, reference: dict, label: str) -> list[str]:
    """A served payload equals the runner's payload for the same spec."""
    return [] if payload == reference else [f"{label}: payload differs from the reference run"]


def check_search(payload: dict, estimate: float, std_error: float, label: str) -> list[str]:
    """The best schedule beats the baselines and an independent estimate agrees."""
    problems = []
    best = payload["best"]["expected_width"]
    for baseline in payload["baselines"]:
        if best > baseline["expected_width"]:
            problems.append(
                f"{label}: best width {best} is worse than baseline "
                f"{baseline['schedule_spec']} ({baseline['expected_width']})"
            )
    if abs(best - estimate) > 5.0 * std_error:
        problems.append(
            f"{label}: best width {best} disagrees with the independent estimate "
            f"{estimate} (standard error {std_error})"
        )
    return problems
