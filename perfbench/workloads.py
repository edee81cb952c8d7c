"""The in-process workloads: what each operation runs and how it is checked.

An operation is one call a user waits for: one ``repro.api.run`` of a
scenario, or one ``repro.api.optimize`` search.  A round is the workload's
fixed list of operations; every run attempts whole rounds, and round ``r``
of seed ``s`` always builds the same specs.  The seed reaches the program
only as the ``seed`` field of those specs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

#: Per-row Monte-Carlo budgets of ``paper-exact`` (samples per schedule).
#: Sized so that rows 1-6 (fa=1) and rows 7-8 (fa=2) each take about half of
#: a round on the reference machine.
EXACT_BUDGETS = {1: 600, 2: 48}

#: Scenarios of ``paper-mc``, run at their registered engines and budgets.
MC_SCENARIOS = tuple(f"table1-row{i}" for i in range(1, 9)) + (
    "sweep-multi-fault",
    "sweep-lossy-iid",
    "sweep-lossy-burst",
)

#: Rounds re-run per channel-free case for the fusion recomputation.
RERUN_SAMPLES = 100
#: Rounds per schedule compared against the scalar oracle, by fa.
ORACLE_SAMPLES = {1: 20, 2: 4}


def derived_seed(*parts: int) -> int:
    """A spec seed from the workload seed and the operation's coordinates."""
    return int(np.random.SeedSequence([int(part) for part in parts]).generate_state(1)[0])


@dataclass
class Op:
    """One timed call; ``run`` returns ``(Monte-Carlo rounds, output)``."""

    label: str
    run: Callable[[], tuple[int, object]]
    attrs: dict = field(default_factory=dict)


def comparison_rounds(spec) -> int:
    return spec.samples * sum(len(case.schedules) for case in spec.cases)


class PaperExact:
    """All eight Table I rows under the exact problem-(2) attacker."""

    name = "paper-exact"

    def __init__(self, api, scratch) -> None:
        from repro.scenarios import get_scenario

        self.api = api
        self.base = get_scenario("table1-expectation")

    def spec(self, seed: int, round_index: int, row: int):
        case = self.base.cases[row]
        budget = EXACT_BUDGETS[case.fa]
        return dataclasses.replace(
            self.base,
            name=f"table1-expectation-row{row + 1}",
            cases=(case,),
            samples=budget,
            shard_samples=min(budget, self.base.shard_samples),
            seed=derived_seed(seed, round_index, row),
        )

    def ops(self, seed: int, round_index: int) -> list[Op]:
        def op(spec):
            return lambda: (comparison_rounds(spec), self.api.run(spec, workers=1, store=None).payload)

        return [
            Op(case.label, op(self.spec(seed, round_index, row)), {"fa": case.fa})
            for row, case in enumerate(self.base.cases)
        ]

    def check(self, outputs, seed: int) -> list[str]:
        from repro.engine import get_engine

        problems = []
        for label, payload in outputs:
            problems += checks.check_comparison_payload(payload, stealthy=True, label=label)
        batch, scalar = get_engine("batch"), get_engine("scalar")
        for row, case in enumerate(self.base.cases):
            config = case.comparison_config()
            schedule = case.schedule_objects()[1]
            samples = ORACLE_SAMPLES[case.fa]
            ours = batch.run_rounds(config, schedule, case.attack, None, samples, rng(seed, row))
            oracle = scalar.run_rounds(config, schedule, case.attack, None, samples, rng(seed, row))
            label = f"oracle/{case.label}"
            problems += checks.check_identical(ours, oracle, label)
            problems += rerun_checks(ours, case, label)
        return problems


def rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng(derived_seed(seed, 7919, *parts))


def rerun_checks(result, case, label: str) -> list[str]:
    config = case.comparison_config()
    return checks.check_fusion(result, config.resolved_f, label) + checks.check_rounds(
        result, case.lengths, config.resolved_attacked, config.true_value, label
    )


class PaperMC:
    """The paper's Table I rows and the fusion sweeps as users run them."""

    name = "paper-mc"
    workers = 2

    def __init__(self, api, scratch) -> None:
        self.api = api
        self.scratch = scratch
        self.stores = 0

    def spec(self, seed: int, round_index: int, index: int):
        from repro.scenarios import get_scenario

        base = get_scenario(MC_SCENARIOS[index])
        return dataclasses.replace(base, seed=derived_seed(seed, round_index, index))

    def ops(self, seed: int, round_index: int) -> list[Op]:
        # A fresh store per round: every scenario is computed and written.
        self.stores += 1
        store = self.scratch / f"store-{self.stores}"

        def op(spec):
            return lambda: (
                comparison_rounds(spec),
                self.api.run(spec, workers=self.workers, store=store).payload,
            )

        return [
            Op(MC_SCENARIOS[index], op(self.spec(seed, round_index, index)))
            for index in range(len(MC_SCENARIOS))
        ]

    def check(self, outputs, seed: int) -> list[str]:
        from repro.engine import get_engine

        problems = []
        for label, payload in outputs:
            problems += checks.check_comparison_payload(payload, stealthy=True, label=label)
        for index in range(len(MC_SCENARIOS)):
            spec = self.spec(seed, 0, index)
            engine = get_engine(spec.engine)
            for case_index, case in enumerate(spec.cases):
                if case.channel is not None:
                    continue
                for position, schedule in enumerate(case.schedule_objects()):
                    result = engine.run_rounds(
                        case.comparison_config(),
                        schedule,
                        case.attack,
                        None,
                        RERUN_SAMPLES,
                        rng(seed, index, case_index, position),
                    )
                    problems += rerun_checks(result, case, f"rerun/{spec.name}/{case.label}")
        return problems


class OptimizeAnneal:
    """``repro.api.optimize("optimize-anneal-7")`` end to end."""

    name = "optimize-anneal"

    def __init__(self, api, scratch) -> None:
        from repro.scenarios import get_scenario

        self.api = api
        self.base = get_scenario("optimize-anneal-7")

    def ops(self, seed: int, round_index: int) -> list[Op]:
        spec = dataclasses.replace(self.base, seed=derived_seed(seed, round_index))

        def run():
            payload = self.api.optimize(spec, store=None).payload
            return payload["counters"]["rounds_simulated"], payload

        return [Op(spec.name, run)]

    def check(self, outputs, seed: int) -> list[str]:
        from repro.engine import get_engine
        from repro.scenarios.spec import schedule_from_spec

        problems = []
        case = self.base.case
        for index, (label, payload) in enumerate(outputs):
            schedule = payload["best"]["schedule"]
            samples = self.base.samples
            estimate = self.api.compare(
                case.lengths, case.fa, schedules=[schedule], samples=samples, rng=rng(seed, index, 1)
            ).rows[0].expected_width
            widths = get_engine("batch").run_rounds(
                case.comparison_config(),
                schedule_from_spec(schedule),
                case.attack,
                None,
                samples,
                rng(seed, index, 2),
            ).widths
            std_error = float(np.std(widths)) * np.sqrt(2.0 / samples)
            problems += checks.check_search(payload, estimate, std_error, label)
        return problems


IN_PROCESS = {workload.name: workload for workload in (PaperExact, PaperMC, OptimizeAnneal)}
