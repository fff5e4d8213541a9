"""Workload process for ``fleet-hetero``.

Run as ``python3 perfbench/fleet_worker.py --seed N --units K --mode
setup|run``.  The process prints ``READY`` once its imports are done and
every recipe is materialised (the end of ``setup_s``), then, in ``run``
mode, one ``RESULT`` line of JSON.  ``--trace-out PATH`` installs the
layer wrappers first and writes the spans to ``PATH`` at exit.

A run replays ``K`` fleets, each a separate recipe seeded from the run
seed, so one run's figures average over several recipes instead of
resting on one recipe's luck.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

_now = time.perf_counter

SCHEDULER = "oef-coop"
#: 4 regions of mixed GPU generations.  Some solves exceed 64 users
#: (weighted tenants are replicated), so the traced run also covers the
#: cooperative cutting-plane path (``IncrementalLP``).
SIZES = {"rounds": 48, "regions": 4, "tenants_per_region": 8}
#: ``--smoke`` sizes: every code path, a fraction of a second per fleet.
SMOKE_SIZES = {"rounds": 12, "regions": 2, "tenants_per_region": 4}
WINDOW_ROUNDS = 6


def unit_seeds(seed: int, units: int):
    """Distinct recipe seeds for one run (never shared between run seeds)."""
    return [seed * 1000 + index for index in range(units)]


class RoundClock:
    """Round sink that times each scheduling round and spots cold ones.

    Costs one clock read per round.  A round is *cold* when the
    simulator's decision cache missed and the scheduler solved.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.simulator = None
        self.last = 0.0
        self.cold_seen = 0
        self.rounds = []
        self.cold_rounds = []

    def start(self, simulator) -> None:
        self.simulator = simulator
        self.cold_seen = simulator.warm_stats.cold_solves
        self.last = _now()

    def __call__(self, record) -> None:
        now = _now()
        elapsed, self.last = now - self.last, now
        self.rounds.append(elapsed)
        cold = self.simulator.warm_stats.cold_solves
        if cold != self.cold_seen:
            self.cold_seen = cold
            self.cold_rounds.append(elapsed)
        if self.inner is not None:
            self.inner(record)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


def clocked_runner_class(clocks):
    """A ``ScenarioRunner`` subclass that appends each run's clock to ``clocks``."""
    from repro.scenarios.runner import ScenarioRunner

    class ClockedRunner(ScenarioRunner):
        """``ScenarioRunner`` whose round sink is a :class:`RoundClock`."""

        def __init__(self, *args, round_sink=None, **kwargs):
            self.clock = RoundClock(round_sink)
            clocks.append(self.clock)
            super().__init__(*args, round_sink=self.clock, **kwargs)

        def build_simulator(self, script=None, metrics=None):
            simulator = super().build_simulator(script, metrics)
            self.clock.start(simulator)
            return simulator

    return ClockedRunner


def setup(seeds, sizes):
    from repro.fleet.library import make_fleet_scenario

    recipes = []
    for seed in seeds:
        fleet = make_fleet_scenario("hetero-generations", seed=seed, **sizes)
        fleet.materialize()
        recipes.append(fleet)
    return recipes


def corrupt_first_pe_check() -> None:
    """Negative control: hand the first PE check a wasteful allocation."""
    from repro.core.allocation import Allocation
    from repro.fleet import rebalance

    original = rebalance.check_pareto_efficiency
    state = {"done": False}

    def corrupted(allocation, *args, **kwargs):
        if not state["done"]:
            state["done"] = True
            allocation = Allocation(
                allocation.matrix * 0.5,
                allocation.instance,
                allocator_name=allocation.allocator_name,
            )
        return original(allocation, *args, **kwargs)

    rebalance.check_pareto_efficiency = corrupted


def run(recipes, tmpdir, clocks):
    from repro.fleet import simulator as fleet_simulator

    # region replays construct their runner by this module-level name
    fleet_simulator.ScenarioRunner = clocked_runner_class(clocks)
    units = []
    started = _now()
    for index, fleet in enumerate(recipes):
        sink = os.path.join(tmpdir, f"fleet-{fleet.seed}-{index}.jsonl")
        unit = {"seed": fleet.seed, "failures": 0}
        try:
            result = fleet_simulator.FleetSimulator(
                fleet,
                SCHEDULER,
                backend="serial",
                window_rounds=WINDOW_ROUNDS,
                metrics_path=sink,
            ).run()
        except Exception as exc:  # noqa: BLE001 - a region failure is a result
            unit.update(failures=fleet.num_regions, error=repr(exc))
            units.append(unit)
            continue
        quota = result.quota
        unit.update(
            fingerprint=result.fingerprint(),
            rounds=result.total_rounds,
            throughput_sum=sum(
                r.mean_throughput * r.rounds for r in result.regions
            ),
            envy_sum=sum(r.mean_envy * r.rounds for r in result.regions),
            regions=len(result.regions),
            checked_windows=quota.checked_windows,
            unchecked_windows=len(quota.windows) - quota.checked_windows,
            failures=result.fairness_violations,
        )
        units.append(unit)
    return units, _now() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--tmpdir", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    recipes = setup(
        unit_seeds(args.seed, args.units), SMOKE_SIZES if args.smoke else SIZES
    )
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.corrupt_reference:
        corrupt_first_pe_check()
    clocks = []
    units, wall = run(recipes, args.tmpdir or HERE, clocks)
    rounds = [t for clock in clocks for t in clock.rounds]
    cold = [t for clock in clocks for t in clock.cold_rounds]
    if tracer is not None:
        tracer.dump(args.trace_out, {"wall": wall})
    print(
        "RESULT "
        + json.dumps(
            {"units": units, "wall": wall, "rounds": rounds, "cold_rounds": cold}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
