"""OEF benchmark: user-path workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, a table
    python3 perfbench/run.py --all --smoke           # tiny sizes, seconds

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced and prints the per-layer metrics, with
the self-time tree on standard error.  The last line of standard output
is always the result object; the line before it (``{"perfbench": ...}``)
records the workload, seed, cores, fingerprints and diagnostics.
``--corrupt-reference`` is the negative control: serve gets one wrong
reference answer, fleet hands its first PE check a half-used
allocation, and the run must report a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("serve-mix", "fleet-hetero")
#: Fleet processes started per run; ``setup_s`` is the median of their set-ups.
FLEET_SETUPS = 5
#: Fleets one run replays at ``--seconds 16`` (other values scale the
#: count); at HEAD on a 2-core host a fleet takes about 1.3 s.
FLEET_UNITS = 12


# -- fleet-hetero -------------------------------------------------------------------
def _fleet_process(seed, units, mode, extra=()):
    """Start a fleet worker, time it to READY, collect its RESULT, reap it.

    Unpinned: a lone single-threaded process does better free to move off
    a core the host is busy on (pinned, ops_per_s spread over five seeds
    rose from 0.07 to 0.16).
    """
    child = common.Child(
        [
            sys.executable, os.path.join(HERE, "fleet_worker.py"),
            "--seed", str(seed), "--units", str(units), "--mode", mode, *extra,
        ]
    )
    try:
        child.wait_for("READY")
        setup = time.perf_counter() - child.spawned
        result = None
        if mode != "setup":
            result = json.loads(child.wait_for("RESULT ")[len("RESULT "):])
    except BaseException:
        child.kill()
        raise
    if child.reap() != 0:
        raise RuntimeError(f"fleet {mode} process failed")
    return setup, result, child.peak_rss_mb


def _fleet_once(seed, units, tmpdir, flags, trace_out=None):
    extra = ["--tmpdir", tmpdir, *flags]
    if trace_out:
        extra += ["--trace-out", trace_out]
    return _fleet_process(seed, units, "run", extra)


def _fleet_check(units_out):
    """(attempted, failed): regions run plus checked windows, against
    regions that raised plus checked windows that violate PE or SI."""
    attempted = sum(u.get("regions", 0) + u.get("checked_windows", 0) for u in units_out)
    failed = sum(unit["failures"] for unit in units_out)
    return max(attempted, 1), failed


def run_fleet(seed, seconds, trace, corrupt, smoke, tmpdir):
    units = max(1, round(FLEET_UNITS * seconds / 16))
    flags = ["--smoke"] if smoke else []
    record = {"units": units}
    if not trace:
        setups = [
            _fleet_process(seed, units, "setup", flags)[0]
            for _ in range(FLEET_SETUPS - 1)
        ]
        run_flags = flags + (["--corrupt-reference"] if corrupt else [])
        setup, result, rss = _fleet_once(seed, units, tmpdir, run_flags)
        setups.append(setup)
        attempted, failed = _fleet_check(result["units"])
        rounds = sum(unit.get("rounds", 0) for unit in result["units"])
        metrics = {
            "setup_s": common.median(setups),
            "peak_rss_mb": rss,
            "p99_ms": 1e3 * common.quantile(result["rounds"], 0.99),
            "miss_p50_ms": 1e3 * common.median(result["cold_rounds"]),
            "ops_per_s": rounds / result["wall"],
            # region means weighted by region rounds
            "sim_throughput": sum(u.get("throughput_sum", 0.0) for u in result["units"])
            / rounds,
            "sim_envy": sum(u.get("envy_sum", 0.0) for u in result["units"]) / rounds,
        }
        record.update(
            round_p50_ms=1e3 * common.median(result["rounds"]),
            setup_samples=setups,
            rounds=rounds,
            cold_rounds=len(result["cold_rounds"]),
            units_detail=result["units"],
        )
        return metrics, attempted, failed, record

    import layers
    import tracing

    _, plain, _ = _fleet_once(seed, units, tmpdir, flags)
    spans_path = os.path.join(tmpdir, "spans.json")
    run_flags = flags + (["--corrupt-reference"] if corrupt else [])
    _, traced, _ = _fleet_once(seed, units, tmpdir, run_flags, trace_out=spans_path)
    attempted, failed = _fleet_check(traced["units"])
    if [u.get("fingerprint") for u in plain["units"]] != [
        u.get("fingerprint") for u in traced["units"]
    ]:
        failed += 1  # tracing must not change what the program decides
    with open(spans_path) as handle:
        dump = json.load(handle)
    analysis = tracing.analyse(dump, traced["wall"])
    metrics = layers.per_layer(
        analysis,
        dump,
        overhead_ratio=traced["wall"] / plain["wall"],
        fleet_windows={
            "checked": sum(u.get("checked_windows", 0) for u in traced["units"]),
            "unchecked": sum(u.get("unchecked_windows", 0) for u in traced["units"]),
        },
    )
    record.update(spans=layers.detail(analysis), tree=analysis["tree"],
                  unattributed_s=analysis["unattributed"],
                  layer_self_s=analysis["layer_self"])
    return metrics, attempted, failed, record


# -- serve-mix ------------------------------------------------------------------------
def run_serve(seed, seconds, trace, corrupt, smoke, tmpdir):
    import serve_mix

    setups = 2 if smoke else serve_mix.SETUPS
    if not trace:
        m = serve_mix.measure(seed, seconds, corrupt, setups=setups)
        metrics = {
            "setup_s": common.median(m["setup_times"]),
            "peak_rss_mb": m["peak_rss_mb"],
            "p99_ms": 1e3 * common.median(m["blocks"]["p99"]),
            "miss_p50_ms": 1e3 * common.median(m["blocks"]["miss_p50"]),
            "ops_per_s": m["ops_per_s"],
            "sim_throughput": m["sim_throughput"],
            "sim_envy": m["sim_envy"],
        }
        record = {
            "setup_samples": m["setup_times"],
            "p50_ms": 1e3 * common.median(m["blocks"]["p50"]),
            "requests": len(m["latencies"]),
            "miss_requests": len(m["miss_latencies"]),
            "loadgen.lag.p99_ms": 1e3 * common.quantile(m["lags"], 0.99),
            "saturation_chunks": m["saturation_chunks"],
            "blocks_ms": {
                name: [1e3 * value for value in values]
                for name, values in m["blocks"].items()
            },
            "connections": m["connections"],
            "timed_s": m["timed_s"],
        }
        return metrics, m["attempted"], m["failed"], record

    import layers
    import tracing

    plain = serve_mix.measure(seed, seconds, False, setups=1, with_saturation=False)
    spans_path = os.path.join(tmpdir, "spans.json")
    traced = serve_mix.measure(
        seed, seconds, corrupt, spans_path=spans_path, setups=1, with_saturation=False
    )
    with open(spans_path) as handle:
        dump = json.load(handle)
    # many requests overlap in one wall second, so the accounting explains
    # the summed client-observed request time instead
    analysis = tracing.analyse(dump, traced["client_seconds"])
    shards = traced["server_metrics"].get("shards", [])
    lags = traced["lags"]
    metrics = layers.per_layer(
        analysis,
        dump,
        overhead_ratio=common.median(traced["latencies"])
        / common.median(plain["latencies"]),
        requests=traced["requests"],
        late_share=sum(1 for lag in lags if lag > 1e-3) / len(lags),
        dispatched=[row["dispatched"] for row in shards],
    )
    record = {
        "spans": layers.detail(analysis),
        "tree": analysis["tree"],
        "unattributed_s": analysis["unattributed"],
        "layer_self_s": analysis["layer_self"],
        "server.queue_wait.p50_ms": 1e3 * common.median(
            dump["samples"].get("server.queue_wait", [0.0])
        ),
        "server.queue_wait.p99_ms": 1e3 * common.quantile(
            dump["samples"].get("server.queue_wait", [0.0]), 0.99
        ),
        "loadgen.lag.p99_ms": 1e3 * common.quantile(lags, 0.99),
    }
    attempted = plain["attempted"] + traced["attempted"]
    return metrics, attempted, plain["failed"] + traced["failed"], record


# -- entry points ---------------------------------------------------------------------
def run_workload(args) -> int:
    import layers

    tmpdir = common.make_tmpdir(args.workload)
    steal = common.host_steal_s()
    try:
        common.precompile()
        runner = run_serve if args.workload == "serve-mix" else run_fleet
        metrics, attempted, failed, record = runner(
            args.seed, args.seconds, bool(args.trace), args.corrupt_reference,
            args.smoke, tmpdir,
        )
    finally:
        common.remove_tmpdir(tmpdir)
    tree = record.pop("tree", None)
    if tree:
        common.log(f"self-time tree, {args.workload} (seed {args.seed}):\n{tree}")
    record.update(workload=args.workload, seed=args.seed, cores=common.cores(),
                  host_steal_s=common.host_steal_s() - steal,
                  seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                  error_rate=failed / attempted if attempted else 0.0)
    common.emit_record(record)
    common.emit_result(
        failed == 0,
        attempted,
        failed,
        {name: common.metric(value, layers.UNITS[name]) for name, value in metrics.items()},
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows = []
    for workload in WORKLOADS:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            argv.append("--smoke")
        if args.corrupt_reference:
            argv.append("--corrupt-reference")
        done = subprocess.run(argv, cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload}: failed (exit {done.returncode})")
            return 1
        record = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
        rows.append((workload, record, result))
    print(f"{'workload':<14} {'metric':<34} {'value':>14} {'unit':<6} cores seed")
    for workload, record, result in rows:
        for name, entry in result["metrics"].items():
            print(
                f"{workload:<14} {name:<34} {entry['value']:>14.6g} "
                f"{entry['unit']:<6} {record['cores']:>5} {record['seed']}"
            )
        print(
            f"{workload:<14} {'error_rate':<34} {record['error_rate']:>14.6g} "
            f"{'ratio':<6} {record['cores']:>5} {record['seed']}   "
            f"({result['failed']} failed of {result['attempted']})"
        )
    return 0 if all(result["correct"] for _, _, result in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the plumbing, measures nothing")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="negative control: one wrong reference answer")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    common.require_source()
    common.add_source_path()
    if args.smoke:
        args.seconds = min(args.seconds, 1.5)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
