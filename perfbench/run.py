"""Repository benchmark: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures-default --seed 20140601 \\
        --seconds 10 --trace 0

The workload is set up SETUP_REPEATS times (set-up time is the import
time plus the median of those builds) and then run in whole rounds
until ``--seconds`` have passed, at least once.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` additionally runs one traced
round, prints the per-layer metrics and writes every span to
``perfbench/out/trace-<workload>-<seed>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The process exits 2 without a result when
the program under test is missing.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOADS = ("figures-default", "mbpta-r1000", "service-adaptive")
LAYERS = ("kernels", "pta", "analysis", "simulator", "cli", "service",
          "adaptive")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "sim_minstr_per_s": "Minstr/s",
    "cold_submit_s": "s",
    "cached_submit_ms": "ms",
}

PER_LAYER = {
    "workloads.trace_build_s": "s",
    "plancache.compile_s": "s",
    "plancache.compiles": "count",
    "kernels.sweep_s": "s",
    "kernels.efl_sweep_s": "s",
    "kernels.cp_sweep_s": "s",
    "kernels.lane_runs": "count",
    "kernels.lane_minstr_per_s": "Minstr/s",
    "kernels.chains": "count",
    "kernels.segments": "count",
    "kernels.rss_growth_mb": "MB",
    "simulator.deploy_s": "s",
    "simulator.deploy_runs": "count",
    "simulator.minstr_per_s": "Minstr/s",
    "analysis.partition_search_s": "s",
    "cli.fig3_tiny_s": "s",
    "pta.estimate_s": "s",
    "pta.fits": "count",
    "adaptive.runs_executed": "count",
    "adaptive.runs_saved": "count",
    "adaptive.runs_speculated_waste": "count",
    "adaptive.useful_ratio": "ratio",
    "service.fingerprint_ms": "ms",
    "service.store_get_ms": "ms",
    "service.store_bytes": "bytes",
    "service.queue_wait_s": "s",
    "service.store_put_ms": "ms",
    "service.journal_bytes": "bytes",
    "service.journal_replay_s": "s",
    "service.cached_submit_tail_ms": "ms",
    "trace.wall_s": "s",
    "trace.layer_self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
    **{f"trace.self_{layer}_s": "s" for layer in LAYERS},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20140601)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, workdir: Path) -> dict:
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - START
    if args.workload == "figures-default":
        workload = workloads.FiguresDefault(args.seed)
    elif args.workload == "mbpta-r1000":
        workload = workloads.MbptaR1000(args.seed)
    else:
        workload = workloads.ServiceAdaptive(args.seed, workdir)

    builds: list = []
    setups: list = []

    def setup():
        start = time.perf_counter()
        state = workload.setup()
        builds.append(time.perf_counter() - start)
        setups.append((state.trace_build_s, state.compile_s))
        return state

    for _ in range(SETUP_REPEATS - 1):
        workload.close(setup())
    checks = workloads.Checks()
    attempted = failed = 0
    rounds = []
    state = setup()
    deadline = time.perf_counter() + args.seconds

    def play(state, tracer):
        nonlocal attempted, failed
        outcome = workload.run_round(state, tracer)
        done = workload.finish(state, outcome, checks, tracer)
        workload.close(state)
        leftovers = workloads.leftover_processes()
        checks.expect(not leftovers, f"left running: {leftovers}")
        attempted += workload.operations
        failed += done["failed"] + (1 if leftovers else 0)
        print(f"round: wall {outcome['wall']:.3f}s", file=sys.stderr)
        return outcome["wall"], done["metrics"]

    quiet = Tracer(enabled=False)
    while True:
        rounds.append(play(state, quiet))
        state = None  # release the round's results before the next set-up
        if time.perf_counter() >= deadline:
            break
        state = setup()

    walls = [wall for wall, _metrics in rounds]
    cold = [x for _w, m in rounds for x in m["cold_latencies"]]
    cached = [x for _w, m in rounds for x in m["cached_latencies"]]
    metrics = {
        "setup_s": import_s + statistics.median(builds),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": workloads.rss_mb(),
        "sim_minstr_per_s":
            sum(m["sim_instructions"] for _w, m in rounds) / 1e6 / sum(walls),
        "cold_submit_s": statistics.median(cold),
        "cached_submit_ms": 1e3 * statistics.median(cached),
    }
    units = dict(END_TO_END)
    if args.trace:
        tracer = Tracer(enabled=True)
        traced_wall, layer = play(setup(), tracer)
        metrics = per_layer(tracer, layer, setups, traced_wall,
                            statistics.median(walls), rounds[0][1])
        units = dict(PER_LAYER)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-{args.seed}.json")
    for message in checks.errors:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not checks.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def per_layer(tracer, layer: dict, setups: list, traced_wall: float,
              untraced_wall: float, first_round: dict) -> dict:
    """Per-layer metrics of the traced round, plus set-up and memory."""
    metrics = dict(layer)
    metrics["workloads.trace_build_s"] = statistics.median(
        build for build, _compile in setups)
    metrics["plancache.compile_s"] = statistics.median(
        compile_s for _build, compile_s in setups)
    # ru_maxrss is a process peak: only the first round can grow it.
    metrics["kernels.rss_growth_mb"] = first_round.get(
        "kernels.rss_growth_mb", 0.0)
    estimates = tracer.named("pta.estimate")
    metrics["pta.fits"] = len(estimates)
    root = tracer.named("round")[-1]
    self_times = tracer.self_times(root["id"])
    metrics["pta.estimate_s"] = self_times.get("pta", 0.0)
    for name in LAYERS:
        metrics[f"trace.self_{name}_s"] = self_times.get(name, 0.0)
    metrics["trace.wall_s"] = root["end"] - root["start"]
    metrics["trace.unattributed_s"] = self_times.get("unattributed", 0.0)
    metrics["trace.layer_self_s"] = sum(self_times.get(n, 0.0) for n in LAYERS)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) \
        / untraced_wall
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test ({ROOT / 'src' / 'repro'}) "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "out"))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
