"""The benchmark's three workloads, their checks and their metrics.

Every workload is one closed loop with one client in one process.  A
workload is built by ``setup`` (timed as set-up) and driven by
``run_round`` (timed as the measured phase); ``finish`` then checks the
round's outputs against the independent oracles, outside the timed
phase, and turns the round into metrics.

Operations and their failures are counted per round and are the same
for every seed: ``figures-default`` attempts 60 pWCET requests, 64
Figure-4 workloads, one ``cli.fig3_tiny`` call and one hygiene check;
``mbpta-r1000`` 60 pWCET requests and one hygiene check;
``service-adaptive`` 30 cold, 30 x CACHED_REPEATS cached and 30
post-restart submissions and one hygiene check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
import zlib
from pathlib import Path

import oracles

from repro.analysis.experiments import PWCETTable, run_fig3, run_fig4
from repro.analysis.reporting import render_fig3
from repro.cli import main as cli_main
from repro.core.config import OperationMode
from repro.pta.adaptive import ConvergencePolicy
from repro.service import (
    CampaignJob,
    JobJournal,
    JobQueue,
    ResultStore,
    recover_jobs,
)
from repro.sim.campaign import collect_execution_times
from repro.sim.config import Scenario
from repro.sim.kernels import compile_kernel_plan
from repro.workloads.scale import ExperimentScale
from repro.workloads.suite import BENCHMARK_IDS, build_all_benchmarks

#: Runs re-executed on the scalar interpreter per cross-checked campaign.
SCALAR_PREFIX = 8
#: Store-answered resubmissions of every service campaign.
CACHED_REPEATS = 20
#: Warm-table pWCET lookups per campaign in the cached-request probe.
PROBE_REPEATS = 1000
#: The service workload's setups (paper labels at default scale).
SERVICE_SETUPS = ("EFL250", "EFL500", "CP2")
#: Relative tolerance of the pWCET oracle comparison.
PWCET_RTOL = 1e-9


class Checks:
    """Collects failed correctness checks with a readable message each."""

    def __init__(self) -> None:
        self.errors: list = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies: list) -> float:
    """The highest whole percentile with at least ten samples beyond it."""
    percentile = int(100 * (1 - 10 / len(latencies)))
    return statistics.quantiles(latencies, n=100)[percentile - 1]


def leftover_processes() -> list:
    """Children and non-main threads still alive (both are leaks)."""
    children = []
    for task in Path("/proc/self/task").iterdir():
        try:
            children += (task / "children").read_text().split()
        except OSError:
            continue
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread() and t.is_alive()]
    return children + threads


def analysis_scenario(kind: str, value: int, config) -> Scenario:
    """The analysis-mode scenario of an EFL MID or a CP way count."""
    if kind == "efl":
        return Scenario.efl(value, mode=OperationMode.ANALYSIS)
    return Scenario.cache_partitioning(value, num_cores=config.num_cores,
                                       mode=OperationMode.ANALYSIS)


def _setup_labels(scale):
    """``(label, kind, value)`` of every Figure-3 setup at ``scale``."""
    return ([(f"EFL{m}", "efl", m) for m in scale.mid_options]
            + [(f"CP{w}", "cp", w) for w in (1, 2, 4)])


# ----------------------------------------------------------------------
# shared: analysis tables (figures-default, mbpta-r1000)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TableSetup:
    table: PWCETTable
    trace_build_s: float
    compile_s: float


def build_table(scale, seed: int, engine: str) -> TableSetup:
    """A table with every analysis trace compiled to its kernel plan."""
    start = time.perf_counter()
    table = PWCETTable(scale=scale, seed=seed, engine=engine)
    built = time.perf_counter()
    for trace in table.traces.values():
        table.plan_cache.kernel_plan(trace, table.config, compile_kernel_plan)
    return TableSetup(table, built - start, time.perf_counter() - built)


def instrument_table(table, tracer, cold_latencies: list) -> None:
    """Time each first pWCET request and, traced, each layer call.

    Only the first request per (benchmark, setup) runs the campaign and
    the fit; later ones are table lookups and pass straight through.
    """
    estimate, campaign = table.estimate, table.campaign
    execute = table.backend.execute
    seen: set = set()

    def timed_estimate(bench, kind, value):
        if (bench, kind, value) in seen:
            return estimate(bench, kind, value)
        seen.add((bench, kind, value))
        start = time.perf_counter()
        with tracer.span("pta.estimate", "pta"):
            result = estimate(bench, kind, value)
        cold_latencies.append(time.perf_counter() - start)
        return result

    table.estimate = timed_estimate
    if tracer.enabled:
        def traced_campaign(bench, kind, value):
            with tracer.span("kernels.campaign", "kernels", kind=kind):
                return campaign(bench, kind, value)

        def traced_execute(requests, observer=None):
            with tracer.span("simulator.deploy", "simulator",
                             runs=len(requests)):
                return execute(requests, observer=observer)

        table.campaign = traced_campaign
        table.backend.execute = traced_execute


def uninstrument_table(table) -> None:
    for name in ("estimate", "campaign"):
        table.__dict__.pop(name, None)
    table.backend.__dict__.pop("execute", None)


def probe_cached(table, scale) -> list:
    """Latencies of pWCET requests answered from the warm table."""
    latencies = []
    for _ in range(PROBE_REPEATS):
        for bench in BENCHMARK_IDS:
            for _label, kind, value in _setup_labels(scale):
                start = time.perf_counter()
                table.pwcet(bench, kind, value)
                latencies.append(time.perf_counter() - start)
    return latencies


def check_table(checks, table, fig3) -> None:
    """pWCET, i.i.d. statistics and samples of every analysis campaign."""
    scale = table.scale
    for bench in fig3.bench_ids:
        checks.expect(fig3.normalised[bench]["CP2"] == 1.0,
                      f"{bench}: CP2 column reads "
                      f"{fig3.normalised[bench]['CP2']!r}, not 1")
        for label, kind, value in _setup_labels(scale):
            name = f"{bench}/{label}"
            times = table.campaign(bench, kind, value).execution_times
            checks.expect(min(times) >= table.instructions(bench),
                          f"{name}: an execution time is below the "
                          f"{table.instructions(bench)} instructions of its trace")
            got = fig3.pwcet[bench][label]
            want = oracles.gumbel_pwm_pwcet(times, table.exceedance_prob,
                                            scale.block_size)
            checks.expect(abs(got - want) <= PWCET_RTOL * abs(want),
                          f"{name}: pWCET {got!r} != oracle {want!r}")
            checks.expect(got >= max(times),
                          f"{name}: pWCET {got} below the sample maximum")
            iid = table.estimate(bench, kind, value).iid
            z = oracles.runs_z(times)
            checks.expect(abs(iid.ww.statistic - z) <= 1e-9,
                          f"{name}: runs z {iid.ww.statistic} != oracle {z}")
            d, p = oracles.ks_halves(times)
            checks.expect(abs(iid.ks.statistic - d) <= 1e-12,
                          f"{name}: KS D {iid.ks.statistic} != oracle {d}")
            checks.expect(abs(iid.ks.p_value - p) <= oracles.KS_P_ATOL,
                          f"{name}: KS p {iid.ks.p_value} != oracle {p}")


def cross_check_scalar(checks, jobs) -> None:
    """The first runs of each campaign, re-run on the scalar interpreter.

    ``jobs`` holds ``(name, trace, config, scenario, result)``; the
    scalar sample must equal the engine's sample prefix bit for bit.
    """
    for name, trace, config, scenario, result in jobs:
        scalar = collect_execution_times(
            trace, config, scenario, runs=SCALAR_PREFIX,
            master_seed=result.master_seed, engine="scalar",
        )
        checks.expect(
            scalar.execution_times == result.execution_times[:SCALAR_PREFIX],
            f"{name}: scalar prefix {scalar.execution_times} != engine "
            f"prefix {result.execution_times[:SCALAR_PREFIX]}")


def table_cross_check_jobs(table) -> list:
    """A fixed subset: benchmark i under setup i mod 6."""
    labels = _setup_labels(table.scale)
    jobs = []
    for index, bench in enumerate(BENCHMARK_IDS):
        label, kind, value = labels[index % len(labels)]
        jobs.append((f"{bench}/{label}", table.traces[bench], table.config,
                     analysis_scenario(kind, value, table.config),
                     table.campaign(bench, kind, value)))
    return jobs


def campaign_metrics(results) -> dict:
    """Kernel-layer counters summed over ``(scenario_label, result)``."""
    lanes = executed = saved = waste = 0
    lane_instr = 0
    efl_s = cp_s = 0.0
    plans: dict = {}
    for label, result in results:
        executed += result.runs_executed
        saved += result.runs_saved
        waste += result.runs_speculated_waste
        ran = result.runs_executed + result.runs_speculated_waste
        lanes += ran
        lane_instr += ran * result.instructions
        if label.startswith("EFL"):
            efl_s += result.wall_time_s
        else:
            cp_s += result.wall_time_s
        if result.kernel_stats:
            plans[result.task] = result.kernel_stats
    sweep = efl_s + cp_s
    return {
        "kernels.sweep_s": sweep,
        "kernels.efl_sweep_s": efl_s,
        "kernels.cp_sweep_s": cp_s,
        "kernels.lane_runs": lanes,
        "kernels.lane_minstr_per_s": lane_instr / 1e6 / sweep if sweep else 0.0,
        "kernels.chains": sum(s.get("chains", 0) for s in plans.values()),
        "kernels.segments": sum(s.get("segments", 0) for s in plans.values()),
        "adaptive.runs_executed": executed,
        "adaptive.runs_saved": saved,
        "adaptive.runs_speculated_waste": waste,
        "adaptive.useful_ratio": executed / (executed + waste) if lanes else 0.0,
    }


# ----------------------------------------------------------------------
# figures-default and mbpta-r1000
# ----------------------------------------------------------------------
class FiguresDefault:
    """Figures 3 and 4 at default scale, then the CLI's tiny Figure 3."""

    operations = 60 + 64 + 1 + 1
    #: Whether the round also runs Figure 4 and the CLI call.
    full = True
    #: The default engine: 240-run campaigns stay in one process.
    engine = "auto"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scale = ExperimentScale.default()

    def setup(self) -> TableSetup:
        return build_table(self.scale, self.seed, engine=self.engine)

    def close(self, state) -> None:
        pass

    def run_round(self, state: TableSetup, tracer) -> dict:
        table = state.table
        cold: list = []
        fig4 = None
        out = io.StringIO()
        instrument_table(table, tracer, cold)
        rss_before = rss_mb()
        start = time.perf_counter()
        with tracer.span("round", "unattributed"):
            with tracer.span("analysis.run_fig3", "analysis"):
                fig3 = run_fig3(table)
            if self.full:
                with tracer.span("analysis.run_fig4", "analysis"):
                    fig4 = run_fig4(table, measure_average=True)
                with tracer.span("cli.fig3_tiny", "cli"), \
                        contextlib.redirect_stdout(out):
                    cli_main(["--scale", "tiny", "--seed", str(self.seed),
                              "fig3"])
        wall = time.perf_counter() - start
        rss_growth = rss_mb() - rss_before
        uninstrument_table(table)
        return {"table": table, "fig3": fig3, "fig4": fig4, "wall": wall,
                "cold": cold, "cli_out": out.getvalue(),
                "rss_growth": rss_growth}

    def finish(self, state, outcome, checks, tracer) -> dict:
        table, fig3, fig4 = outcome["table"], outcome["fig3"], outcome["fig4"]
        check_table(checks, table, fig3)
        cross_check_scalar(checks, table_cross_check_jobs(table))
        results = [(label, table.campaign(b, kind, value))
                   for b in BENCHMARK_IDS
                   for label, kind, value in _setup_labels(self.scale)]
        metrics = campaign_metrics(results)
        metrics.update({
            "sim_instructions": sum(r.runs_executed * r.instructions
                                    for _l, r in results),
            "cold_latencies": outcome["cold"],
            "cached_latencies": probe_cached(table, self.scale),
            "kernels.rss_growth_mb": outcome["rss_growth"],
            "plancache.compiles": table.plan_cache.kernel_misses,
        })
        if not self.full:
            return {"failed": 0, "metrics": metrics}
        if tracer.enabled:
            with tracer.span("analysis.partition_search", "analysis"):
                run_fig4(table, measure_average=False)
        self._check_fig4(checks, table, fig4)
        tiny = PWCETTable(scale=ExperimentScale.tiny(), seed=self.seed)
        # Known fault: the CLI builds its table on SystemConfig() instead
        # of the scale's platform, so its figures differ and the
        # operation fails.
        failed = int(outcome["cli_out"] != render_fig3(run_fig3(tiny)) + "\n")
        reps = 2 * self.scale.deployment_reps
        deploy_instr = reps * sum(table.instructions(b)
                                  for c in fig4.comparisons for b in c.workload)
        tiny_instr = (len(_setup_labels(tiny.scale)) * tiny.scale.analysis_runs
                      * sum(tiny.instructions(b) for b in BENCHMARK_IDS))
        deploy_s = tracer.total("simulator.deploy")
        metrics.update({
            "sim_instructions":
                metrics["sim_instructions"] + deploy_instr + tiny_instr,
            "simulator.deploy_s": deploy_s,
            "simulator.deploy_runs": reps * len(fig4.comparisons),
            "simulator.minstr_per_s":
                deploy_instr / 1e6 / deploy_s if deploy_s else 0.0,
            "analysis.partition_search_s":
                tracer.total("analysis.partition_search"),
            "cli.fig3_tiny_s": tracer.total("cli.fig3_tiny"),
        })
        return {"failed": failed, "metrics": metrics}

    def _check_fig4(self, checks, table, fig4) -> None:
        config = table.config
        cp = {(b, w): table.pwcet(b, "cp", w)
              for b in BENCHMARK_IDS for w in (1, 2, 4)}
        efl = {(b, m): table.pwcet(b, "efl", m)
               for b in BENCHMARK_IDS for m in self.scale.mid_options}
        instructions = {b: table.instructions(b) for b in BENCHMARK_IDS}
        for comparison in fig4.comparisons:
            name = "+".join(comparison.workload)
            checks.expect(sum(comparison.cp_partition) <= config.llc_ways,
                          f"{name}: partition {comparison.cp_partition} "
                          f"exceeds {config.llc_ways} ways")
            best, value = oracles.best_partition(
                comparison.workload, instructions, cp, config.llc_ways,
                (1, 2, 4))
            mine = oracles.guaranteed_ipc(comparison.workload, instructions,
                                          cp, comparison.cp_partition)
            checks.expect(abs(mine - value) <= 1e-12 * value
                          and abs(comparison.cp_wgipc - value) <= 1e-12 * value,
                          f"{name}: CP partition {comparison.cp_partition} "
                          f"(wgIPC {comparison.cp_wgipc}) is not the best "
                          f"{best} ({value})")
            efl_best = max(
                oracles.guaranteed_ipc(comparison.workload, instructions, efl,
                                       [m] * len(comparison.workload))
                for m in self.scale.mid_options)
            checks.expect(abs(comparison.efl_wgipc - efl_best) <= 1e-12 * efl_best,
                          f"{name}: EFL wgIPC {comparison.efl_wgipc} is not "
                          f"the best {efl_best}")
            for label, waipc in (("CP", comparison.cp_waipc),
                                 ("EFL", comparison.efl_waipc)):
                checks.expect(waipc is not None
                              and 0.0 < waipc <= config.num_cores,
                              f"{name}: {label} waIPC {waipc} outside "
                              f"(0, {config.num_cores}]")


class MbptaR1000(FiguresDefault):
    """Figure 3 on the quick platform at the paper's 1,000 runs."""

    operations = 60 + 1
    full = False
    # engine="kernel": the auto policy would shard 1,000-run campaigns
    # over worker processes on a multi-CPU host.
    engine = "kernel"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scale = dataclasses.replace(
            ExperimentScale.quick(), analysis_runs=1000, block_size=25)


# ----------------------------------------------------------------------
# service-adaptive
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ServiceSetup:
    root: Path
    traces: dict
    store: ResultStore
    journal: JobJournal
    queue: JobQueue
    trace_build_s: float
    compile_s: float = 0.0


class ServiceAdaptive:
    """Adaptive campaigns through the durable service, cold then cached."""

    operations = 30 + 30 * CACHED_REPEATS + 30 + 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = ExperimentScale.default()
        self.config = self.scale.system_config()
        self.scenarios = {
            "EFL250": analysis_scenario("efl", 250, self.config),
            "EFL500": analysis_scenario("efl", 500, self.config),
            "CP2": analysis_scenario("cp", 2, self.config),
        }
        self.policies = {b: ConvergencePolicy.for_benchmark(b, self.scale)
                         for b in BENCHMARK_IDS}
        self.keys = [(b, s) for b in BENCHMARK_IDS for s in SERVICE_SETUPS]

    def setup(self) -> ServiceSetup:
        start = time.perf_counter()
        traces = build_all_benchmarks(self.scale.trace_scale)
        trace_build_s = time.perf_counter() - start
        root = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        store = ResultStore(root / "store")
        journal = JobJournal(root / "journal.jsonl")
        queue = JobQueue(workers=1, journal=journal,
                         checkpoint_dir=root / "checkpoints")
        return ServiceSetup(root, traces, store, journal, queue,
                            trace_build_s=trace_build_s)

    def close(self, state: ServiceSetup) -> None:
        state.queue.shutdown(wait=True)
        state.journal.close()
        shutil.rmtree(state.root, ignore_errors=True)

    def job(self, traces, key) -> CampaignJob:
        bench, setup = key
        policy = self.policies[bench]
        seed = self.seed ^ zlib.crc32(f"{bench}/{setup}".encode())
        return CampaignJob(traces[bench], self.config, self.scenarios[setup],
                           runs=policy.max_runs, master_seed=seed,
                           engine="kernel", adaptive=policy)

    def run_round(self, state: ServiceSetup, tracer) -> dict:
        store, queue = state.store, state.queue
        gets: list = []
        puts: list = []
        store_get, store_put = store.get, store.put

        def timed_get(fingerprint):
            start = time.perf_counter()
            try:
                return store_get(fingerprint)
            finally:
                gets.append(time.perf_counter() - start)

        def timed_put(fingerprint, result, metrics=None):
            start = time.perf_counter()
            try:
                return store_put(fingerprint, result, metrics=metrics)
            finally:
                puts.append(time.perf_counter() - start)

        store.get = tracer.wrap_worker(timed_get, "service.store_get", "service")
        store.put = tracer.wrap_worker(timed_put, "service.store_put", "service")
        cold, cached, fingerprint = [], [], []
        results, jobs, mismatched = {}, {}, []
        start = time.perf_counter()
        with tracer.span("round", "unattributed"):
            for key in self.keys:
                with tracer.span("service.fingerprint", "service"):
                    job = self.job(state.traces, key)
                t0 = time.perf_counter()
                with tracer.span("service.cold_submit", "service"):
                    with tracer.span("service.get_or_submit", "service"):
                        handle = store.get_or_submit(job, queue)
                    results[key] = handle.wait()
                    self._trace_job(tracer, handle)
                cold.append(time.perf_counter() - t0)
                jobs[key] = handle
            for _ in range(CACHED_REPEATS):
                for key in self.keys:
                    t0 = time.perf_counter()
                    with tracer.span("service.cached_submit", "service"):
                        with tracer.span("service.fingerprint", "service"):
                            job = self.job(state.traces, key)
                        t1 = time.perf_counter()
                        answer = store.get_or_submit(job, queue).wait()
                    cached.append(time.perf_counter() - t0)
                    fingerprint.append(t1 - t0)
                    # The client checks each answer as it arrives
                    # (dataclass equality: every field, every run record).
                    if answer != results[key]:
                        mismatched.append(key)
            queue.shutdown(wait=True)
            state.journal.close()
            health = queue.health()
            journal_bytes = os.path.getsize(state.journal.path)
            t0 = time.perf_counter()
            with tracer.span("service.journal_replay", "service"):
                journal = JobJournal(state.journal.path)
                restarted = JobQueue(workers=1, journal=journal,
                                     checkpoint_dir=state.root / "checkpoints")
                recovered = recover_jobs(journal, restarted, store=store)
            replay_s = time.perf_counter() - t0
            after = {}
            for key in self.keys:
                with tracer.span("service.recovered_submit", "service"):
                    after[key] = store.get_or_submit(
                        self.job(state.traces, key), restarted).wait()
            restarted.shutdown(wait=True)
            journal.close()
        wall = time.perf_counter() - start
        del store.get, store.put
        return {
            "wall": wall, "results": results, "jobs": jobs, "after": after,
            "mismatched": mismatched,
            "compiles": queue.telemetry.metrics.value("kernel_plan_misses"),
            "recovered": recovered, "health": health,
            "restarted_health": restarted.health(), "cold": cold,
            "cached": cached, "fingerprint": fingerprint, "gets": gets,
            "puts": puts, "replay_s": replay_s,
            "journal_bytes": journal_bytes,
            "store_bytes": store.total_bytes(),
        }

    @staticmethod
    def _trace_job(tracer, job) -> None:
        """Queue wait and campaign execution, from the job's own stamps."""
        if not tracer.enabled or job.started_at is None:
            return
        tracer.add_wallclock("service.queue_wait", "service",
                             job.submitted_at, job.started_at)
        tracer.add_wallclock("adaptive.campaign", "adaptive", job.started_at,
                             job.started_at + job.result.wall_time_s)

    def finish(self, state, outcome, checks, tracer) -> dict:
        results = outcome["results"]
        for key in outcome["mismatched"]:
            checks.errors.append(
                f"{'/'.join(key)}: cached answer differs from cold")
        for key, answer in outcome["after"].items():
            checks.expect(answer == results[key],
                          f"{'/'.join(key)}: post-restart answer differs "
                          f"from cold")
        for key, result in results.items():
            name = "/".join(key)
            checks.expect(min(result.execution_times) >= result.instructions,
                          f"{name}: an execution time is below the "
                          f"{result.instructions} instructions of its trace")
            checks.expect(result.instructions
                          == state.traces[key[0]].instruction_count,
                          f"{name}: retired {result.instructions} "
                          f"instructions, the trace has "
                          f"{state.traces[key[0]].instruction_count}")
            policy = self.policies[key[0]]
            checks.expect(
                result.runs_executed + result.runs_saved
                + result.runs_speculated_waste == policy.max_runs,
                f"{name}: executed + saved + waste != {policy.max_runs}")
        runs = outcome["health"]["runs"]
        checks.expect(
            runs["requested"] == runs["simulated"] + runs["resumed"]
            + runs["served_from_cache"] + runs["shed"]
            + runs["saved_converged"],
            f"service runs ledger does not reconcile: {runs}")
        checks.expect(
            runs["simulated"] == sum(r.runs_executed + r.runs_speculated_waste
                                     for r in results.values()),
            f"service simulated {runs['simulated']} runs, campaigns "
            f"report another count")
        checks.expect(
            outcome["restarted_health"]["runs"]["simulated"] == 0,
            f"restarted service simulated "
            f"{outcome['restarted_health']['runs']['simulated']} runs")
        checks.expect(not outcome["recovered"],
                      f"{len(outcome['recovered'])} jobs left pending")
        # A fixed subset: benchmark i under setup i mod 3.
        subset = []
        for index, bench in enumerate(BENCHMARK_IDS):
            key = (bench, SERVICE_SETUPS[index % len(SERVICE_SETUPS)])
            subset.append(("/".join(key), state.traces[bench], self.config,
                           self.scenarios[key[1]], results[key]))
        cross_check_scalar(checks, subset)
        waits = [job.started_at - job.submitted_at
                 for job in outcome["jobs"].values()]
        metrics = campaign_metrics(
            [(key[1], r) for key, r in results.items()])
        metrics.update({
            "sim_instructions": sum(r.runs_executed * r.instructions
                                    for r in results.values()),
            "cold_latencies": outcome["cold"],
            "cached_latencies": outcome["cached"],
            "plancache.compiles": outcome["compiles"],
            "service.fingerprint_ms": 1e3 * statistics.median(outcome["fingerprint"]),
            "service.store_get_ms": 1e3 * statistics.median(outcome["gets"]),
            "service.store_bytes": outcome["store_bytes"],
            "service.queue_wait_s": statistics.median(waits),
            "service.store_put_ms": 1e3 * statistics.median(outcome["puts"]),
            "service.journal_bytes": outcome["journal_bytes"],
            "service.journal_replay_s": outcome["replay_s"],
            "service.cached_submit_tail_ms": 1e3 * tail(outcome["cached"]),
        })
        return {"failed": 0, "metrics": metrics}
