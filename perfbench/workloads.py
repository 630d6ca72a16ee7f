"""The benchmark's three workloads.

Each workload turns ``--seed`` into its inputs, times closed-loop passes
(one pass starts when the previous one has finished and been checked)
for the requested number of seconds, gates every run on correctness, and
on request runs one extra traced pass for the per-layer numbers.

``astro-dense-8``
    The astro dense cluster, ``dense_cluster_seeds((0.30, 0.30, 0.0),
    0.12, 200, seed=S)`` (S = 102 is ``make_problem("astro", "dense",
    0.1)``), run with static, ondemand and hybrid on
    ``scenario_machine(8)``.  Kernel-bound: most host time is
    small-batch ``advance_pool`` calls.
``astro-sparse-512``
    ``sparse_random_seeds(domain, 200, seed=S)`` (S = 101 is the
    canonical sparse problem), run with static and hybrid on
    ``scenario_machine(512)`` with 16 masters.  Policy- and engine-bound.
``sweep-21``
    The 21-run extended bench grid of ``BENCH_20260806_all.json``
    through ``SweepExecutor`` at ``--jobs`` = nproc, ``fifo`` order; the
    seed shuffles the submission order.  Executor- and obs-bound.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import gate
from perfbench.speed import SpeedSampler
from perfbench.tracer import K_BUCKETS, LAYER_OF, LAYERS, Tracer, \
    TimingStore, installed

ROOT = Path(__file__).resolve().parent.parent
BENCH_SMALL = ROOT / "benchmarks" / "BENCH_20260806.json"
BENCH_ALL = ROOT / "benchmarks" / "BENCH_20260806_all.json"

#: Fresh-process set-ups measured per run.
SETUP_PROBES = 4
#: Executor start-ups measured per ``sweep-21`` run besides its passes.
POOL_PROBES = 8
#: Per-run limit, real seconds, for sweep runs.
RUN_TIMEOUT = 60.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def another_pass(pass_s: Sequence[float], t0: float, seconds: float) -> bool:
    """Closed-loop stopping rule: always one pass, then another only
    while it is expected to end within ``seconds`` of ``t0``, so a run
    stays near ``seconds`` however slow the machine is."""
    return not pass_s or (time.perf_counter() - t0 + median(pass_s)
                          <= seconds)


@dataclasses.dataclass
class Timed:
    """Seconds of one benchmark run's set-ups, timed passes and their
    simulated runs: probe-free host seconds and, in the ``*_cal``
    lists, the same scaled to the reference host speed
    (``perfbench/speed.py``)."""

    setup_s: List[float] = dataclasses.field(default_factory=list)
    setup_cal: List[float] = dataclasses.field(default_factory=list)
    pass_s: List[float] = dataclasses.field(default_factory=list)
    pass_cal: List[float] = dataclasses.field(default_factory=list)
    run_s: List[float] = dataclasses.field(default_factory=list)
    run_cal: List[float] = dataclasses.field(default_factory=list)
    steps: int = 0

    def add_setup(self, raw: float, cal: float) -> None:
        self.setup_s.append(raw)
        self.setup_cal.append(cal)


class Account:
    """Attempted and failed runs, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, name: str, errors: Sequence[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"{name}: {'; '.join(errors)}")


# ---------------------------------------------------------------------- #
# Simulated-problem workloads
# ---------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class SimSpec:
    name: str
    seeding: str
    algorithms: Tuple[str, ...]
    ranks: int
    canonical_seed: int
    #: Snapshot whose ``astro-<seeding>-<alg>-<ranks>`` entries the
    #: canonical seed must reproduce (None: no committed entries).
    committed: Optional[Path]
    n_seeds: int = 200


SIM_WORKLOADS = {
    "astro-dense-8": SimSpec("astro-dense-8", "dense",
                             ("static", "ondemand", "hybrid"), 8, 102,
                             BENCH_SMALL),
    "astro-sparse-512": SimSpec("astro-sparse-512", "sparse",
                                ("static", "hybrid"), 512, 101, None),
}


def build_problem(spec: SimSpec, seed: int):
    from repro.analysis.scenarios import make_problem
    from repro.seeding import dense_cluster_seeds, sparse_random_seeds

    base = make_problem("astro", spec.seeding, 0.1)
    domain = base.field.domain
    if spec.seeding == "dense":
        seeds = dense_cluster_seeds((0.30, 0.30, 0.0), 0.12, spec.n_seeds,
                                    seed=seed, clip_bounds=domain)
    else:
        seeds = sparse_random_seeds(domain, spec.n_seeds, seed=seed)
    return dataclasses.replace(base, seeds=seeds,
                               name=f"{spec.name}-s{seed}")


def setup(spec: SimSpec, seed: int):
    """Build the problem and fill its block store cold.

    Returns ``(problem, store, fill_s)``."""
    from repro.storage.store import BlockStore

    problem = build_problem(spec, seed)
    t0 = time.perf_counter()
    store = BlockStore(problem.field, problem.decomposition)
    for block_id in range(store.n_blocks):
        store.load(block_id)
    return problem, store, time.perf_counter() - t0


def probe_setup(workload: str,
                seed: int) -> List[Tuple[float, float, float]]:
    """``(probe-free, calibrated, fill)`` seconds of the set-ups of
    :data:`SETUP_PROBES` fresh processes."""
    out = []
    script = Path(__file__).resolve().parent / "run.py"
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(script), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        out.append(tuple(float(x) for x in proc.stdout.split()[-3:]))
    return out


class SimBench:
    """Timed, gated passes over one simulated problem."""

    def __init__(self, spec: SimSpec, seed: int, problem, store,
                 account: Account) -> None:
        from repro.integrate.single import integrate_single

        self.spec = spec
        self.problem = problem
        self.store = store
        self.account = account
        self.serial = integrate_single(
            problem.field, problem.decomposition,
            problem.seeds[::gate.SERIAL_STRIDE], cfg=problem.integ)
        self.committed: Dict[str, Any] = {}
        if seed == spec.canonical_seed and spec.committed is not None:
            runs = json.loads(spec.committed.read_text())["runs"]
            self.committed = {
                alg: runs[f"astro-{spec.seeding}-{alg}-{spec.ranks}"]
                for alg in spec.algorithms}
        self.first: Dict[str, tuple] = {}
        self.timed = Timed()
        self.run_cal: List[float] = []

    def run_pass(self, store=None, tracer: Optional[Tracer] = None,
                 recorders: Optional[dict] = None, sampled: bool = False
                 ) -> Tuple[float, dict, List[float]]:
        """Run every algorithm once and gate the runs.

        Returns ``(wall_s, results by algorithm, seconds per run)``; a
        run that raises is returned as its exception.  With ``sampled``
        each run is timed under a :class:`SpeedSampler`: its seconds
        are probe-free, and its calibrated seconds go to
        ``self.run_cal``."""
        from repro.analysis.scenarios import scenario_machine
        from repro.core.driver import run_streamlines

        results: Dict[str, Any] = {}
        times: List[float] = []
        self.run_cal = []
        t_pass = time.perf_counter()
        for alg in self.spec.algorithms:
            obs = recorders.get(alg) if recorders else None
            if tracer is not None:
                tracer.run_id += 1
            span = (tracer.span("core.driver") if tracer is not None
                    else contextlib.nullcontext())
            sampler = SpeedSampler() if sampled else None
            t0 = time.perf_counter()
            try:
                with span, sampler or contextlib.nullcontext():
                    results[alg] = run_streamlines(
                        self.problem, algorithm=alg,
                        machine=scenario_machine(self.spec.ranks),
                        store=store or self.store, obs=obs)
            except Exception as exc:  # counted as a failed run
                results[alg] = exc
            if sampler is None:
                times.append(time.perf_counter() - t0)
            else:
                times.append(sampler.raw_s)
                self.run_cal.append(sampler.cal_s)
        wall = sum(times) if sampled else time.perf_counter() - t_pass
        self.gate(results)
        return wall, results, times

    def gate(self, results: Dict[str, Any]) -> None:
        """Check one pass's runs and record them in the account."""
        first_alg = self.spec.algorithms[0]
        reference = results.get(first_alg)
        for alg in self.spec.algorithms:
            result = results[alg]
            if isinstance(result, Exception):
                errors = [f"{type(result).__name__}: {result}"]
            else:
                ref = (reference if alg != first_alg
                       and not isinstance(reference, Exception)
                       and reference.status == "ok" else None)
                errors = gate.run_errors(result, ref, self.serial,
                                         self.first.get(alg),
                                         self.committed.get(alg))
                if not errors and alg not in self.first:
                    self.first[alg] = gate.sim_signature(result)
            self.account.record(f"{self.spec.name}/{alg}", errors)

    def timed_passes(self, seconds: float) -> None:
        t0 = time.perf_counter()
        timed = self.timed
        while another_pass(timed.pass_s, t0, seconds):
            wall, results, times = self.run_pass(sampled=True)
            timed.pass_s.append(wall)
            timed.pass_cal.append(sum(self.run_cal))
            timed.run_s.extend(times)
            timed.run_cal.extend(self.run_cal)
            timed.steps += sum(r.total_steps for r in results.values()
                               if not isinstance(r, Exception))
            # Each pass starts from the same heap: without this the last
            # pass's results stay alive through the next one, and peak
            # memory grows with the number of passes that fit in a run.
            del results
            gc.collect()

    def traced(self, fill_s: float) -> Tuple[Dict[str, float], Tracer]:
        """One traced pass plus the recorder-on pass: per-layer metrics."""
        tracer = Tracer()
        with installed(tracer):
            wall, results, _ = self.run_pass(
                store=TimingStore(self.store, tracer), tracer=tracer)
        layer = layer_metrics(tracer, wall, median(self.timed.pass_s))
        layer.update(kernel_metrics(tracer, wall))
        hits = loads = 0
        for alg in self.spec.algorithms:
            result = results[alg]
            if not isinstance(result, Exception):
                hits += sum(m.cache_hits for m in result.rank_metrics)
                loads += sum(m.blocks_loaded for m in result.rank_metrics)
        selfs = tracer.self_seconds()
        events = tracer.engine_events
        layer.update({
            "storage.fill_s": fill_s,
            "storage.load.calls": tracer.calls.get("storage.load", 0),
            "storage.load.s": selfs.get("storage.load", 0.0),
            "storage.cache.hit_ratio": ratio(hits, hits + loads),
            "sim.engine.events": events,
            "sim.engine.self_s": selfs.get("sim.engine", 0.0),
            "sim.engine.ns_per_event": ratio(
                selfs.get("sim.engine", 0.0) * 1e9, events),
            "sim.network.send.calls": tracer.calls.get(
                "sim.network.send", 0),
            "sim.network.send.s": selfs.get("sim.network.send", 0.0),
            "sim.filesystem.read.calls": tracer.calls.get(
                "sim.filesystem.read", 0),
            "sim.filesystem.read.s": selfs.get("sim.filesystem.read", 0.0),
            "core.policy.self_s": selfs.get("core.policy", 0.0),
            "core.policy.resumes": tracer.segments("core.policy"),
            "core.driver.s": selfs.get("core.driver", 0.0),
        })
        layer.update(self.obs_row(median(self.timed.pass_s)))
        return layer, tracer

    def obs_row(self, off_s: float) -> Dict[str, float]:
        """The same pass with the recorder on, plus ``analyze_run``."""
        from repro.obs import Recorder, analyze_run

        recorders = {alg: Recorder(enabled=True, sample_interval=1.0)
                     for alg in self.spec.algorithms}
        wall, results, _ = self.run_pass(recorders=recorders)
        t0 = time.perf_counter()
        spans = 0
        for alg in self.spec.algorithms:
            if not isinstance(results[alg], Exception):
                analyze_run(results[alg], recorders[alg])
                spans += len(recorders[alg].spans)
        return {"obs.record.overhead_frac": ratio(wall, off_s) - 1.0,
                "obs.analyze.s": time.perf_counter() - t0,
                "obs.spans": spans}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float,
                  untraced_s: float) -> Dict[str, float]:
    """Self time and share per layer, ``other``, and tracing overhead."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in tracer.self_seconds().items():
        per_layer[LAYER_OF[name]] += seconds
    other = wall - tracer.covered_seconds()
    out: Dict[str, float] = {"trace.wall_s": wall,
                             "trace.overhead_frac":
                                 ratio(wall, untraced_s) - 1.0,
                             "trace.spans": len(tracer.spans),
                             "layer.other.self_s": other,
                             "layer.other.share": ratio(other, wall)}
    for layer, seconds in per_layer.items():
        out[f"layer.{layer}.self_s"] = seconds
        out[f"layer.{layer}.share"] = ratio(seconds, wall)
    out["trace.unaccounted_s"] = wall - other - sum(per_layer.values())
    return out


def kernel_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    calls = tracer.kernel_calls
    seconds = sum(c[1] for c in calls)
    steps = sum(c[2] for c in calls)
    builds = tracer.calls.get("integrate.block_pool", 0)
    out = {
        "integrate.advance_pool.calls": len(calls),
        "integrate.advance_pool.s": seconds,
        "integrate.advance_pool.share": ratio(seconds, wall),
        "integrate.advance_pool.steps": steps,
        "integrate.advance_pool.us_per_step": ratio(seconds * 1e6, steps),
        "integrate.advance_pool.small_frac": ratio(
            sum(1 for c in calls if c[0] <= 4), len(calls)),
        "integrate.block_pool.builds": builds,
        "integrate.block_pool.s": tracer.self_seconds().get(
            "integrate.block_pool", 0.0),
        "integrate.block_pool.hit_ratio": (
            1.0 - ratio(builds, len(calls)) if calls else 0.0),
    }
    for label, lo, hi in K_BUCKETS:
        bucket = [c[1] for c in calls
                  if c[0] >= lo and (hi is None or c[0] <= hi)]
        out[f"integrate.advance_pool.us_per_call.{label}"] = ratio(
            sum(bucket) * 1e6, len(bucket))
    return out


# ---------------------------------------------------------------------- #
# Sweep workload
# ---------------------------------------------------------------------- #

def sweep_specs() -> list:
    """The specs of ``BENCH_20260806_all.json``, in merge order: the
    three-dataset grid at 8 ranks, the isolated thermal OOM probe, then
    the astro/dense/hybrid rank-scaling points not already in the grid."""
    from repro.core.config import ALGORITHMS
    from repro.exec import MODE_BENCH, RunSpec, grid_specs

    specs = grid_specs(("astro", "fusion", "thermal"), ("sparse", "dense"),
                       ALGORITHMS, [8], scale=0.1, mode=MODE_BENCH,
                       sample_interval=1.0)
    specs.append(RunSpec(dataset="thermal", seeding="dense",
                         algorithm="static", n_ranks=8, scale=0.5,
                         mode=MODE_BENCH, sample_interval=1.0,
                         tag="oomprobe", isolate=True, oom_probe=True))
    for ranks in (4, 16):
        specs.append(RunSpec(dataset="astro", seeding="dense",
                             algorithm="hybrid", n_ranks=ranks, scale=0.1,
                             mode=MODE_BENCH, sample_interval=1.0))
    return specs


def pool_probe_specs(jobs: int) -> list:
    """One tiny run per worker slot, to time executor start-up."""
    from repro.exec import MODE_BENCH, RunSpec

    return [RunSpec(dataset="astro", seeding="sparse", algorithm="static",
                    n_ranks=2, scale=0.002, mode=MODE_BENCH,
                    tag=f"poolprobe{i}") for i in range(jobs)]


class SweepBench:
    """Timed, gated sweeps of the 21-run grid."""

    def __init__(self, seed: int, account: Account) -> None:
        self.jobs = nproc()
        self.account = account
        self.specs = sweep_specs()
        random.Random(seed).shuffle(self.specs)
        self.committed = gate.committed_sweep(BENCH_ALL)
        self.timed = Timed()

    def sweep(self, specs: Sequence, telemetry=None,
              tracer: Optional[Tracer] = None,
              sampler: Optional[SpeedSampler] = None):
        """Run ``specs``; returns ``(outcomes, (start, setup_end, end),
        runs)``.

        The times are ``perf_counter`` values: executor start, the moment
        every worker slot has started its first run, and the end of the
        sweep; ``runs`` maps each run's name to the times the executor
        reported its start and its end.  With a ``sampler`` the sweep
        runs under it, and the sampler scales any of these intervals."""
        from repro.exec import SweepExecutor

        first_start: Dict[int, float] = {}
        runs: Dict[str, List[float]] = {}

        def progress(event: str, payload: Any, done: int,
                     total: int) -> None:
            now = time.perf_counter()
            if event == "start":
                first_start.setdefault(payload[1], now)
                runs[payload[0].name] = [now, now]
            elif event == "done" and payload.spec.name in runs:
                runs[payload.spec.name][1] = now

        executor = SweepExecutor(jobs=self.jobs, timeout=RUN_TIMEOUT,
                                 progress=progress, telemetry=telemetry,
                                 schedule="fifo")
        span = (tracer.span("exec.sweep") if tracer is not None
                else contextlib.nullcontext())
        with span, sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            outcomes = executor.run(specs)
            t1 = time.perf_counter()
        slots = min(self.jobs, len(specs))
        started = sorted(first_start.values())[:slots]
        setup_end = max(started) if len(started) == slots else t1
        return outcomes, (t0, setup_end, t1), runs

    def gate(self, outcomes: Sequence) -> int:
        """Check a sweep's outcomes; returns its simulated steps."""
        from repro.analysis.scenarios import scenario_machine

        steps = 0
        for outcome in outcomes:
            errors = gate.sweep_errors(outcome, self.committed)
            self.account.record(outcome.spec.name, errors)
            payload = outcome.payload
            if not errors and isinstance(payload, dict) \
                    and "compute_time" in payload:
                per_step = scenario_machine(
                    outcome.spec.n_ranks).seconds_per_step
                steps += round(payload["compute_time"] / per_step)
        return steps

    def probe_pool(self) -> None:
        for _ in range(POOL_PROBES):
            sampler = SpeedSampler()
            outcomes, (t0, setup_end, _), _ = self.sweep(
                pool_probe_specs(self.jobs), sampler=sampler)
            for outcome in outcomes:
                ok = outcome.ok and outcome.payload.get("status") == "ok"
                self.account.record(outcome.spec.name,
                                    [] if ok else [outcome.status])
            self.timed.add_setup(*sampler.interval(t0, setup_end))

    def timed_passes(self, seconds: float) -> None:
        t0 = time.perf_counter()
        timed = self.timed
        while another_pass(timed.pass_s, t0, seconds):
            sampler = SpeedSampler()
            outcomes, (start, setup_end, end), runs = self.sweep(
                self.specs, sampler=sampler)
            makespan, makespan_cal = sampler.interval(start, end)
            timed.pass_s.append(makespan)
            timed.pass_cal.append(makespan_cal)
            timed.add_setup(*sampler.interval(start, setup_end))
            timed.run_s.extend(o.elapsed for o in outcomes)
            timed.run_cal.extend(
                sampler.scale(o.elapsed, *runs.get(o.spec.name, (start, end)))
                for o in outcomes)
            timed.steps += self.gate(outcomes)

    def traced(self, workdir: Path) -> Tuple[Dict[str, float], Tracer]:
        """One sweep with the executor's telemetry sink on."""
        from repro.exec import JsonlTelemetry, load_events

        tracer = Tracer()
        log = workdir / "events.jsonl"
        with JsonlTelemetry(log) as sink:
            t0 = time.perf_counter()
            outcomes, _, _ = self.sweep(self.specs, telemetry=sink,
                                        tracer=tracer)
            wall = time.perf_counter() - t0
        self.gate(outcomes)
        layer = layer_metrics(tracer, wall, median(self.timed.pass_s))
        layer.update(exec_metrics(load_events(log), self.jobs))
        return layer, tracer


def exec_metrics(events: Sequence[dict], jobs: int) -> Dict[str, float]:
    """Executor metrics from one sweep's telemetry events."""
    from repro.exec import makespan, worker_intervals

    span = makespan(events)
    intervals = worker_intervals(events)
    busy = sum(iv.end - iv.start for ivs in intervals.values()
               for iv in ivs)
    gaps: List[float] = []
    tail = 0.0
    for ivs in intervals.values():
        ivs = sorted(ivs, key=lambda iv: iv.start)
        gaps.extend(b.start - a.end for a, b in zip(ivs, ivs[1:]))
        tail += span - ivs[-1].end
    starts = [e["t"] for e in events if e.get("event") == "start"]
    phases = {"setup": 0.0, "advect": 0.0, "merge": 0.0}
    for e in events:
        if e.get("event") != "retire":
            continue
        for label, phase in (e.get("host") or {}).get("phases", {}).items():
            if label in phases:
                phases[label] += phase.get("wall_s", 0.0)
    return {
        "exec.pool_start_s": min(starts) if starts else 0.0,
        "exec.utilization": ratio(busy, span * jobs),
        "exec.dispatch_gap_s.p50": median(gaps),
        "exec.tail_idle_s": tail,
        "exec.worker.setup_s": phases["setup"],
        "exec.worker.advect_s": phases["advect"],
        "exec.worker.merge_s": phases["merge"],
    }
