"""Host-time benchmark: timed passes, correctness gate, traced run.

Run from the repository root::

    python3 perfbench/run.py --workload astro-dense-8 --seed 7 \\
        --seconds 20 --trace 0

``--trace 0`` times closed-loop passes for ``--seconds`` and reports the
end-to-end metrics listed in ``BENCHMARK.json``, in seconds scaled to a
reference host speed (``perfbench/speed.py``); ``--trace 1`` runs the
same passes, then one traced pass and the recorder-on pass, and reports
the per-layer metrics instead.  Every run of every pass goes through the
correctness gate (``perfbench/gate.py``).  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only when every run passed the gate.  Spans of
the traced pass and a result file with sample counts and run context go
to ``.perfbench/`` under the repository root.
"""

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("astro-dense-8", "astro-sparse-512", "sweep-21")


def seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics():
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def run_context(seed: int) -> dict:
    import platform

    import numpy

    from perfbench.workloads import nproc
    from repro.exec import calibration_probe

    return {"calibration_ms": calibration_probe() * 1e3, "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def end_to_end(timed, children: bool):
    """End-to-end metrics of the timed passes, their sample counts and
    values, and the same timings in probe-free host seconds."""
    from perfbench.workloads import median, ratio

    def mean(values):
        return ratio(sum(values), len(values))

    metrics = {
        "setup_s": median(timed.setup_cal),
        "wall_s": median(timed.pass_cal),
        "run_s.mean": mean(timed.run_cal),
        "steps_per_s": ratio(timed.steps, sum(timed.pass_cal)),
        "peak_rss_mb": peak_rss_mb(children),
    }
    host = {
        "setup_s": median(timed.setup_s),
        "wall_s": median(timed.pass_s),
        "run_s.mean": mean(timed.run_s),
        "steps_per_s": ratio(timed.steps, sum(timed.pass_s)),
    }
    samples = {"setup_s": len(timed.setup_cal),
               "wall_s": len(timed.pass_cal),
               "run_s.mean": len(timed.run_cal),
               "steps_per_s": len(timed.pass_cal), "peak_rss_mb": 1,
               "values": {name: getattr(timed, name) for name in (
                   "setup_s", "setup_cal", "pass_s", "pass_cal")}}
    return metrics, samples, host


def bench_sim(args, account, workdir):
    """``astro-dense-8`` / ``astro-sparse-512``: metrics, samples, tracer."""
    from perfbench import workloads as wl

    spec = wl.SIM_WORKLOADS[args.workload]
    problem, store, fill_s = wl.setup(spec, args.seed)
    bench = wl.SimBench(spec, args.seed, problem, store, account)
    if not args.trace:
        for raw, cal, _ in wl.probe_setup(args.workload, args.seed):
            bench.timed.add_setup(raw, cal)
    bench.timed_passes(args.seconds)
    metrics, samples, host = end_to_end(bench.timed, children=False)
    tracer = None
    if args.trace:
        layer, tracer = bench.traced(fill_s)
        metrics.update(layer)
    return metrics, samples, host, tracer


def bench_sweep(args, account, workdir):
    """``sweep-21``: metrics, samples, tracer."""
    from perfbench import workloads as wl

    bench = wl.SweepBench(args.seed, account)
    if not args.trace:
        bench.probe_pool()
    bench.timed_passes(args.seconds)
    metrics, samples, host = end_to_end(bench.timed, children=True)
    tracer = None
    if args.trace:
        layer, tracer = bench.traced(workdir)
        metrics.update(layer)
        metrics["exec.runs.attempted"] = account.attempted
        metrics["exec.runs.failed"] = len(account.failures)
        # The sweep's own runs record inside the workers; the recorder's
        # cost is measured in-process on the canonical astro-dense-8 pass.
        spec = wl.SIM_WORKLOADS["astro-dense-8"]
        problem, store, _ = wl.setup(spec, spec.canonical_seed)
        dense = wl.SimBench(spec, spec.canonical_seed, problem, store,
                            account)
        off_s, _, _ = dense.run_pass()
        metrics.update(dense.obs_row(off_s))
    return metrics, samples, host, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_probe:
        return setup_probe(args)
    workdir = OUT / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # Everything the program writes stays inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_probe(args) -> int:
    """Time one cold set-up (imports, problem build, block-store fill)
    and print its probe-free, calibrated and fill seconds."""
    from perfbench.speed import SpeedSampler

    with SpeedSampler() as sampler:
        from perfbench import workloads as wl

        _, _, fill_s = wl.setup(wl.SIM_WORKLOADS[args.workload], args.seed)
    print(sampler.raw_s, sampler.cal_s, fill_s)
    return 0


def measure(args, workdir) -> int:
    from perfbench import workloads as wl

    end_to_end, per_layer = declared_metrics()
    account = wl.Account()
    bench = bench_sweep if args.workload == "sweep-21" else bench_sim
    metrics, samples, host, tracer = bench(args, account, workdir)

    checks = []
    if tracer is not None:
        defaults = {name: 0.0 for name in per_layer}
        unknown = sorted(set(metrics) - set(defaults) - set(end_to_end))
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        # Layers the workload does not run in this process read 0.
        metrics = {**defaults,
                   **{k: v for k, v in metrics.items() if k in per_layer}}
        tolerance = 1e-6 * max(1.0, metrics["trace.wall_s"])
        if abs(metrics["trace.unaccounted_s"]) > tolerance:
            checks.append("layer self times plus other do not add up to "
                          "the traced pass wall time")
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
        units = per_layer
    else:
        units = end_to_end
    failed = len(account.failures)
    correct = not account.failures and not checks
    for name in units:
        note = f"n={samples[name]}" if name in samples else ""
        if name in host and not args.trace:
            note += f"; {host[name]:.6g} host {units[name]}"
        note = f" ({note})" if note else ""
        print(f"{name} = {metrics[name]:.6g} {units[name]}{note}")
    context = run_context(args.seed)
    print("context:", json.dumps(context, sort_keys=True))
    for reason in account.failures + checks:
        print("FAILED:", reason)
    report = {"workload": args.workload, "trace": args.trace,
              "context": context, "samples": samples, "host": host,
              "failures": account.failures + checks,
              "metrics": {name: metrics[name] for name in units}}
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": account.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
