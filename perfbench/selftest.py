"""Tiny-scale self-test of the benchmark, including negative cases.

Run from the repository root (a few seconds)::

    python3 perfbench/selftest.py

It runs one small gated pass, then feeds the gate deliberately altered
results — a one-ulp change to one vertex, a changed simulated clock, a
changed sweep entry, an OOM probe that did not OOM, a timed-out run — and
requires each to be flagged as failed.  It also traces the small pass
and checks that layer self times plus ``other`` add up to its wall time
and that every traced metric is declared in ``BENCHMARK.json``, and it
checks that a pass timed under the host-speed sampler is gated like any
other and leaves no interval timer behind.
Exit code 0 means every check held.
"""

import copy
import dataclasses
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import gate  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.tracer import Tracer, TimingStore, installed  # noqa: E402

TINY = dataclasses.replace(wl.SIM_WORKLOADS["astro-dense-8"], name="tiny",
                           ranks=4, n_seeds=12, canonical_seed=-1,
                           committed=None)


def expect(label: str, ok: bool, problems: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        problems.append(label)


def check_sim(problems: list) -> None:
    problem, store, _ = wl.setup(TINY, 5)
    account = wl.Account()
    bench = wl.SimBench(TINY, 5, problem, store, account)
    _, results, _ = bench.run_pass()
    expect("clean pass has no failures",
           account.attempted == 3 and not account.failures, problems)

    altered = copy.deepcopy(results)
    line = altered["hybrid"].streamlines[0]
    line.segments[-1] = line.segments[-1].copy()
    line.segments[-1][-1, 0] = np.nextafter(line.segments[-1][-1, 0], 1e9)
    before = len(account.failures)
    bench.gate(altered)
    expect("one-ulp vertex change is flagged",
           len(account.failures) == before + 1
           and account.failures[-1].startswith("tiny/hybrid"), problems)

    altered = copy.deepcopy(results)
    altered["static"].wall_clock *= 1.0 + 1e-12
    before = len(account.failures)
    bench.gate(altered)
    expect("changed simulated clock is flagged",
           len(account.failures) == before + 1, problems)

    altered = dict(results, ondemand=RuntimeError("boom"))
    before = len(account.failures)
    bench.gate(altered)
    expect("raised run is flagged", len(account.failures) == before + 1,
           problems)

    before = len(account.failures)
    wall, _, times = bench.run_pass(sampled=True)
    expect("sampled pass passes the gate with probe-free and calibrated "
           "times",
           len(account.failures) == before and wall == sum(times)
           and len(bench.run_cal) == len(times)
           and all(t > 0 for t in times + bench.run_cal), problems)
    expect("sampler leaves no interval timer behind",
           signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
           and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL,
           problems)

    tracer = Tracer()
    with installed(tracer):
        wall, _, _ = bench.run_pass(store=TimingStore(store, tracer),
                                    tracer=tracer)
    layer = wl.layer_metrics(tracer, wall, wall)
    layer.update(wl.kernel_metrics(tracer, wall))
    expect("self times plus other add up to the traced wall",
           abs(layer["trace.unaccounted_s"]) < 1e-6, problems)
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    expect("traced metrics are declared in BENCHMARK.json",
           set(layer) <= declared, problems)


def check_sweep(problems: list) -> None:
    from repro.exec import RunOutcome

    committed = gate.committed_sweep(wl.BENCH_ALL)
    specs = {spec.name: spec for spec in wl.sweep_specs()}
    expect("sweep specs match the committed run names",
           set(specs) == set(committed), problems)

    def outcome(name, outcome_status="ok", **change):
        payload = json.loads(committed[name])
        payload.update(change)
        return RunOutcome(spec=specs[name], status=outcome_status,
                          payload=payload)

    name = "astro-dense-hybrid-8"
    probe = "thermal-dense-static-8-oomprobe"
    expect("committed entry passes",
           not gate.sweep_errors(outcome(name), committed)
           and not gate.sweep_errors(outcome(probe), committed), problems)
    expect("altered entry is flagged",
           bool(gate.sweep_errors(outcome(name, wall_clock=1.0),
                                  committed)), problems)
    expect("OOM probe that did not OOM is flagged",
           bool(gate.sweep_errors(outcome(probe, status="ok"),
                                  committed)), problems)
    expect("timed-out run is flagged",
           bool(gate.sweep_errors(outcome(name, outcome_status="timeout"),
                                  committed)), problems)


def main() -> int:
    problems: list = []
    check_sim(problems)
    check_sweep(problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
