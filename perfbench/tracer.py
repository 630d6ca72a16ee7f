"""In-memory span tracer that times calls into the program's layers.

The benchmark never edits the program to trace it.  During a traced pass
:func:`installed` rebinds the public callables each layer exposes to thin
wrappers that open a span around every call, and restores the originals
afterwards:

* ``repro.core.base.advance_pool`` and ``repro.core.base.BlockPool``
  (the integrate kernel and its stacked-pool build, as the rank workers
  bind them);
* ``Comm.send`` and ``FileSystem.read`` (simulated network and
  filesystem pricing);
* ``Cluster.run`` (the event loop);
* every rank program handed to ``Engine.spawn`` (the algorithm policy).

The block store's ``load`` is traced by passing :class:`TimingStore`
through ``run_streamlines(store=...)``.

Simulated ranks are generators resumed by the engine, so a span over a
generator call is recorded per resumption: each ``send`` into the
wrapped generator is one span, and the time between resumptions belongs
to whoever runs then.  Nesting follows the real call stack, which makes
every span's *self time* (its duration minus the time its child spans
cover) an exclusive share of the traced pass: summed over all spans,
plus the time no span covers, it equals the pass wall time.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

#: Span name -> layer it is charged to.
LAYER_OF = {
    "integrate.advance_pool": "integrate",
    "integrate.block_pool": "integrate",
    "storage.load": "storage",
    "sim.engine": "sim",
    "sim.network.send": "sim",
    "sim.filesystem.read": "sim",
    "core.policy": "core",
    "core.driver": "core",
    "exec.sweep": "exec",
}

#: Layers in report order; time outside every span is ``other``.  No
#: span maps to ``obs``: the traced pass runs with the recorder off, so
#: the recorder's cost is measured by a separate recorder-on pass.
LAYERS = ("integrate", "storage", "sim", "core", "obs", "exec")

#: ``advance_pool`` call-size buckets: (label, smallest k, largest k).
K_BUCKETS = (("k1", 1, 1), ("k2_4", 2, 4), ("k5_32", 5, 32),
             ("k33_up", 33, None))


class Tracer:
    """Collects spans ``(id, name, start, end, parent, run, self)``.

    ``run`` is the id shared by every span of one simulated run; start
    and end are ``time.perf_counter()`` seconds.  Spans stay in memory
    until :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int, float]] = []
        self.calls: Dict[str, int] = {}
        #: ``(k, seconds, attempted steps)`` per ``advance_pool`` call.
        self.kernel_calls: List[Tuple[int, float, int]] = []
        self.engine_events = 0
        self.run_id = 0
        self._next_id = 0
        # Open spans: [id, name, start, covered-by-children seconds].
        self._stack: List[list] = []

    def count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = time.perf_counter()
        sid, name, start, covered = self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
        self.spans.append((sid, name, start, end, parent, self.run_id,
                           duration - covered))
        return duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.count(name)
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def generator(self, name: str, gen: Generator) -> Generator:
        """Wrap ``gen`` so that each resumption is one ``name`` span."""
        self.count(name)
        value = None
        while True:
            self.enter(name)
            try:
                request = gen.send(value)
            except StopIteration as stop:
                self.exit()
                return stop.value
            except BaseException:
                self.exit()
                raise
            self.exit()
            try:
                value = yield request
            except GeneratorExit:
                gen.close()
                raise

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def self_seconds(self) -> Dict[str, float]:
        """Self time summed per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span[1]] = out.get(span[1], 0.0) + span[6]
        return out

    def segments(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def covered_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(span[3] - span[2] for span in self.spans if not span[4])

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, run, _ in self.spans:
                f.write(json.dumps({"id": sid, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent, "run": run}))
                f.write("\n")


class TimingStore:
    """Block store wrapper that traces every ``load``."""

    def __init__(self, store: Any, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer

    def load(self, block_id: int) -> Any:
        with self._tracer.span("storage.load"):
            return self._store.load(block_id)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind the layers' public callables to traced wrappers."""
    import repro.core.base as base
    from repro.sim.cluster import Cluster
    from repro.sim.engine import Engine
    from repro.sim.filesystem import FileSystem
    from repro.sim.network import Comm

    orig_advance = base.advance_pool
    orig_pool = base.BlockPool
    orig_send = Comm.send
    orig_read = FileSystem.read
    orig_run = Cluster.run
    orig_spawn = Engine.spawn

    def advance_pool(lines, *args: Any, **kwargs: Any):
        tracer.count("integrate.advance_pool")
        tracer.enter("integrate.advance_pool")
        try:
            result = orig_advance(lines, *args, **kwargs)
        finally:
            seconds = tracer.exit()
        tracer.kernel_calls.append((len(lines), seconds,
                                    result.attempted_steps))
        return result

    def block_pool(blocks):
        with tracer.span("integrate.block_pool"):
            return orig_pool(blocks)

    def send(self, *args: Any, **kwargs: Any):
        return tracer.generator("sim.network.send",
                                orig_send(self, *args, **kwargs))

    def read(self, *args: Any, **kwargs: Any):
        return tracer.generator("sim.filesystem.read",
                                orig_read(self, *args, **kwargs))

    def run(self, max_events: Optional[int] = None) -> float:
        try:
            with tracer.span("sim.engine"):
                return orig_run(self, max_events=max_events)
        finally:
            tracer.engine_events += self.engine.event_count

    def spawn(self, name: str, program, rank: Optional[int] = None):
        return orig_spawn(self, name,
                          tracer.generator("core.policy", program),
                          rank=rank)

    base.advance_pool = advance_pool
    base.BlockPool = block_pool
    Comm.send = send
    FileSystem.read = read
    Cluster.run = run
    Engine.spawn = spawn
    try:
        yield tracer
    finally:
        base.advance_pool = orig_advance
        base.BlockPool = orig_pool
        Comm.send = orig_send
        FileSystem.read = orig_read
        Cluster.run = orig_run
        Engine.spawn = orig_spawn
