"""Tests of the discrete-event engine: ordering, processes, signals."""

import pytest

from repro.sim.engine import (
    DeadlockError,
    Engine,
    ProcessFailure,
    Signal,
    Sleep,
    Wait,
)


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_sleep_advances_clock():
    engine = Engine()

    def prog():
        yield Sleep(1.5)
        yield Sleep(0.5)

    engine.spawn("p", prog())
    assert engine.run() == 2.0


def test_zero_sleep_is_allowed():
    engine = Engine()

    def prog():
        yield Sleep(0.0)

    engine.spawn("p", prog())
    assert engine.run() == 0.0


def test_negative_sleep_rejected():
    with pytest.raises(ValueError):
        Sleep(-1.0)


def test_processes_interleave_in_time_order():
    engine = Engine()
    log = []

    def prog(name, delay):
        yield Sleep(delay)
        log.append((name, engine.now))

    engine.spawn("slow", prog("slow", 2.0))
    engine.spawn("fast", prog("fast", 1.0))
    engine.run()
    assert log == [("fast", 1.0), ("slow", 2.0)]


def test_equal_time_events_run_in_spawn_order():
    engine = Engine()
    log = []

    def prog(name):
        yield Sleep(1.0)
        log.append(name)

    for name in ("a", "b", "c"):
        engine.spawn(name, prog(name))
    engine.run()
    assert log == ["a", "b", "c"]


def test_process_result_captured():
    engine = Engine()

    def prog():
        yield Sleep(1.0)
        return 42

    proc = engine.spawn("p", prog())
    engine.run()
    assert proc.result == 42
    assert not proc.alive


def test_signal_wakes_waiter_with_value():
    engine = Engine()
    sig = Signal("go")
    got = []

    def waiter():
        value = yield Wait(sig)
        got.append((value, engine.now))

    def firer():
        yield Sleep(3.0)
        sig.fire("hello")

    engine.spawn("w", waiter())
    engine.spawn("f", firer())
    engine.run()
    assert got == [("hello", 3.0)]


def test_signal_wakes_all_waiters():
    engine = Engine()
    sig = Signal()
    woken = []

    def waiter(i):
        yield Wait(sig)
        woken.append(i)

    for i in range(4):
        engine.spawn(f"w{i}", waiter(i))

    def firer():
        yield Sleep(1.0)
        assert sig.fire() == 4

    engine.spawn("f", firer())
    engine.run()
    assert sorted(woken) == [0, 1, 2, 3]


def test_signal_is_edge_triggered():
    """A fire before anyone waits is lost (documented semantics)."""
    engine = Engine()
    sig = Signal()

    def firer():
        sig.fire()
        yield Sleep(0.0)

    def late_waiter():
        yield Sleep(1.0)
        yield Wait(sig)

    engine.spawn("f", firer())
    engine.spawn("w", late_waiter())
    with pytest.raises(DeadlockError):
        engine.run()


def test_yield_signal_shorthand():
    engine = Engine()
    sig = Signal()
    hits = []

    def waiter():
        v = yield sig
        hits.append(v)

    def firer():
        yield Sleep(1.0)
        sig.fire(7)

    engine.spawn("w", waiter())
    engine.spawn("f", firer())
    engine.run()
    assert hits == [7]


def test_deadlock_detected():
    engine = Engine()
    sig = Signal("never")

    def prog():
        yield Wait(sig)

    engine.spawn("stuck", prog())
    with pytest.raises(DeadlockError, match="stuck"):
        engine.run()


def test_process_exception_propagates_as_failure():
    engine = Engine()

    def prog():
        yield Sleep(1.0)
        raise ValueError("boom")

    engine.spawn("bad", prog())
    with pytest.raises(ProcessFailure) as exc_info:
        engine.run()
    assert isinstance(exc_info.value.cause, ValueError)
    assert "bad" in str(exc_info.value)


def test_yielding_garbage_is_a_failure():
    engine = Engine()

    def prog():
        yield 12345

    engine.spawn("p", prog())
    with pytest.raises(ProcessFailure):
        engine.run()


def test_call_later_and_call_at():
    engine = Engine()
    log = []
    engine.call_later(2.0, lambda: log.append(("later", engine.now)))
    engine.call_at(1.0, lambda: log.append(("at", engine.now)))
    engine.run()
    assert log == [("at", 1.0), ("later", 2.0)]


def test_cannot_schedule_in_the_past():
    engine = Engine()

    def prog():
        yield Sleep(5.0)
        engine.call_at(1.0, lambda: None)

    engine.spawn("p", prog())
    with pytest.raises(ProcessFailure):
        engine.run()


def test_run_until_stops_early():
    engine = Engine()

    def prog():
        for _ in range(10):
            yield Sleep(1.0)

    engine.spawn("p", prog())
    engine.run(until=3.5)
    assert engine.now == 3.0
    engine.run()  # finish the rest
    assert engine.now == 10.0


def test_max_events_guard():
    engine = Engine()

    def prog():
        while True:
            yield Sleep(1.0)

    engine.spawn("loop", prog())
    with pytest.raises(RuntimeError, match="max_events"):
        engine.run(max_events=50)


def test_finished_signal_fires():
    engine = Engine()
    results = []

    def worker():
        yield Sleep(2.0)
        return "done"

    proc = engine.spawn("w", worker())

    def watcher():
        value = yield Wait(proc.finished)
        results.append(value)

    engine.spawn("watch", watcher())
    engine.run()
    assert results == ["done"]


def test_determinism_same_program_same_schedule():
    def build():
        engine = Engine()
        log = []

        def prog(i):
            yield Sleep(0.1 * (i % 3))
            log.append(i)
            yield Sleep(0.05)
            log.append(10 + i)

        for i in range(6):
            engine.spawn(f"p{i}", prog(i))
        engine.run()
        return log

    assert build() == build()


# --------------------------------------------------------------------- #
# Heap ordering: (time, seq) only; callables are never compared
# --------------------------------------------------------------------- #
class _Unorderable:
    """A callable that refuses every ordering comparison."""

    def __init__(self, log, i):
        self.log = log
        self.i = i

    def __call__(self):
        self.log.append(self.i)

    def __lt__(self, other):
        raise AssertionError("engine compared two event callables")

    __le__ = __gt__ = __ge__ = __lt__


def test_equal_time_events_keep_scheduling_order_at_scale():
    engine = Engine()
    log = []
    n = 10_000
    for i in range(n):
        engine.call_at(1.0, _Unorderable(log, i))
    assert engine.pending_events == n
    engine.run()
    assert log == list(range(n))
    assert engine.pending_events == 0
    assert engine.event_count == n


def test_run_until_pushes_back_and_resumes_in_order():
    engine = Engine()
    log = []
    times = [0.5, 2.0, 2.0, 1.0, 3.0, 2.0, 1.0]
    for i, t in enumerate(times):
        engine.call_at(t, _Unorderable(log, i))
    assert engine.pending_events == len(times)
    engine.run(until=1.5)
    # Events at <= until ran in (time, scheduling) order; the first one
    # past it was popped, pushed back and is still queued.
    assert log == [0, 3, 6]
    assert engine.now == 1.0
    assert engine.pending_events == 4
    engine.run(until=2.0)  # an event exactly at ``until`` still runs
    assert log == [0, 3, 6, 1, 2, 5]
    assert engine.pending_events == 1
    engine.run()
    assert log == [0, 3, 6, 1, 2, 5, 4]
    assert engine.now == 3.0
    assert engine.pending_events == 0


def test_pending_events_tracks_schedule_and_dispatch():
    engine = Engine()
    seen = []

    def prog():
        seen.append(engine.pending_events)  # the other spawn's step
        yield Sleep(1.0)
        seen.append(engine.pending_events)

    engine.spawn("a", prog())
    engine.spawn("b", prog())
    engine.call_later(5.0, lambda: seen.append(engine.pending_events))
    assert engine.pending_events == 3
    engine.run()
    # a's first step runs with b's step and the t=5 callback queued;
    # b's first step with a's wake-up and the callback; and so on.
    assert seen == [2, 2, 2, 1, 0]
    assert engine.pending_events == 0
