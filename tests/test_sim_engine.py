"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    MS,
    US,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == pytest.approx(0.0)

    def test_custom_start_time(self):
        assert Environment(initial_time=5.0).now == pytest.approx(5.0)

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(1.5)
        env.run()
        assert env.now == pytest.approx(1.5)

    def test_run_until_advances_even_without_events(self):
        env = Environment()
        env.run(until=2.0)
        assert env.now == pytest.approx(2.0)

    def test_run_until_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_run_until_does_not_process_later_events(self):
        env = Environment()
        fired = []
        env.timeout(5.0).callbacks.append(lambda event: fired.append(1))
        env.run(until=2.0)
        assert fired == []
        assert env.now == pytest.approx(2.0)

    def test_unit_constants(self):
        assert US == pytest.approx(1e-6)
        assert MS == pytest.approx(1e-3)


class TestEvents:
    def test_succeed_delivers_value(self):
        env = Environment()
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("hello")
        env.run()
        assert seen == ["hello"]

    def test_double_trigger_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates(self):
        env = Environment()
        env.event().fail(ValueError("boom"))
        with pytest.raises(ValueError):
            env.run()

    def test_defused_failure_does_not_crash(self):
        env = Environment()
        env.event().fail(ValueError("boom")).defused()
        env.run()  # no raise

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_negative_timeout_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_step_with_empty_heap_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestProcesses:
    def test_sequential_timeouts(self):
        env = Environment()
        trace = []

        def proc():
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)

        env.process(proc())
        env.run()
        assert trace == [1.0, 3.0]

    def test_process_return_value(self):
        env = Environment()

        def inner():
            yield env.timeout(1.0)
            return 42

        def outer():
            value = yield env.process(inner())
            return value * 2

        result = env.process(outer())
        env.run()
        assert result.value == 84

    def test_yield_from_composition(self):
        env = Environment()

        def leaf():
            yield env.timeout(1.0)
            return "leaf"

        def root():
            value = yield from leaf()
            return value + "-root"

        process = env.process(root())
        env.run()
        assert process.value == "leaf-root"

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_fails_it(self):
        env = Environment()

        def bad():
            yield env.timeout(1.0)
            raise RuntimeError("inside")

        def watcher():
            process = env.process(bad())
            try:
                yield process
            except RuntimeError as exc:
                return str(exc)

        result = env.process(watcher())
        env.run()
        assert result.value == "inside"

    def test_interrupt_wakes_process(self):
        env = Environment()
        trace = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                trace.append((env.now, interrupt.cause))

        process = env.process(sleeper())

        def interrupter():
            yield env.timeout(1.0)
            process.interrupt("wake up")

        env.process(interrupter())
        env.run()
        assert trace == [(1.0, "wake up")]

    def test_interrupt_finished_process_raises(self):
        env = Environment()

        def quick():
            yield env.timeout(0.1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_is_alive(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        pre = env.timeout(0.0, value="early")
        env.run()
        assert pre.processed

        def late():
            value = yield pre
            return value

        process = env.process(late())
        env.run()
        assert process.value == "early"


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc():
            yield env.all_of([env.timeout(1.0), env.timeout(3.0)])
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 3.0

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc():
            yield env.any_of([env.timeout(1.0), env.timeout(3.0)])
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 1.0

    def test_and_or_operators(self):
        env = Environment()
        both = env.timeout(1.0) & env.timeout(2.0)
        either = env.timeout(1.0) | env.timeout(2.0)
        assert isinstance(both, AllOf)
        assert isinstance(either, AnyOf)
        env.run()
        assert both.triggered and either.triggered

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        condition = env.all_of([])
        assert condition.triggered


class TestDeterminism:
    def test_same_time_events_fire_in_schedule_order(self):
        env = Environment()
        order = []
        for index in range(10):
            env.timeout(1.0).callbacks.append(
                lambda event, i=index: order.append(i)
            )
        env.run()
        assert order == list(range(10))

    def test_repeated_runs_identical(self):
        def run_once():
            env = Environment()
            trace = []

            def worker(delay, tag):
                yield env.timeout(delay)
                trace.append((env.now, tag))
                yield env.timeout(delay)
                trace.append((env.now, tag))

            for index in range(5):
                env.process(worker(0.1 * (index + 1), index))
            env.run()
            return trace

        assert run_once() == run_once()

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(4.0)
        assert env.peek() == 4.0


class TestCallLater:
    def test_calls_and_events_fire_in_scheduling_order(self):
        env = Environment()
        order = []

        def proc():
            # Its timeout is scheduled when the process first runs,
            # after everything below.
            yield env.timeout(1.0)
            order.append("process")

        env.process(proc())
        env.call_later(1.0, order.append, "call-1")
        env.timeout(1.0).callbacks.append(lambda event: order.append("timeout"))
        env.call_later(1.0, order.append, "call-2")
        env.run()
        assert order == ["call-1", "timeout", "call-2", "process"]
        assert env.now == pytest.approx(1.0)

    def test_calls_merge_only_with_the_last_scheduled_entry(self):
        env = Environment()
        order = []
        env.call_later(1.0, order.append, 1)
        env.call_later(1.0, order.append, 2)
        assert len(env._heap) == 1
        env.timeout(1.0).callbacks.append(lambda event: order.append("t"))
        env.call_later(1.0, order.append, 3)
        assert len(env._heap) == 3
        env.call_later(2.0, order.append, 4)  # another time
        env.call_later(2.0, order.extend, [5])  # another function
        assert len(env._heap) == 5
        steps = 0
        while env._heap:
            env.step()
            steps += 1
        assert order == [1, 2, "t", 3, 4, 5]
        assert steps == 5

    def test_call_after_its_entry_popped_gets_an_entry_of_its_own(self):
        env = Environment()
        order = []
        env.call_later(1.0, order.append, "a")
        env.run(until=1.0)
        # Same function, same instant: the popped entry must not take it.
        env.call_later(0.0, order.append, "b")
        env.run()
        assert order == ["a", "b"]

    def test_delay_zero_call_from_a_batch_runs_after_the_batch(self):
        env = Environment()
        order = []

        def record(tag):
            order.append((env.now, tag))
            if tag == "a":
                env.call_later(0.0, record, "a-child")

        env.call_later(1.0, record, "a")
        env.call_later(1.0, record, "b")
        env.timeout(1.0).callbacks.append(
            lambda event: order.append((env.now, "timeout"))
        )
        env.run()
        assert order == [
            (1.0, "a"), (1.0, "b"), (1.0, "timeout"), (1.0, "a-child"),
        ]

    def test_exception_propagates_out_of_run(self):
        env = Environment()
        order = []

        def record(tag):
            if tag == "bad":
                raise ValueError("boom")
            order.append(tag)

        env.call_later(1.0, record, "bad")
        env.call_later(1.0, record, "after")
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert order == []
        # The rest of the entry is still pending at the same instant.
        assert env.peek() == 1.0
        env.run()
        assert order == ["after"]

    def test_run_until_neither_runs_nor_drops_a_later_call(self):
        env = Environment()
        fired = []
        env.call_later(5.0, lambda: fired.append(env.now))
        env.run(until=2.0)
        assert fired == []
        assert env.now == pytest.approx(2.0)
        assert env.peek() == 5.0
        env.run()
        assert fired == [5.0]

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.call_later(-1e-9, print)
        assert env._heap == []

    def test_each_call_is_its_own_atomic_section(self):
        env = Environment()
        seen = []

        def record():
            seen.append((env.yield_generation, env.active_process))

        env.call_later(1.0, record)
        env.call_later(1.0, record)
        env.call_later(1.0, record)
        env.run()
        assert [gen for gen, _ in seen] == [1, 2, 3]
        assert all(active is None for _, active in seen)


def _process_call_later(env, delay, fn, *args):
    """``call_later`` built from a process, as the test oracle.

    The timeout is created at call time, so it takes the tie-break
    place that ``call_later`` takes; the process starts first and is
    already waiting on it when it fires.
    """

    def waiter():
        yield fired
        fn(*args)

    env.process(waiter())
    fired = env.timeout(delay)


_DELAYS = st.sampled_from([0.0, 1.0, 2.0])


def _actions(children):
    """A list of actions; each one, when it fires, runs ``children``."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("call"), _DELAYS, children),
            st.tuples(st.just("timeout"), _DELAYS, children),
            st.tuples(
                st.just("process"),
                st.lists(_DELAYS, min_size=1, max_size=3),
                children,
            ),
        ),
        max_size=4,
    )


_PROGRAMS = st.recursive(st.just([]), _actions, max_leaves=24)


def _trace(program, call_later):
    """Run ``program`` with ``call_later`` carrying its deliveries and
    return the ``(time, label)`` trace of everything that fired."""
    env = Environment()
    trace = []

    def start(actions, path):
        for index, (kind, delay, children) in enumerate(actions):
            label = path + (index,)
            if kind == "call":
                call_later(env, delay, fire, label, children)
            elif kind == "timeout":
                env.timeout(delay).callbacks.append(
                    lambda event, l=label, c=children: fire(l, c)
                )
            else:
                env.process(proc(delay, label, children))

    def fire(label, children):
        trace.append((env.now, label))
        start(children, label)

    def proc(delays, label, children):
        for step, delay in enumerate(delays):
            yield env.timeout(delay)
            trace.append((env.now, label + ("step", step)))
        start(children, label)

    start(program, ())
    env.run()
    return trace


class TestCallLaterMatchesProcesses:
    @settings(max_examples=300, deadline=None)
    @given(_PROGRAMS)
    def test_same_trace_as_process_deliveries(self, program):
        direct = _trace(program, Environment.call_later)
        oracle = _trace(program, _process_call_later)
        assert direct == oracle
