"""Tests for the event queue and virtual clock."""

import pytest

from repro.sim.events import EventQueue, VirtualClock, run_until_quiet


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda: order.append("b"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(3.0, lambda: order.append("c"))
        while queue:
            queue.dispatch_entry(queue.pop_entry())
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        order = []
        for name in "abcde":
            queue.schedule(1.0, lambda name=name: order.append(name))
        while queue:
            queue.dispatch_entry(queue.pop_entry())
        assert order == list("abcde")

    def test_cancel_skips_event(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        queue.cancel(event)
        assert queue.pop_entry() is None
        assert fired == []

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0

    def test_len_counts_live_events(self):
        queue = EventQueue()
        e1 = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(e1)
        assert len(queue) == 1

    def test_earliest_entry_time(self):
        queue = EventQueue()
        assert queue.pop_entry() is None
        queue.schedule(5.0, lambda: None)
        queue.schedule(3.0, lambda: None)
        assert queue.pop_entry()[0] == 3.0

    def test_earliest_entry_skips_cancelled(self):
        queue = EventQueue()
        early = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.cancel(early)
        assert queue.pop_entry()[0] == 2.0

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1.0, lambda: None)

    def test_entries_pop_in_order(self):
        queue = EventQueue()
        queue.schedule(2.0, lambda: None, tag="late")
        queue.schedule(1.0, lambda: None, tag="early")
        tags = [entry[3].tag for entry in iter(queue.pop_entry, None)]
        assert tags == ["early", "late"]


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advances(self):
        clock = VirtualClock()
        clock.advance_to(4.5)
        assert clock.now == 4.5

    def test_rejects_backwards_motion(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_same_time_allowed(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0


class TestRunUntilQuiet:
    def test_runs_all_events(self):
        queue, clock = EventQueue(), VirtualClock()
        hits = []
        queue.schedule(1.0, lambda: hits.append(1))
        queue.schedule(2.0, lambda: hits.append(2))
        executed = run_until_quiet(queue, clock)
        assert executed == 2
        assert hits == [1, 2]
        assert clock.now == 2.0

    def test_events_may_schedule_more_events(self):
        queue, clock = EventQueue(), VirtualClock()
        hits = []

        def first():
            hits.append("first")
            queue.schedule(clock.now + 1.0, lambda: hits.append("second"))

        queue.schedule(1.0, first)
        run_until_quiet(queue, clock)
        assert hits == ["first", "second"]

    def test_deadline_stops_early(self):
        queue, clock = EventQueue(), VirtualClock()
        hits = []
        queue.schedule(1.0, lambda: hits.append(1))
        queue.schedule(10.0, lambda: hits.append(2))
        run_until_quiet(queue, clock, deadline=5.0)
        assert hits == [1]
        assert len(queue) == 1  # late event still queued

    def test_budget_exhaustion_raises(self):
        queue, clock = EventQueue(), VirtualClock()

        def reschedule():
            queue.schedule(clock.now + 1.0, reschedule)

        queue.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError, match="budget"):
            run_until_quiet(queue, clock, max_events=50)

    def test_budget_exhaustion_is_a_named_repro_error(self):
        from repro.errors import EventBudgetExceeded

        queue, clock = EventQueue(), VirtualClock()

        def reschedule():
            queue.schedule(clock.now + 1.0, reschedule)

        queue.schedule(1.0, reschedule)
        with pytest.raises(EventBudgetExceeded, match="event budget of 50 exhausted"):
            run_until_quiet(queue, clock, max_events=50)

    def test_budget_not_raised_when_quiescing_on_budget_th_event(self):
        """Regression: draining the queue on exactly the budget-th event
        is quiescence, not a runaway simulation."""
        queue, clock = EventQueue(), VirtualClock()
        hits = []
        for step in range(3):
            queue.schedule(float(step), lambda step=step: hits.append(step))
        executed = run_until_quiet(queue, clock, max_events=3)
        assert executed == 3
        assert hits == [0, 1, 2]
