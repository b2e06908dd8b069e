from didgov.scheduler import DeadlineQueue, ScheduleRequest, SimClock


def test_clock_starts_at_zero_and_advances():
    clock = SimClock()
    assert clock.now == 0
    clock.advance(7)
    clock.advance(7)  # same tick is fine
    assert clock.now == 7


def test_queue_pops_in_deadline_then_id_order():
    queue = DeadlineQueue()
    queue.push(ScheduleRequest(proposal_id=3, deadline=10))
    queue.push(ScheduleRequest(proposal_id=1, deadline=10))
    queue.push(ScheduleRequest(proposal_id=2, deadline=5))
    assert len(queue) == 3
    assert queue.due(10) == [(5, 2), (10, 1), (10, 3)]
    assert len(queue) == 0


def test_due_leaves_future_entries():
    queue = DeadlineQueue()
    queue.push(ScheduleRequest(proposal_id=1, deadline=5))
    queue.push(ScheduleRequest(proposal_id=2, deadline=15))
    assert queue.due(9) == [(5, 1)]
    assert queue.entries() == ((15, 2),)
    assert queue.due(9) == []  # popped entries do not come back


def test_entries_is_sorted_view():
    queue = DeadlineQueue()
    for pid, deadline in ((5, 9), (1, 3), (2, 9)):
        queue.push(ScheduleRequest(proposal_id=pid, deadline=deadline))
    assert queue.entries() == ((3, 1), (9, 2), (9, 5))
