from didgov.scheduler import DeadlineQueue, SimClock


def test_clock_starts_at_zero_and_advances():
    clock = SimClock()
    assert clock.now == 0
    clock.advance(7)
    clock.advance(7)  # same tick is fine
    assert clock.now == 7


def test_queue_pops_in_deadline_then_id_order():
    queue = DeadlineQueue()
    queue.push(10, 3)
    queue.push(10, 1)
    queue.push(5, 2)
    assert len(queue) == 3
    assert queue.due(10) == [(5, 2), (10, 1), (10, 3)]
    assert len(queue) == 0


def test_due_leaves_future_entries():
    queue = DeadlineQueue()
    queue.push(5, 1)
    queue.push(15, 2)
    assert queue.due(9) == [(5, 1)]
    assert queue.entries() == ((15, 2),)
    assert queue.due(9) == []  # popped entries do not come back


def test_entries_is_sorted_view():
    queue = DeadlineQueue()
    for pid, deadline in ((5, 9), (1, 3), (2, 9)):
        queue.push(deadline, pid)
    assert queue.entries() == ((3, 1), (9, 2), (9, 5))
