"""Property tests: every elevator serves every request exactly once."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import BlockQueue, BlockRequest
from repro.block.request import READ, WRITE
from repro.devices import SSD
from repro.obs.bus import BlockComplete
from repro.proc import ProcessTable
from repro.schedulers import BlockDeadline, CFQ, Noop
from repro.sim import Environment


def elevator_factories():
    return {
        "noop": Noop,
        "cfq": CFQ,
        "deadline": BlockDeadline,
    }


request_spec = st.tuples(
    st.sampled_from([READ, WRITE]),          # op
    st.integers(min_value=0, max_value=5000),  # block
    st.integers(min_value=1, max_value=64),    # nblocks
    st.integers(min_value=0, max_value=3),     # submitter index
    st.booleans(),                             # sync
    st.floats(min_value=0, max_value=0.01),    # submit delay
)


@pytest.mark.parametrize("name", sorted(elevator_factories()))
@settings(max_examples=20, deadline=None)
@given(specs=st.lists(request_spec, min_size=1, max_size=40))
def test_all_requests_complete_exactly_once(name, specs):
    env = Environment()
    table = ProcessTable()
    tasks = [table.spawn(f"t{i}", priority=i * 2) for i in range(4)]
    queue = BlockQueue(env, SSD(), elevator_factories()[name](), process_table=table)
    completed = []
    queue.bus.subscribe(BlockComplete, lambda e: completed.append(e.request.id))

    submitted_ids = []

    def submitter():
        events = []
        for op, block, nblocks, task_index, sync, delay in specs:
            if delay:
                yield env.timeout(delay)
            request = BlockRequest(op, block, nblocks, tasks[task_index], sync=sync)
            submitted_ids.append(request.id)
            events.append(queue.submit(request))
        for event in events:
            yield event

    proc = env.process(submitter())
    env.run(until=proc)
    assert sorted(completed) == sorted(submitted_ids)
    assert len(set(completed)) == len(completed)  # exactly once
    assert not queue.scheduler.has_work()
