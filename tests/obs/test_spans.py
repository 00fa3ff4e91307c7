"""SpanBuilder lifecycle correlation and cause-set proxy attribution.

The Figure 7 property the spans must preserve: I/O delegated to kernel
proxies (the writeback daemon, the journal commit task) is attributed
to the tasks *served*, never to the proxy that submitted it.
"""

from repro import KB, MB, Environment, OS, SSD
from repro.obs import SpanBuilder, bytes_by_cause, latency_breakdown
from repro.schedulers import Noop


def make_traced_os(memory_bytes=256 * MB):
    env = Environment()
    machine = OS(env, device=SSD(), scheduler=Noop(), memory_bytes=memory_bytes)
    builder = SpanBuilder.attach(machine)
    return env, machine, builder


def drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def test_io_spans_cover_full_lifecycle():
    env, machine, builder = make_traced_os()
    task = machine.spawn("writer")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield from handle.fsync()

    drive(env, proc())
    io = [s for s in builder.spans if s["kind"] == "io"]
    assert io
    for span in io:
        assert span["complete"] >= span["dispatch"] >= span["submit"]
        assert span["queue_wait"] >= 0 and span["device_time"] >= 0
        assert span["status"] == "ok"
    # Data writes carry their pages' cache residency.
    writes = [s for s in io if s["op"] == "write" and not s["metadata"]]
    assert any(s["cache_wait"] is not None for s in writes)


def test_io_spans_record_completions():
    env, machine, builder = make_traced_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield from handle.fsync()

    drive(env, proc())
    io = [s for s in builder.spans if s["kind"] == "io"]
    assert io
    assert [s for s in io if s["op"] == "write"]
    for span in io:
        latency = span["complete"] - span["submit"]
        assert latency >= span["queue_wait"] >= 0


def test_syscall_spans_match_calls():
    env, machine, builder = make_traced_os()
    task = machine.spawn("reader")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()
        yield from handle.pread(0, 64 * KB)

    drive(env, proc())
    sys_spans = [s for s in builder.spans if s["kind"] == "syscall"]
    calls = {s["call"] for s in sys_spans}
    assert {"creat", "write", "fsync", "read"} <= calls
    for span in sys_spans:
        assert span["task"] == "reader"
        assert span["duration"] >= 0


def test_writeback_delegation_attributed_to_dirtier():
    """pdflush-submitted writeback lands on the task that dirtied."""
    env, machine, builder = make_traced_os(memory_bytes=64 * MB)
    task = machine.spawn("dirtier")

    def proc():
        handle = yield from machine.creat(task, "/big")
        # 16 MB dirty in a 64 MB cache: over the 10% background ratio,
        # so the writeback daemon starts flushing on the dirtier's
        # behalf without any explicit fsync.
        yield from handle.append(16 * MB)

    drive(env, proc())
    env.run(until=env.now + 60.0)

    delegated = [
        s for s in builder.spans
        if s["kind"] == "io" and s["submitter"] == "pdflush"
    ]
    assert delegated, "expected background writeback I/O"
    for span in delegated:
        assert span["causes"] == [task.pid]
        assert span["cause_names"] == ["dirtier"]
    # The block-level submitter view and the cause view disagree —
    # exactly the information gap the cause tags close.
    assert all(span["submitter_pid"] != task.pid for span in delegated)


def test_io_span_bytes_by_cause_vs_submitter():
    """A proxy-submitted request: the block view sees the submitter,
    the cause view sees the task it was submitted for."""
    env, machine, builder = make_traced_os()
    app = machine.spawn("app")
    from repro.block.request import BlockRequest, WRITE
    from repro.core.tags import CauseSet

    pdflush = machine.writeback.task

    def proc():
        request = BlockRequest(WRITE, 0, 4, pdflush, causes=CauseSet([app.pid]))
        yield machine.block_queue.submit(request)

    drive(env, proc())
    io = [s for s in builder.spans if s["kind"] == "io"]
    assert bytes_by_cause(io) == {"app": 4 * 4 * KB}
    assert [(s["submitter"], s["bytes"]) for s in io] == [("pdflush", 4 * 4 * KB)]


def test_io_spans_count_journal_write_amplification():
    env, machine, builder = make_traced_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * KB)
        yield from handle.fsync()

    drive(env, proc())
    # One 4 KB data page + journal blocks: amplification > 1.
    device_bytes = sum(s["bytes"] for s in builder.spans if s["kind"] == "io")
    assert device_bytes / (4 * KB) > 1.0


def test_io_spans_time_cold_reads():
    env, machine, builder = make_traced_os()
    task = machine.spawn("t")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()
        machine.cache.free_file(handle.inode.id)
        yield from handle.pread(0, 64 * KB)

    drive(env, proc())
    reads = [s for s in builder.spans if s["kind"] == "io" and s["op"] == "read"]
    assert reads
    assert all(s["complete"] - s["submit"] > 0 for s in reads)


def test_journal_commit_attributed_to_joiners():
    """jbd2 commits are attributed to the fsyncing task (Figure 7)."""
    env, machine, builder = make_traced_os()
    task = machine.spawn("syncer")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(256 * KB)
        yield from handle.fsync()

    drive(env, proc())
    journal = [s for s in builder.spans if s["kind"] == "journal"]
    assert journal
    commit = journal[0]
    assert commit["causes"] == [task.pid]
    assert commit["cause_names"] == ["syncer"]
    assert not commit["aborted"]
    assert commit["end"] >= commit["start"]
    # Journal-submitted block I/O also lands on the joiner, not jbd2.
    jbd2_io = [
        s for s in builder.spans
        if s["kind"] == "io" and s["submitter"].startswith("jbd2")
    ]
    assert jbd2_io
    for span in jbd2_io:
        assert task.pid in span["causes"]


def test_latency_breakdown_stages_and_attribution():
    env, machine, builder = make_traced_os()
    task = machine.spawn("worker")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield from handle.fsync()

    drive(env, proc())
    breakdown = latency_breakdown(builder.spans, group_by="cause")
    assert set(breakdown["stages"]) == {"syscall", "cache", "journal", "queue", "device"}
    assert breakdown["stages"]["queue"]["count"] > 0
    assert breakdown["stages"]["device"]["p99"] >= breakdown["stages"]["device"]["p50"]
    assert "worker" in breakdown["by_cause"]
    assert "worker" in breakdown["groups"]
    assert breakdown["span_counts"]["io"] > 0


def test_builder_close_stops_collection():
    env, machine, builder = make_traced_os()
    task = machine.spawn("t")

    def write():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()

    drive(env, write())
    count = len(builder.spans)
    assert count > 0
    builder.close()

    def write_more():
        handle = yield from machine.open(task, "/f")
        yield from handle.append(64 * KB)
        yield from handle.fsync()

    drive(env, write_more())
    assert len(builder.spans) == count
