#!/usr/bin/env python
"""Block-level tracing: watch write delegation and journal amplification.

Attaches a SpanBuilder to the stack, runs two tenants through a mixed
workload, and prints (a) the *submitter* view a block-level scheduler
would see — almost everything from pdflush/jbd2 — against (b) the
*cause* view the split framework's tags provide, plus the measured
write amplification from journaling.

Run:  python examples/block_trace_analysis.py
"""

from repro import Environment, HDD, MB, OS
from repro.obs import SpanBuilder, bytes_by_cause
from repro.schedulers import SplitNoop


def main():
    env = Environment()
    machine = OS(env, device=HDD(), scheduler=SplitNoop(), memory_bytes=512 * MB)
    builder = SpanBuilder.attach(machine)

    alice = machine.spawn("alice")
    bob = machine.spawn("bob")
    payload = {}

    def tenant(task, path, nbytes):
        handle = yield from machine.creat(task, path)
        yield from handle.append(nbytes)  # buffered: pdflush will submit
        payload[task.name] = nbytes

    env.process(tenant(alice, "/alice.db", 8 * MB))
    env.process(tenant(bob, "/bob.log", 2 * MB))
    env.run(until=env.now + 1.0)
    machine.writeback.request_flush(0)  # let the delegation happen
    env.run(until=env.now + 30.0)

    # One `io` span per completed block request, in completion order.
    io = [span for span in builder.spans if span["kind"] == "io"]

    by_submitter = {}
    for span in io:
        name = span["submitter"]
        by_submitter[name] = by_submitter.get(name, 0) + span["bytes"]

    print("== what a block-level scheduler sees (submitters) ==")
    for name, nbytes in sorted(by_submitter.items()):
        print(f"  {name:12s} {nbytes / MB:8.2f} MB")

    print("\n== what split tags reveal (true causes) ==")
    for who, nbytes in sorted(bytes_by_cause(io).items()):
        print(f"  {who:12s} {nbytes / MB:8.2f} MB")

    # Fraction of requests contiguous with their predecessor.
    sequential = sum(
        1 for prev, cur in zip(io, io[1:])
        if cur["block"] == prev["block"] + prev["nblocks"]
    )
    total_payload = sum(payload.values())
    amplification = sum(span["bytes"] for span in io) / total_payload
    print(f"\nwrite amplification: {amplification:.3f}x "
          f"({len(io)} requests, "
          f"{sequential / (len(io) - 1):.0%} sequential)")
    print("journal/metadata writes:", sum(1 for span in io if span["metadata"]))


if __name__ == "__main__":
    main()
