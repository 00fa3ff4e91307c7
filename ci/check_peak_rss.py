"""Peak-memory gate: run a command in a child process and bound its RSS.

Fails when the child's peak resident set (``ru_maxrss`` of the waited-for
children) exceeds the limit, or when the child itself fails.  Guards
against memory growth that no output hash would notice, such as the
journal keeping a block-map snapshot of every commit for the whole run.

Usage::

    python ci/check_peak_rss.py LIMIT_MIB COMMAND [ARG ...]

The command's stdout is discarded; stderr passes through.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    limit_mib = float(argv[0])
    child = subprocess.run(argv[1:], stdout=subprocess.DEVNULL)
    # Linux reports ru_maxrss in KiB.
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mib:.0f} MiB (limit {limit_mib:.0f} MiB)")
    if child.returncode != 0:
        print(f"command exited {child.returncode}", file=sys.stderr)
        return 1
    return 0 if peak_mib <= limit_mib else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
