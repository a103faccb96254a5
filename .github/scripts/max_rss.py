#!/usr/bin/env python3
"""Runs a command and fails when its peak resident set size exceeds a bound.

    python3 .github/scripts/max_rss.py --max-mib 180 -- ./target/release/rcp run ...

The command's standard output and error pass through unchanged.  The peak
RSS is the child's `ru_maxrss` from getrusage(RUSAGE_CHILDREN), in KiB on
Linux.  The exit status is the command's own when it fails, 1 when it
succeeds above the bound, and 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mib", type=float, required=True,
                        help="the largest peak RSS that passes, in MiB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    start = time.monotonic()
    status = subprocess.run(command).returncode
    wall = time.monotonic() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS: {peak:.1f} MiB (bound {args.max_mib:.1f} MiB), wall {wall:.2f} s",
          file=sys.stderr)
    if status != 0:
        return status
    return 1 if peak > args.max_mib else 0


if __name__ == "__main__":
    sys.exit(main())
