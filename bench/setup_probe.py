"""One measured set-up in a fresh process; run.py starts several and takes the median.

Reads the workload name from the first line of stdin and, for check-corpus,
its serialized input pool from the remaining lines.  Set-up is what a
workload process does before its first timed op: import folc, construct the
algebras and policies and, for check-corpus, parse the input pool.  Prints
time.perf_counter() once ready; on Linux that clock is CLOCK_MONOTONIC,
shared by all processes, so run.py subtracts the moment it started this one.
"""

import os
import sys
import time


def main() -> int:
    payload = sys.stdin.read().split("\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads as W

    pairs = W.policy_algebras()
    W.policies()
    if payload[0] == "check-corpus":
        W.parse_check_pool([line for line in payload[1:] if line], pairs)
    print(repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
