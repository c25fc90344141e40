#!/usr/bin/env python3
"""Measure pimserve's memory cost per request.

Replays the synthetic demo trace at two request counts over one
topology, reads each child process's peak resident set (ru_maxrss),
and reports the slope between the two runs in bytes per request:

    scripts/request_memory.py build/tools/pimserve 20x2x64 50000 250000
    scripts/request_memory.py PIMSERVE TOPO N1 N2 --max-bytes-per-request 450
    scripts/request_memory.py PIMSERVE TOPO N1 N2 --json fleet.json

The fixed cost of the simulated system cancels in the slope, so it
tracks what each request costs the host: its inputs and outputs, its
queue entry and its latency record. Prints one JSON object:

    {"topology": "20x2x64", "requests": [N1, N2],
     "peak_rss_mb": [R1, R2], "bytes_per_request": B}

--json PATH is passed to the N2 replay (its pimserve --json summary).
Exit status: 0, or 1 when a replay fails or the slope exceeds
--max-bytes-per-request.
"""

import argparse
import json
import os
import subprocess
import sys


def peak_rss_bytes(cmd):
    """Run @cmd with stdout discarded; (exit status, its ru_maxrss)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024  # Linux: KiB


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("pimserve")
    parser.add_argument("topology")
    parser.add_argument("small", type=int)
    parser.add_argument("large", type=int)
    parser.add_argument("--max-bytes-per-request", type=float)
    parser.add_argument("--json")
    args = parser.parse_args()
    if not 0 < args.small < args.large:
        parser.error("need 0 < N1 < N2")

    rss = []
    for n in (args.small, args.large):
        cmd = [args.pimserve, "--demo-trace", "--topology", args.topology,
               "--demo-requests", str(n)]
        if n == args.large and args.json:
            cmd += ["--json", args.json]
        status, peak = peak_rss_bytes(cmd)
        if status != 0:
            print(f"request_memory: {' '.join(cmd)} exited {status}",
                  file=sys.stderr)
            return 1
        rss.append(peak)

    slope = (rss[1] - rss[0]) / (args.large - args.small)
    print(json.dumps({
        "topology": args.topology,
        "requests": [args.small, args.large],
        "peak_rss_mb": [round(r / 2**20, 1) for r in rss],
        "bytes_per_request": round(slope, 1),
    }))
    limit = args.max_bytes_per_request
    if limit is not None and slope > limit:
        print(f"request_memory: {slope:.1f} B/request over {args.topology}"
              f" exceeds the {limit:g} B/request gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
