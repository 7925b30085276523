#!/usr/bin/env python3
"""Splits the request_cost server child's peak resident set by mapping.

Runs one untraced bench/request_cost/bench.sh invocation and polls the
server child's /proc/<pid>/smaps every 0.2 s. At the highest VmRSS seen
it prints the resident KB of

  - each library segment (one row per file-backed mapping: file, permissions),
  - the main heap ([heap]),
  - each glibc thread arena (64 MB-aligned anonymous heaps),
  - each thread's stack (the mapping that holds the thread's stack pointer,
    read from /proc/<pid>/task/<tid>/syscall while the thread sleeps),
  - the rest of anonymous memory ([vdso], [vvar], .bss tails, large malloc
    chunks),

next to VmRSS and VmHWM at that moment and the run's own server_rss_mb.

It reads only the /proc files of the benchmark process and its children and
changes nothing under bench/request_cost.

Usage:
    tools/rss_by_mapping.py --workload phttp_extlard [--seed 11] [--seconds 30]
Extra environment for the benchmark (e.g. LD_BIND_NOW=1, as a diagnostic)
passes through from the caller's environment.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ARENA_ALIGN = 64 << 20  # glibc HEAP_MAX_SIZE on 64-bit
POLL_S = 0.2
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return None


def status_kb(pid, field):
    text = read(f"/proc/{pid}/status") or ""
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def children(pid):
    found = []
    for tid in os.listdir(f"/proc/{pid}/task") if os.path.isdir(f"/proc/{pid}/task") else []:
        text = read(f"/proc/{pid}/task/{tid}/children") or ""
        found.extend(int(child) for child in text.split())
    return found


def exe(pid):
    try:
        return os.readlink(f"/proc/{pid}/exe")
    except OSError:
        return ""


def parse_smaps(text):
    """[(start, end, perms, path, rss_kb)] in address order."""
    mappings = []
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if "-" in fields[0] and not fields[0].endswith(":"):
            start, end = (int(x, 16) for x in fields[0].split("-"))
            path = fields[5] if len(fields) > 5 else ""
            mappings.append([start, end, fields[1], path, 0])
        elif fields[0] == "Rss:" and mappings:
            mappings[-1][4] = int(fields[1])
    return mappings


def stack_pointers(pid):
    """tid -> (thread name, stack pointer) for threads blocked in a syscall."""
    out = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        fields = (read(f"/proc/{pid}/task/{tid}/syscall") or "").split()
        name = (read(f"/proc/{pid}/task/{tid}/comm") or "?").strip()
        # "<nr> <6 args> <sp> <pc>" while blocked; "running" otherwise.
        if len(fields) >= 9:
            out[int(tid)] = (name, int(fields[-2], 16))
    return out


def classify(mappings, sps, pid):
    rows = []
    other = 0
    for start, end, perms, path, rss in mappings:
        owners = [f"{name} {tid}" for tid, (name, sp) in sorted(sps.items()) if start <= sp < end]
        if path == "[heap]":
            rows.append(("main heap", rss))
        elif path == "[stack]" or owners:
            label = ", ".join(owners) if owners else f"main thread {pid}"
            rows.append((f"stack: {label}", rss))
        elif path.startswith("/"):
            rows.append((f"{os.path.basename(path)} {perms}", rss))
        elif not path and start % ARENA_ALIGN == 0 and "rw" in perms:
            rows.append((f"arena @{start:#x}", rss))
        else:
            other += rss
    rows.append(("other anonymous (incl. [vdso], [vvar])", other))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    # The run's stdout goes to a file: a pipe read only at the end could fill
    # and stall the run.
    output = tempfile.TemporaryFile(mode="w+")
    bench = subprocess.Popen(
        ["bash", os.path.join(ROOT, "bench", "request_cost", "bench.sh"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        stdout=output, text=True)
    # bench.sh builds first, then execs request_cost, which forks the server.
    best = {}  # server pid -> (vmrss, vmhwm, smaps text, stack pointers)
    while bench.poll() is None:
        if exe(bench.pid).endswith("/request_cost"):
            for child in children(bench.pid):
                rss = status_kb(child, "VmRSS")
                if rss > best.get(child, (0,))[0]:
                    smaps = read(f"/proc/{child}/smaps")
                    if smaps:
                        best[child] = (rss, status_kb(child, "VmHWM"), smaps,
                                       stack_pointers(child))
        time.sleep(POLL_S)
    output.seek(0)
    stdout = output.read()
    if bench.returncode != 0 or not best:
        sys.exit(f"rss_by_mapping: bench exited {bench.returncode}, "
                 f"{len(best)} server snapshots")

    server = max(best, key=lambda pid: best[pid][0])
    vmrss, vmhwm, smaps, sps = best[server]
    rows = classify(parse_smaps(smaps), sps, server)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s; "
          f"server pid {server}, smaps at the highest VmRSS seen")
    for label, kb in rows:
        print(f"{kb:8d} KB  {label}")
    print(f"{sum(kb for _, kb in rows):8d} KB  sum of smaps Rss")
    print(f"{vmrss:8d} KB  VmRSS at the snapshot")
    print(f"{vmhwm:8d} KB  VmHWM at the snapshot")
    lines = stdout.strip().splitlines()
    try:
        rss_mb = json.loads(lines[-1])["metrics"]["server_rss_mb"]["value"]
        print(f"{rss_mb * 1024:8.0f} KB  the run's server_rss_mb")
    except (IndexError, ValueError, KeyError, TypeError):
        print("(no server_rss_mb in the run's last output line)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
