"""Runs the CLI commands of the cli-documents workload from a small process.

A child's peak resident size, as the kernel reports it, is at least the
resident size of the process that spawned it, so commands spawned by the
benchmark itself would report the benchmark's memory.  This launcher
imports nothing heavy; it reads one JSON argv per line on standard input,
runs it, and answers with one JSON line: exit code, stderr and the child's
peak resident size in KiB.
"""

import json
import os
import subprocess
import sys

for line in sys.stdin:
    proc = subprocess.Popen(
        json.loads(line), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reply = {"code": proc.returncode, "stderr": stderr, "maxrss_kb": usage.ru_maxrss}
    print(json.dumps(reply), flush=True)
