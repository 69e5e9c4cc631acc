"""Spawns the benchmark's child processes and reports each one's exit and peak RSS.

On Linux a child's `ru_maxrss` starts from the process that spawned it: a
forked child starts with its parent's RSS, and a vforked or posix_spawned
one (as `subprocess` uses) records its parent's peak RSS at exec. run.py
holds numpy, rkpf and set-up data, so it starts this small stdlib-only
process before it imports any of them and spawns every timed child here.

Protocol, one JSON object per line: run.py writes
`{"argv", "env", "cwd", "log", "timeout"}` to stdin; this process answers
`{"code", "maxrss_kib", "killed"}` on stdout once the child has ended. A
child still running after `timeout` seconds is killed. Closing stdin ends
this process.
"""
import json
import os
import subprocess
import sys
import threading


def spawn(request: dict) -> dict:
    with open(request["log"], "ab") as log:
        proc = subprocess.Popen(
            request["argv"], stdout=log, stderr=subprocess.STDOUT,
            env=request["env"], cwd=request["cwd"],
        )
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(request["timeout"], kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "maxrss_kib": usage.ru_maxrss, "killed": killed.is_set()}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
