"""Start, time and reap the benchmark's child processes.

    python3 perfbench/launcher.py

reads one JSON request per line on standard input,
``{"argv": [...], "cwd": "...", "limit": seconds}``, runs it with stdout
and stderr sent to files in cwd, and answers one JSON line,
``{"exit": code or null on timeout, "seconds": spawn to exit, "rss_kb": peak}``.

It exists so that children are started from a small process: Linux
charges the parent's resident set, as it was when the child called exec,
to the child's ``ru_maxrss``, and the benchmark itself holds NumPy and
SciPy.  Only the standard library is imported here.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

_current = []


def _wait_exit(pid: int, limit: float) -> bool:
    """Wait until pid exits (left unreaped) or limit passes; True if it exited."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], limit)
        return bool(ready)
    finally:
        os.close(fd)


def spawn(argv: list, cwd: str, limit: float) -> dict:
    with open(os.path.join(cwd, "stdout"), "wb") as out, \
            open(os.path.join(cwd, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    _current.append(proc)
    try:
        exited = _wait_exit(proc.pid, limit)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        _current.pop()
    return {"exit": proc.returncode if exited else None, "seconds": seconds,
            "rss_kb": usage.ru_maxrss}


def _terminate(signum, frame):
    for proc in _current:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    sys.exit(1)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["cwd"], req["limit"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
