"""Small launcher process that starts the benchmarked commands.

Linux carries a process's peak RSS across ``exec``: a child forked from
a large parent reports at least the parent's resident size as its own
``ru_maxrss``.  The benchmark's main process holds numpy and the
generated graph, so it starts this launcher first, while it is still
small, and every sagad command is started from here.  Each command's
``wait4`` peak RSS is then its own process tree's, plus at most this
launcher's few MB.

Protocol: one JSON request per line on stdin (``argv``, ``env``,
``cwd``, ``log``, ``timeout``), one JSON reply per line on stdout
(``exit_code``, ``wall_s``, ``cpu_s``, ``maxrss_kb``).  The launcher
exits at end of input.  It imports only the standard library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_one(req: dict) -> dict:
    with open(req["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"], stdout=log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            killer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


class Launcher:
    """Client side: owns the launcher process and sends it one command at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict, cwd: str, log: str, timeout: float) -> dict:
        request = {"argv": argv, "env": env, "cwd": cwd, "log": log, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        """End the launcher and wait for it; kill it if it does not end."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_one(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
