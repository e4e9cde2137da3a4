"""Start benchmark commands from a process with a small memory footprint.

When a process calls exec, Linux folds the high-water RSS of the memory it
is leaving into the new program's peak RSS. A command started straight
from the benchmark process would therefore report at least the
benchmark's own size. This helper, run as ``python3 -I -S spawn.py`` from
the directory the commands should run in, stays near the interpreter's
baseline and starts the commands for it.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "stderr": path, "timeout": seconds}``;
one JSON reply per line on stdout,
``{"wall_s": float, "maxrss_kb": int, "returncode": int}``.
The command runs in a process group of its own, with stdin and stdout on
/dev/null; on timeout the whole group is killed. The helper exits at
end of input.
"""

import json
import os
import signal
import sys
import time

running = [0]


def kill_group(*_):
    if running[0]:
        try:
            os.killpg(running[0], signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def main():
    signal.signal(signal.SIGALRM, kill_group)
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (
                os.POSIX_SPAWN_OPEN,
                2,
                request["stderr"],
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644,
            ),
        ]
        argv = request["argv"]
        started = time.perf_counter()
        running[0] = os.posix_spawn(
            argv[0], argv, request["env"], file_actions=actions, setsid=True
        )
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        _, status, usage = os.wait4(running[0], 0)
        wall = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        # Pool workers normally end with their parent; make sure.
        kill_group()
        running[0] = 0
        reply = {
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "returncode": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
