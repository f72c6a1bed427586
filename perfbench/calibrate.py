"""A fixed reference loop that measures how fast the host runs Python.

Runs on the server's CPU next to the server, one short chunk of fixed
work (JSON encoding and dict inserts, the server's own staple) every
40 ms, about 4% of the CPU.  Each chunk's thread CPU time tracks the
speed the host currently gives that CPU: it excludes steal and time the
server holds the CPU, but not a slower clock, a busy sibling
hyperthread or a contended cache.  On ``SIGTERM`` it writes its samples,
``[[perf_counter at start, chunk CPU seconds], ...]``, as one JSON line
on stdout and exits.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PAYLOAD = [
    {"influence": 0.001 * i, "keynode": i, "members": list(range(i, i + 30)), "size": 30}
    for i in range(40)
]
PERIOD_S = 0.04


def chunk() -> None:
    for _ in range(3):
        json.dumps(PAYLOAD, sort_keys=True)
        table = {}
        for i in range(300):
            table[str(i)] = i


def main() -> int:
    stopping = False

    def stop(_signum, _frame):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    samples = []
    while not stopping:
        started = time.perf_counter()
        cpu = time.thread_time()
        chunk()
        samples.append((started, time.thread_time() - cpu))
        time.sleep(PERIOD_S)
    sys.stdout.write(json.dumps(samples) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
