"""Speed meter: times a tiny fixed kernel every PERIOD_S seconds.

    python3 perfbench/meter.py

run.py starts it on the CPU a pass runs on, before the pass, and stops it
after.  It prints `ready` once warm; on SIGTERM it prints its samples as
one JSON list of [start, seconds] pairs (start on CLOCK_MONOTONIC) and
exits.  It is a process of its own and never imports the program, so what
it reads is the speed of the core, not the state of the program.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PERIOD_S = 0.01


def kernel(n: int = 40) -> int:
    """Dict-of-dict integer accumulation, the program's kind of work."""
    acc: dict = {}
    for i in range(n):
        d = acc.setdefault((i % 97, i % 89), {})
        for e in range(6):
            k = e + i % 5
            d[k] = d.get(k, 0) + i * e
    return len(acc)


def main() -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    for _ in range(50):          # let the interpreter specialise the kernel
        kernel()
    print("ready", flush=True)
    samples = []
    while not stopped:
        kernel()                 # refill the caches the pass has evicted
        start = time.monotonic()
        kernel()
        samples.append([start, time.monotonic() - start])
        time.sleep(PERIOD_S)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
