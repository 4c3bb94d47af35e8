"""Times scaled to a reference machine speed.

The host speed drifts: on the 2-vCPU KVM guest this benchmark was built on,
the same op ran up to 1.6x slower for seconds to minutes at a time.  So
every timed interval is also scaled, by a fixed loop's time, to what it
would take when that loop takes REFERENCE_LOOP_S (its usual time on that
guest).  The loop runs no qgreedy code, so no change to the package can
move it.

``timed`` times the loop just before and just after the interval.  An op
of seconds spans many speed changes that those two timings cannot see, so
``probed`` also times the loop on a timer all through the op.
"""

import signal
from time import perf_counter

REFERENCE_LOOP_S = 1.6e-3
PROBE_INTERVAL_S = 0.05


def _reference_loop() -> None:
    """Fixed dict, list, sort and set work."""
    adj: dict[int, list[int]] = {}
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        adj.setdefault(i % 500, []).append(x % 500)
    seen: set[int] = set()
    for k in sorted(adj, key=lambda k: (len(adj[k]), k)):
        if k not in seen:
            seen.update(adj[k])
            seen.add(k)


def loop_seconds() -> float:
    """Best of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _reference_loop()
        best = min(best, perf_counter() - start)
    return best


def timed(fn, *args):
    """(fn(*args), wall seconds, scaled seconds)."""
    before = loop_seconds()
    start = perf_counter()
    result = fn(*args)
    wall = perf_counter() - start
    return result, wall, wall * REFERENCE_LOOP_S / ((before + loop_seconds()) / 2)


def _trimmed_mean(values, cut=0.1):
    values = sorted(values)
    k = int(len(values) * cut)
    values = values[k:len(values) - k]
    return sum(values) / len(values)


def probed(fn, *args):
    """(fn(*args), wall seconds, scaled seconds), for ops of a second or more.

    A SIGALRM timer runs the reference loop every PROBE_INTERVAL_S while fn
    runs, in the same process.  The loop's own time is taken out of the
    wall time, and the rest is scaled by the trimmed mean of the loop
    timings, one just before fn and one just after it included.
    """
    samples: list[float] = []
    inside = 0.0
    busy = False

    def probe(signum=None, frame=None) -> None:
        nonlocal inside, busy
        if busy:  # a signal that arrives while a probe runs
            return
        busy = True
        start = perf_counter()
        _reference_loop()
        took = perf_counter() - start
        samples.append(took)
        if signum is not None:
            inside += took
        busy = False

    previous = signal.signal(signal.SIGALRM, probe)
    probe()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    probe()
    wall -= inside
    return result, wall, wall * REFERENCE_LOOP_S / _trimmed_mean(samples)
