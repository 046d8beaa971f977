"""A fixed reference computation that measures the machine's speed now.

The benchmark's host is shared: its speed drifts by up to 2x within
seconds (README), and a whole run can fall in a slow spell.  So every
timed span is run by `run_sampled`, which runs `kernel` before and after
it and every SAMPLE_EVERY_S while it runs.  The span's time divided by
the kernel's time over the span, multiplied by `KERNEL_REF_S`, the
kernel's time on the reference machine, is the span's time at reference
speed (`at_reference_speed`).

The kernel mixes the two kinds of work the package's jobs and its
import do in the interpreter: scalar float arithmetic through Python
calls, and allocation of small objects and bytes.  It is pure Python and
imports only built-in modules and `signal`, so it can run in a fresh
interpreter before the package or numpy is imported.  The garbage
collector is off while it runs, so the size of the caller's heap does
not change its time.
"""

from __future__ import annotations

import gc
import math
import signal
from time import perf_counter

# The kernel's time on the reference machine (README) in a calm spell, as
# it runs beside the jobs: about the harmonic mean of its times there.
# With it, a job's time at reference speed is close to its wall time in
# calm spells.
KERNEL_REF_S = 0.70e-3
# Wall time between kernel runs inside a span; they add about 1% to it.
SAMPLE_EVERY_S = 0.05

_BLOCK = bytes(range(256)) * 320


def _work() -> float:
    acc = 0.0
    for i in range(1700):
        acc += math.sqrt(i + 1.0) * math.sin(acc)
    rows = []
    for i in range(600):
        rows.append({"i": i, "s": str(i), "p": (i, acc + i)})
    pieces = [_BLOCK[j:j + 64] for j in range(0, len(_BLOCK), 64)]
    return acc + len(rows) + len(pieces)


def kernel() -> float:
    """Wall time (s) of one execution of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_sampled(fn, *args):
    """Call fn(*args) between two kernel runs, and run the kernel every
    SAMPLE_EVERY_S of wall time while it runs (on SIGALRM, so only in the
    main thread).

    Returns (result, error, seconds, kernel times): `error` is the
    exception fn raised, or None, and `seconds` is fn's wall time without
    the kernel runs made inside it.
    """
    samples = [kernel()]
    inside = 0.0

    def on_alarm(signum, frame):
        nonlocal inside
        t0 = perf_counter()
        samples.append(kernel())
        inside += perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    result = error = None
    t0 = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the caller counts it
        error = exc
    finally:
        seconds = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(kernel())
    return result, error, seconds - inside, samples


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    """A span's time (s) at reference speed, from its kernel times.

    Work done at a speed proportional to 1/k(t) over the span adds up to
    the span's time over the harmonic mean of the kernel times sampled
    evenly in it.
    """
    return seconds * KERNEL_REF_S * sum(1.0 / k for k in samples) / len(samples)
