"""How fast the shared machine runs right now, for scaling timings.

The CPUs this benchmark runs on are shared with other tenants, and
their speed drifts: every op runs up to about 1.8 times slower in
spells of seconds, and the machine moves between faster and slower
states over minutes.  `machine_probe()` times a fixed mix of the kinds
of work grsdual does, next to each timing, and `scaled()` turns a wall
time into seconds at the reference speed, the speed at which the probe
takes exactly REF_PROBE_S.  The probe never calls grsdual, so a change
to grsdual moves scaled times as it moves wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_PROBE_S = 0.010
# Probes on each side of an op that smoothed() takes into its median.
SMOOTH = 2

_SMALL = np.arange(1 << 16, dtype=np.int64)[::-1].copy()
_SMALL_INDEX = np.random.default_rng(0).integers(0, 1 << 16, 1 << 16)
# 8 MiB, more than a core's own caches hold; it adds about 10 MB to
# the benchmark's peak_rss_mb.
_LARGE = np.random.default_rng(1).integers(0, 1 << 20, 1 << 20)
_LARGE_INDEX = np.random.default_rng(2).integers(0, 1 << 20, 1 << 17)


def machine_probe():
    """Seconds a fixed mix of work takes now, about 10 ms.

    The mix has the four kinds of work grsdual does: a Python integer
    loop, building and sorting a dict of tuples, and int64 table gathers
    with modular adds on a table that fits in cache and on one that
    does not.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(25000):
        acc += i * i % 7
    d = {}
    for i in range(5000):
        d[(i * 7919) % 5003] = (i, str(i))
    sorted(d.items(), key=lambda kv: kv[1][1])
    v = _SMALL_INDEX
    for _ in range(4):
        v = (_SMALL[v] + v) % 65521
    w = _LARGE_INDEX
    (_LARGE[w] + w) & ((1 << 20) - 1)
    return time.perf_counter() - t0


def smoothed(probes, i):
    """The machine's probe time at op i of a round, whose ops are
    bracketed by probes[i] and probes[i + 1]: the median of the probes
    within SMOOTH ops of it, so one disturbed probe does not set it."""
    return statistics.median(probes[max(0, i - SMOOTH):i + SMOOTH + 2])


def scaled(wall, probe):
    """Seconds at the reference speed for `wall` seconds measured next
    to a probe of `probe` seconds."""
    return wall * REF_PROBE_S / probe
