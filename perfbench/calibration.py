"""The machine's speed right now, from a fixed loop that does not touch toriclab.

A shared host changes speed by up to 2x within seconds and for minutes at a
time, and no process can see it except by timing work.  ``loop()`` times a
fixed piece of work with three parts, each one a kind of work toriclab does:

- dictionary updates keyed by frozensets (the interpreter and allocator),
- a dependent walk through a 256 KiB table (memory latency),
- encoding, decoding and hashing a small JSON document (C library code).

A time ``t`` measured while one loop takes ``s`` seconds is reported as
``t * REF_S / s``: the time it would have taken at the speed at which the
loop takes ``REF_S``, the loop's time when a shared 2-vCPU VM is fast.  The
loop's work is fixed, so a change to toriclab moves reported times exactly
as it moves wall times at a steady speed.  The loop slows somewhat more than
toriclab does when the host slows, so a slow host reads a few percent fast.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from array import array

REF_S = 0.0004
DICT_ITEMS = 400
WALK_STEPS = 1000
JSON_ROUNDS = 5
# A full-period linear congruential step modulo 2^16 (a = 1 mod 4, c odd):
# the walk visits the table in an order the prefetcher cannot follow.
_TABLE_BITS = 16
_TABLE = array("i", ((5 * j + 1) & ((1 << _TABLE_BITS) - 1) for j in range(1 << _TABLE_BITS)))
_DOCUMENT = {"edges": [[i, (i * 7 + 1) % 61] for i in range(60)], "name": "calibration"}


def _work() -> None:
    counts: dict = {}
    for i in range(DICT_ITEMS):
        key = frozenset((i % 61, i % 7))
        counts[key] = counts.get(key, 0) + 1
    j = 0
    for _ in range(WALK_STEPS):
        j = _TABLE[j]
    for _ in range(JSON_ROUNDS):
        text = json.dumps(_DOCUMENT, sort_keys=True)
        json.loads(text)
        hashlib.sha256(text.encode()).hexdigest()


def loop() -> float:
    """Wall time of the fixed work.  It runs once untimed first, so that its
    code and data are back in the caches whatever ran before it, and the
    collector is paused, so that the time depends on neither the program's
    cache footprint nor the size of its heap."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = clock()
        _work()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def speed_now(samples: int = 9) -> float:
    """Median of ``samples`` loops: seconds per loop right now."""
    return statistics.median(loop() for _ in range(samples))
