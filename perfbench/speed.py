"""Timing corrected for the host's momentary speed.

On the shared two-core host this benchmark was built on, the same Python
code runs in one of two speeds that alternate every few seconds to tens of
seconds, about 1.7 times apart (other tenants contend for the core and its
caches).  Medians of raw seconds over a 30 s run then moved by 17-52%
(quartile spread over ten seeds), far above any useful bound.

So every timed sample is bracketed by a short fixed calibration workload of
the same kind as odelump's inner loops (exact rational sums keyed by
exponent tuples, a sort, string building and a regular-expression scan), and
scaled to the duration that calibration has on a reference host:

    seconds = raw seconds * REFERENCE_S / mean(calibration before, after)

The reported figures are thus seconds on a host where ``calibrate()`` takes
``REFERENCE_S``.  The calibration uses no odelump code, so a change to
odelump moves only the numerator.  Raw seconds and calibration times are kept
in ``Clock.log``.
"""

from __future__ import annotations

import re
import time
from fractions import Fraction

REFERENCE_S = 0.06
_WORD = re.compile(r"[a-z]\w*")


def calibrate() -> int:
    acc = {}
    zero = Fraction(0)
    for i in range(15000):
        key = ((i % 89, 1 + i % 3), (89 + i % 13, 1))
        acc[key] = acc.get(key, zero) + Fraction(i % 17 - 8, 1 + i % 5)
    text = " + ".join(f"{c}*x{k[0][0]}*y{k[1][0]}" for k, c in sorted(acc.items()))
    return len(_WORD.findall(text))


def calibration_s() -> float:
    started = time.perf_counter()
    calibrate()
    return time.perf_counter() - started


class Clock:
    """Measures calls in host-speed-corrected seconds."""

    def __init__(self):
        self.before = calibration_s()
        self.log = []

    def measure(self, fn):
        """Run ``fn()``; return its corrected duration and the scale applied."""
        started = time.perf_counter()
        fn()
        raw = time.perf_counter() - started
        after = calibration_s()
        scale = REFERENCE_S / ((self.before + after) / 2)
        self.log.append({"raw_s": raw, "calibration_before_s": self.before,
                         "calibration_after_s": after})
        self.before = after
        return raw * scale, scale
